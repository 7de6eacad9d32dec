"""Output checks and digests for one executed plan."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path


def _series_problem(rec: dict, days: int) -> str | None:
    series = rec["series"]
    reached, forwarded = series["reached_prop"], series["forwarded_prop"]
    for name, values in (("reached", reached), ("forwarded", forwarded)):
        if len(values) != days + 1:
            return f"{name} series has {len(values)} points, expected {days + 1}"
        if any(not 0.0 <= v <= 1.0 for v in values):
            return f"{name} series leaves [0, 1]"
        if any(b < a for a, b in zip(values, values[1:])):
            return f"{name} series decreases"
    if any(f > r for f, r in zip(forwarded, reached)):
        return "forwarded exceeds reached"
    return None


def _cell_problem(out_dir: Path, cell: dict, days: int) -> str | None:
    try:
        rec = json.loads((out_dir / cell["file"]).read_text(encoding="utf-8"))
        labels = rec["meta"]["labels"]
        if labels["replicate"] != cell["replicate"] or labels["news_id"] != cell["news_id"]:
            return "record labels do not match its plan cell"
        return _series_problem(rec, days)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable record ({type(exc).__name__}: {exc})"


def check_plan(out_dir: Path, expected_cells: int, days: int) -> tuple[int, list[str]]:
    """Check a finished plan's out dir; return (failed cells, problems).

    A cell fails when its record is missing or fails a check. The whole plan
    fails when INCOMPLETE is left behind, plan.json lists the wrong number of
    cells, or summary.json run counts plus exclusions do not add up to the
    cells.
    """
    if (out_dir / "INCOMPLETE").exists():
        return expected_cells, ["INCOMPLETE left behind"]
    try:
        cells = json.loads((out_dir / "plan.json").read_text(encoding="utf-8"))["cells"]
    except (OSError, ValueError, KeyError) as exc:
        return expected_cells, [f"unreadable plan.json ({exc})"]
    if len(cells) != expected_cells:
        return expected_cells, [f"plan.json lists {len(cells)} cells, expected {expected_cells}"]

    problems = []
    for cell in cells:
        problem = _cell_problem(out_dir, cell, days)
        if problem:
            problems.append(f"{cell.get('file')}: {problem}")
    failed = len(problems)

    try:
        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))["summary"]
        counted = sum(g["n_runs"] for g in summary["groups"].values())
        counted += summary["excluded_non_effective"]
    except (OSError, ValueError, KeyError) as exc:
        return expected_cells, problems + [f"unreadable summary.json ({exc})"]
    if counted != expected_cells:
        return expected_cells, problems + [
            f"summary.json counts {counted} runs, expected {expected_cells}"]
    return failed, problems


def tree_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def tree_digest(directory: Path) -> str:
    """SHA-256 over every file's relative path and bytes, in path order."""
    h = hashlib.sha256()
    for p in sorted(q for q in directory.rglob("*") if q.is_file()):
        h.update(p.relative_to(directory).as_posix().encode("utf-8") + b"\0")
        h.update(p.read_bytes())
        h.update(b"\0")
    return h.hexdigest()
