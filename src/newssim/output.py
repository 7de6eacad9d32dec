"""Writers of a plan's output tree: canonical JSON, and summary tables with
provenance comments, each written whole or not at all.

`cli` (for `stats` and `export-plot-data`) and `plan` both write through
this module, so a plan process loads `cli` once, as its `__main__`.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path

from .stats import ExperimentSummary


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write_text(path: Path, text: str) -> None:
    """Write through a temp file in the same directory, so `path` is never left torn."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _provenance_comment(prov: dict) -> str:
    return "".join(f"# {k}: {json.dumps(v, sort_keys=True)}\n" for k, v in sorted(prov.items()))


def _write_summary(out_dir: Path, summary: ExperimentSummary, prov: dict) -> None:
    doc = {"provenance": prov, "summary": summary.to_dict()}
    _write_text(out_dir / "summary.json", _canonical_json(doc))
    _write_series_tsv(out_dir / "curves.tsv", summary, prov)
    _write_comparisons_tsv(out_dir / "comparisons.tsv", summary, prov)


def _write_series_tsv(path: Path, summary: ExperimentSummary, prov: dict) -> None:
    lines = [_provenance_comment(prov)]
    lines.append("metric\tgroup\tday\tmean\tsd\n")
    for label, g in sorted(summary.groups.items()):
        for day in range(g.days + 1):
            lines.append(
                f"reached\t{label}\t{day}\t{g.reached_mean[day]!r}\t{g.reached_sd[day]!r}\n"
            )
            lines.append(
                f"forwarded\t{label}\t{day}\t{g.forwarded_mean[day]!r}\t{g.forwarded_sd[day]!r}\n"
            )
    _write_text(path, "".join(lines))


def _write_comparisons_tsv(path: Path, summary: ExperimentSummary, prov: dict) -> None:
    lines = [_provenance_comment(prov)]
    lines.append("metric\tgroup_a\tgroup_b\tn_a\tn_b\tu\tp_value\tsignificant\tmethod\n")
    for metric, comps in sorted(summary.comparisons.items()):
        for c in comps:
            lines.append(
                f"{metric}\t{c.group_a}\t{c.group_b}\t{c.n_a}\t{c.n_b}\t"
                f"{c.u_statistic!r}\t{c.p_value!r}\t{int(c.significant)}\t{c.method}\n"
            )
    _write_text(path, "".join(lines))
