"""Experiment orchestrator CLI.

Subcommands:
    gen-network       materialize one network and its statistics
    sample-personas   sample (optionally pinned) persona cohorts
    run               execute one plan: replications x news items
    sweep-personality trait x level pinned cohorts on the configured network
    compare           network kinds x interventions cross product
    stats             aggregate a directory of run records
    export-plot-data  flatten summaries into per-figure data tables

The first five are plan commands. Their handlers live in `plan`, which is
imported only for them. `stats` and `export-plot-data` load the record
reader, the aggregator and the output writers: no numpy, no simulation
module, no config loader (the parser's kind tuples live in the package's
`__init__`) and no dataclasses.

Every output embeds provenance (config hash, master seed, policy kind,
template hashes, cache hash), and plan.json keeps each cell config the run
records name by hash, sufficient to replay the experiment exactly.
Outputs contain no timestamps or absolute paths, so rerunning an unchanged
plan rewrites byte-identical files.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path

from . import NETWORK_KINDS, POLICY_KINDS, stats
from .output import _provenance_comment, _write_summary, _write_text
from .record import RunRecord


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _read_json(path: Path, parse=json.loads):
    """parse(path's text); a ValueError, invalid JSON included, names the file."""
    try:
        return parse(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def cmd_stats(args) -> int:
    """Aggregate the records plan.json lists.

    Records are grouped by --group-by, else by plan.json's `group_by`, the
    keys the plan command grouped by (network,intervention for a plan.json
    written without it). A record under runs/ that plan.json does not list,
    or whose config_sha is not a key of plan.json's `configs`, is refused,
    not ignored. So is a plan that lists one file twice, or a file that is
    not runs/<name>.json.
    """
    results = Path(args.results)
    plan_path = results / "plan.json"
    if not plan_path.exists():
        print(f"error: no plan.json under {results}", file=sys.stderr)
        return 2
    plan = _read_json(plan_path)
    cells = plan.get("cells") if isinstance(plan, dict) else None
    if not (isinstance(cells, list)
            and all(isinstance(c, dict) and isinstance(c.get("file"), str) for c in cells)
            and isinstance(plan.get("configs", {}), dict)
            and isinstance(plan.get("provenance", {}), dict)
            and isinstance(group_by := plan.get("group_by", ["network", "intervention"]), list)
            and all(isinstance(key, str) for key in group_by)):
        raise ValueError(f"{plan_path}: not a plan: it needs a `cells` list of objects with a "
                         "string `file`, `configs` and `provenance` must be objects, and "
                         "`group_by` a list of strings")
    paths = [results / cell["file"] for cell in cells]
    listed = set()
    for cell, path in zip(cells, paths):
        if path in listed or path.parent != results / "runs" or path.suffix != ".json":
            problem = "is listed twice" if path in listed else "is not runs/<name>.json"
            raise ValueError(f"{plan_path}: cell file {cell['file']!r} {problem}")
        listed.add(path)
    stray = sorted(set((results / "runs").glob("*.json")) - listed)
    if stray:
        print(f"error: {results / 'runs'} holds records plan.json does not list: "
              f"{', '.join(p.name for p in stray)}", file=sys.stderr)
        return 2
    configs = plan.get("configs", {})
    rows = []  # only what the summary reads of each record it has validated
    for path in paths:
        rec = _read_json(path, RunRecord.from_json)
        if rec.meta["config_sha"] not in configs:
            print(f"error: {path}: config_sha {rec.meta['config_sha']!r} is not a key of "
                  "plan.json's configs", file=sys.stderr)
            return 2
        rows.append(stats.SummaryRow.of(rec))
    if not rows:
        print(f"error: no run records under {results}", file=sys.stderr)
        return 2
    group_by = tuple(group_by if args.group_by is None else args.group_by.split(","))
    summary = stats.aggregate_experiment(
        rows, group_by, include_non_effective=args.include_non_effective
    )
    _write_summary(Path(args.out or args.results), summary, plan.get("provenance", {}))
    print(f"aggregated {len(rows)} records into {len(summary.groups)} groups "
          f"by {','.join(group_by)}")
    return 0


def _read_plot_groups(path: Path) -> tuple[dict, dict]:
    """(provenance, groups) of a summary.json; a ValueError names the file and bad key."""
    doc = _read_json(path)
    summary = doc.get("summary") if isinstance(doc, dict) else None
    groups = summary.get("groups") if isinstance(summary, dict) else None
    if not (isinstance(groups, dict) and groups):
        raise ValueError(f"{path}: `summary.groups` is missing, empty or not an object")
    if not isinstance(doc.get("provenance", {}), dict):
        raise ValueError(f"{path}: `provenance` is not an object")
    for label, g in groups.items():
        days = g.get("days") if isinstance(g, dict) else None
        for key in ("reached_mean", "reached_sd", "forwarded_mean", "forwarded_sd"):
            if not (isinstance(days, int) and isinstance(g.get(key), list) and len(g[key]) > days):
                raise ValueError(f"{path}: group {label!r} lacks `days` or a full `{key}` list")
    return doc.get("provenance", {}), groups


def cmd_export_plot_data(args) -> int:
    results = Path(args.results)
    summary_path = results / "summary.json"
    if not summary_path.exists():
        print(f"error: no summary.json under {results}", file=sys.stderr)
        return 2
    prov, groups = _read_plot_groups(summary_path)
    out_dir = Path(args.out)
    for metric in ("reached", "forwarded"):
        lines = [_provenance_comment(prov)]
        lines.append("day\tgroup\tmean\tsd\n")
        for label, g in sorted(groups.items()):
            means = g[f"{metric}_mean"]
            sds = g[f"{metric}_sd"]
            for day in range(g["days"] + 1):
                lines.append(f"{day}\t{label}\t{means[day]!r}\t{sds[day]!r}\n")
        _write_text(out_dir / f"figure_{metric}.tsv", "".join(lines))
    print(f"wrote plot data for {len(groups)} groups to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _positive_int(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="newssim", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-network", help="materialize one network and its statistics")
    p.add_argument("--kind", required=True, choices=NETWORK_KINDS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--edge-prob", type=float, default=None)
    # unset network flags take the defaults `network.*` has in a config
    p.add_argument("--attach-m", type=int, default=None)
    p.add_argument("--community-size", type=int, default=None)
    p.add_argument("--rewire-p", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func="cmd_gen_network")

    p = sub.add_parser("sample-personas", help="sample a persona cohort to a TSV file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pin", default=None, metavar="TRAIT=LEVEL")
    p.add_argument("--pin-offset", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func="cmd_sample_personas")

    def _common_run_args(p):
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=None, help="override master seed")
        p.add_argument("--parallel", type=_positive_int, default=1)
        p.add_argument("--cache-path", default=None,
                       help="override the llm transcript cache path")

    p = sub.add_parser("run", help="execute one experiment plan")
    _common_run_args(p)
    p.add_argument("--policy", choices=POLICY_KINDS, default=None)
    p.set_defaults(func="cmd_run")

    p = sub.add_parser("sweep-personality", help="pinned trait x level sweep")
    _common_run_args(p)
    p.set_defaults(func="cmd_sweep_personality")

    p = sub.add_parser("compare", help="network x intervention cross product")
    _common_run_args(p)
    p.set_defaults(func="cmd_compare")

    p = sub.add_parser("stats", help="aggregate a directory of run records")
    p.add_argument("--results", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--group-by", default=None,
                   help="comma-separated label keys (default: the plan's grouping)")
    p.add_argument("--include-non-effective", action="store_true")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("export-plot-data", help="flatten summaries into figure tables")
    p.add_argument("--results", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_plot_data)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # ValueError covers ingest.ConfigError and ingest.NewsFormatError
    func, errors = args.func, (ValueError, OSError)
    if isinstance(func, str):  # a plan command, named by its handler in plan.py
        from . import plan

        func, errors = getattr(plan, func), errors + plan.ERRORS
    if argv is None:
        # the process's own command line (the console script, `python -m`):
        # what it has imported lives until exit, so no collection, the one at
        # exit included, needs to walk it; an in-process caller keeps its gc
        gc.freeze()
    try:
        return func(args)
    except errors as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
