"""Experiment orchestrator CLI.

Subcommands:
    gen-network       materialize one network and its statistics
    sample-personas   sample (optionally pinned) persona cohorts
    run               execute one plan: replications x news items
    sweep-personality trait x level pinned cohorts on the configured network
    compare           network kinds x interventions cross product
    stats             aggregate a directory of run records
    export-plot-data  flatten summaries into per-figure data tables

Every output embeds provenance (config hash, master seed, policy identity,
template hashes, cache hash) sufficient to replay the experiment exactly.
Outputs contain no timestamps or absolute paths, so rerunning an unchanged
plan rewrites byte-identical files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

from . import __version__, engine, ingest, netgen, persona, policy, stats
from .seeding import derive_seed


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


def _config_hash(cfg: ingest.ExperimentConfig) -> str:
    blob = json.dumps(ingest.config_snapshot(cfg), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def _provenance(cfg: ingest.ExperimentConfig, cache: policy.DecisionCache | None = None) -> dict:
    return {
        "package_version": __version__,
        "config_sha": _config_hash(cfg),
        "master_seed": cfg.master_seed,
        "policy_kind": cfg.policy_kind,
        "template_hashes": policy.template_hashes(),
        "cache_sha": cache.content_hash() if cache is not None else None,
    }


def _provenance_comment(prov: dict) -> str:
    return "".join(f"# {k}: {json.dumps(v, sort_keys=True)}\n" for k, v in sorted(prov.items()))


def connected_network(kind: str, params: dict, seed: int, retries: int = 5) -> netgen.Network:
    """Generate a network, regenerating with seed+offset if disconnected."""
    last_err = None
    for attempt in range(retries):
        try:
            net = netgen.generate(kind, params, seed + attempt)
        except netgen.NetworkGenerationError as exc:
            last_err = exc
            continue
        if netgen.is_connected(net):
            return net
        last_err = netgen.NetworkGenerationError(f"{kind} disconnected at seed {seed + attempt}")
    raise netgen.NetworkGenerationError(
        f"could not generate a connected {kind} network from seed {seed}: {last_err}"
    )


# lru_cache does not hold its lock while it builds a value: without this one,
# cells on --parallel threads would each build the same network or cohort
_replicate_lock = threading.Lock()


@lru_cache(maxsize=64)
def _cached_network(kind: str, params_items: tuple, seed: int) -> netgen.Network:
    return connected_network(kind, dict(params_items), seed)


@lru_cache(maxsize=64)
def _cached_cohort(n: int, seed: int, trait: str | None = None, level: str | None = None,
                   offset: float = 1.0) -> persona.Cohort:
    """The replicate's cohort, pinned to trait=level when a trait is given.

    A Cohort is read-only, so every cell of the replicate can share it, and
    the stub's per-cohort columns with it.
    """
    if trait:
        base = _cached_cohort(n, seed)
        return persona.Cohort(persona.pin_trait(base, trait, level, offset=offset))
    return persona.Cohort(persona.sample_personas(n, rng_seed=seed))


def _slug(text: str) -> str:
    return "".join(c if c.isalnum() or c in "-_" else "-" for c in str(text))


# ---------------------------------------------------------------------------
# run execution
# ---------------------------------------------------------------------------

def _build_cell_policy(cfg, decision_seed, cache, transport):
    if cfg.policy_kind == "stub":
        return policy.StubPolicy(policy.StubParams.from_dict(cfg.stub_params),
                                 rng_seed=decision_seed)
    settings = policy.LlmSettings.from_dict(cfg.llm_params)
    return policy.LlmPolicy(settings, cache=cache, transport=transport,
                            body_char_budget=cfg.body_char_budget)


@dataclass(frozen=True)
class Cell:
    """One plan cell: a run of `news` on replicate `replicate`, written to runs/`file`."""

    cfg: ingest.ExperimentConfig
    news: ingest.NewsItem
    replicate: int
    labels: dict
    file: str


def _execute_cell(cell: Cell, cache=None, transport=None):
    """Run one plan cell, re-running non-effective stub runs with fresh seeds."""
    cfg, rep = cell.cfg, cell.replicate
    net_seed = derive_seed(cfg.master_seed, "net", rep)
    persona_seed = derive_seed(cfg.master_seed, "personas", rep)
    trait = cell.labels.get("trait")
    pin = (trait, cell.labels["level"], cfg.sweep_offset) if trait else ()
    with _replicate_lock:
        net = _cached_network(cfg.network_kind, tuple(sorted(cfg.network_params.items())),
                              net_seed)
        personas = _cached_cohort(net.n, persona_seed, *pin)

    budget = cfg.effective_retry_budget if cfg.policy_kind == "stub" else 0
    attempt = 0
    while True:
        decision_seed = derive_seed(cfg.master_seed, "decide", rep, cell.news.news_id, attempt)
        cell_policy = _build_cell_policy(cfg, decision_seed, cache, transport)
        meta = dict(cell.labels)
        meta.update(
            {
                "replicate": rep,
                "news_id": cell.news.news_id,
                "attempt": attempt,
                "net_seed": net_seed,
                "persona_seed": persona_seed,
                "decision_seed": decision_seed,
            }
        )
        record = engine.run(cfg, net, personas, cell.news, cell_policy, extra_meta=meta)
        if record.effective or attempt >= budget:
            return record
        attempt += 1


def _run_plan(cells: list[Cell], out_dir: Path, cache=None, transport=None, parallel: int = 1):
    """Execute cells in order, writing each record to out_dir/runs/<cell.file>.

    An INCOMPLETE sentinel exists in out_dir while cells are executing; an
    interrupted plan leaves it behind along with the partial runs directory.
    """
    runs_dir = out_dir / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    sentinel = out_dir / "INCOMPLETE"
    _write_text(sentinel, "plan execution in progress or interrupted\n")

    def _one(cell):
        record = _execute_cell(cell, cache=cache, transport=transport)
        _write_text(runs_dir / cell.file, record.to_json())
        return record

    if parallel > 1:
        with ThreadPoolExecutor(max_workers=parallel) as pool:
            records = list(pool.map(_one, cells))
    else:
        records = [_one(c) for c in cells]
    sentinel.unlink()
    return records


def _write_summary(out_dir: Path, summary: stats.ExperimentSummary, prov: dict) -> None:
    doc = {"provenance": prov, "summary": summary.to_dict()}
    _write_text(out_dir / "summary.json", _canonical_json(doc))
    _write_series_tsv(out_dir / "curves.tsv", summary, prov)
    _write_comparisons_tsv(out_dir / "comparisons.tsv", summary, prov)


def _write_series_tsv(path: Path, summary: stats.ExperimentSummary, prov: dict) -> None:
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


def _write_comparisons_tsv(path: Path, summary: stats.ExperimentSummary, prov: dict) -> None:
    lines = [_provenance_comment(prov)]
    lines.append("metric\tgroup_a\tgroup_b\tn_a\tn_b\tu\tp_value\tsignificant\tmethod\n")
    for metric, comps in sorted(summary.comparisons.items()):
        for c in comps:
            lines.append(
                f"{metric}\t{c.group_a}\t{c.group_b}\t{c.n_a}\t{c.n_b}\t"
                f"{c.u_statistic!r}\t{c.p_value!r}\t{int(c.significant)}\t{c.method}\n"
            )
    _write_text(path, "".join(lines))


def _open_cache(cfg) -> policy.DecisionCache | None:
    if cfg.policy_kind != "llm":
        return None
    return policy.DecisionCache(cfg.llm_params.get("cache_path"))


def _apply_overrides(cfg, args) -> None:
    if getattr(args, "policy", None):
        cfg.policy_kind = args.policy
    if getattr(args, "seed", None) is not None:
        cfg.master_seed = args.seed
    if getattr(args, "cache_path", None):
        cfg.llm_params["cache_path"] = args.cache_path
    cfg.validate()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen_network(args) -> int:
    params: dict = {"n": args.n}
    if args.kind == "random":
        if args.edge_prob is None:
            params["edge_prob"] = 12.07 / (args.n - 1)
        else:
            params["edge_prob"] = args.edge_prob
    elif args.kind == "scale_free":
        params["attach_m"] = args.attach_m
    else:
        params["community_size"] = args.community_size
        params["rewire_p"] = args.rewire_p
    net = connected_network(args.kind, params, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    base = f"{args.kind}_seed{args.seed}"
    netgen.save_network(net, out / f"{base}.edges")
    st = netgen.stats(net)
    n, e = net.n, len(net.edges)
    doc = {
        "kind": net.kind,
        "seed": net.gen_seed,
        "n": n,
        "edges": e,
        "density_2E_over_NN1": st.density,
        "density_E_over_NN1": e / (n * (n - 1)),
        "mean_degree": st.mean_degree,
        "sd_degree": st.sd_degree,
        "avg_path_length": st.avg_path_length,
        "avg_clustering": st.avg_clustering,
        "modularity": st.modularity,
        "modularity_partition": "ground_truth" if net.communities else "detected",
        "params": params,
    }
    _write_text(out / f"{base}.stats.json", _canonical_json(doc))
    print(f"wrote {out / (base + '.edges')} and stats")
    return 0


def cmd_sample_personas(args) -> int:
    cohort = persona.sample_personas(args.n, rng_seed=args.seed)
    if args.pin:
        trait, _, level = args.pin.partition("=")
        cohort = persona.pin_trait(cohort, trait, level, offset=args.pin_offset)
    persona.save_personas(cohort, args.out)
    print(f"wrote {args.n} personas to {args.out}")
    return 0


def _news_for(cfg) -> list[ingest.NewsItem]:
    return ingest.load_news(cfg.news_path, cfg.news_limit)


def _execute_plan(args, groups, group_by: tuple):
    """Load the config, then write plan.json, the cells' records and the summary.

    groups(cfg) yields (cell_cfg, labels, file_prefix); each group expands to
    replicates x news items. plan.json and the summary carry one provenance
    dict, so `newssim stats` over the finished plan rewrites the same summary.
    """
    cfg = ingest.load_config(args.config)
    _apply_overrides(cfg, args)
    news_items = _news_for(cfg)
    out_dir = Path(args.out)
    cache = _open_cache(cfg)
    cells = [
        Cell(cell_cfg, item, rep, labels, f"{prefix}_rep{rep:03d}_news{_slug(item.news_id)}.json")
        for cell_cfg, labels, prefix in groups(cfg)
        for rep in range(cfg.replications)
        for item in news_items
    ]
    prov = _provenance(cfg, cache)
    plan = {
        "provenance": prov,
        "cells": [
            {"labels": c.labels, "replicate": c.replicate, "news_id": c.news.news_id,
             "file": f"runs/{c.file}"}
            for c in cells
        ],
    }
    _write_text(out_dir / "plan.json", _canonical_json(plan))
    records = _run_plan(cells, out_dir, cache=cache, parallel=args.parallel)
    summary = stats.aggregate_experiment(records, group_by)
    _write_summary(out_dir, summary, prov)
    return records, summary, out_dir


def cmd_run(args) -> int:
    def groups(cfg):
        yield cfg, {"network": cfg.network_kind, "intervention": cfg.intervention_kind}, "run"

    records, _, out_dir = _execute_plan(args, groups, ("network", "intervention"))
    effective = sum(1 for r in records if r.effective)
    print(f"{len(records)} runs written to {out_dir} ({effective} effective)")
    return 0


def cmd_sweep_personality(args) -> int:
    def groups(cfg):
        sweep_cfg = replace(cfg, intervention_kind="none")
        for trait in persona.TRAITS:
            for level in ("high", "low"):
                labels = {"network": cfg.network_kind, "intervention": "none",
                          "trait": trait, "level": level}
                yield sweep_cfg, labels, f"sweep_{trait}_{level}"

    records, summary, out_dir = _execute_plan(args, groups, ("trait", "level"))
    print(f"personality sweep: {len(records)} runs, {len(summary.groups)} groups -> {out_dir}")
    return 0


def cmd_compare(args) -> int:
    def groups(cfg):
        for kind in cfg.compare_networks:
            net_params = (
                cfg.network_params
                if kind == cfg.network_kind
                else ingest.default_network_params(kind, cfg.network_params.get("n", 300))
            )
            for intervention in cfg.compare_interventions:
                cell_cfg = replace(cfg, network_kind=kind, network_params=net_params,
                                   intervention_kind=intervention, cohort_size=None)
                labels = {"network": kind, "intervention": intervention}
                yield cell_cfg, labels, f"compare_{kind}_{intervention}"

    records, summary, out_dir = _execute_plan(args, groups, ("network", "intervention"))
    print(f"compare: {len(records)} runs, {len(summary.groups)} groups -> {out_dir}")
    return 0


def _read_record(path: Path) -> engine.RunRecord:
    try:
        return engine.RunRecord.from_json(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def cmd_stats(args) -> int:
    """Aggregate the records plan.json lists; without plan.json, every runs/*.json."""
    results = Path(args.results)
    plan_path = results / "plan.json"
    if plan_path.exists():
        plan = json.loads(plan_path.read_text(encoding="utf-8"))
        paths = [results / cell["file"] for cell in plan["cells"]]
        prov = plan.get("provenance", {})
    else:
        runs_dir = results / "runs"
        if not runs_dir.is_dir():
            print(f"error: no runs directory under {args.results}", file=sys.stderr)
            return 2
        paths = sorted(runs_dir.glob("*.json"))
        prov = {}
    records = [_read_record(p) for p in paths]
    if not records:
        print(f"error: no run records under {results}", file=sys.stderr)
        return 2
    group_by = tuple(args.group_by.split(","))
    summary = stats.aggregate_experiment(
        records, group_by, include_non_effective=args.include_non_effective
    )
    _write_summary(Path(args.out or args.results), summary, prov)
    print(f"aggregated {len(records)} records into {len(summary.groups)} groups")
    return 0


def cmd_export_plot_data(args) -> int:
    results = Path(args.results)
    summary_path = results / "summary.json"
    if not summary_path.exists():
        print(f"error: no summary.json under {results}", file=sys.stderr)
        return 2
    doc = json.loads(summary_path.read_text(encoding="utf-8"))
    prov = doc.get("provenance", {})
    groups = doc["summary"]["groups"]
    if not groups:
        print("error: summary contains no groups", file=sys.stderr)
        return 2
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

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="newssim", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-network", help="materialize one network and its statistics")
    p.add_argument("--kind", required=True, choices=netgen.NETWORK_KINDS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--edge-prob", type=float, default=None)
    p.add_argument("--attach-m", type=int, default=6)
    p.add_argument("--community-size", type=int, default=13)
    p.add_argument("--rewire-p", type=float, default=0.7)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_network)

    p = sub.add_parser("sample-personas", help="sample a persona cohort to a TSV file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pin", default=None, metavar="TRAIT=LEVEL")
    p.add_argument("--pin-offset", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample_personas)

    def _common_run_args(p):
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=None, help="override master seed")
        p.add_argument("--parallel", type=int, default=1)
        p.add_argument("--cache-path", default=None,
                       help="override the llm transcript cache path")

    p = sub.add_parser("run", help="execute one experiment plan")
    _common_run_args(p)
    p.add_argument("--policy", choices=ingest.POLICY_KINDS, default=None)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep-personality", help="pinned trait x level sweep")
    _common_run_args(p)
    p.set_defaults(func=cmd_sweep_personality)

    p = sub.add_parser("compare", help="network x intervention cross product")
    _common_run_args(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("stats", help="aggregate a directory of run records")
    p.add_argument("--results", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--group-by", default="network,intervention")
    p.add_argument("--include-non-effective", action="store_true")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("export-plot-data", help="flatten summaries into figure tables")
    p.add_argument("--results", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_plot_data)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ingest.ConfigError, ingest.NewsFormatError,
            netgen.NetworkGenerationError, policy.PolicyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
