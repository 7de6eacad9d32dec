"""Plan execution: the commands that build networks, cohorts and runs.

`newssim gen-network`, `sample-personas`, `run`, `sweep-personality` and
`compare` live here, with the executor the last three share. `cli` imports
this module only for these commands, so `newssim stats` and
`export-plot-data` load neither numpy nor the simulation modules. A plan
imports `concurrent.futures` only when it starts a pool: forked worker
processes for a stub plan's groups, threads for an LLM plan's groups, or
an LLM ask the cache cannot answer (see policy.LlmPolicy); `multiprocessing`
only for the stub plan's worker processes.

A plan builds only what is read: a retry probe reads its source's decision
from the engine's state, a record is encoded straight from the state's
agent columns as it is written, and the summary reads one
stats.SummaryRow per cell (labels, effective and the two series), which is
all a worker process sends back.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import replace
from functools import lru_cache, partial
from pathlib import Path

from . import __version__, engine, ingest, netgen, persona, policy, stats
from .output import _canonical_json, _write_summary, _write_text
from .seeding import derive_seed

#: What a plan command reports as one `error:` line and exit 2, besides the
#: ValueErrors and OSErrors every command reports so
ERRORS = (netgen.NetworkGenerationError, policy.PolicyError)

#: Seeds a cell's network tries, from its net_seed up, before it is refused as disconnected
NETWORK_TRIES = 5


def _config_hash(snapshot: dict) -> str:
    """The 16-hex `config_sha` of an ingest.config_snapshot."""
    blob = json.dumps(snapshot, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def _provenance(cfg: ingest.ExperimentConfig, cache: policy.DecisionCache | None = None) -> dict:
    return {
        "package_version": __version__,
        "config_sha": _config_hash(ingest.config_snapshot(cfg)),
        "master_seed": cfg.master_seed,
        "policy_kind": cfg.policy_kind,
        "template_hashes": policy.template_hashes(),
        "cache_sha": cache.content_hash() if cache is not None else None,
    }


def connected_network(kind: str, params: dict, seed: int) -> netgen.Network:
    """Generate a network, regenerating with seed+offset if disconnected."""
    for attempt in range(NETWORK_TRIES):
        net = netgen.generate(kind, params, seed + attempt)
        if netgen.is_connected(net):
            return net
    raise netgen.NetworkGenerationError(
        f"could not generate a connected {kind} network in {NETWORK_TRIES} tries from seed {seed}")


# lru_cache does not hold its lock while it builds a value: without this one,
# an LLM plan's groups on --parallel threads would each build the same network
# or cohort (a stub plan's worker processes each have their own caches)
_replicate_lock = threading.Lock()


@lru_cache(maxsize=64)
def _cached_network(kind: str, params_items: tuple, seed: int) -> netgen.Network:
    return connected_network(kind, dict(params_items), seed)


@lru_cache(maxsize=64)
def _cached_cohort(n: int, seed: int, trait: str | None = None, level: str | None = None,
                   offset: float = 1.0) -> persona.Cohort:
    """The replicate's cohort, pinned to trait=level when a trait is given.

    A Cohort is read-only, so every cell of the replicate can share it, and a
    pinned cohort shares the base cohort's unpinned columns.
    """
    if trait:
        return persona.pin_trait(_cached_cohort(n, seed), trait, level, offset=offset)
    return persona.sample_personas(n, rng_seed=seed)


def _slug(text: str) -> str:
    return "".join(c if c.isalnum() or c in "-_" else "-" for c in str(text))


# ---------------------------------------------------------------------------
# run execution
# ---------------------------------------------------------------------------

def _open_policy(cfg, cache=None, transport=None):
    """The plan's one policy: a stub whose parameters are parsed once, or an
    LlmPolicy whose request pool every group shares."""
    if cfg.policy_kind == "stub":
        return policy.StubPolicy(policy.StubParams.from_dict(cfg.stub_params))
    return policy.LlmPolicy(policy.LlmSettings.from_dict(cfg.llm_params), cache=cache,
                            transport=transport, body_char_budget=cfg.body_char_budget)


class Cell:
    """One plan cell: a run of `news` on replicate `replicate`, written to runs/`file`.

    `config_sha` keys `cfg`'s snapshot in plan.json's `configs`: a plan hashes
    each group's config once, and a cell built without a sha hashes its own.
    Cells compare by identity.
    """

    __slots__ = ("cfg", "news", "replicate", "labels", "file", "config_sha")

    def __init__(self, cfg: ingest.ExperimentConfig, news: ingest.NewsItem, replicate: int,
                 labels: dict, file: str, config_sha: str | None = None):
        if config_sha is None:
            config_sha = _config_hash(ingest.config_snapshot(cfg))
        self.cfg, self.news, self.replicate = cfg, news, replicate
        self.labels, self.file, self.config_sha = labels, file, config_sha


def _inputs(cell: Cell) -> tuple:
    """What picks a cell's network and cohort: the cells with equal inputs
    form one lockstep group."""
    cfg, rep = cell.cfg, cell.replicate
    trait = cell.labels.get("trait")
    pin = (trait, cell.labels["level"], cfg.sweep_offset) if trait else ()
    return (cfg.network_kind, tuple(sorted(cfg.network_params.items())),
            derive_seed(cfg.master_seed, "net", rep),
            derive_seed(cfg.master_seed, "personas", rep), pin)


def _execute_group(cells: list[Cell], decider) -> list:
    """Run cells that share a network and cohort in one lockstep pass, one record per cell.

    A source decides on day 1 only, so each stub cell with a retry budget
    first picks its attempt in one-day probe passes, moving only the cells
    whose source declined to their next decision seed until the budget is
    spent; LLM cells are not retried. A probe is its cell's spec with a
    days=1 copy of the cell config, made once per distinct config, and
    reads only its source's decision. Then every cell runs its attempt
    once; the records hold the group's numpy agent columns (see
    engine.GroupRun.records).
    """
    kind, params, net_seed, persona_seed, pin = _inputs(cells[0])
    with _replicate_lock:
        net = _cached_network(kind, params, net_seed)
        personas = _cached_cohort(net.n, persona_seed, *pin)

    def spec(cell, attempt):
        seed = derive_seed(cell.cfg.master_seed, "decide", cell.replicate, cell.news.news_id,
                           attempt)
        labels = {**cell.labels, "replicate": cell.replicate, "news_id": cell.news.news_id,
                  "attempt": attempt, "net_seed": net_seed, "persona_seed": persona_seed,
                  "decision_seed": seed}
        return engine.RunSpec(cell.cfg, cell.news, seed,
                              {"config_sha": cell.config_sha, "labels": labels})

    specs, attempts = [spec(cell, 0) for cell in cells], [0] * len(cells)
    budgets = [c.cfg.effective_retry_budget if c.cfg.policy_kind == "stub" else 0 for c in cells]
    todo = [i for i, budget in enumerate(budgets) if budget]
    one_day = {}  # id of each probed cell config: its days=1 copy
    for i in todo:
        if id(cells[i].cfg) not in one_day:
            one_day[id(cells[i].cfg)] = replace(cells[i].cfg, days=1)
    while todo:
        probes = [specs[i]._replace(config=one_day[id(cells[i].cfg)]) for i in todo]
        effective = engine.run_group(probes, net, personas, decider).effective()
        todo = [i for i, shared in zip(todo, effective) if not shared]
        for i in todo:
            attempts[i] += 1
            specs[i] = spec(cells[i], attempts[i])
        todo = [i for i in todo if attempts[i] < budgets[i]]
    return engine.run_group(specs, net, personas, decider).records(specs)


def _execute_cell(cell: Cell, decider=None):
    """Run one plan cell as a group of one, with the plan's policy `decider`
    (default: the cell config's stub)."""
    return _execute_group([cell], decider or _open_policy(cell.cfg))[0]


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _write_group(members: list[int], cells: list[Cell], decider, runs_dir: Path
                 ) -> list[stats.SummaryRow]:
    """Execute the cells at indices `members` as one group, write each record
    to runs_dir/<cell.file>, and return their summary rows in `members` order."""
    records = _execute_group([cells[i] for i in members], decider)
    for i, record in zip(members, records):
        _write_text(runs_dir / cells[i].file, record.to_json())
    return [stats.SummaryRow.of(record) for record in records]


#: (cells, decider, runs_dir) of the plan a forked worker process executes groups of
_forked_plan = None


def _adopt_plan(*plan_args) -> None:
    """A fork pool worker's initializer: it keeps the plan it inherited, so
    tasks carry only member indices and nothing of the plan is pickled."""
    global _forked_plan
    _forked_plan = plan_args


def _forked_group(members: list[int]) -> list[stats.SummaryRow]:
    return _write_group(members, *_forked_plan)


def _executed_groups(groups: list[list[int]], cells: list[Cell], decider, runs_dir: Path,
                     parallel: int) -> list[list[stats.SummaryRow]]:
    """The summary rows of each group's written records, in `groups` order.

    An LLM plan runs min(parallel, groups) groups at a time on threads over
    its one policy. A stub plan runs min(parallel, usable CPUs, groups) at a
    time in worker processes forked with the cells and the policy, which
    write the records and pickle back only the rows. It forks only where the
    platform can and while the calling thread is the only live one;
    otherwise, or with one worker, the groups run in this process.
    """
    llm = isinstance(decider, policy.LlmPolicy)
    workers = min(parallel, len(groups)) if llm else min(parallel, len(groups), _usable_cpus())
    can_fork = hasattr(os, "fork") and threading.active_count() == 1
    if workers < 2 or not (llm or can_fork):
        return [_write_group(members, cells, decider, runs_dir) for members in groups]
    if llm:
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(workers)
        task = partial(_write_group, cells=cells, decider=decider, runs_dir=runs_dir)
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                   initializer=_adopt_plan, initargs=(cells, decider, runs_dir))
        task = _forked_group
    try:
        return list(pool.map(task, groups))
    finally:
        pool.shutdown(cancel_futures=True)  # a failed group leaves the queued ones unrun


def _run_plan(cells: list[Cell], out_dir: Path, cache=None, transport=None, parallel: int = 1
              ) -> list[stats.SummaryRow]:
    """Execute cells group by group, writing each record to out_dir/runs/<cell.file>,
    and return each cell's summary row, in cell order: what the plan's
    summary reads of its record.

    An INCOMPLETE sentinel exists in out_dir while cells are executing; an
    interrupted plan leaves it behind along with the partial runs directory.
    Up to `parallel` groups execute at a time (see _executed_groups): a stub
    plan's in forked worker processes, no more than this process has usable
    CPUs, and an LLM plan's on threads. An LLM plan's groups share one
    LlmPolicy over `cache`, so requests in flight stay within
    `llm.concurrency` at any `parallel`; the policy's pool and the cache's
    append handle are closed once the cells are done.
    """
    runs_dir = out_dir / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    sentinel = out_dir / "INCOMPLETE"
    _write_text(sentinel, "plan execution in progress or interrupted\n")
    decider = _open_policy(cells[0].cfg, cache, transport) if cells else None
    groups: dict[tuple, list[int]] = {}
    for i, cell in enumerate(cells):
        groups.setdefault(_inputs(cell), []).append(i)
    rows = [None] * len(cells)
    try:
        done = _executed_groups(list(groups.values()), cells, decider, runs_dir, parallel)
        for members, group_rows in zip(groups.values(), done):
            for i, row in zip(members, group_rows):
                rows[i] = row
    finally:
        if isinstance(decider, policy.LlmPolicy):
            decider.close()
        if cache is not None:
            cache.close()  # the plan's appends are done
    sentinel.unlink()
    return rows


def _open_cache(cfg) -> policy.DecisionCache | None:
    """The LLM plan's cache, bound to its settings before anything is written."""
    if cfg.policy_kind != "llm":
        return None
    settings = policy.LlmSettings.from_dict(cfg.llm_params)
    cache = policy.DecisionCache(settings.cache_path)
    cache.bind(settings)
    return cache


def _apply_overrides(cfg, args) -> None:
    if getattr(args, "policy", None):
        cfg.policy_kind = args.policy
    if getattr(args, "seed", None) is not None:
        cfg.master_seed = args.seed
    if getattr(args, "cache_path", None):
        cfg.llm_params["cache_path"] = args.cache_path


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen_network(args) -> int:
    params = {**ingest.default_network_params(args.kind, args.n), "n": args.n}
    flags = {"edge_prob": args.edge_prob, "attach_m": args.attach_m,
             "community_size": args.community_size, "rewire_p": args.rewire_p}
    params.update((k, v) for k, v in flags.items() if k in params and v is not None)
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
    dict, and plan.json names the `group_by` keys, so `newssim stats` over the
    finished plan rewrites the same summary; its `configs` maps each group's
    config_sha to the config's snapshot.
    """
    cfg = ingest.load_config(args.config)
    _apply_overrides(cfg, args)
    news_items = _news_for(cfg)
    configs, cells = {}, []
    for cell_cfg, labels, prefix in groups(cfg):
        snapshot = ingest.config_snapshot(cell_cfg)
        sha = _config_hash(snapshot)
        configs[sha] = snapshot
        cells.extend(Cell(cell_cfg, item, rep, labels,
                          f"{prefix}_rep{rep:03d}_news{_slug(item.news_id)}.json", sha)
                     for rep in range(cfg.replications) for item in news_items)
    # every network the cells need is checked before anything is written
    networks = dict.fromkeys((c.cfg.network_kind, tuple(sorted(c.cfg.network_params.items())))
                             for c in cells)
    if problems := [f"{kind}: {problem}" for kind, items in networks
                    for problem in ingest.network_param_problems(kind, dict(items))]:
        raise ingest.ConfigError(problems)
    by_file = {}
    for cell in cells:
        other = by_file.setdefault(cell.file, cell)
        if other is not cell:
            raise ValueError(f"news ids {other.news.news_id!r} and {cell.news.news_id!r} "
                             f"would both write runs/{cell.file}")
    out_dir = Path(args.out)
    cache = _open_cache(cfg)
    prov = _provenance(cfg, cache)
    plan = {
        "provenance": prov,
        "group_by": list(group_by),
        "configs": configs,
        "cells": [
            {"labels": c.labels, "replicate": c.replicate, "news_id": c.news.news_id,
             "file": f"runs/{c.file}"}
            for c in cells
        ],
    }
    _write_text(out_dir / "plan.json", _canonical_json(plan))
    rows = _run_plan(cells, out_dir, cache=cache, parallel=args.parallel)
    summary = stats.aggregate_experiment(rows, group_by)
    _write_summary(out_dir, summary, prov)
    return rows, summary, out_dir


def cmd_run(args) -> int:
    def groups(cfg):
        yield cfg, {"network": cfg.network_kind, "intervention": cfg.intervention_kind}, "run"

    rows, _, out_dir = _execute_plan(args, groups, ("network", "intervention"))
    effective = sum(1 for row in rows if row.effective)
    print(f"{len(rows)} runs written to {out_dir} ({effective} effective)")
    return 0


def cmd_sweep_personality(args) -> int:
    def groups(cfg):
        sweep_cfg = replace(cfg, intervention_kind="none")
        for trait in persona.TRAITS:
            for level in persona.LEVELS:
                labels = {"network": cfg.network_kind, "intervention": "none",
                          "trait": trait, "level": level}
                yield sweep_cfg, labels, f"sweep_{trait}_{level}"

    rows, summary, out_dir = _execute_plan(args, groups, ("trait", "level"))
    print(f"personality sweep: {len(rows)} runs, {len(summary.groups)} groups -> {out_dir}")
    return 0


def cmd_compare(args) -> int:
    def groups(cfg):
        for kind in cfg.compare_networks:
            net_params = (
                cfg.network_params
                if kind == cfg.network_kind
                else ingest.default_network_params(kind, cfg.network_params["n"])
            )
            for intervention in cfg.compare_interventions:
                cell_cfg = replace(cfg, network_kind=kind, network_params=net_params,
                                   intervention_kind=intervention)
                labels = {"network": kind, "intervention": intervention}
                yield cell_cfg, labels, f"compare_{kind}_{intervention}"

    rows, summary, out_dir = _execute_plan(args, groups, ("network", "intervention"))
    print(f"compare: {len(rows)} runs, {len(summary.groups)} groups -> {out_dir}")
    return 0
