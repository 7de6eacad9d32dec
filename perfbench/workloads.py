"""The benchmark's workloads and the inputs generated for them from a seed.

The program receives only the files written here: a config (JSON, which is
valid YAML) and a news JSONL file. Both are pure functions of the workload
and the seed; the LLM endpoint URL is the one input chosen at run time.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

BODY_CHAR_BUDGET = 1200
DAYS = 7

COMPARE_NETWORKS = ("random", "scale_free", "high_brokerage")
COMPARE_INTERVENTIONS = ("none", "commenting", "accuracy", "blocking")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # newssim subcommand: "compare" or "run"
    network: dict  # the config's `network` section
    replications: int
    news: int
    policy: str = "stub"  # "stub" or "llm"
    parallel: int = 1
    stub: dict = field(default_factory=dict)
    # llm only: replay a cache recorded at set-up (False) or start empty (True)
    live: bool = False
    # run everything on one CPU (see _LLM_PLAN and compare-stub)
    one_cpu: bool = False
    # also time the calibration program after each re-read (see large-net-stub)
    calibrate_each_reread: bool = False

    @property
    def cells(self) -> int:
        per_news = self.replications * self.news
        if self.command == "compare":
            return per_news * len(COMPARE_NETWORKS) * len(COMPARE_INTERVENTIONS)
        return per_news

    def plan_args(self) -> list[str]:
        """newssim arguments, relative to the plan's working directory."""
        return [self.command, "--config", "cfg.yaml", "--out", "out",
                "--parallel", str(self.parallel)]


# The stub's intercept is raised from -0.25 so that a plan's work does not
# hinge on the few sampled personas of its sources (the highest-degree
# agents): at the default, a source that rarely shares turns whole groups of
# cells into retries and excluded runs, and output size swings by 20% from
# seed to seed. At 1.0, 12-52% of engine runs are still retries; at
# 2.0 the source almost always shares on the first attempt, which keeps a
# 20000-agent run from paying for several full non-effective attempts.
_SOME_RETRIES = {"intercept": 1.0}
_VIRAL = {"intercept": 2.0}

# Small networks, because a live pass pays one HTTP round trip per unique
# prompt and llm-replay's set-up records the cache once per set-up.
# The whole run (plan, endpoint and all) stays on one CPU: the plan's per-day
# thread pools hand the interpreter lock back and forth thousands of times,
# and each request is a round trip between plan and endpoint threads. Across
# two virtual CPUs every such handoff waits for the hypervisor to wake the
# other CPU, which made plan times swing by up to 2x with host load. The
# concurrency here overlaps waits on the endpoint, which one CPU serves too.
_LLM_PLAN = dict(
    command="compare",
    network={"kind": "random", "n": 40},
    replications=1,
    news=4,
    policy="llm",
    one_cpu=True,
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="compare-stub",
            command="compare",
            network={"kind": "random", "n": 300},
            replications=1,
            news=5,
            parallel=2,
            stub=_SOME_RETRIES,
            # `--parallel` runs cells on threads that share the interpreter
            # lock; across two virtual CPUs each handoff can wait for the
            # other CPU to be woken, which doubled plan times under host load
            one_cpu=True,
        ),
        Workload(
            name="llm-replay",
            live=False,
            **_LLM_PLAN,
        ),
        Workload(
            name="llm-live",
            live=True,
            **_LLM_PLAN,
        ),
        Workload(
            name="large-net-stub",
            command="run",
            network={"kind": "scale_free", "n": 20000, "attach_m": 3},
            replications=1,
            news=2,
            stub=_VIRAL,
            # a run holds only two rounds, and two calibrations a round left
            # the host-speed median too noisy to scale this plan's time
            calibrate_each_reread=True,
        ),
    )
}

_WORDS = (
    "council", "harbor", "vaccine", "memo", "budget", "river", "school", "festival",
    "reporter", "leak", "study", "farm", "bridge", "mayor", "clinic", "market",
    "storm", "court", "railway", "museum", "factory", "senator", "tower", "library",
    "drought", "election", "hospital", "satellite", "orchard", "tunnel", "pension",
    "quietly", "secretly", "officially", "reportedly", "allegedly", "suddenly",
    "approved", "denied", "announced", "claimed", "revealed", "blocked", "funded",
)
_TOPICS = ("political", "health", "science", "economy", "local")


def _sentence(rng: random.Random) -> str:
    words = [rng.choice(_WORDS) for _ in range(rng.randint(6, 14))]
    return " ".join(words).capitalize() + "."


def _body(rng: random.Random, lo: int, hi: int) -> str:
    target = rng.randint(lo, hi)
    parts: list[str] = []
    while sum(len(p) + 1 for p in parts) < target:
        parts.append(_sentence(rng))
    return " ".join(parts)


def news_items(seed: int, count: int) -> list[dict]:
    """Fictional news; even items run past the body budget, odd ones stay under it."""
    rng = random.Random(f"news:{seed}")
    items = []
    for i in range(count):
        if i % 2 == 0:
            body = _body(rng, BODY_CHAR_BUDGET + 200, 2 * BODY_CHAR_BUDGET)
        else:
            body = _body(rng, 200, BODY_CHAR_BUDGET - 200)
        items.append({
            "news_id": f"s{seed}-{i:02d}",
            "title": " ".join(rng.choice(_WORDS) for _ in range(rng.randint(5, 9))).title(),
            "body": body,
            "veracity": rng.choice(("fake", "real")),
            "topic": rng.choice(_TOPICS),
        })
    return items


def master_seed(workload: Workload, seed: int) -> int:
    digest = hashlib.sha256(f"{workload.name}:{seed}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


def config(workload: Workload, seed: int, endpoint_url: str | None = None) -> dict:
    policy: dict = {"kind": workload.policy, "stub": dict(workload.stub)}
    if workload.policy == "llm":
        policy["llm"] = {
            "endpoint": endpoint_url,
            "model": "mock-chat",
            "temperature": 0.0,
            "concurrency": 2,
            "cache_path": "llm_cache.jsonl",
            "timeout": 30.0,
        }
    return {
        "network": dict(workload.network),
        "days": DAYS,
        "master_seed": master_seed(workload, seed),
        "replications": workload.replications,
        "intervention": {"kind": "none"},
        "policy": policy,
        "news": {"path": "news.jsonl", "limit": workload.news,
                 "body_char_budget": BODY_CHAR_BUDGET},
        "compare": {"networks": list(COMPARE_NETWORKS),
                    "interventions": list(COMPARE_INTERVENTIONS)},
    }


def write_inputs(workload: Workload, seed: int, directory: Path,
                 endpoint_url: str | None = None) -> None:
    """Write cfg.yaml and news.jsonl for one plan into `directory`."""
    directory.mkdir(parents=True, exist_ok=True)
    cfg = config(workload, seed, endpoint_url)
    (directory / "cfg.yaml").write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
    lines = [json.dumps(item, sort_keys=True) for item in news_items(seed, workload.news)]
    (directory / "news.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
