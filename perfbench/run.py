"""Plan benchmark for newssim.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's `src/`, and all scratch files live in `.perfbench_work/` at its
root, which is removed at exit. Each measured plan runs in a fresh process.

Set-up writes the workload's inputs from the seed, imports the package once
(so bytecode is compiled and files are cached before anything is timed),
starts the mock endpoint for the LLM workloads and, for llm-replay, records
the LLM cache with one live pass. Set-up runs at least MIN_SETUPS times,
and more (up to MAX_SETUPS) while the set-ups so far took under
SETUP_BUDGET_S in all; `setup_s` is the median.

The measurement then executes the plan repeatedly for S seconds (at least
MIN_PLANS times; a round that would end past S is not started) and re-reads
each plan's output tree RESTATS_REPEATS times with `newssim stats`;
`restats_s` is the median of all re-reads of the run. Every plan's outputs are checked
(see checks.py) and digested; all digests of one run must agree, and
llm-replay's runs/ must equal the live pass's runs/ byte for byte. With --trace 1, each round runs
the plan once plainly and once under perfbench/tracer.py, and per-layer
metrics come from the traced plan and its traced re-stat.

The host's speed drifts by tens of percent over minutes, so every
end-to-end time (`plan_wall_s`, `cells_per_s`, `restats_s`, `setup_s`) is
scaled to a nominal host: multiplied by CALIBRATION_NOMINAL_S over the
median wall time of perfbench/calibrate.py, a fixed program that runs
between each plan and its re-reads and after each round (on large-net-stub
also after each re-read). The raw times are
printed above the result line.

The last line of stdout is one JSON object: correct, attempted and failed
cells, and the metrics. The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import layers
import workloads
from endpoint import MockEndpoint

MIN_SETUPS = 3
MAX_SETUPS = 9
SETUP_BUDGET_S = 3.0
MIN_PLANS = 2
#: `newssim stats` runs this many times on each untraced plan's output
RESTATS_REPEATS = 3
PROCESS_TIMEOUT_S = 150.0
#: calibrate.py's wall time on the nominal host the timings are scaled to
CALIBRATION_NOMINAL_S = 1.0

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@dataclass
class Proc:
    code: int
    wall_s: float
    max_rss_mb: float


def spawn(cmd: list[str], cwd: Path, log: Path) -> Proc:
    """Run one command to completion and return its exit code, wall time and peak RSS."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=fh, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.waitpid(proc.pid, 0)
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_maxrss / 1024.0)


@dataclass
class PlanResult:
    wall_s: float
    restats_s: list[float]  # one wall time per re-read
    output_mb: float
    max_rss_mb: float
    llm_calls: int
    service_s: float
    failed: int
    problems: list[str]
    digest: str
    runs_digest: str


class Bench:
    def __init__(self, workload: workloads.Workload, seed: int, work: Path):
        self.w = workload
        self.seed = seed
        self.work = work
        self.endpoint: MockEndpoint | None = None
        self.live_runs_digest: str | None = None
        self.inputs = work / "inputs"
        self.traces: list[dict] = []
        self.calibrations: list[float] = []

    def close(self) -> None:
        if self.endpoint is not None:
            self.endpoint.close()
            self.endpoint = None

    def setup(self) -> None:
        self.close()
        shutil.rmtree(self.inputs, ignore_errors=True)
        url = None
        if self.w.policy == "llm":
            self.endpoint = MockEndpoint().start()
            url = self.endpoint.url
        workloads.write_inputs(self.w, self.seed, self.inputs, url)
        self._warm_import()
        if self.w.policy == "llm" and not self.w.live:
            self._record_cache()

    def _warm_import(self) -> None:
        log = self.work / "warm.log"
        probe = "import newssim, newssim.cli; print(newssim.__file__)"
        proc = spawn([sys.executable, "-c", probe], self.work, log)
        where = log.read_text(encoding="utf-8").strip()
        if proc.code != 0 or not Path(where).resolve().is_relative_to(ROOT / "src"):
            raise RuntimeError(f"newssim does not import from {ROOT / 'src'}: {where}")

    def _record_cache(self) -> None:
        res = self.run_plan(traced=False, recording=True)
        if res.failed or res.problems:
            raise RuntimeError("set-up live pass failed: " + "; ".join(res.problems[:5]))
        shutil.copyfile(self.work / "plan" / "llm_cache.jsonl", self.inputs / "llm_cache.jsonl")
        self.live_runs_digest = res.runs_digest

    def calibrate(self) -> None:
        """Run the calibration program once and keep its wall time."""
        proc = spawn([sys.executable, str(HERE / "calibrate.py")], self.work,
                     self.work / "calibrate.log")
        if proc.code != 0:
            raise RuntimeError(f"calibrate.py exited {proc.code}: "
                               f"{_tail(self.work / 'calibrate.log')}")
        self.calibrations.append(proc.wall_s)

    def _plan_cmd(self, traced: bool, root: str, args: list[str]) -> list[str]:
        if traced:
            return [sys.executable, str(HERE / "tracer.py"), "--trace-out", f"trace_{root}.json",
                    "--root", root, "--", *args]
        return [sys.executable, "-m", "newssim.cli", *args]

    def run_plan(self, traced: bool, recording: bool = False) -> PlanResult:
        """Execute the plan once in a fresh directory, re-stat it and check it."""
        plan_dir = self.work / "plan"
        shutil.rmtree(plan_dir, ignore_errors=True)
        shutil.copytree(self.inputs, plan_dir)
        if recording or self.w.live:
            (plan_dir / "llm_cache.jsonl").unlink(missing_ok=True)

        before = self.endpoint.counters() if self.endpoint else (0, 0.0)
        plan = spawn(self._plan_cmd(traced, "cli", self.w.plan_args()), plan_dir,
                     plan_dir / "plan.log")
        after = self.endpoint.counters() if self.endpoint else (0, 0.0)
        llm_calls, service_s = after[0] - before[0], after[1] - before[1]
        if not traced and not recording:
            self.calibrate()

        out = plan_dir / "out"
        restats_cmd = self._plan_cmd(
            traced, "restats", ["stats", "--results", "out", "--out", "restats"])
        repeats = 1 if traced or recording else RESTATS_REPEATS
        restats_runs = []
        for _ in range(repeats):
            restats_runs.append(spawn(restats_cmd, plan_dir, plan_dir / "restats.log"))
            if self.w.calibrate_each_reread and not traced and not recording:
                self.calibrate()
        restats = next((r for r in restats_runs if r.code), restats_runs[-1])

        cells = self.w.cells
        problems: list[str] = []
        if plan.code != 0:
            failed = cells
            problems.append(f"plan exited {plan.code}: {_tail(plan_dir / 'plan.log')}")
        else:
            failed, problems = checks.check_plan(out, cells, workloads.DAYS)
        if restats.code != 0:
            problems.append(f"stats exited {restats.code}: {_tail(plan_dir / 'restats.log')}")
        elif plan.code == 0 and (plan_dir / "restats" / "summary.json").read_bytes() != \
                (out / "summary.json").read_bytes():
            problems.append("re-read summary.json differs from the plan's")
        if self.w.policy == "llm" and not self.w.live and not recording and llm_calls:
            failed = cells
            problems.append(f"replay made {llm_calls} endpoint requests")

        result = PlanResult(
            wall_s=plan.wall_s,
            restats_s=[r.wall_s for r in restats_runs],
            output_mb=checks.tree_bytes(out) / 1e6 if out.is_dir() else 0.0,
            max_rss_mb=plan.max_rss_mb,
            llm_calls=llm_calls,
            service_s=service_s,
            failed=failed,
            problems=problems,
            digest=checks.tree_digest(out) if out.is_dir() else "",
            runs_digest=checks.tree_digest(out / "runs") if out.is_dir() else "",
        )
        if traced:
            self.traces = [json.loads((plan_dir / f"trace_{root}.json").read_text())
                           for root in ("cli", "restats")]
        return result

    def determinism_problems(self, results: list[PlanResult]) -> list[str]:
        """All plans of one run must agree; llm-live compares runs/ only."""
        key = (lambda r: r.runs_digest) if self.w.live else (lambda r: r.digest)
        problems = []
        if len({key(r) for r in results}) != 1:
            problems.append("output digests differ between plans of the same inputs")
        if self.live_runs_digest is not None and any(
                r.runs_digest != self.live_runs_digest for r in results):
            problems.append("replayed runs/ differ from the set-up live pass")
        return problems


def _tail(path: Path, lines: int = 3) -> str:
    try:
        return " | ".join(path.read_text(encoding="utf-8", errors="replace").splitlines()[-lines:])
    except OSError:
        return ""


def measure(bench: Bench, seconds: float, trace: bool) -> dict:
    setups: list[float] = []
    while len(setups) < MIN_SETUPS or (len(setups) < MAX_SETUPS
                                       and sum(setups) < SETUP_BUDGET_S):
        bench.close()  # stopping the previous set-up's endpoint is not set-up work
        t0 = time.perf_counter()
        bench.setup()
        setups.append(time.perf_counter() - t0)

    plain: list[PlanResult] = []
    traced: list[tuple[PlanResult, list[dict]]] = []
    rounds: list[float] = []
    t_start = time.perf_counter()
    # a traced round yields two plans, enough for the determinism check
    min_rounds = 1 if trace else MIN_PLANS
    while len(rounds) < min_rounds or \
            time.perf_counter() - t_start + statistics.median(rounds) <= seconds:
        t_round = time.perf_counter()
        plain.append(bench.run_plan(traced=False))
        if trace:
            traced.append((bench.run_plan(traced=True), bench.traces))
        bench.calibrate()
        rounds.append(time.perf_counter() - t_round)

    results = plain + [r for r, _ in traced]
    cells = bench.w.cells
    attempted = cells * len(results)
    failed = sum(r.failed for r in results)
    problems = [p for r in results for p in r.problems] + bench.determinism_problems(results)
    wall = statistics.median(r.wall_s for r in plain)
    raw = {
        "plan_wall_s": wall,
        "restats_s": statistics.median(t for r in plain for t in r.restats_s),
        "setup_s": statistics.median(setups),
        "calibration_s": statistics.median(bench.calibrations),
    }
    scale = CALIBRATION_NOMINAL_S / raw["calibration_s"]
    end_to_end = {
        "plan_wall_s": (wall * scale, "s"),
        "cells_per_s": (cells / (wall * scale), "1/s"),
        "restats_s": (raw["restats_s"] * scale, "s"),
        "output_mb": (statistics.median(r.output_mb for r in plain), "MB"),
        "peak_rss_mb": (statistics.median(r.max_rss_mb for r in plain), "MB"),
        "llm_calls": (statistics.median(r.llm_calls for r in plain), "count"),
        "cell_error_rate": (failed / attempted, "ratio"),
        "setup_s": (raw["setup_s"] * scale, "s"),
    }
    report = {
        "end_to_end": end_to_end,
        "raw": raw,
        "calibrations": len(bench.calibrations),
        "plans": len(plain),
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }
    if trace:
        # per-layer figures come from the traced plan with the median wall time
        ranked = sorted(traced, key=lambda t: t[0].wall_s)
        mid, (plan_trace, restats_trace) = ranked[(len(ranked) - 1) // 2]
        overhead = statistics.median(r.wall_s for r, _ in traced) - wall
        report["per_layer"] = layers.layer_metrics(
            plan_trace, restats_trace, cells, mid.llm_calls, mid.service_s, overhead)
    return report


def load_metric_names() -> tuple[list[str], list[str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # let `finally` blocks stop child processes and the endpoint on SIGTERM
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "newssim" / "cli.py").is_file():
        print(f"error: no newssim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    e2e_names, layer_names = load_metric_names()

    workload = workloads.WORKLOADS[args.workload]
    if workload.one_cpu:
        # before the endpoint's threads exist; they and every child inherit it
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(workload, args.seed, work)
    try:
        report = measure(bench, args.seconds, bool(args.trace))
    finally:
        bench.close()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other workload's run is using it

    for problem in report["problems"][:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} plans={report['plans']} "
          f"cells/plan={bench.w.cells} trace={args.trace}")
    for name, (value, unit) in report["end_to_end"].items():
        print(f"{name:<20} {value:>14.6g} {unit}")
    print(f"# raw (unscaled) times, calibrate.py run {report['calibrations']} times:")
    for name, value in report["raw"].items():
        print(f"raw.{name:<16} {value:>14.6g} s")
    if args.trace:
        for name, (value, unit) in report["per_layer"].items():
            print(f"{name:<40} {value:>14.6g} {unit}")

    chosen = report["per_layer"] if args.trace else report["end_to_end"]
    names = layer_names if args.trace else e2e_names
    result = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {n: {"value": chosen[n][0], "unit": chosen[n][1]} for n in names},
    }
    print(json.dumps(result))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
