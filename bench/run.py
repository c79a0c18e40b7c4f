"""deltalim benchmark: one seeded, closed-loop workload per run.

    python3 bench/run.py --workload {scan,resolvent,dualpath} --seed N \
        --seconds S --trace {0,1}

Tasks run one at a time in this process, each a call into the public
deltalim API, and each output is checked against an independent reference
outside the timed region.

--trace 0 runs whole cycles of tasks (workloads.CYCLE) until their timed wall
time reaches S seconds, so every run holds the same mix, and reports the
end-to-end metrics.  setup_s is the median over several fresh
interpreters of importing deltalim, generating the inputs and one warm-up
call.

--trace 1 runs a fixed list of tasks twice, untraced and then under the
tracer, and reports the per-layer metrics; the spans are written to
bench/out/.  It also runs the known-defect probes (workloads.defect_probes)
and reports how many still fail.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; a readable summary goes to stderr.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_PROBES = 5
TRACE_TASKS = {"scan": 15, "resolvent": 12, "dualpath": 12}
# The tail is one fixed percentile, so a faster program, which fits more tasks
# into a run, is not judged further out.  Runs hold whole cycles of the same
# mix, so it falls on the same slots of the cycle in every run.  At
# BENCHMARK.json's run_seconds a run on the baseline leaves 9 to 18 tasks
# beyond it (9 only when a slow host fits just two dualpath cycles).
TAIL_PERCENTILE = 70
# a failed task's latency is +inf; JSON has no infinity, so it reads as this
INF_SECONDS = 1e9


def _import_deltalim():
    """Import deltalim from this checkout's src/, never from elsewhere."""
    if not (SRC / "deltalim" / "__init__.py").is_file():
        sys.exit(f"error: no deltalim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import deltalim
    if not Path(deltalim.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: deltalim imported from {deltalim.__file__}, not {SRC}")


def latency_stats(times: list[float], ok: list[bool]) -> dict:
    """Median and nearest-rank TAIL_PERCENTILE of per-task wall times,
    failed tasks counted as +inf."""
    lat = sorted(t if good else math.inf for t, good in zip(times, ok))
    n = len(lat)
    i = math.ceil(TAIL_PERCENTILE / 100 * n) - 1
    return {"p50": statistics.median(lat), "tail": lat[i],
            "tail_beyond": n - 1 - i, "n": n}


def _finite(v: float) -> float:
    return v if math.isfinite(v) else INF_SECONDS


def run_tasks(tasks, tracer=None):
    """Run tasks in order; return (wall times, outputs).  An output is the
    exception a task raised, if it raised one."""
    times, outputs = [], []
    for task in tasks:
        call = task.call
        if tracer is not None:
            tracer.task = task.index
            call = tracer.wrap(call, f"task.{task.workload}", "task")
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception as exc:       # a failed task; the run goes on
            out = exc
        times.append(time.perf_counter() - t0)
        outputs.append(out)
    return times, outputs


def outcome(task, out) -> str:
    if isinstance(out, Exception):
        return type(out).__name__
    return task.check(out)


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of SETUP_PROBES fresh interpreters that each import
    deltalim, generate the inputs and make the warm-up call."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def timed_run(workload: str, seed: int, seconds: float):
    import workloads

    setup_s = measure_setup(workload, seed)
    workloads.warm_up(workload)
    make = workloads.MAKERS[workload]
    cycle = workloads.CYCLE[workload]
    times, outcomes, tasks = [], [], []
    while sum(times) < seconds or len(tasks) % cycle:
        task = make(seed, len(tasks))
        t, out = run_tasks([task])
        times += t
        outcomes.append(outcome(task, out[0]))
        tasks.append(task)
    ok = [o == "ok" for o in outcomes]
    lat = latency_stats(times, ok)
    metrics = {
        "tasks_per_s": sum(ok) / sum(times),
        "task_p50_s": _finite(lat["p50"]),
        "task_tail_s": _finite(lat["tail"]),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {"tasks": lat["n"], "tasks_beyond_tail": lat["tail_beyond"],
             "fail_frac": 1.0 - sum(ok) / len(ok)}
    return tasks, outcomes, metrics, notes


def traced_run(workload: str, seed: int):
    import workloads
    from tracer import Tracer

    workloads.warm_up(workload)
    make = workloads.MAKERS[workload]
    tasks = [make(seed, i) for i in range(TRACE_TASKS[workload])]
    plain_times, _ = run_tasks(tasks)
    tracer = Tracer()
    tracer.install()
    try:
        traced_times, outputs = run_tasks(tasks, tracer)
    finally:
        tracer.uninstall()
    outcomes = [outcome(t, o) for t, o in zip(tasks, outputs)]
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_s"] = sum(traced_times) - sum(plain_times)
    metrics.update(probe_defects())
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / f"trace-{workload}-seed{seed}.npz")
    notes = {"traced_s": sum(traced_times), "untraced_s": sum(plain_times),
             "self_share": _self_shares(metrics, sum(traced_times))}
    return tasks, outcomes, metrics, notes


def probe_defects() -> dict[str, int]:
    """Run the known-defect probes untraced: how many still fail, and how
    many resonances they lose."""
    import workloads

    probes = list(workloads.defect_probes().values())
    _, outputs = run_tasks(probes)
    return {"resonance.probes_failed":
            sum(outcome(t, o) != "ok" for t, o in zip(probes, outputs)),
            "resonance.probe_roots_lost": sum(t.missing_roots for t in probes)}


def _declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _self_shares(metrics, total: float) -> dict:
    return {k.split(".")[0]: round(v / total, 4) for k, v in metrics.items()
            if k.endswith(".self_s") and total > 0}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("scan", "resolvent", "dualpath"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only import, generate the inputs and warm up")
    args = ap.parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")      # before numpy loads; probes inherit it
    _import_deltalim()
    import workloads

    if args.setup_probe:
        make = workloads.MAKERS[args.workload]
        for i in range(workloads.CYCLE[args.workload]):
            make(args.seed, i)
        workloads.warm_up(args.workload)
        return 0

    if args.trace:
        tasks, outcomes, metrics, notes = traced_run(args.workload, args.seed)
    else:
        tasks, outcomes, metrics, notes = timed_run(args.workload, args.seed,
                                                    args.seconds)
    failed = [(t.index, o) for t, o in zip(tasks, outcomes) if o != "ok"]
    units = _declared_units("per_layer" if args.trace else "end_to_end")
    if units.keys() != metrics.keys():
        sys.exit(f"error: metrics {sorted(metrics)} differ from BENCHMARK.json")

    log = sys.stderr
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(tasks)} tasks, {len(failed)} failed", file=log)
    for name, value in metrics.items():
        print(f"  {name:42s} {value:14.6g} {units[name]}", file=log)
    for key, value in notes.items():
        print(f"  {key}: {value}", file=log)
    if failed:
        print(f"  FAILED (task, class): {failed}", file=log)

    result = {"correct": not failed, "attempted": len(tasks),
              "failed": len(failed),
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
