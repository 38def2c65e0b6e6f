"""cliffcalc benchmark: seeded closed-loop workloads with correctness gates.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S [--out FILE]

NAME is one of paravector, cli-cold (see bench/README.md).
One client in one process runs the workload's tasks back to back; every task
checks its answer against an independent route.  With ``--trace 0`` the run
measures for S seconds and reports the end-to-end metrics; with ``--trace 1``
it runs a fixed number of tasks twice each, untraced and traced, and reports
the per-layer metrics.  Human-readable lines come first; the last line of
stdout is one JSON object with keys correct, attempted, failed and metrics.
``--workload all`` runs every workload both ways in child processes.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
# Set-up runs SETUP_REPS times and its median is reported, so one slow pass
# does not decide it.  The repeats are spread through the timed run, which
# pauses for them, so set-up samples the machine over the same stretch of
# time as the tasks do.
SETUP_REPS = 5


def machine() -> dict:
    """Core count, interpreter and numpy versions, and OpenBLAS threads."""
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas_threads": None,
    }
    # numpy wheels bundle OpenBLAS next to the package; loading it again
    # returns the handle numpy already uses
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                info["openblas_threads"] = getter()
                return info
    return info


def fresh_import():
    """Import cliffcalc from this checkout as a new process would."""
    for name in [k for k in sys.modules if k == "cliffcalc" or k.startswith("cliffcalc.")]:
        del sys.modules[name]
    import cliffcalc

    if Path(cliffcalc.__file__).resolve().parent != SRC / "cliffcalc":
        raise SystemExit(f"cliffcalc imported from {cliffcalc.__file__}, not from {SRC}")


def set_up(name: str, seed: int, workdir: Path):
    from workloads import WORKLOADS

    start = time.perf_counter()
    fresh_import()
    workload = WORKLOADS[name](seed, workdir)
    return workload, time.perf_counter() - start


def run_task(task) -> tuple[bool, str]:
    # a task that raises is a failed task, not a failed benchmark
    try:
        return task()
    except Exception:  # noqa: BLE001
        return False, traceback.format_exc(limit=4)


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its
    value; the maximum when there are too few samples for one."""
    ordered = sorted(latencies)
    if len(ordered) < 11:
        return 100.0, ordered[-1]
    k = len(ordered) - 11
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def timed_run(workload, seconds: float, pause, pauses: int) -> dict:
    """Run tasks for ``seconds`` of wall time, split into ``pauses + 1``
    equal segments with an untimed call of ``pause`` between two segments."""
    latencies: list[float] = []
    failures: list[tuple[int, str]] = []
    wall = 0.0
    i = 0
    for segment in range(pauses + 1):
        if segment:
            pause()
        start = time.perf_counter()
        deadline = start + seconds / (pauses + 1)
        while i == 0 or time.perf_counter() < deadline:
            task = workload.tasks[i % len(workload.tasks)]
            t0 = time.perf_counter()
            ok, detail = run_task(task)
            latencies.append(time.perf_counter() - t0)
            if not ok:
                failures.append((i, detail))
            i += 1
        wall += time.perf_counter() - start
    pct, tail_s = tail(latencies)
    usage = resource.RUSAGE_CHILDREN if workload.traced is not None else resource.RUSAGE_SELF
    return {
        "attempted": i,
        "failures": failures,
        "metrics": {
            "tasks_per_s": (i - len(failures)) / wall,
            "latency_p50_ms": 1e3 * statistics.median(latencies),
            "latency_tail_ms": 1e3 * tail_s,
            "error_rate": len(failures) / i,
            "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
        },
        "notes": {"latency_tail_ms": f"p{pct:.1f} of {i} samples"},
    }


def traced_run(name: str, workload, seed: int, workdir: Path) -> dict:
    """Run the first ``trace_tasks`` tasks untraced and traced, one after the
    other, after a traced repeat of the set-up."""
    from spans import Tracer, layer_metrics, merge
    from workloads import WORKLOADS

    tracer = Tracer()
    with tracer.installed():
        WORKLOADS[name](seed, workdir)
    failures: list[tuple[int, str]] = []
    plain_s = traced_s = 0.0
    traced_tasks = workload.traced if workload.traced is not None else workload.tasks
    for i in range(workload.trace_tasks):
        t0 = time.perf_counter()
        ok, detail = run_task(workload.tasks[i])
        plain_s += time.perf_counter() - t0
        if not ok:
            failures.append((i, detail))
        with tracer.installed():
            traced = traced_tasks[i]
            t0 = time.perf_counter()
            ok, detail = run_task(traced)
            traced_s += time.perf_counter() - t0
        if not ok:
            failures.append((i, "traced: " + detail))
    summary = tracer.summary()
    for child in workload.child_summaries:
        summary = merge(summary, {k: v for k, v in child.items() if k != "import_s"})
    metrics = layer_metrics(summary)
    imports = [child["import_s"] for child in workload.child_summaries]
    metrics["cli.import_s"] = statistics.median(imports) if imports else 0.0
    metrics["trace.overhead_frac"] = (traced_s - plain_s) / plain_s
    return {"attempted": 2 * workload.trace_tasks, "failures": failures, "metrics": metrics,
            "notes": {}}


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = json.loads(SPEC.read_text())
    workdir = ROOT / ".bench_tmp" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(SRC))
    try:
        workload, setup_s = set_up(name, seed, workdir)
        if trace:
            result = traced_run(name, workload, seed, workdir)
            wanted = spec["per_layer"]
        else:
            setups = [setup_s]
            result = timed_run(workload, seconds, pauses=SETUP_REPS - 1,
                               pause=lambda: setups.append(set_up(name, seed, workdir)[1]))
            result["metrics"]["setup_s"] = statistics.median(setups)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still has its directory there
            pass
    for index, detail in result["failures"]:
        print(f"FAILED workload={name} seed={seed} task={index}: {detail}", file=sys.stderr)
    metrics = {}
    for entry in wanted:
        value = result["metrics"][entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    # error_rate is printed but is no BENCHMARK.json metric: it is 0 when all is well
    shown = dict(metrics)
    if not trace:
        shown["error_rate"] = {"value": result["metrics"]["error_rate"], "unit": "fraction"}
    for metric, entry in shown.items():
        note = result["notes"].get(metric, "")
        print(f"{name:>10}  {metric:<44} {entry['value']:>14.6g} {entry['unit']:<9} {note}")
    failed = len(result["failures"])
    return {"correct": failed == 0, "attempted": result["attempted"], "failed": failed,
            "metrics": metrics}


def run_all(seed: int, seconds: float, out: str | None) -> dict:
    from workloads import WORKLOADS

    record = {"machine": machine(), "seed": seed, "seconds": seconds, "workloads": {}}
    attempted = failed = 0
    metrics = {}
    for name in WORKLOADS:
        record["workloads"][name] = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, check=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[1:-1]), flush=True)
            result = json.loads(lines[-1])
            kind = "per_layer" if trace else "end_to_end"
            record["workloads"][name][kind] = result
            # the printed table also holds the tail's percentile and sample count
            record["workloads"][name][kind + "_table"] = lines[1:-1]
            attempted += result["attempted"]
            failed += result["failed"]
            metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    if out:
        Path(out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --workload all: write the run record here")
    args = parser.parse_args(argv)
    if not (SRC / "cliffcalc" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"no cliffcalc sources under {SRC} or no {SPEC.name}; run from a checkout",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from all, {', '.join(WORKLOADS)}")
    info = machine()
    print("machine: " + ", ".join(f"{k}={v}" for k, v in info.items()))
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.out)
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
