"""Benchmark of the eit program: training, probing and gradient checking,
end to end and per module, checked against a plain-numpy reference.

    python3 perfbench/run.py --workload train-small --seed 0 --seconds 25 --trace 0

runs one workload in this process and prints, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and the metrics that
BENCHMARK.json lists (``end_to_end`` with ``--trace 0``, ``per_layer`` with
``--trace 1``). Without ``--workload`` it runs every workload, each in its
own process, untraced and then traced, and prints a summary with the
tracing overhead. Run it from the root of the repository; it imports the
program from ``src/`` and writes only under ``perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench-out")
SETUP_REPEATS = 5


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def import_program():
    """Import ``eit`` from this checkout's sources and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import eit
    except ImportError as e:
        sys.exit(f"cannot import the program from {SRC}: {e}")
    if not os.path.abspath(eit.__file__).startswith(SRC + os.sep):
        sys.exit(f"eit was imported from {eit.__file__}, not from {SRC}")


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing the program, as a user's
    command pays it."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import eit.cli, eit.train"],
                   cwd=ROOT, env=dict(os.environ, PYTHONPATH=SRC), check=True,
                   capture_output=True)
    return time.perf_counter() - t0


UNIT_SUFFIXES = (("images_per_s", "images/s"), ("evals_per_s", "evaluations/s"),
                 ("_ms", "ms"), ("_mib", "MiB"), ("_gflops", "GFLOP/s"),
                 ("_frac", "ratio"), ("rounds", "count"), ("_s", "s"))


def unit_of(name: str, units: dict) -> str:
    """The unit BENCHMARK.json gives the name (without a [policy] suffix),
    else the one its suffix implies."""
    base = name.split("[")[0]
    if base in units:
        return units[base]
    return next(unit for suffix, unit in UNIT_SUFFIXES if base.endswith(suffix))


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import_program()
    import checks
    import tracing
    import workloads

    spec = load_spec()
    workdir = os.path.join(OUT, f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}")
    os.makedirs(workdir)
    wl = workloads.WORKLOADS[name](seed, workdir)
    tracer = tracing.Tracer() if trace else None
    if tracer:
        workloads.instrument(tracer)
    try:
        setup = []
        for _ in range(SETUP_REPEATS):
            imported = import_seconds()
            t0 = time.perf_counter()
            wl.setup()
            setup.append(imported + time.perf_counter() - t0)
        wl.warm_up()
        since = time.perf_counter()
        rates, rounds = defaultdict(list), []
        while True:
            t0 = time.perf_counter()
            for key, value in wl.round().items():
                rates[key].append(value)
            rounds.append(time.perf_counter() - t0)
            if time.perf_counter() - since + tracing.median(rounds) > seconds:
                break
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        if tracer:
            tracer.restore()

    correct = True
    try:
        wl.check()
    # besides a failed check: outputs missing because every round failed,
    # or unreadable output files
    except (checks.CheckFailed, AttributeError, KeyError, OSError, ValueError):
        traceback.print_exc()
        correct = False

    figures = {"setup_s": tracing.median(setup), "peak_rss_mib": peak_rss}
    for key, values in rates.items():
        figures[key] = tracing.median(values)
    report = wl.report(figures)
    report["rounds"] = len(rounds)
    if tracer:
        layer = wl.traced(tracing.SpanIndex(tracer.spans), since)
        layer["tensor.gemm_ceiling_gflops"] = tracing.gemm_ceiling_gflops()
        layer["model.fwd_ceiling_frac"] = (layer["model.fwd_gflops"]
                                           / layer["tensor.gemm_ceiling_gflops"])
        tracer.dump(os.path.join(OUT, f"trace-{name}.json"))
        figures.update(layer)
        report.update(layer)
    shutil.rmtree(workdir)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for key in sorted(report):
        print(f"{key} = {report[key]:.6g} {unit_of(key, units)}")
    with open(os.path.join(OUT, f"result-{name}-trace{int(trace)}.json"), "w") as f:
        json.dump({"seed": seed, "seconds": seconds, "correct": correct,
                   "setup": setup, "rates": rates, "figures": figures,
                   "report": report}, f, indent=1)
    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in figures]
    if missing:
        print(f"error: {name} measured no {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": correct, "attempted": wl.attempted, "failed": wl.failed,
        "metrics": {m["name"]: {"value": float(figures[m["name"]]),
                                "unit": m["unit"]} for m in wanted}}))
    return 0 if correct else 1


def run_all(seed: int, seconds: float) -> int:
    """The negative controls, then every workload in its own process,
    untraced and then traced."""
    import workloads
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    here = os.path.dirname(os.path.abspath(__file__))
    status = subprocess.run([sys.executable, os.path.join(here, "selftest.py")],
                            cwd=ROOT).returncode
    for name in workloads.NAMES:
        results = []
        for trace in (0, 1):
            argv = [sys.executable, os.path.join(here, "run.py"), "--workload",
                    name, "--seed", str(seed), "--seconds", str(seconds),
                    "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            status = status or proc.returncode
            with open(os.path.join(OUT, f"result-{name}-trace{trace}.json")) as f:
                results.append(json.load(f))
        plain, traced = results
        print(f"== {name} (seed {seed}, {seconds:g} s, correct: "
              f"{plain['correct'] and traced['correct']})")
        for key in sorted(traced["report"]):
            value, untraced = traced["report"][key], plain["report"].get(key)
            line = f"  {key} = {value:.6g} {unit_of(key, units)}"
            if untraced is not None:
                line = f"  {key} = {untraced:.6g} {unit_of(key, units)} " \
                       f"(traced {value:.6g}, {value / untraced - 1:+.1%})"
            print(line)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    os.makedirs(OUT, exist_ok=True)
    if args.workload is None:
        import_program()
        return run_all(args.seed, seconds)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    return run_workload(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
