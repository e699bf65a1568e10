"""Benchmark of the g2sew library: one closed-loop client, seeded inputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src`` directory.  Earlier lines of standard output are ``{"info": ...}``
records; the last line is the result: ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones,
measured with nothing patched.  With ``--trace 1`` they are the per-layer
ones: the tracer is installed once and records every other round, and the
ratio of the untraced rounds' throughput to the traced rounds' is the
tracing overhead.  Workloads, metrics and predictions
are described in README.md beside this file.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

T_START = time.perf_counter()
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
# set-ups timed before the loop, and again after the checks, so that the
# median of the two groups spans the run's changes of machine speed
SETUP_REPS = 5
# the timed loop stops at the next round boundary after this much wall time,
# so a run ends well inside three minutes even on a slow machine
DEADLINE_S = 130.0
# One BLAS thread, set before numpy loads.  The matrices are at most 48 x 48;
# on two cores OpenBLAS splits a 48 x 48 complex product over two threads and
# takes about 14 times as long as one thread (0.34 ms against 24 us), and
# longer still, by a varying amount, while the other core is busy.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

sys.path.insert(0, str(HERE))
from tracer import Tracer, layer_metrics, write_spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def import_program():
    """A fresh import of g2sew from this checkout's ``src``."""
    for name in [n for n in sys.modules if n == "g2sew" or n.startswith("g2sew.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    g = importlib.import_module("g2sew")
    if Path(g.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"g2sew imported from {g.__file__}, not from {SRC}")
    return g


def setup(name: str, seed: int, reps: int):
    """Import, build the seeded input stream and run the fixed warm-up op,
    ``reps`` times over; returns the last workload and the times."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        wl = WORKLOADS[name](import_program(), seed, OUT)
        wl.warmup()
        times.append(time.perf_counter() - t0)
    return wl, times


def measure(wl, seconds: float, min_ops: int, deadline: float,
            tracer: Tracer | None = None):
    """Closed loop: stop at a round boundary once the ops have been busy
    ``seconds`` and ``min_ops`` ran.  Inputs are prepared before each timer
    starts; outputs are checked later.  With a tracer, every odd round is
    recorded and the loop stops after one; ``traced`` flags those ops and
    ``cpu`` is their process CPU time."""
    rnd = len(wl.KINDS)
    stop_every = rnd if tracer is None else 2 * rnd
    records, lat, traced = [], [], []
    busy = cpu = 0.0
    k = 0
    while True:
        inp = wl.prepare(k)
        on = tracer is not None and (k // rnd) % 2 == 1
        if on:
            tracer.op, tracer.recording = k, True
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            out, err = wl.run(inp), None
        except Exception as exc:  # a failed op; reported with the checks
            out, err = None, exc
        dt = time.perf_counter() - t0
        if on:
            cpu += time.process_time() - c0
            tracer.recording = False
        busy += dt
        lat.append(dt)
        traced.append(on)
        records.append((inp, out, err))
        k += 1
        if k % stop_every == 0 and ((busy >= seconds and k >= min_ops)
                                    or time.perf_counter() > deadline):
            return records, lat, traced, cpu


def check(wl, records) -> list[str]:
    failures = []
    for inp, out, err in records:
        if err is not None:
            failures.append(f"{type(err).__name__}: {err}")
            continue
        try:
            reason = wl.check(inp, out)
        except Exception as exc:  # the reference computation itself failed
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason:
            failures.append(reason)
    return failures


def repeat_share(wl, records) -> float:
    """Share of requested evaluations whose torus (or series order) already
    appeared earlier in the run."""
    seen, repeats, total = set(), 0, 0
    for inp, _, _ in records:
        for key in wl.keys(inp):
            total += 1
            repeats += key in seen
            seen.add(key)
    return repeats / max(total, 1)


def environment() -> dict:
    import numpy

    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": numpy.__version__,
           "blas_threads": {v: os.environ.get(v, "unset") for v in BLAS_THREAD_VARS}}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        env["blas"] = "unknown"
    cli = sys.modules.get("g2sew.cli")
    if cli is not None:
        try:
            args = cli.build_parser().parse_args(["sweep", "--over", "eps",
                                                  "--start", "0", "--stop", "0"])
            env["cli_sweep_pool_threads"] = getattr(args, "jobs", None)
        except SystemExit:  # the sweep command's flags changed
            env["cli_sweep_pool_threads"] = None
    return env


def run(name: str, seed: int, seconds: float, trace: bool,
        min_ops: int | None = None, setup_reps: int = SETUP_REPS) -> tuple[dict, dict]:
    """One benchmark run; returns (result, info)."""
    OUT.mkdir(exist_ok=True)
    wl, setup_times = setup(name, seed, 1 if trace else setup_reps)
    min_ops = wl.MIN_OPS if min_ops is None else min_ops
    info = {"workload": name, "seed": seed, "environment": environment()}
    deadline = T_START + DEADLINE_S
    if not trace:
        records, lat, _, _ = measure(wl, seconds, min_ops, deadline)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ms = [1000.0 * x for x in lat]
        tail = statistics.quantiles(ms, n=100)[wl.TAIL_PCT - 1] if len(ms) > 1 else ms[0]
        metrics = {
            "throughput_ops_s": (len(lat) / sum(lat), "1/s"),
            "latency_p50_ms": (statistics.median(ms), "ms"),
            "latency_tail_ms": (tail, "ms"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        info.update(ops=len(lat), busy_s=sum(lat), tail_percentile=wl.TAIL_PCT,
                    tail_samples_beyond=sum(1 for x in ms if x > tail))
    else:
        tracer = Tracer()
        with tracer:
            records, lat, traced, cpu = measure(wl, seconds, min_ops, deadline, tracer)
        lat1 = [x for x, on in zip(lat, traced) if not on]
        lat2 = [x for x, on in zip(lat, traced) if on]
        metrics = layer_metrics(tracer.spans, len(lat2), cpu)
        metrics["trace.overhead_ratio"] = (
            (len(lat1) / sum(lat1)) / (len(lat2) / sum(lat2)), "ratio")
        spans_path = OUT / f"spans-{name}.tsv"
        write_spans(tracer.spans, spans_path)
        info.update(untraced_ops=len(lat1), traced_ops=len(lat2),
                    spans=len(tracer.spans), spans_file=str(spans_path.relative_to(HERE.parent)))
    failures = check(wl, records)
    if not trace:
        setup_times += setup(name, seed, setup_reps)[1]
        metrics["setup_s"] = (statistics.median(setup_times), "s")
    info["repeat_share"] = repeat_share(wl, records)
    info["failures"] = failures[:5]
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "g2sew" / "__init__.py").is_file():
        print(f"run.py: no program source at {SRC}", file=sys.stderr)
        return 2
    result, info = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for reason in info["failures"]:
        print(f"run.py: failed op: {reason}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
