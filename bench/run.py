"""Benchmark of the hqz verifier: one workload per run, one JSON line out.

    python3 bench/run.py --workload t2-corpus --seed 0 --seconds 15 --trace 0

Run from anywhere inside a checkout: hqz is imported from the checkout's
``src`` directory, never from an installed copy.  The run

1. draws the inputs from the seed (in a child, ``--select-only``), then
   times three fresh interpreters
   that each import hqz, construct those inputs and warm up
   (``--setup-only``, inputs on stdin), and reports their median as setup_s;
2. constructs the inputs itself, warms up, and runs whole rounds of the
   workload until the program calls add up to ``--seconds``;
3. reads its peak RSS, then checks the first round against the oracles
   and every later round against the first;
4. prints one JSON object as its last line and writes it, with the trace
   when ``--trace 1``, under ``bench/out/``.

Times are scaled to reference speed.  The host's speed swings by up to
1.7x over minutes (other tenants), which no run length averages away, so
a fixed reference kernel with the workload's kind of work (REFERENCES,
chosen by the workload's ``reference``) runs between program calls,
every SEGMENT_S of call time, and each segment's wall time is scaled by
the kernel's nominal time over the mean of its times around the segment.
The raw rates are kept in the result file.

With ``--trace 0`` the metrics are the end-to-end ones (instances_per_s,
setup_s, peak_rss_mb); with ``--trace 1`` the public functions of hqz are
wrapped and the metrics are the per-layer ones.  The exit code is 0 when
every check passed, 1 when one failed or hqz cannot be imported, 2 on a
usage error.
"""

from __future__ import annotations

import os

# one thread everywhere: the benchmark measures the single-threaded program
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
WORKLOAD_NAMES = ("t2-corpus", "t1-zygmund", "fd-audit", "green-ball")
SETUP_REPEATS = 3

SEGMENT_S = 0.1
_REF_C = np.arange(65) * (0.5 + 0.25j)
_REF_SMALL = np.exp(1j * np.linspace(0.0, 6.0, 256))
_REF_LARGE = np.exp(1j * np.linspace(0.0, 6.0, 1 << 17))


def small_arrays() -> float:
    """Seconds for Python arithmetic and Horner steps on 256-point arrays:
    interpreter-bound, like most of hqz's circle and disk evaluation."""
    start = time.perf_counter()
    for _ in range(40):
        acc = np.zeros_like(_REF_SMALL)
        for c in _REF_C:
            acc = acc * _REF_SMALL + c
        s = 0.0
        for i in range(2000):
            s += i * 0.5
    return time.perf_counter() - start


def large_arrays() -> float:
    """Seconds for Horner steps and a logarithm on 2^17-point arrays:
    memory-bound, like circle rules refined past 10^5 nodes."""
    start = time.perf_counter()
    acc = np.zeros_like(_REF_LARGE)
    for c in _REF_C[:32]:
        acc = acc * _REF_LARGE + c
    np.log(np.abs(acc.real) + 1.0)
    return time.perf_counter() - start


#: reference kernel -> (function, its median time between program calls on
#: a 2-CPU Intel Xeon virtual machine, the speed the scaled metrics refer to)
REFERENCES = {"small_arrays": (small_arrays, 0.011), "large_arrays": (large_arrays, 0.015)}


class Clock:
    """Adds up program-call time, raw and scaled to reference speed."""

    def __init__(self, ref, nominal: float) -> None:
        self.ref = ref
        self.nominal = nominal
        self.last_ref = ref()
        self.segment = 0.0
        self.raw = 0.0
        self.scaled = 0.0
        self.refs: list[float] = []

    def add(self, seconds: float) -> None:
        self.segment += seconds
        if self.segment >= SEGMENT_S:
            self.flush()

    def flush(self) -> None:
        if self.segment == 0.0:
            return
        cur = self.ref()
        self.refs.append(cur)
        self.scaled += self.segment * self.nominal / (0.5 * (self.last_ref + cur))
        self.raw += self.segment
        self.segment = 0.0
        self.last_ref = cur


def import_hqz():
    if not (SRC / "hqz" / "__init__.py").is_file():
        raise SystemExit(f"hqz sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import hqz
    if Path(hqz.__file__).resolve().parent != SRC / "hqz":
        raise SystemExit(f"imported hqz from {hqz.__file__}, not from {SRC}")
    return hqz


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--select-only", action="store_true",
                    help="print the inputs drawn from the seed as JSON and exit")
    ap.add_argument("--setup-only", action="store_true",
                    help="import, construct the inputs read from stdin, warm up and exit")
    args = ap.parse_args(argv)
    if not (args.seconds > 0 and math.isfinite(args.seconds)):
        ap.error("--seconds must be a positive number")
    return args


def child_command(args) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed)]


def timed_setups(args, selection: dict) -> tuple[float, list[float]]:
    """Median scaled wall time of fresh interpreters running --setup-only,
    and the raw times.  Set-up (start-up, imports, constructing series) is
    interpreter-bound, so it is scaled by the small-array kernel."""
    reference, nominal = REFERENCES["small_arrays"]
    cmd = [*child_command(args), "--setup-only"]
    stdin = json.dumps(selection)
    scaled, raw = [], []
    before = statistics.median(reference() for _ in range(3))
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run(cmd, input=stdin, text=True, check=True, stdout=subprocess.DEVNULL)
        raw.append(time.perf_counter() - start)
        after = statistics.median(reference() for _ in range(3))
        scaled.append(raw[-1] * nominal / (0.5 * (before + after)))
        before = after
    return statistics.median(scaled), raw


def numbers(obj) -> list[float]:
    """Every number in a program output, in a fixed order."""
    if dataclasses.is_dataclass(obj):
        return [x for f in dataclasses.fields(obj) for x in numbers(getattr(obj, f.name))]
    if isinstance(obj, dict):
        return [x for k in sorted(obj) for x in numbers(obj[k])]
    if isinstance(obj, (list, tuple)):
        return [x for item in obj for x in numbers(item)]
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (int, float)):
        return [float(obj)]
    return []


def same_outputs(first: dict, later: dict) -> bool:
    a = [numbers(first[k]) for k in sorted(first)]
    b = [numbers(later[k]) for k in sorted(later)]
    return len(a) == len(b) and all(
        len(x) == len(y) and all(u == v or abs(u - v) <= 1e-12 * max(1.0, abs(u))
                                 for u, v in zip(x, y))
        for x, y in zip(a, b))


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    import_hqz()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    if args.select_only:
        print(json.dumps(wl.select(args.seed)))
        return 0
    if args.setup_only:
        wl.warm_up(wl.build(json.load(sys.stdin)))
        return 0

    reference, nominal = REFERENCES[wl.reference]
    # selection classifies a seed-dependent number of candidates; doing it
    # in a child keeps that work out of this process's heap, so the timed
    # process runs the same allocations for every seed
    selection = json.loads(subprocess.run(
        [*child_command(args), "--select-only"], check=True, capture_output=True,
        text=True).stdout)
    setup_s, setup_raw = (None, None) if args.trace else timed_setups(args, selection)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    inputs = wl.build(selection)
    wl.warm_up(inputs)

    clock = Clock(tracer.wrap("bench.reference", reference, "bench") if tracer else reference,
                  nominal)
    first, rounds, failed, errors, mismatched = None, 0, 0, [], 0
    if tracer:
        tracer.reset()
        tracer.keep_spans = True
    while clock.raw < args.seconds:
        frame = tracer.round_span() if tracer else None
        rnd = wl.run_round(inputs, clock.add)
        clock.flush()
        if tracer:
            tracer.exit(frame)
            tracer.keep_spans = False
        rounds += 1
        failed += rnd.failed
        errors.extend(rnd.errors)
        if first is None:
            first = rnd
        elif not same_outputs(first.outputs, rnd.outputs):
            mismatched += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = rounds * wl.instances
    if tracer:
        # before the checks, which call the program again
        metrics = tracer.metrics(attempted, clock.scaled)
        trace = tracer.report(attempted, clock.raw)

    problems = list(wl.check(inputs, first))
    if mismatched:
        problems.append(f"{mismatched} of {rounds - 1} later rounds differ from the first")
    if not tracer:
        metrics = {
            "instances_per_s": {"value": attempted / clock.scaled, "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    for line in (errors + problems)[:20]:
        print(line, file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({
        **result, "rounds": rounds, "raw_instances_per_s": attempted / clock.raw,
        "raw_setup_s": setup_raw, "reference_s_median": statistics.median(clock.refs),
        "problems": problems, "errors": errors}, indent=1))
    if tracer:
        (OUT / f"{stem}.trace.json").write_text(json.dumps(trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
