"""routenet benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Runs workload W (programs, chain, areas, graph) as a closed loop with one
client in this process.  The seed makes the inputs; routenet receives only
those inputs.  A pass is one op per input in a seeded order; the loop runs
whole passes while the next one is expected to end within S seconds.  Every
op's output is checked against an oracle outside the timed region.  Each
input's time is its median over the passes, each op scaled to a reference
host speed measured by hostspeed.py around it; the unscaled values are on
the stamp line (see README.md).

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
passes with passes under the span recorder, prints the per-layer metrics
per traced pass and writes the spans to perfbench/out/.  The last stdout line is the JSON result; the line before
it stamps the run with the Python version and nproc.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 5

sys.path.insert(0, str(HERE))
import hostspeed  # noqa: E402
from spans import Recorder, UNITS as LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = ("lang", "translate", "rewrite", "proofnet", "routing", "paths", "multirel", "gen")


def load_routenet():
    """Import routenet afresh from the checkout's sources."""
    for name in [m for m in sys.modules if m == "routenet" or m.startswith("routenet.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    importlib.import_module("routenet")
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"routenet.{m}") for m in MODULES}
    )


def setup(workload: str, seed: int):
    """Import plus input generation; returns the workload's cases."""
    return WORKLOADS[workload](load_routenet(), random.Random(seed))


class HostClock:
    """Kernel timings (hostspeed.py) taken between ops, at most INTERVAL_S
    apart, so each op can be scaled by the host speed around it."""

    INTERVAL_S = 0.25

    def __init__(self):
        self.samples = [hostspeed.measure()]
        self.last = time.perf_counter()

    def tick(self) -> int:
        """Measures if due; returns the index of the latest sample."""
        if time.perf_counter() - self.last >= self.INTERVAL_S:
            self.samples.append(hostspeed.measure())
            self.last = time.perf_counter()
        return len(self.samples) - 1

    def close(self):
        self.samples.append(hostspeed.measure())

    def scale(self, i: int) -> float:
        """REFERENCE_S over the mean of sample i and the next one, which
        bracket every op timed after tick() returned i."""
        return 2 * hostspeed.REFERENCE_S / (self.samples[i] + self.samples[i + 1])


class Loop:
    """Runs ops, checks their outputs and keeps each case's timings."""

    def __init__(self, cases, order_seed: int):
        self.cases = cases
        self.order = random.Random(order_seed)
        self.expected = {}
        self.attempted = 0
        self.failed = 0
        self.times = new_times(cases)
        self.ticks = new_times(cases)

    def _check(self, k: int, ok: bool, out):
        case = self.cases[k]
        if ok:
            if k not in self.expected:
                self.expected[k] = case.oracle()
            ok = case.agrees(out, self.expected[k])
        if not ok:
            self.failed += 1
            print(f"FAIL {case.label}", file=sys.stderr)

    def one_pass(self, run=None, times=None, tick=None):
        """One op per case in a fresh seeded order, timed into `times`
        (default self.times); `run(k, op)` wraps each op when given, and
        `tick()`, when given, runs before each op and its result is kept in
        self.ticks next to the op's time."""
        times = self.times if times is None else times
        ks = list(range(len(self.cases)))
        self.order.shuffle(ks)
        for k in ks:
            op = self.cases[k].op
            self.attempted += 1
            # Each op starts right after a full collection, so where the
            # collector runs inside an op depends on the op alone, not on
            # what ran before it.
            gc.collect()
            if tick is not None:
                self.ticks[k].append(tick())
            t0 = time.perf_counter()
            try:
                out = op() if run is None else run(k, op)
                ok = True
            except Exception:  # a failed op is counted, never fatal
                out, ok = None, False
                traceback.print_exc(file=sys.stderr)
            times[k].append(time.perf_counter() - t0)
            self._check(k, ok, out)


def new_times(cases) -> list[list[float]]:
    return [[] for _ in cases]


def case_medians(times) -> list[float]:
    """Each case's median op time over the passes."""
    return [statistics.median(ts) for ts in times]


def run_passes(seconds: float, body) -> int:
    """Calls `body` (one or more passes) while the next call is expected to
    end within `seconds` of wall time; at least once.  Returns the count."""
    start = time.perf_counter()
    n, last = 0, 0.0
    while n == 0 or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        body()
        last = time.perf_counter() - t0
        n += 1
    return n


def timing_metrics(per_case: list[float], setup_s: float) -> dict:
    q = statistics.quantiles(per_case, n=10, method="inclusive")
    return {
        "ops_per_s": (len(per_case) / sum(per_case), "1/s"),
        "op_ms_p50": (q[4] * 1000.0, "ms"),
        "op_ms_p90": (q[8] * 1000.0, "ms"),
        "setup_s": (setup_s, "s"),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "routenet" / "__init__.py").is_file():
        print(f"perfbench: routenet sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup_raw, setup_scaled = [], []
    for _ in range(SETUP_REPEATS):
        before = hostspeed.measure()
        t0 = time.perf_counter()
        cases = setup(args.workload, args.seed)
        setup_raw.append(time.perf_counter() - t0)
        cal = (before + hostspeed.measure()) / 2
        setup_scaled.append(setup_raw[-1] * hostspeed.REFERENCE_S / cal)

    loop = Loop(cases, args.seed)

    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "ops_per_pass": len(cases),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    if args.trace == 0:
        clock = HostClock()
        passes = run_passes(args.seconds, lambda: loop.one_pass(tick=clock.tick))
        clock.close()
        scaled = [
            [t * clock.scale(i) for t, i in zip(ts, ix)] for ts, ix in zip(loop.times, loop.ticks)
        ]
        metrics = timing_metrics(case_medians(scaled), statistics.median(setup_scaled))
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        unscaled = timing_metrics(case_medians(loop.times), statistics.median(setup_raw))
        stamp.update({"raw_" + m: v for m, (v, _) in unscaled.items()})
        stamp.update(
            calibration_ms=statistics.median(clock.samples) * 1000.0,
            passes=passes,
            samples=passes * len(cases),
        )
    else:
        # untraced and traced passes alternate, so host drift hits both alike
        rec = Recorder()
        traced = new_times(cases)

        def pair():
            loop.one_pass()
            rec.install()
            try:
                loop.one_pass(rec.op, traced)
            finally:
                rec.uninstall()

        passes = run_passes(args.seconds, pair)
        overhead = sum(case_medians(traced)) / sum(case_medians(loop.times))
        metrics = {m: (v, LAYER_UNITS[m]) for m, v in rec.metrics(passes, overhead).items()}
        stamp.update(passes=passes)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        rec.write(out_dir / f"trace-{args.workload}-seed{args.seed}.json.gz", stamp)

    print(json.dumps(stamp))
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
