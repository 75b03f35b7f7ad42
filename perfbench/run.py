"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload price-isp --seed 1 --seconds 20 --trace 0

A closed loop with one client, in a fresh process per workload.  The
inputs are set up several times, one untimed warm-up op runs, then
identical ops run back to back for ``--seconds``.  Before each op the
previous result is dropped and ``gc.collect()`` runs; the host
reference loop is timed just before and just after each setup and each
op, while no program work and no worker pool is alive.  A normalised
time is the wall time divided by the mean of those two loops.
``op_p50_norm`` is the median normalised op; ``setup_s`` is the median
normalised setup times the reference loop's nominal seconds
(``host.REF_NOMINAL_S``), so both follow the program, not the host's
speed of the moment.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced ops with traced ones (the same op split into its public layer
calls under benchmark-side spans), adds one ``tracemalloc`` op for the
peak-memory columns, and prints the per-layer ledger.  Every op is
checked; the last line of output is one JSON object and the exit code
is 1 if any op failed its check.  Every process the run started (pool
workers, multiprocessing's resource tracker) has ended before it exits.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
import tracemalloc
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

import host
import ledger

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_REPS_MIN = 3
SETUP_REPS_MAX = 15
SETUP_BUDGET_S = 1.0
MIN_OPS = 3

class Checker:
    """Counts attempted and failed ops; an op fails if it raises, fails
    its own check, or its digest or exact counts differ from the first
    op's."""

    def __init__(self, workload, inputs) -> None:
        self.workload = workload
        self.inputs = inputs
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, result, error: Optional[BaseException]):
        self.attempted += 1
        problem = ""
        outcome = None
        if error is not None:
            problem = f"raised {error!r}"
        else:
            outcome = self.workload.outcome(self.inputs, result)
            if not outcome.ok:
                problem = outcome.why
            elif self.first is None:
                self.first = outcome
            elif (outcome.digest, outcome.counts) != (
                self.first.digest,
                self.first.counts,
            ):
                problem = (
                    f"output {outcome.digest} {outcome.counts} differs from "
                    f"first op {self.first.digest} {self.first.counts}"
                )
        if problem:
            self.failed += 1
            self.problems.append(f"op {self.attempted}: {problem}")
            return None
        return outcome


@dataclass
class Sample:
    """One timed op or setup and the reference loops just before and
    after it."""

    traced: bool
    wall: float
    before: float
    after: float

    @property
    def norm(self) -> float:
        return self.wall / ((self.before + self.after) / 2.0)


def timed_op(fn: Callable, checker: Checker, traced: bool = False):
    """One op between two reference loops; returns (sample, outcome)."""
    gc.collect()
    before = host.reference_loop()
    start = time.perf_counter()
    error = None
    try:
        result = fn()
    except Exception as exc:  # counted as a failed op
        traceback.print_exc()
        result, error = None, exc
    wall = time.perf_counter() - start
    after = host.reference_loop()
    outcome = checker.check(result, error)
    return Sample(traced, wall, before, after), outcome


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import repro.obs
    from repro.devtools import sanitize

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    repro.obs.disable()
    sanitize.disable()
    workload = workloads.WORKLOADS[args.workload]

    setups: List[Sample] = []
    inputs = None
    after = host.reference_loop()
    while len(setups) < SETUP_REPS_MIN or (
        sum(s.wall for s in setups) < SETUP_BUDGET_S
        and len(setups) < SETUP_REPS_MAX
    ):
        inputs = None
        gc.collect()
        before = after
        start = time.perf_counter()
        inputs = workload.setup(args.seed)
        wall = time.perf_counter() - start
        after = host.reference_loop()
        setups.append(Sample(False, wall, before, after))
    workload.prepare_checks(inputs)

    checker = Checker(workload, inputs)
    samples: List[Sample] = []
    counts: List[Dict[str, float]] = []
    sink = repro.obs.MemorySink()
    obs = repro.obs.Obs(sinks=[sink])

    def op():
        return workload.op(inputs)

    def traced(rec):
        with rec.root():
            return workload.traced_op(inputs, rec)

    timed_op(op, checker)  # warm-up
    start = time.perf_counter()
    while sum(not s.traced for s in samples) < MIN_OPS or (
        time.perf_counter() - start < args.seconds
    ):
        samples.append(timed_op(op, checker)[0])
        if args.trace:
            rec = ledger.Recorder(obs, op=len(counts))
            sample, outcome = timed_op(lambda: traced(rec), checker, traced=True)
            samples.append(sample)
            counts.append({**rec.counts, **(outcome.counts if outcome else {})})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    peaks: Dict[str, float] = {}
    if args.trace:
        tracemalloc.start()
        rec = ledger.Recorder(repro.obs.Obs(), op=-1, memory=True)
        timed_op(lambda: traced(rec), checker, traced=True)
        tracemalloc.stop()
        peaks = rec.peaks

    refs = [ref for s in samples for ref in (s.before, s.after)]
    walls = [s.wall for s in samples if not s.traced]
    untraced_norm = statistics.median(s.norm for s in samples if not s.traced)
    if args.trace:
        metrics = ledger.layer_metrics(sink.of_kind("span"), counts, peaks)
        metrics["host.ref_s"] = statistics.median(refs)
        metrics["trace.overhead"] = (
            statistics.median(s.norm for s in samples if s.traced) / untraced_norm
            - 1.0
        )
    else:
        # Raw op and setup seconds are printed below but not gated: they
        # follow the host's speed, which moved by more than half within
        # one set of ten runs (see README.md).
        metrics = {
            "setup_s": statistics.median(s.norm for s in setups) * host.REF_NOMINAL_S,
            "op_p50_norm": untraced_norm,
            "peak_rss_mb": peak_rss_mb,
        }

    units = ledger.units("per_layer" if args.trace else "end_to_end")
    stamp = host.stamp(ROOT, workloads.nproc(), args.seed, len(walls), refs)
    first = checker.first.counts if checker.first else {}
    print(f"# {workload.name}: {workload.why}")
    print(f"# stamp {json.dumps(stamp, sort_keys=True)}")
    ops = f"  (n={len(walls)} ops)"
    print(f"{'op_p50_s':32s} {statistics.median(walls):14.6f} s{ops} raw wall time")
    raw_setup = statistics.median(s.wall for s in setups)
    print(f"{'setup_raw_s':32s} {raw_setup:14.6f} s  (n={len(setups)}) raw wall time")
    for name, value in metrics.items():
        note = ops if name.startswith("op_") else ""
        print(f"{name:32s} {value:14.6f} {units[name]}{note}")
    for name, value in first.items():
        print(f"{name:32s} {value:14.6f} exact")
    rate = checker.failed / max(checker.attempted, 1)
    print(f"{'error_rate':32s} {rate:14.6f} ({checker.failed}/{checker.attempted} ops)")
    for problem in checker.problems:
        print(f"FAIL {problem}")

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": workload.name,
        "trace": args.trace,
        "stamp": stamp,
        "metrics": metrics,
        "exact": first,
        "setups": [asdict(sample) for sample in setups],
        "ops": [asdict(sample) for sample in samples],
        "problems": checker.problems,
        "spans": sink.of_kind("span"),
    }
    out = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str))

    correct = checker.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    host.adopt_orphans()
    try:
        code = main()
    finally:
        host.stop_children()
    sys.exit(code)
