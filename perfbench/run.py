"""Run one orbitsep benchmark workload and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload pool_zd2 --seed 1 --seconds 20 --trace 0

The harness imports ``orbitsep`` from ``src/``, builds the workload's
operations from the seed, and runs them as a closed loop: one operation at a
time, in one process, with no threads.  Every operation checks its output.

Set-up is the import plus input generation and warm-up; the latter two are
timed five times and their median taken.  Untraced (``--trace 0``): whole
passes over the operations repeat while another pass still fits in
``--seconds``.  Each operation's times are divided by the machine's slowness
around it, measured with ``reference_kernel`` run after every operation, and
taken at the median over the passes; end-to-end metrics are computed from
those times, and set-up is calibrated the same way.  See README.md for why.

Traced (``--trace 1``): one untraced pass, then one pass with the tracer
installed.  It prints the per-layer metrics, the tracing overhead (traced
pass minus untraced pass), and writes every span to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0,
1 when an output was wrong, or 2 when the library cannot be imported.
"""

import argparse
import hashlib
import json
import pathlib
import resource
import statistics
import sys
from collections import deque
from fractions import Fraction
from time import perf_counter

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 5
WARMUP_OPS = 5
# Timed passes run each check this many times and take the median.
CHECK_REPEATS = 5
# Times are reported at the machine speed where reference_kernel() takes
# REFERENCE_MS.  After every operation it runs until it has taken
# KERNEL_SHARE of the operation's time; an operation's slowness comes from
# the kernel runs after it and after the CALIBRATION_WINDOW operations on
# either side.
REFERENCE_MS = 0.8
KERNEL_SHARE = 0.07
CALIBRATION_WINDOW = 10
# Tail percentile: the highest of these with at least 10 operations beyond it.
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--ops", type=int, default=None, help="run only the first N operations"
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or (args.ops is not None and args.ops < 1):
        parser.error("--seed must be >= 0, --seconds > 0 and --ops >= 1")
    return args


def percentile(values, p):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(values) * p // 100))
    return values[int(rank) - 1]


def tail_percentile(n):
    return next(p for p in TAIL_LADDER if n * (100 - p) / 100 >= 10 or p == 50.0)


class Outcomes:
    """Every attempt of every operation, and the checks across attempts."""

    def __init__(self, n_ops):
        self.attempts = [[] for _ in range(n_ops)]
        self.problems = []

    def add(self, i, attempt):
        status, _, _, _, output = attempt
        if status == "wrong":
            self.problems.append(f"operation {i}: {output}")
        previous = self.attempts[i]
        if previous and (previous[0][0], previous[0][4]) != (status, output):
            self.problems.append(f"operation {i}: output changed between runs")
        previous.append(attempt)

    def digest(self):
        text = "\n".join(repr((a[0][0], a[0][4])) for a in self.attempts if a)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def counts(self):
        """(operations run, operations that failed).

        Each operation counts once however many passes ran it, so the
        counts depend only on the seed, not on how many passes fit.
        """
        tried = [per_op for per_op in self.attempts if per_op]
        return len(tried), sum(1 for per_op in tried if per_op[0][0] != "ok")


def reference_kernel():
    """A fixed breadth-first search over Z^2 and a Fraction sum, in plain Python.

    It has the shape of the library's work (tuples, a set, a deque, exact
    rationals) and shares no code with the library, so it measures only how
    fast the machine runs Python at the moment.
    """
    seen = {(0, 0)}
    queue = deque(seen)
    while len(seen) < 600:
        x, y = queue.popleft()
        for p in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if p not in seen:
                seen.add(p)
                queue.append(p)
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(1, i % 7 + 1) * Fraction(i, 3)


def calibration_sample(op_s):
    """Run the kernel for KERNEL_SHARE of ``op_s``, at least once: (runs, seconds)."""
    runs, spent = 0, 0.0
    while runs == 0 or spent < KERNEL_SHARE * op_s:
        k0 = perf_counter()
        reference_kernel()
        spent += perf_counter() - k0
        runs += 1
    return runs, spent


def kernel_slowness(samples):
    """The kernel's mean time over ``samples`` from calibration_sample, over REFERENCE_MS."""
    runs = sum(r for r, _ in samples)
    return sum(s for _, s in samples) * 1e3 / runs / REFERENCE_MS


def run_pass(workload, tracer, ops, outcomes, calibrate=False):
    """One pass over the operations; returns (seconds, median slowness).

    With ``calibrate``, the reference kernel runs after every operation (see
    ``calibration_sample``).  An operation's slowness is the kernel's mean
    time over the window of operations around it, over REFERENCE_MS, and its
    times are divided by it.  The machine's speed changes within a second,
    so the kernel has to run between the operations it calibrates, not
    beside them.  Each check is timed at the median of CHECK_REPEATS runs
    and calibrated by the kernel runs right after it alone: it takes well
    under a millisecond, so only the kernel's next runs share its speed.
    """
    repeats = CHECK_REPEATS if calibrate else 1
    t0 = perf_counter()
    results, samples = [], []
    for op in ops:
        results.append(workload.attempt(tracer, op, repeats))
        if calibrate:
            samples.append(calibration_sample(results[-1][1]))
    pass_s = perf_counter() - t0
    slowness = []
    for i, (status, wall, solve, check, output) in enumerate(results):
        factor = check_factor = 1.0
        if calibrate:
            window = samples[max(0, i - CALIBRATION_WINDOW) : i + CALIBRATION_WINDOW + 1]
            factor = kernel_slowness(window)
            # The check ends the operation: the kernel runs right after it.
            check_factor = kernel_slowness(samples[i : i + 1])
        slowness.append(factor)
        wall /= factor
        if status == "ok":
            solve, check = solve / factor, check / check_factor
        outcomes.add(i, (status, wall, solve, check, output))
    return pass_s, statistics.median(slowness)


def setup(workload, seed, limit, tracer):
    """Build the operations and warm up; returns (ops, seconds, outcomes)."""
    t0 = perf_counter()
    ops = workload.build(seed)[:limit]
    warm = Outcomes(len(ops))
    for i, op in enumerate(ops[:WARMUP_OPS]):
        warm.add(i, workload.attempt(tracer, op))
    return ops, perf_counter() - t0, warm


def end_to_end(outcomes, setup_s):
    """The end-to-end metrics from each operation's median attempt."""
    solve, check, wall = [], [], 0.0
    # Not median_low: of two passes it takes the faster, and whether a second
    # pass fits in the run depends on the seed.
    median = statistics.median
    for per_op in outcomes.attempts:
        done = [a for a in per_op if a[0] == "ok"]
        if done:
            wall += median(a[1] for a in done)
            solve.append((0, median(a[2] for a in done)))
            check.append(median(a[3] for a in done))
        else:
            # A failed operation misses every latency limit: it ranks last.
            wall += median(a[1] for a in per_op)
            solve.append((1, median(a[1] for a in per_op)))
    solve.sort()
    check.sort()
    tail = tail_percentile(len(solve))
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "ops_per_s": (len(check) / wall, "1/s"),
        "solve_ms_p50": (percentile(solve, 50)[1] * 1e3, "ms"),
        "solve_ms_tail": (percentile(solve, tail)[1] * 1e3, "ms"),
        "check_ms_p50": (percentile(check, 50) * 1e3 if check else 0.0, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (rss_kib / 1024, "MiB"),
    }
    return metrics, tail


def main(argv=None):
    if not (SRC / "orbitsep").is_dir():
        print(f"perfbench: no orbitsep sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    try:
        import tracer as tracing
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import orbitsep: {exc}", file=sys.stderr)
        return 2
    import_s = perf_counter() - t0

    args = parse_args(argv, sorted(WORKLOADS))
    workload = WORKLOADS[args.workload]
    null = tracing.NullTracer()

    # Set-up is calibrated like the operations: each repeat by the kernel
    # runs right after it, the import by those after the first repeat.
    setups = []
    for _ in range(SETUP_REPEATS):
        ops, seconds, warm = setup(workload, args.seed, args.ops, null)
        setups.append((seconds, kernel_slowness([calibration_sample(seconds)])))
    setup_s = import_s / setups[0][1] + statistics.median(s / f for s, f in setups)
    outcomes = Outcomes(len(ops))

    if args.trace:
        untraced_s, _ = run_pass(workload, null, ops, outcomes)
        tracer = tracing.Tracer()
        tracer.install()
        attempted, failed = len(ops), 0
        try:
            t0 = perf_counter()
            for i, op in enumerate(ops):
                tracer.begin_op(i)
                result = workload.attempt(tracer, op)
                tracer.end_op(result[0] == "ok")
                failed += result[0] != "ok"
                outcomes.add(i, result)
            traced_s = perf_counter() - t0
        finally:
            tracer.uninstall()
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-{args.seed}.json"
        tracer.write_spans(spans_path)
        metrics = tracer.metrics(traced_s - untraced_s)
        print(f"workload {args.workload}  seed {args.seed}  operations {len(ops)}")
        print(f"untraced pass {untraced_s:.3f} s  traced pass {traced_s:.3f} s")
        print(f"spans written to {spans_path.relative_to(HERE.parent)}")
        for name, m in metrics.items():
            print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    else:
        start = perf_counter()
        passes = 0
        slowness = []
        while True:
            pass_s, factor = run_pass(workload, null, ops, outcomes, calibrate=True)
            slowness.append(factor)
            passes += 1
            if perf_counter() - start + pass_s > args.seconds:
                break
        measured_s = perf_counter() - start
        values, tail = end_to_end(outcomes, setup_s)
        attempted, failed = outcomes.counts()
        print(f"workload {args.workload}  seed {args.seed}  operations {len(ops)}")
        print(f"passes {passes} in {measured_s:.3f} s; each operation timed at its median pass")
        print("machine slowness per pass " + " ".join(f"{f:.3f}" for f in slowness))
        for name, (value, unit) in values.items():
            print(f"  {name:16s} {value:>12.6g} {unit}")
        print(f"  {'fail_share':16s} {failed / attempted:>12.6g} ratio")
        print(f"  solve_ms_tail is p{tail:g} over {len(ops)} operations")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}

    for i, attempts in enumerate(warm.attempts):
        for attempt in attempts:
            outcomes.add(i, attempt)
    print(f"output digest {outcomes.digest()}")
    for problem in outcomes.problems:
        print(f"WRONG: {problem}")
    correct = not outcomes.problems
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
