"""Seeded workloads of the orbitsep benchmark.

Each workload turns a seed into a fixed list of operations and runs one
operation at a time.  An operation returns ``(solve_s, check_s, extra_s,
output)``: the seconds spent producing the answer, the seconds spent
re-verifying it independently, the seconds spent on repeats of the check
that only time it, and a value that identifies the answer for the output
digest.  A wrong answer raises ``OutputError``.

Library calls go through the module objects (``sep.separate_points``, not a
name imported once) so that the tracer's wrappers see them.
"""

import json
import statistics
from time import perf_counter

import orbitsep as O
from orbitsep import oracle
from orbitsep.errors import BudgetExhaustedError
from orbitsep import separation as sep
from orbitsep.spaces import FreeSpace, ZdSpace


class OutputError(Exception):
    """An operation returned an answer that failed its check."""


# Every (|P|, |Q|) cell of default-SizeCaps zd2 instances with |P| >= 2, in
# equal shares.  random_instance draws |P| and |Q| uniformly, so equal shares
# are the acceptance pool's own mix, fixed instead of left to the seed.  A
# single point never recurses (no Q0 scan, no Q'), solves in microseconds and
# is a quarter of a plain pool: its share would decide the median.
POOL_CELLS = [(p, q) for p in (2, 3, 4) for q in (1, 2, 3, 4, 5)]
POOL_PER_CELL = 64
ORACLE_BOUND = 8


def pool_instances(seed):
    """960 seeded zd2 instances, 64 in each cell, cells interleaved."""
    master = O.SplitMix64(seed)
    cells = {cell: [] for cell in POOL_CELLS}
    missing = len(POOL_CELLS) * POOL_PER_CELL
    while missing:
        inst = O.random_instance("zd2", master.next_u64())
        bucket = cells.get((len(inst.weighted_p), len(inst.q_points)))
        if bucket is not None and len(bucket) < POOL_PER_CELL:
            bucket.append(inst)
            missing -= 1
    return [cells[c][i] for i in range(POOL_PER_CELL) for c in POOL_CELLS]


def timed_check(check, repeats):
    """Run ``check()`` ``repeats`` times back to back.

    Returns its result, the median time of one run, and the time spent on
    the runs after the first.  A check takes 0.05-0.3 ms right after a solve
    of 5-100 ms, so one run of it mostly measures how much of the cache the
    solve left; the median of a few repeats measures the check.
    """
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        result = check()
        times.append(perf_counter() - t0)
    return result, statistics.median(times), sum(times[1:])


def solve_and_check(tracer, inst, repeats=1):
    """Solve, encode and decode the certificate, then re-check it.

    The check is the ``separate --check`` path: JSON decode, then
    ``check_certificate``, which replays the trace.
    """
    action = inst.action()
    space = action.space
    weighted, q_points = inst.weighted_p, inst.q_points
    t0 = perf_counter()
    cert = sep.separate_points(action, weighted, q_points, inst.budget, tracer.stats)
    t1 = perf_counter()
    with tracer.span("codec.encode"):
        text = json.dumps(sep.certificate_to_json(space, cert))

    def check():
        with tracer.span("codec.decode"):
            decoded = sep.certificate_from_json(space, json.loads(text))
        return decoded, sep.check_certificate(action, weighted, q_points, decoded)

    (decoded, problems), check_s, extra_s = timed_check(check, repeats)
    tracer.count("codec.cert_bytes", len(text))
    if problems:
        raise OutputError(f"seed {inst.seed}: check_certificate found {problems}")
    if decoded != cert:
        raise OutputError(f"seed {inst.seed}: decoded certificate differs")
    return t1 - t0, check_s, extra_s, cert.word


def brute_force_and_rerate(tracer, inst, repeats=1):
    """Run the oracle at bound 8, then re-rate its best word independently."""
    action = inst.action()
    weighted, q_points = inst.weighted_p, inst.q_points
    t0 = perf_counter()
    verdict = oracle.brute_force_separate(
        action, weighted, q_points, ORACLE_BOUND, tracer.stats
    )
    t1 = perf_counter()
    (_, ratio), check_s, extra_s = timed_check(
        lambda: sep.evaluate_word(action, weighted, q_points, verdict.best_word),
        repeats,
    )
    if ratio != verdict.best_ratio:
        raise OutputError(f"seed {inst.seed}: best ratio not reproduced")
    return t1 - t0, check_s, extra_s, (verdict.best_word, verdict.explored)


Z_ACTION = O.GeneratedAction(ZdSpace(1, "l1"), [O.Translation((1,))])
Z_BUDGET = O.OrbitBudget(100000, 64)
F_ACTION = O.GeneratedAction(
    FreeSpace(2), [O.LeftMultiplication((1,)), O.LeftMultiplication((2,))]
)
F_BUDGET = O.OrbitBudget(4000, 16)
# Copies per sequence.  Cost grows steeply with the copy count (on free(2),
# 70 ms at 3 copies, 2.5 s at 8); these keep one operation near 0.1 s so a
# run holds enough operations for a p90.
Z_COPIES = 4
F_COPIES = 3
SEQUENCE_OPS = 100


# The seed draws the points; the shapes that set an operation's cost cycle in
# fixed shares: the span of a Z tuple, the word lengths of a free(2) tuple,
# and eps.  Left to the seed, they move a run's total work by 7% (IQR).
Z_SPANS = (3, 4, 5, 6, 7, 8)
F_LENGTHS = ((0, 1, 2), (0, 2, 3), (1, 2, 3), (0, 1, 3))


def _free_word(rng, length):
    word = []
    for _ in range(length):
        options = [s for s in (1, -1, 2, -2) if not word or s != -word[-1]]
        word.append(rng.pick(options))
    return tuple(word)


def sequence_ops(seed):
    """The criterion-5 tuples at eps 1 and 2, then seeded 3-point tuples.

    Three of every five seeded tuples are on Z.  Every Z check is slower than
    every free(2) check, so with equal shares check_ms_p50 would be the
    slowest free(2) check or the fastest Z one, whichever a run happened to
    rank 50th; with 60 Z operations it lies inside the Z checks.
    """
    ops = []
    for eps in (1, 2):
        ops.append((Z_ACTION, [(0,), (1,), (5,)], eps, Z_COPIES, Z_BUDGET))
        ops.append((F_ACTION, [(), (1,), (2, 1)], eps, F_COPIES, F_BUDGET))
    rng = O.SplitMix64(seed)
    z_ops = f_ops = 0
    for k in range(SEQUENCE_OPS - len(ops)):
        if k % 5 in (0, 2, 4):
            eps = 1 + z_ops % 2
            span = Z_SPANS[(z_ops // 2) % len(Z_SPANS)]
            z_ops += 1
            x = rng.below(9) - 4
            inner = x + 1 + rng.below(span - 1)
            ops.append((Z_ACTION, [(x,), (inner,), (x + span,)], eps, Z_COPIES, Z_BUDGET))
        else:
            eps = 1 + f_ops % 2
            lengths = F_LENGTHS[(f_ops // 2) % len(F_LENGTHS)]
            f_ops += 1
            tup = []
            for length in lengths:
                word = _free_word(rng, length)
                while word in tup:
                    word = _free_word(rng, length)
                tup.append(word)
            ops.append((F_ACTION, tup, eps, F_COPIES, F_BUDGET))
    return ops


def place_and_check(tracer, op, repeats=1):
    """Place the copies, then check every cross-copy pair is >= eps apart.

    As in acceptance criterion 5, the check rebuilds the action from its JSON
    description, so the copies must reproduce from the words alone.
    """
    action, tup, eps, n, budget = op
    t0 = perf_counter()
    words = sep.separated_sequence(action, tup, eps, n, budget, tracer.stats)
    t1 = perf_counter()
    if len(words) != n or words[0] != ():
        raise OutputError(f"sequence for {tup} has the wrong shape")

    def check():
        rebuilt = O.GeneratedAction(
            O.space_from_json(action.space.to_json()),
            [O.generator_from_json(g) for g in action.generators_to_json()],
        )
        images = [[rebuilt.apply_word(w, t) for t in tup] for w in words]
        distance = rebuilt.space.distance
        for i in range(n):
            for j in range(i + 1, n):
                for x in images[i]:
                    for y in images[j]:
                        if distance(x, y) < eps:
                            raise OutputError(
                                f"copies {i} and {j} of {tup} are too close"
                            )

    _, check_s, extra_s = timed_check(check, repeats)
    return t1 - t0, check_s, extra_s, tuple(words)


class Workload:
    """A seeded list of operations and the function that runs one."""

    def __init__(self, build, run):
        self.build = build
        self.run = run

    def attempt(self, tracer, op, repeats=1):
        """Run one operation: (status, wall_s, solve_s, check_s, output or reason).

        The status is "ok", "budget" (BudgetExhaustedError) or "wrong".  The
        check runs ``repeats`` times; ``wall_s`` counts only its first run.
        """
        t0 = perf_counter()
        try:
            solve_s, check_s, extra_s, output = self.run(tracer, op, repeats)
        except BudgetExhaustedError as exc:
            return "budget", perf_counter() - t0, None, None, str(exc)
        except OutputError as exc:
            return "wrong", perf_counter() - t0, None, None, str(exc)
        return "ok", perf_counter() - t0 - extra_s, solve_s, check_s, output


WORKLOADS = {
    "pool_zd2": Workload(pool_instances, solve_and_check),
    "sequence": Workload(sequence_ops, place_and_check),
    "oracle_b8": Workload(pool_instances, brute_force_and_rerate),
}
