"""Constructive separation of finite point sets under an isometric action.

``separate_points`` finds a group word ``g`` with ``d(g.p, Q) >= eps_p / 3``
for every weighted point ``p``, by induction on ``P``, one level per point.
P is ordered once, largest ``eps_p`` first (ties by input order), and never
moved: each level records the word that moves P to the level below it.

* the pivot ``p`` is the level's point of the order, moved by that word;
* find an escape word ``a`` moving ``p`` at least ``eps_p`` away from all
  of ``Q`` (possible whenever the orbit of ``p`` has no finite
  ``eps_p``-net, budget permitting);
* detect the subset ``Q0`` of ``Q`` whose ``eps_p/3``-balls meet the orbit
  of ``p``, recording a witness word ``g_y`` per member (the detection is a
  bounded orbit scan, so it may miss members — see below);
* descend to the next level, whose word is ``a`` after this level's, against
  ``Q' = Q ∪ ⋃_y (g_y ∘ a^-1).Q``; the levels below yield ``h``;
* if ``h.a.p`` clears ``Q`` by ``eps_p/3``, answer ``g = h ∘ a``; otherwise
  the violating ``y`` is a genuine ``Q0`` member.  If its witness was
  already recorded, the composite ``g = a ∘ g_y^-1 ∘ h ∘ a`` is provably
  clear for every point; if not, ``h ∘ a`` itself is a fresh witness for
  ``y``, so record it and redo this level.  Each redo strictly enlarges
  ``Q0 ⊆ Q``, so a level restarts at most ``|Q|`` times.

Every certificate carries the per-point achieved distances and the trace,
one level per point, and is re-checked exactly before being returned.

Inputs are checked by the public functions, and the cores behind them
(``_separate``, ``_evaluate_word``, ``_replay_trace``) take them as checked.
The solvers and ``check_certificate`` check P and Q with ``check_weighted``
and ``check_points``: each point in the space and each weight a positive
rational, in input order, then the points distinct; InvalidInputError names
the first fault.  ``evaluate_word`` and ``replay_trace`` make the same point
and weight checks but require no distinctness.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .actions import DEFAULT_BUDGET, OrbitWalk, Shift, Translation, find_escape
from .errors import (
    BudgetExhaustedError, InvalidInputError, NotIsometricError, TraceReplayError
)
from .rationals import (
    INF, check_int, check_positive, format_rational, is_inf, parse_rational
)
from .spaces import (
    _check_members,
    check_points,
    check_weighted,
    first_within,
    greedy_epsilon_net,
    is_discrete,
    set_distance,
)
from .words import IDENTITY, check_word, compose, invert


@dataclass
class LevelTrace:
    """One level, for one point of P: the choices that determine the certificate."""

    pivot: object
    eps: object
    escape: tuple
    q0: list  # [(y, witness_word)], in the order used to enlarge Q
    restarts: int
    case: str  # "direct" or "fallback"
    fallback_y: object


class Trace(list):
    """The levels of a separation, outermost first: one per point of P."""

    def levels(self):  # the name perfbench/tracer.py reads the levels by
        return iter(self)


@dataclass
class SeparationCertificate:
    """A separating word plus exact evidence that it works."""

    word: tuple
    achieved: list  # [(point, distance to Q of the moved point)]
    ratio: object  # min achieved(p) / eps_p, INF for empty P
    trace: Optional[Trace]  # None: no trace recorded


# A subtree test costs a distance call or more, while a subtree found dead a
# few lengths late costs only the points in between, so the Q0 scan tests
# subtrees at every third word length only.
_SUBTREE_TEST_EVERY = 3


def _detect_q0(action, pivot, q_points, radius, budget, stats=None):
    """Bounded detection of Q-points whose radius-ball meets the pivot orbit.

    Scans the budgeted orbit once, returning the first witness word per
    detected point, keyed in Q order.  The Q-points are kept in one list
    sorted by d(pivot, y) and dropped when found; the scan stops when the
    list is empty.  Three consequences of the triangle inequality (generators
    are isometries) keep it from comparing pairs that cannot meet:

    * Horizon.  With D the largest displacement of the pivot by one signed
      generator, an orbit point reached by a word of length k lies within
      k * D of the pivot, so y joins the scan at the first k with
      d(pivot, y) < radius + k * D; a y that joins after max_word_length is
      never kept.  The joined points are therefore a prefix of the list.
    * Window.  Since d(x, y) >= |d(pivot, x) - d(pivot, y)|, an orbit point
      x is compared only with the points less than the radius away from
      d(pivot, x), found by bisection; the window lies inside the joined
      prefix.  While one point has joined, it is compared directly.
    * Subtrees.  When the generators commute (one generator, or all
      exactly ``Translation`` or all exactly ``Shift``; a subclass may
      not), every orbit point has the pivot's displacements:
      d(s.g.p, g.p) = d(g.s.p, g.p) = d(s.p, p).  So the walk's descendants
      of a point x at length k lie within (max_word_length - k) * D of it,
      and once no pending y is closer to x than
      radius + (max_word_length - k) * D, the walk skips x's subtree.  Points
      are tested at every third length, and only while the nearest pending
      y has d(pivot, y) >= radius + (max_word_length - 2k) * D, since below
      that d(x, y) <= k * D + d(pivot, y) keeps x in reach.  A test tries
      the y that kept the last tested point in reach, then, farthest first,
      the y a bisection on d(pivot, x) leaves within reach.

    All three prunings are exact, so every witness is the first in BFS
    order, as a test of every pair would find it.  Missing a true member
    here is sound: the caller repairs it by restarting with the witness it
    stumbled on.
    """
    if not q_points:
        return {}
    space = action.space
    rf = Fraction(radius)
    rn, rd = rf.numerator, rf.denominator
    # Keys are distances times rd, so the radius reads rn and D reads step.
    step = max(space.distance(pivot, move(pivot)) for _, move in action.moves()) * rd
    top = budget.max_word_length
    reach = rn + top * step
    keyed = sorted((space.distance(pivot, y) * rd, i) for i, y in enumerate(q_points))
    keys = [key for key, _ in keyed if key < reach]
    if not keys:
        return {}
    ys = [q_points[i] for _, i in keyed[: len(keys)]]
    gens = action.generators
    commute = len(gens) == 1 or {type(g) for g in gens} in ({Translation}, {Shift})
    found = {}  # Q-point -> its witness word
    keeper = ys[-1]  # the y that last kept a tested subtree in reach
    walk = OrbitWalk(action, pivot, budget, stats)
    length = None
    for x in walk:
        if walk.length != length:
            length = walk.length
            joined = rn + length * step  # keys below it have joined
            left = top - length  # the lengths a subtree may still descend
            # x's subtree lies within spread - rn of x, and a key below floor
            # keeps every x of this length in reach of its y.
            spread = rn + left * step
            floor = spread - length * step
            tested = commute and left > 0 and left % _SUBTREE_TEST_EVERY == 0
        if keys[0] < joined:
            if len(keys) == 1 or keys[1] >= joined:
                if space.distance(x, ys[0]) * rd < rn:
                    found[ys[0]] = walk.word()
                    del keys[0], ys[0]
            else:
                t = space.distance(pivot, x) * rd
                lo = bisect_right(keys, t - rn)
                for i in reversed(range(lo, bisect_left(keys, t + rn, lo))):
                    if space.distance(x, ys[i]) * rd < rn:
                        found[ys[i]] = walk.word()
                        del keys[i], ys[i]
            if not keys:
                break
        if not tested or keys[0] < floor:
            continue
        if keeper not in found and space.distance(x, keeper) * rd < spread:
            continue
        t = space.distance(pivot, x) * rd
        lo = bisect_right(keys, t - spread)
        for i in reversed(range(lo, bisect_left(keys, t + spread, lo))):
            if space.distance(x, ys[i]) * rd < spread:
                keeper = ys[i]
                break
        else:
            walk.skip()
    return {y: found[y] for y in q_points if y in found}


def _enlarge(action, q_points, q0, a):
    """Q' = Q plus the (g_y ∘ a^-1)-images of Q, deduplicated in order, and
    the list Q itself, not a copy, when Q0 is empty."""
    if not q0:
        return q_points
    seen = dict.fromkeys(q_points)
    a_inv = invert(a)
    for g_y in q0.values():
        for q in action.apply_word_all(compose(g_y, a_inv), q_points):
            seen.setdefault(q)
    return list(seen)


def _partial_level(space, pivot, eps, stage, **extra):
    """A level cut short by an exhausted budget, as a JSON-ready dict."""
    return {
        "pivot": space.point_to_json(pivot),
        "eps": format_rational(eps),
        "stage": stage,
        **extra,
    }


def _pivot_order(weighted):
    """P heaviest first, ties in input order: the order levels take pivots in."""
    return sorted(weighted, key=lambda pe: pe[1], reverse=True)


def _separate(action, weighted, q_points, budget, stats):
    space = action.space
    order = _pivot_order(weighted)
    frames = []  # (level, Q at that level, the word moving P below, its eps/3)
    moved_by = IDENTITY
    while True:
        for p, eps in order[len(frames) :]:  # descend: escape each pivot, build Q'
            pivot = action.apply_word(moved_by, p)
            try:
                a = find_escape(action, pivot, q_points, eps, budget, stats)
            except BudgetExhaustedError as exc:
                exc.partial_levels.append(_partial_level(space, pivot, eps, "escape"))
                for level, *_ in reversed(frames):
                    kw = {"escape": list(level.escape), "restarts": level.restarts}
                    exc.partial_levels.append(
                        _partial_level(space, level.pivot, level.eps, "recursion", **kw)
                    )
                raise
            moved_by = compose(a, moved_by)
            # With nothing left below, h is the identity and the direct case
            # always fires (a clears Q by eps), so a Q0 scan would be wasted.
            eps3 = Fraction(eps.numerator, 3 * eps.denominator)  # eps checked exact
            q0 = {}
            if len(frames) + 1 < len(order):
                q0 = _detect_q0(action, pivot, q_points, eps3, budget, stats)
            level = LevelTrace(pivot, eps, a, list(q0.items()), 0, None, None)
            frames.append((level, q_points, moved_by, eps3))
            q_points = _enlarge(action, q_points, q0, a)

        # Ascend, composing h level by level.  At the innermost level h is the
        # identity, so h ∘ a = a, which find_escape chose to clear that
        # level's Q by eps > eps/3: the case is direct without a scan.
        h = IDENTITY
        if frames:
            level = frames[-1][0]
            level.case, h = "direct", level.escape
        for i in reversed(range(len(frames) - 1)):
            level, q_points, moved_by, eps3 = frames[i]
            a = level.escape
            ha = compose(h, a)
            image = action.apply_word(ha, level.pivot)
            violating = first_within(space, image, q_points, eps3)
            if violating is None:
                level.case, h = "direct", ha
                continue
            witness = dict(level.q0).get(violating)
            if witness is not None:
                level.case, level.fallback_y = "fallback", violating
                h = compose(a, compose(invert(witness), ha))
                continue
            # h ∘ a is a witness for `violating` the bounded detection missed:
            # redo this level, dropping the levels below it and descending again.
            level.q0.append((violating, ha))
            level.restarts += 1
            del frames[i + 1 :]
            q_points = _enlarge(action, q_points, dict(level.q0), a)
            break
        else:
            return h, Trace(level for level, *_ in frames)


def evaluate_word(action, weighted, q_points, word):
    """Per-point distances d(word.p, Q) and the worst achieved/eps ratio (INF
    when P or Q is empty), compared as cross-multiplied integer pairs."""
    weighted = list(weighted)
    q_points = list(q_points)
    _check_members(action.space, weighted, q_points)
    return _evaluate_word(action, weighted, q_points, word)


def _evaluate_word(action, weighted, q_points, word):
    """``evaluate_word`` on checked inputs."""
    distance_to_q = set_distance(action.space, q_points)
    achieved = []
    num, den = 1, 0  # INF
    for p, eps in weighted:
        d = distance_to_q(action.apply_word(word, p))
        achieved.append((p, d))
        if q_points:
            n, m = d.numerator * eps.denominator, d.denominator * eps.numerator
            if n * den < num * m:
                num, den = n, m
    return achieved, Fraction(num, den) if den else INF


def separate_points(action, weighted, q_points, budget=DEFAULT_BUDGET, stats=None):
    """Find g with d(g.p, Q) >= eps_p / 3 for every (p, eps_p) in P.

    Returns a SeparationCertificate whose word, per-point achieved distances,
    worst ratio (>= 1/3), and recursion trace have all been recomputed and
    checked exactly.  Raises BudgetExhaustedError when some escape search ran
    out of budget ("unknown", not a refutation), InvalidInputError on
    malformed weights or duplicate points, and NotIsometricError when the
    word fails that check, which only a non-isometric generator can cause.
    """
    weighted = list(weighted)
    q_points = list(q_points)
    check_weighted(action.space, weighted)
    check_points(action.space, q_points)
    word, trace = _separate(action, weighted, q_points, budget, stats)
    achieved, ratio = _evaluate_word(action, weighted, q_points, word)
    if not is_inf(ratio) and 3 * ratio < 1:
        raise NotIsometricError("separation postcondition failed")
    return SeparationCertificate(word, achieved, ratio, trace)


def discrete_weights(space, points):
    """The points with unit weights, once the metric is 0/1: the weighted P
    that separate_discrete solves and its certificates are checked against."""
    if not is_discrete(space):
        raise InvalidInputError(
            "separate_discrete needs a discrete metric (native or adapter)"
        )
    return [(p, Fraction(1)) for p in points]


def separate_discrete(action, points, q_points, budget=DEFAULT_BUDGET, stats=None):
    """Discrete-metric specialization: find g with (g.P) ∩ Q = ∅.

    Runs separate_points with unit weights; discrete distances of at least
    1/3 are exactly 1, so a certificate moves P entirely off Q.
    """
    weighted = discrete_weights(action.space, points)
    return separate_points(action, weighted, q_points, budget, stats)


@dataclass
class CompactSeparationResult:
    """The uniform-radius separation data derived for a finite C and D."""

    epsilon: Fraction
    net_a: list  # [(point, delta)] — the variable-radius cover of C
    net_p: list  # [(point, 9 * epsilon)] — the net actually separated
    net_q: list
    certificate: SeparationCertificate


def separate_compact(action, c_weighted, d_points, budget=DEFAULT_BUDGET, stats=None):
    """Separate all of C from all of D at a radius derived from C alone.

    Each point of C carries a delta such that its orbit has no finite
    delta-net.  A greedy scan of C picks a cover A (a point joins A unless it
    already lies within half the delta of an earlier member); the working
    radius is epsilon = min(delta_a for a in A) / 18.  C and D are replaced
    by greedy epsilon-nets, the net of C is separated from the net of D at
    9*epsilon-weights (so the inner certificate clears 3*epsilon), and the
    final inequality d(g.C, D) >= epsilon is verified exactly.
    """
    c_weighted = list(c_weighted)
    d_points = list(d_points)
    if not c_weighted:
        raise InvalidInputError("C must be nonempty")
    check_weighted(action.space, c_weighted, "C")
    check_points(action.space, d_points, "D")
    space = action.space

    cover = []
    for c, delta in c_weighted:
        if not any(space.distance(c, a) < Fraction(da) / 2 for a, da in cover):
            cover.append((c, delta))
    epsilon = Fraction(1, 18) * min(Fraction(d) for _, d in cover)

    c_points = [c for c, _ in c_weighted]
    net_p = [(p, 9 * epsilon) for p in greedy_epsilon_net(space, c_points, epsilon)]
    net_q = greedy_epsilon_net(space, d_points, epsilon)
    cert = separate_points(action, net_p, net_q, budget, stats)

    for c in c_points:
        img = action.apply_word(cert.word, c)
        if first_within(space, img, d_points, epsilon) is not None:
            raise NotIsometricError("compact separation postcondition failed")
    return CompactSeparationResult(epsilon, cover, net_p, net_q, cert)


def separated_sequence(action, tuple_points, eps, n, budget=DEFAULT_BUDGET, stats=None):
    """Words w_1..w_n placing copies of a tuple pairwise >= eps apart.

    w_1 is the identity; each later w_k separates a fresh copy of the tuple
    (weighted 3*eps, so the certificate clears eps) from every coordinate
    already placed.  Cross-copy coordinate distances are >= eps exactly, and
    every copy is reproducible as w_k applied to the input tuple.
    """
    check_positive(eps, "eps")
    check_int(n, "n", 1)
    tuple_points = list(tuple_points)
    check_points(action.space, tuple_points, "tuple")
    three = 3 * Fraction(eps)
    if is_discrete(action.space):
        # 0/1 metrics cap all distances at 1, so "eps apart" means disjoint
        # and a unit weight already certifies it; larger weights would demand
        # an escape no discrete orbit can provide.
        if Fraction(eps) > 1:
            raise InvalidInputError(
                "no two points of a discrete metric space are more than 1 apart"
            )
        three = min(three, Fraction(1))
    words = [IDENTITY]
    placed = dict.fromkeys(tuple_points)
    for _ in range(1, n):
        weighted = [(t, three) for t in tuple_points]
        cert = separate_points(action, weighted, list(placed), budget, stats)
        words.append(cert.word)
        for t in tuple_points:
            placed.setdefault(action.apply_word(cert.word, t))
    return words


def full_existence_step(action, anchors, obstacles, budget=DEFAULT_BUDGET, stats=None):
    """Move the obstacles off the anchors, then pull the anchors back.

    Runs separate_points with P = obstacles and Q = anchors, returning the
    certificate word sigma and realization = sigma^-1 . anchors.  Since sigma
    is an isometry, d(b, r) = d(sigma.b, anchor) >= eps_b / 3 for every
    obstacle b and realization point r.
    """
    anchors = list(anchors)
    obstacles = list(obstacles)
    check_weighted(action.space, obstacles, "obstacles")
    check_points(action.space, anchors, "anchors")
    cert = separate_points(action, obstacles, anchors, budget, stats)
    sigma = cert.word
    realization = action.apply_word_all(invert(sigma), anchors)
    for b, eps in obstacles:
        if first_within(action.space, b, realization, Fraction(eps) / 3) is not None:
            raise NotIsometricError("full-existence transfer failed")
    return sigma, realization


def replay_trace(action, weighted, q_points, trace, audit=None):
    """Rebuild the certificate word from a recorded trace, checking each step.

    Recomputes the solver's two rule-made choices and compares them with each
    level: the pivot and eps (the level's point of ``_pivot_order`` moved by
    the escapes above it) and the case (``fallback`` at the first point of Q'
    the pivot lands within eps/3 of, which needs a recorded witness, else
    ``direct``).  Verifies the recorded searches: the escape clears Q, every
    witness lands within eps/3 of its Q-point, and no level records more
    restarts than Q0 members, since each restart adds one.  Returns the
    reproduced word; raises TraceReplayError on any inconsistency, such as a
    length other than |P|.  When ``audit`` is a list, appends {"restarts",
    "q_size"} per level.

    Only the levels below a level read its Q' and the escapes composed down
    to it, so the replay builds no Q' and composes no escape after the last
    level.  At the last level h is the identity, so the pivot's image is the
    escape's, already checked to clear Q by eps: its case is ``direct`` with
    no scan.
    """
    weighted = list(weighted)
    q_points = list(q_points)
    _check_members(action.space, weighted, q_points)
    return _replay_trace(action, weighted, q_points, trace, audit)


def _replay_trace(action, weighted, q_points, trace, audit=None):
    """``replay_trace`` on checked inputs."""
    space = action.space
    order = _pivot_order(weighted)
    if len(trace) != len(order):
        raise TraceReplayError(f"{len(trace)} trace levels for {len(order)} points")
    moved_by = IDENTITY
    steps = []
    for level, (p, eps) in zip(trace, order):  # descend: check each escape and witness
        if audit is not None:
            audit.append({"restarts": level.restarts, "q_size": len(q_points)})
        pivot = action.apply_word(moved_by, p)
        if (level.pivot, level.eps) != (pivot, eps):
            raise TraceReplayError(f"recorded pivot {level.pivot!r} not in point set")
        if level.restarts > len(level.q0):  # each restart records one Q0 member
            raise TraceReplayError(f"{level.restarts} restarts, {len(level.q0)} Q0 members")
        a = level.escape
        if first_within(space, action.apply_word(a, pivot), q_points, eps) is not None:
            raise TraceReplayError("recorded escape word does not escape Q")
        eps3 = Fraction(eps.numerator, 3 * eps.denominator)  # first_within checked eps

        q0 = {}
        if level.q0:
            q_set = set(q_points)
            for y, g_y in level.q0:
                if y not in q_set:
                    raise TraceReplayError(f"recorded Q0 member {y!r} is not in Q")
                if space.distance(action.apply_word(g_y, pivot), y) >= eps3:
                    raise TraceReplayError(f"recorded witness for {y!r} is not within eps/3")
                q0[y] = g_y

        steps.append((level, pivot, eps3, q_points, q0))
        if len(steps) < len(order):  # a level below reads Q' and the escapes
            q_points = _enlarge(action, q_points, q0, a)
            moved_by = compose(a, moved_by)

    h = IDENTITY
    for i in reversed(range(len(steps))):  # ascend: compose h
        level, pivot, eps3, q_points, q0 = steps[i]
        ha = compose(h, level.escape)
        y = None  # the innermost ha is the escape, checked above to clear Q by eps
        if i < len(steps) - 1:
            y = first_within(space, action.apply_word(ha, pivot), q_points, eps3)
        if y is not None and y not in q0:
            raise TraceReplayError(f"pivot lands near {y!r}, which has no recorded witness")
        case = "direct" if y is None else "fallback"
        if (level.case, level.fallback_y) != (case, y):
            recorded = f"{level.case!r} at {level.fallback_y!r}"
            raise TraceReplayError(f"recorded case {recorded}, recomputed {case!r} at {y!r}")
        h = ha if y is None else compose(level.escape, compose(invert(q0[y]), ha))
    return h


def check_certificate(action, weighted, q_points, cert):
    """Re-verify a certificate; returns a list of problems (empty if valid).

    Recomputes every distance from the word alone and compares exactly with
    the stored values; when a trace is present, replays it and requires the
    same word.  Raises InvalidInputError on the P and Q separate_points
    refuses, and on a word, escape or witness with a letter that names no
    generator of the action.
    """
    problems = []
    weighted = list(weighted)
    q_points = list(q_points)
    check_weighted(action.space, weighted)
    check_points(action.space, q_points)
    achieved, ratio = _evaluate_word(action, weighted, q_points, cert.word)
    points = {p for p, _ in weighted}
    stored = {}
    for p, d in cert.achieved:  # the first entry per point of P counts
        if p in stored or p not in points:
            problems.append(f"stored achieved list has an extra entry for {p!r}")
        stored.setdefault(p, d)
    for p, d in achieved:
        if p not in stored:
            problems.append(f"stored achieved list is missing point {p!r}")
        elif stored[p] != d:
            problems.append(
                f"achieved distance for {p!r}: stored {format_rational(stored[p])}, "
                f"recomputed {format_rational(d)}"
            )
    if cert.ratio != ratio:
        problems.append(
            f"ratio mismatch: stored {format_rational(cert.ratio)}, "
            f"recomputed {format_rational(ratio)}"
        )
    if not is_inf(ratio) and 3 * ratio < 1:
        problems.append(f"ratio {format_rational(ratio)} is below 1/3")
    if cert.trace is not None:
        try:
            replayed = _replay_trace(action, weighted, q_points, cert.trace)
            if replayed != cert.word:
                problems.append("trace replay produced a different word")
        except TraceReplayError as exc:
            problems.append(f"trace replay failed: {exc}")
    return problems


def trace_to_json(space, trace):
    if trace is None:
        return None
    return [
        {
            "pivot": space.point_to_json(level.pivot),
            "eps": format_rational(level.eps),
            "escape": list(level.escape),
            "q0": [
                {"y": space.point_to_json(y), "witness": list(w)} for y, w in level.q0
            ],
            "restarts": level.restarts,
            "case": level.case,
            "fallback_y": None
            if level.fallback_y is None
            else space.point_to_json(level.fallback_y),
        }
        for level in trace
    ]


def trace_from_json(space, obj):
    if obj is None:
        return None
    if not isinstance(obj, list):
        raise InvalidInputError("trace must be a JSON array of levels")
    try:
        return Trace(
            LevelTrace(
                pivot=space.point_from_json(level["pivot"]),
                eps=parse_rational(level["eps"]),
                escape=check_word(level["escape"]),
                q0=[
                    (space.point_from_json(e["y"]), check_word(e["witness"]))
                    for e in level["q0"]
                ],
                restarts=check_int(level["restarts"], "trace restarts", 0),
                case=level["case"],
                fallback_y=None
                if level.get("fallback_y") is None
                else space.point_from_json(level["fallback_y"]),
            )
            for level in obj
        )
    except (KeyError, TypeError) as exc:
        raise InvalidInputError(f"malformed trace level: {exc}") from exc


def certificate_to_json(space, cert):
    return {
        "status": "ok",
        "word": list(cert.word),
        "achieved": [
            [space.point_to_json(p), format_rational(d)] for p, d in cert.achieved
        ],
        "ratio": format_rational(cert.ratio),
        "trace": trace_to_json(space, cert.trace),
    }


def _pair(entry):
    if not isinstance(entry, list) or len(entry) != 2:
        raise InvalidInputError(f"achieved entry must be [point, distance], got {entry!r}")
    return entry


def certificate_from_json(space, obj):
    try:
        return SeparationCertificate(
            word=check_word(obj["word"]),
            achieved=[
                (space.point_from_json(p), parse_rational(d))
                for p, d in map(_pair, obj["achieved"])
            ],
            ratio=parse_rational(obj["ratio"]),
            trace=trace_from_json(space, obj.get("trace")),
        )
    except (KeyError, TypeError) as exc:
        raise InvalidInputError(f"malformed certificate object: {exc}") from exc


def weighted_to_json(space, weighted, key):
    """[(point, weight)] as [{"point": ..., key: "weight"}]."""
    return [{"point": space.point_to_json(p), key: format_rational(w)} for p, w in weighted]


def compact_result_to_json(space, result):
    return {
        "status": "ok",
        "epsilon": format_rational(result.epsilon),
        "net_a": weighted_to_json(space, result.net_a, "delta"),
        "net_p": weighted_to_json(space, result.net_p, "eps"),
        "net_q": [space.point_to_json(p) for p in result.net_q],
        "certificate": certificate_to_json(space, result.certificate),
    }
