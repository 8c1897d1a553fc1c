import json
import math
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orbitsep as O
from orbitsep.errors import (
    BudgetExhaustedError,
    InvalidInputError,
    TraceReplayError,
)
from orbitsep import separation as sep
from orbitsep import spaces
from orbitsep.rationals import check_positive
from orbitsep.separation import _detect_q0, _enlarge

Z_FALLBACK = {
    "P": [((0,), 3), ((50,), 3)],
    "Q": [(0,), (3,), (39,), (41,)],
}
Z_RESTART = {
    "P": [((0,), 3), ((50,), 3), ((100,), 3)],
    "Q": [(8,), (47,), (51,), (101,), (105,)],
}
SMALL_BUDGET = O.OrbitBudget(10000, 6)


def assert_valid(action, weighted, q_points, cert):
    achieved, ratio = O.evaluate_word(action, weighted, q_points, cert.word)
    assert achieved == cert.achieved
    assert ratio == cert.ratio
    for (_, eps), (_, d) in zip(weighted, achieved):
        assert O.is_inf(d) or 3 * d >= eps
    assert O.check_certificate(action, weighted, q_points, cert) == []


def test_single_point_example(z1_action):
    P = [((0,), Fraction(6))]
    Q = [(0,), (10,)]
    cert = O.separate_points(z1_action, P, Q)
    assert cert.word == (-1,) * 6
    assert cert.achieved == [((0,), 6)]
    assert cert.ratio == 1
    assert_valid(z1_action, P, Q, cert)


def test_empty_p_is_identity(z1_action):
    cert = O.separate_points(z1_action, [], [(0,), (5,)])
    assert cert.word == ()
    assert cert.ratio == O.INF
    assert cert.trace == []


def test_discrete_pair_example(shift_action):
    P = [(0, 1), (1, 1)]
    Q = [0, 1, 2]
    cert = O.separate_points(shift_action, P, Q)
    images = {shift_action.apply_word(cert.word, p) for p, _ in P}
    assert not images & set(Q)
    assert cert.word == (-1, -1)  # BFS-first witness is the shift by -2
    assert_valid(shift_action, P, Q, cert)


def test_input_validation(z1_action):
    with pytest.raises(InvalidInputError):
        O.separate_points(z1_action, [((0,), 0)], [])
    with pytest.raises(InvalidInputError):
        O.separate_points(z1_action, [((0,), 1), ((0,), 2)], [])
    with pytest.raises(InvalidInputError):
        O.separate_points(z1_action, [((0,), 1)], [(3,), (3,)])


def test_pivot_is_largest_weight(z1_action):
    P = [((0,), 1), ((10,), 5)]
    cert = O.separate_points(z1_action, P, [(20,)])
    assert cert.trace[0].pivot == (10,)
    assert cert.trace[0].eps == 5


def test_budget_error_carries_partial_trace(c4_action):
    with pytest.raises(BudgetExhaustedError) as info:
        O.separate_points(c4_action, [(0, Fraction(1))], [0, 1, 2, 3])
    assert info.value.explored == 4
    assert info.value.partial_levels
    assert info.value.partial_levels[0]["stage"] == "escape"


def test_separate_discrete_single(shift_action):
    cert = O.separate_discrete(shift_action, [0], [0])
    assert cert.word == (1,)
    assert shift_action.apply_word(cert.word, 0) == 1


def test_separate_discrete_empty(shift_action):
    cert = O.separate_discrete(shift_action, [], [0])
    assert cert.word == ()


def test_separate_discrete_requires_discrete_metric(z1_action):
    with pytest.raises(InvalidInputError):
        O.separate_discrete(z1_action, [(0,)], [(1,)])


def test_separate_discrete_c4_adapter_exhausts(c4_action):
    adapter = O.DiscreteAdapterSpace(c4_action.space)
    act = O.GeneratedAction(adapter, c4_action.generators)
    with pytest.raises(BudgetExhaustedError):
        O.separate_discrete(act, [0, 1, 2, 3], [0, 1, 2, 3])


def test_compact_example(z1_action):
    C = [((0,), 6), ((1,), 6)]
    D = [(0,)]
    res = O.separate_compact(z1_action, C, D)
    assert res.epsilon == Fraction(1, 3)
    assert res.net_a == [((0,), 6)]
    assert [p for p, _ in res.net_p] == [(0,), (1,)]
    assert all(e == 3 for _, e in res.net_p)
    assert res.net_q == [(0,)]
    # inner certificate clears 3 * epsilon
    for _, d in res.certificate.achieved:
        assert d >= 3 * res.epsilon
    # final set inequality, exactly
    for c, _ in C:
        img = z1_action.apply_word(res.certificate.word, c)
        for y in D:
            assert z1_action.space.distance(img, y) >= res.epsilon


def test_compact_scaled_equivariance(z1_action):
    res = O.separate_compact(z1_action, [((0,), 6), ((1,), 6)], [(0,)])
    scaled = O.ScaledSpace(O.ZdSpace(1, "l1"), 2)
    act2 = O.GeneratedAction(scaled, [O.Translation((1,))])
    res2 = O.separate_compact(act2, [((0,), 12), ((1,), 12)], [(0,)])
    assert res2.epsilon == Fraction(2, 3)
    assert res2.certificate.word == res.certificate.word


def test_compact_rejects_empty_c(z1_action):
    with pytest.raises(InvalidInputError):
        O.separate_compact(z1_action, [], [(0,)])


def test_compact_empty_d(z1_action):
    res = O.separate_compact(z1_action, [((0,), 3)], [])
    assert res.certificate.word == ()
    assert res.net_q == []


def test_sequence_z_example(z1_action):
    words = O.separated_sequence(z1_action, [(0,)], 2, 3)
    assert words == [(), (1,) * 6, (-1,) * 6]
    images = [z1_action.apply_word(w, (0,)) for w in words]
    assert images == [(0,), (6,), (-6,)]
    for i in range(3):
        for j in range(i + 1, 3):
            assert z1_action.space.distance(images[i], images[j]) >= 2


def test_sequence_trivial(z1_action):
    assert O.separated_sequence(z1_action, [(0,)], 2, 1) == [()]


def test_sequence_discrete_disjoint_copies(shift_action):
    words = O.separated_sequence(shift_action, [0, 1], 1, 3)
    copies = [{shift_action.apply_word(w, t) for t in (0, 1)} for w in words]
    for i in range(3):
        for j in range(i + 1, 3):
            assert not copies[i] & copies[j]


def test_sequence_validation(z1_action):
    with pytest.raises(InvalidInputError):
        O.separated_sequence(z1_action, [(0,)], 0, 2)
    with pytest.raises(InvalidInputError):
        O.separated_sequence(z1_action, [(0,)], 1, 0)
    with pytest.raises(InvalidInputError):
        O.separated_sequence(z1_action, [(0,), (0,)], 1, 2)


def test_sequence_refuses_eps_above_1_on_a_discrete_metric(shift_action):
    """No two points of a 0/1 metric are more than 1 apart, so no copy could
    be placed."""
    with pytest.raises(InvalidInputError, match="more than 1 apart"):
        O.separated_sequence(shift_action, [0], Fraction(3, 2), 2)


def _inexact(name, call, message):
    """``call(action on Z, stats)`` must refuse its input with ``message``."""
    return pytest.param(call, message, id=name)


@pytest.mark.parametrize(
    "call, message",
    [
        _inexact(
            "escape-eps-float",
            lambda a, s: O.find_escape(a, (0,), [(0,)], 0.5, stats=s),
            "eps must be a positive rational, got 0.5",
        ),
        _inexact(
            "escape-eps-bool",
            lambda a, s: O.find_escape(a, (0,), [(0,)], True, stats=s),
            "eps must be a positive rational, got True",
        ),
        _inexact(
            "net-eps-float",
            lambda a, s: O.greedy_epsilon_net(a.space, [(0,), (1,), (9,)], 0.5),
            "eps must be a positive rational, got 0.5",
        ),
        _inexact(
            "oracle-weight-float",
            lambda a, s: O.brute_force_separate(a, [((0,), 0.5)], [(0,)], 2, s),
            "weight for (0,) must be a positive rational, got 0.5",
        ),
        *(
            _inexact(
                f"separate-weight-{shown}",
                lambda a, s, w=w: O.separate_points(a, [((0,), w)], [(0,)], stats=s),
                f"weight for (0,) must be a positive rational, got {shown}",
            )
            for w, shown in ((0.5, "0.5"), (O.INF, "inf"), (0, "0"), (True, "True"))
        ),
        *(
            _inexact(
                f"evaluate-weight-{shown}",
                lambda a, s, w=w: O.evaluate_word(a, [((0,), w)], [(0,)], ()),
                f"weight for (0,) must be a positive rational, got {shown}",
            )
            for w, shown in ((0.5, "0.5"), (O.INF, "inf"), (True, "True"))
        ),
        _inexact(
            "replay-weight-float",
            lambda a, s: O.replay_trace(
                a,
                [((0,), 0.5)],
                [(5,)],
                O.separate_points(a, [((0,), Fraction(1, 2))], [(5,)]).trace,
            ),
            "weight for (0,) must be a positive rational, got 0.5",
        ),
        *(
            _inexact(
                f"replay-weight-{shown}",
                lambda a, s, w=w: O.replay_trace(
                    a,
                    [((0,), w), ((50,), Fraction(3))],
                    Z_FALLBACK["Q"],
                    O.separate_points(a, Z_FALLBACK["P"], Z_FALLBACK["Q"], SMALL_BUDGET).trace,
                ),
                f"weight for (0,) must be a positive rational, got {shown}",
            )
            for w, shown in (("3", "'3'"), (0, "0"), (-3, "-3"))
        ),
        *(
            _inexact(
                f"check-weight-{shown}",
                lambda a, s, w=w: O.check_certificate(
                    a,
                    [((0,), w)],
                    [(5,)],
                    O.separate_points(a, [((0,), Fraction(1, 2))], [(5,)]),
                ),
                f"weight for (0,) must be a positive rational, got {shown}",
            )
            for w, shown in ((0.5, "0.5"), ("3", "'3'"), (0, "0"))
        ),
        _inexact(
            "sequence-eps-bool",
            lambda a, s: O.separated_sequence(a, [(0,)], True, 2, stats=s),
            "eps must be a positive rational, got True",
        ),
        _inexact(
            "experiment-count-bool",
            lambda a, s: O.ratio_experiment(["zd2"], True, 7),
            "n_instances must be an int >= 1, got True",
        ),
    ],
)
def test_entry_points_reject_inexact_numbers(z1_action, call, message):
    """Bools, floats and INF are refused before any orbit point is explored."""
    stats = O.SearchStats()
    with pytest.raises(InvalidInputError) as info:
        call(z1_action, stats)
    assert message in str(info.value)
    assert stats.points == 0


def test_full_existence_example(z1_action):
    sigma, realization = O.full_existence_step(
        z1_action, [(5,)], [((0,), Fraction(3))]
    )
    assert sigma == ()
    assert realization == [(5,)]
    assert 3 * z1_action.space.distance((0,), (5,)) >= 3


def test_full_existence_empty_obstacles(z1_action):
    sigma, realization = O.full_existence_step(z1_action, [(1,), (2,)], [])
    assert sigma == ()
    assert realization == [(1,), (2,)]


def test_full_existence_discrete(shift_action):
    sigma, realization = O.full_existence_step(
        shift_action, [0, 1], [(0, 1), (1, 1)]
    )
    # obstacles end up at distance >= 1/3 (so exactly 1) from the realization
    for b in (0, 1):
        for r in realization:
            assert b != r


def test_full_existence_moves_anchor_when_needed(z1_action):
    # obstacle sits on the anchor, so sigma cannot be the identity
    sigma, realization = O.full_existence_step(
        z1_action, [(0,)], [((0,), Fraction(3))]
    )
    (r,) = realization
    assert 3 * z1_action.space.distance((0,), r) >= 3
    assert z1_action.apply_word(sigma, (0,)) != (0,)


def test_crafted_fallback_instance(z1_action):
    cert = O.separate_points(
        z1_action, Z_FALLBACK["P"], Z_FALLBACK["Q"], SMALL_BUDGET
    )
    assert cert.trace[0].case == "fallback"
    assert cert.trace[0].fallback_y == (0,)
    assert cert.word == (-1, -1, -1)
    assert_valid(z1_action, Z_FALLBACK["P"], Z_FALLBACK["Q"], cert)


def test_crafted_restart_instance(z1_action):
    cert = O.separate_points(z1_action, Z_RESTART["P"], Z_RESTART["Q"], SMALL_BUDGET)
    assert cert.trace[0].restarts == 1
    assert cert.trace[0].case == "direct"
    # the lazily found member carries the witness the detection missed
    q0 = dict(cert.trace[0].q0)
    assert (8,) in q0
    assert z1_action.apply_word(q0[(8,)], (0,)) == (8,)
    assert_valid(z1_action, Z_RESTART["P"], Z_RESTART["Q"], cert)


def test_restart_bound_holds(z1_action):
    cert = O.separate_points(z1_action, Z_RESTART["P"], Z_RESTART["Q"], SMALL_BUDGET)
    audit = []
    word = O.replay_trace(
        z1_action, Z_RESTART["P"], Z_RESTART["Q"], cert.trace, audit
    )
    assert word == cert.word
    for level in audit:
        assert level["restarts"] <= level["q_size"]


def test_replay_rejects_tampered_trace(z1_action):
    P = Z_FALLBACK["P"]
    Q = Z_FALLBACK["Q"]
    cert = O.separate_points(z1_action, P, Q, SMALL_BUDGET)
    cert.trace[0].case = "direct"
    with pytest.raises(TraceReplayError):
        O.replay_trace(z1_action, P, Q, cert.trace)


@pytest.mark.parametrize(
    "edit",
    [
        lambda trace: setattr(trace[0], "fallback_y", (3,)),
        lambda trace: setattr(trace[0], "fallback_y", None),
        lambda trace: setattr(trace[0], "case", "direct"),
        lambda trace: setattr(trace[1], "case", "fallback"),
        lambda trace: setattr(trace[1], "fallback_y", (0,)),
        lambda trace: trace[0].q0.__setitem__(1, ((3,), (1, 1, 1, 1))),
        lambda trace: trace[0].q0.pop(0),
        lambda trace: setattr(trace[0], "case", "sideways"),
        lambda trace: setattr(trace[1], "restarts", 1),
        lambda trace: setattr(trace[0], "restarts", 3),
    ],
    ids=[
        "fallback-at-another-q-point",
        "fallback-at-none",
        "fallback-to-direct",
        "direct-to-fallback",
        "direct-with-fallback-y",
        "witness-one-letter-longer",
        "q0-entry-dropped",
        "unknown-case",
        "restart-with-no-q0-member",
        "more-restarts-than-q0-members",
    ],
)
def test_checker_rejects_tampered_fallback_trace(z1_action, edit):
    """The checker recomputes each level's case and fallback member, verifies
    each witness and bounds the restarts by the Q0 members, so every edit of
    them is caught."""
    P, Q = Z_FALLBACK["P"], Z_FALLBACK["Q"]
    cert = O.separate_points(z1_action, P, Q, SMALL_BUDGET)
    assert [(level.case, level.fallback_y) for level in cert.trace] == [
        ("fallback", (0,)),
        ("direct", None),
    ]
    assert cert.trace[0].q0 == [((0,), ()), ((3,), (1, 1, 1))]
    edit(cert.trace)
    problems = O.check_certificate(z1_action, P, Q, cert)
    assert len(problems) == 1 and problems[0].startswith("trace replay failed: ")


def _fallback_at_last_level(trace):
    """Record the last level as a fallback at (0,), with a true witness."""
    level = trace[-1]
    (x,) = level.pivot
    level.q0.append(((0,), (-1,) * x if x > 0 else (1,) * -x))
    level.case, level.fallback_y = "fallback", (0,)


def test_checker_rejects_a_last_level_recorded_as_fallback(z1_action):
    """The replay scans no Q' at the last level, where the escape itself
    clears Q, but still compares the recorded case with ``direct``."""
    P, Q = Z_FALLBACK["P"], Z_FALLBACK["Q"]
    cert = O.separate_points(z1_action, P, Q, SMALL_BUDGET)
    _fallback_at_last_level(cert.trace)
    message = "recorded case 'fallback' at (0,), recomputed 'direct' at None"
    with pytest.raises(TraceReplayError) as info:
        O.replay_trace(z1_action, P, Q, cert.trace)
    assert str(info.value) == message
    problems = O.check_certificate(z1_action, P, Q, cert)
    assert problems == [f"trace replay failed: {message}"]


@pytest.mark.parametrize(
    "P, Q, solver_scans",
    [
        ([((3,), Fraction(2))], [(0,), (3,), (4,)], 0),
        (Z_FALLBACK["P"], Z_FALLBACK["Q"], 1),
        (Z_RESTART["P"], Z_RESTART["Q"], 4),  # two ascents over three levels
    ],
    ids=["one-level", "fallback", "restart"],
)
def test_innermost_ascent_makes_no_distance_call(z1_action, monkeypatch, P, Q, solver_scans):
    """At the innermost level h is the identity, so the pivot's image is the
    escape's, which cleared that level's Q by eps > eps/3: neither the
    solver's ascent nor the replay's scans Q' there.  Every other ascent
    level scans once, after the replay has checked each level's escape at
    eps."""
    scans = []  # the radius of every first_within call made by separation
    distance_calls = 0
    distance = O.ZdSpace.distance

    def counted_distance(self, x, y):
        nonlocal distance_calls
        distance_calls += 1
        return distance(self, x, y)

    def recorded(space, x, points, r):
        scans.append(r)
        return O.first_within(space, x, points, r)

    monkeypatch.setattr(sep, "first_within", recorded)
    cert = O.separate_points(z1_action, P, Q, SMALL_BUDGET)
    levels = list(cert.trace)
    assert len(scans) == solver_scans
    assert set(scans) <= {Fraction(level.eps) / 3 for level in levels[:-1]}

    scans.clear()
    monkeypatch.setattr(O.ZdSpace, "distance", counted_distance)
    assert O.replay_trace(z1_action, P, Q, cert.trace) == cert.word
    assert scans == [level.eps for level in levels] + [
        Fraction(level.eps) / 3 for level in reversed(levels[:-1])
    ]
    if len(levels) == 1:  # only the escape check, which scans all of Q
        assert distance_calls == len(Q)


@pytest.mark.parametrize(
    "edit, pivot",
    [
        (lambda act, trace: setattr(trace[1], "pivot", (-1000,)), (-1000,)),
        # level 0's point, carried to level 1 by level 0's escape
        (
            lambda act, trace: setattr(
                trace[1], "pivot", act.apply_word(trace[0].escape, trace[0].pivot)
            ),
            (0,),
        ),
        (lambda act, trace: setattr(trace[2], "eps", Fraction(2)), (94,)),
        (lambda act, trace: trace.insert(1, trace.pop(2)), (94,)),
        (lambda act, trace: setattr(trace[1], "pivot", act.step(1, (50,))), (51,)),
    ],
    ids=["not-in-p", "used-twice", "eps-mismatch", "levels-swapped", "moved-by-one"],
)
def test_checker_rejects_tampered_pivot(z1_action, edit, pivot):
    P, Q = Z_RESTART["P"], Z_RESTART["Q"]
    cert = O.separate_points(z1_action, P, Q, SMALL_BUDGET)
    assert [level.pivot for level in cert.trace] == [(0,), (50,), (94,)]
    assert cert.trace[0].escape == ()
    edit(z1_action, cert.trace)
    message = f"recorded pivot {pivot!r} not in point set"
    with pytest.raises(TraceReplayError) as info:
        O.replay_trace(z1_action, P, Q, cert.trace)
    assert str(info.value) == message
    problems = O.check_certificate(z1_action, P, Q, cert)
    assert problems == [f"trace replay failed: {message}"]


def test_replay_on_seeded_instances():
    master = O.SplitMix64(314)
    for _ in range(25):
        inst = O.random_instance("zd2", master.next_u64())
        act = inst.action()
        cert = O.separate_points(act, inst.weighted_p, inst.q_points, inst.budget)
        audit = []
        word = O.replay_trace(act, inst.weighted_p, inst.q_points, cert.trace, audit)
        assert word == cert.word
        for level in audit:
            assert level["restarts"] <= level["q_size"]


def test_check_certificate_detects_corruption(z1_action):
    P = [((0,), Fraction(6))]
    Q = [(0,), (10,)]
    cert = O.separate_points(z1_action, P, Q)
    assert O.check_certificate(z1_action, P, Q, cert) == []
    truncated = O.SeparationCertificate(
        cert.word[:-1], cert.achieved, cert.ratio, None
    )
    assert O.check_certificate(z1_action, P, Q, truncated)
    wrong_ratio = O.SeparationCertificate(
        cert.word, cert.achieved, Fraction(7), None
    )
    assert O.check_certificate(z1_action, P, Q, wrong_ratio)
    # A word that leaves the pivot on Q, with its own consistent distances
    # and ratio, is one fault, reported once.
    identity = O.SeparationCertificate((), [((0,), 0)], Fraction(0), None)
    assert O.check_certificate(z1_action, P, Q, identity) == ["ratio 0 is below 1/3"]


class _CountedWeight(Fraction):
    """A weight that counts the comparisons made on it."""

    comparisons = 0

    def _counted(name):
        def compare(self, other):
            _CountedWeight.comparisons += 1
            return getattr(Fraction, name)(self, other)

        return compare

    __lt__, __le__, __gt__, __ge__, __eq__ = map(
        _counted, ["__lt__", "__le__", "__gt__", "__ge__", "__eq__"]
    )
    __hash__ = Fraction.__hash__


class _CountedPoint(tuple):
    """A point that counts the equality tests made on it."""

    tests = 0

    def __eq__(self, other):
        _CountedPoint.tests += 1
        return tuple.__eq__(self, other)

    def __ne__(self, other):
        _CountedPoint.tests += 1
        return tuple.__ne__(self, other)

    __hash__ = tuple.__hash__


def test_work_on_p_is_linear(z1_action, monkeypatch):
    """P is ordered once and never moved: the solve and its check apply O(|P|)
    words and compare weights O(|P| log |P|) times (|P|^2 / 2 each when
    every level searched and moved the rest of P), and the check tests O(|P|)
    points for equality (it recomputes each pivot, not searches P for it)."""
    n = 500
    P = [(_CountedPoint((3 * i,)), _CountedWeight(1 + i % 3)) for i in range(n)]
    calls = 0
    apply_word = O.GeneratedAction.apply_word

    def counted_apply_word(self, w, p):
        nonlocal calls
        calls += 1
        return apply_word(self, w, p)

    monkeypatch.setattr(O.GeneratedAction, "apply_word", counted_apply_word)
    _CountedWeight.comparisons = 0
    cert = O.separate_points(z1_action, P, [])
    _CountedPoint.tests = 0
    assert O.check_certificate(z1_action, P, [], cert) == []
    assert _CountedPoint.tests <= 10 * n
    assert calls <= 10 * n
    assert _CountedWeight.comparisons <= 2 * n * math.log2(n)


def test_evaluate_word_builds_one_fraction(z1_action, monkeypatch):
    """Rating a word keeps each d/eps as an integer pair and builds only the
    Fraction it returns (three per point when each ratio was a Fraction)."""
    P = [((3 * i,), Fraction(1 + i % 3, 2)) for i in range(50)]
    Q = [(1,), (7,), (-4,)]
    built = 0
    new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted_new)
    achieved, ratio = O.evaluate_word(z1_action, P, Q, (1, 1))
    assert built <= 1
    monkeypatch.undo()
    assert ratio == min(Fraction(d) / eps for (_, d), (_, eps) in zip(achieved, P))


_WRONG_LENGTH_ON_ZD2 = pytest.mark.parametrize(
    "P, Q",
    [
        ([((1, 2, 3), 1)], [(0, 0)]),
        ([((1,), 1)], [(0, 0)]),
        ([((0, 0), 1)], [(1, 2, 3)]),
    ],
    ids=["p-3-tuple", "p-1-tuple", "q-3-tuple"],
)


@_WRONG_LENGTH_ON_ZD2
def test_evaluate_word_checks_its_points(zd2_action, P, Q):
    """A point of the wrong length is refused, not indexed as a lattice
    point (a 3-tuple read as distance 2, a 1-tuple an IndexError)."""
    with pytest.raises(InvalidInputError, match="expected a 2-tuple of ints"):
        O.evaluate_word(zd2_action, P, Q, ())


@_WRONG_LENGTH_ON_ZD2
def test_replay_trace_checks_its_points(zd2_action, P, Q):
    """replay_trace refuses a point of the wrong length before it moves any:
    a 1-tuple in P once raised IndexError."""
    level = O.LevelTrace(P[0][0], Fraction(1), (1,), [], 0, "direct", None)
    with pytest.raises(InvalidInputError, match="expected a 2-tuple of ints"):
        O.replay_trace(zd2_action, P, Q, sep.Trace([level]))


class _CountingZd(O.ZdSpace):
    """ℤ that counts its ``check_point`` calls."""

    checked = 0

    def check_point(self, p):
        self.checked += 1
        super().check_point(p)


def test_inputs_are_checked_once(monkeypatch):
    """check_certificate checks each point of P and Q and each weight once,
    at its boundary, and separate_points each weight once."""
    weight_checks = []

    def counting(x, what):
        weight_checks.append(what)
        return check_positive(x, what)

    for module in (sep, spaces):
        monkeypatch.setattr(module, "check_positive", counting)
    space = _CountingZd(1)
    action = O.GeneratedAction(space, [O.Translation((1,))])
    P = [((0,), Fraction(2)), ((10,), Fraction(1)), ((20,), Fraction(3))]
    Q = [(0,), (5,), (10,), (15,)]
    cert = O.separate_points(action, P, Q)
    assert len(weight_checks) == 3
    weight_checks.clear()
    space.checked = 0
    assert O.check_certificate(action, P, Q, cert) == []
    assert (space.checked, len(weight_checks)) == (7, 3)


@pytest.mark.parametrize(
    "P, Q, message",
    [
        ([((0,), 1), ((0,), 1)], [(1.5,)], "duplicate point (0,) in P"),
        ([((0,), 0.5)], [("x",)], "weight for (0,) must be a positive rational, got 0.5"),
        ([((0,), 1), ((1, 2), 1)], [(0,)], "expected a 1-tuple of ints, got (1, 2)"),
        ([((0,), 1)], [(3,), (3,), (1.5,)], "lattice coordinate must be an int, got 1.5"),
        ([((0,), 1)], [(3,), (3,)], "duplicate point (3,) in Q"),
    ],
    ids=["dup-p-before-bad-q", "weight-before-bad-q", "p-2-tuple", "bad-q-before-dup-q", "dup-q"],
)
def test_checker_refuses_what_the_solver_refuses(z1_action, P, Q, message):
    """check_certificate, separate_points and brute_force_separate name the
    same first fault of a malformed P or Q."""
    cert = O.separate_points(z1_action, [((0,), Fraction(1))], [(5,)])
    calls = [
        lambda: O.check_certificate(z1_action, P, Q, cert),
        lambda: O.separate_points(z1_action, P, Q),
        lambda: O.brute_force_separate(z1_action, P, Q, 2),
    ]
    messages = []
    for call in calls:
        with pytest.raises(InvalidInputError) as info:
            call()
        messages.append(str(info.value))
    assert messages == [message] * 3


_WEIGHTED_ENTRY_POINTS = {
    "separate": lambda a, P, Q, cert: O.separate_points(a, P, Q),
    "evaluate": lambda a, P, Q, cert: O.evaluate_word(a, P, Q, ()),
    "replay": lambda a, P, Q, cert: O.replay_trace(a, P, Q, cert.trace),
    "check": lambda a, P, Q, cert: O.check_certificate(a, P, Q, cert),
    "oracle": lambda a, P, Q, cert: O.brute_force_separate(a, P, Q, 2),
    "compact": lambda a, P, Q, cert: O.separate_compact(a, P, Q),
    "fullexist": lambda a, P, Q, cert: O.full_existence_step(a, Q, P),
}


@pytest.mark.parametrize(
    "P, message",
    [
        ([(0,)], "expected a (point, weight) pair, got (0,)"),
        ([((0,), 1, 3)], "expected a (point, weight) pair, got ((0,), 1, 3)"),
        ([((1,), 1), 5], "expected a (point, weight) pair, got 5"),
        ([((1,), 1), (0,), ((2,), 0.5)], "expected a (point, weight) pair, got (0,)"),
        ([((0.5,), 1), 5], "lattice coordinate must be an int, got 0.5"),
    ],
    ids=["one", "three", "int", "pair-before-weight", "point-before-pair"],
)
@pytest.mark.parametrize("entry_point", sorted(_WEIGHTED_ENTRY_POINTS))
def test_entry_points_refuse_a_weighted_entry_that_is_not_a_pair(
    z1_action, entry_point, P, message
):
    """Every entry point taking weighted points refuses an entry that does not
    unpack to (point, weight) with InvalidInputError, in input order with the
    other faults; it once leaked the unpacking's ValueError or TypeError."""
    cert = O.separate_points(z1_action, [((0,), Fraction(1))], [(5,)])
    with pytest.raises(InvalidInputError) as info:
        _WEIGHTED_ENTRY_POINTS[entry_point](z1_action, P, [(5,)], cert)
    assert str(info.value) == message


def test_certificate_json_roundtrip(z1_action):
    P = Z_FALLBACK["P"]
    Q = Z_FALLBACK["Q"]
    cert = O.separate_points(z1_action, P, Q, SMALL_BUDGET)
    space = z1_action.space
    obj = O.certificate_to_json(space, cert)
    back = O.certificate_from_json(space, obj)
    assert back.word == cert.word
    assert back.achieved == cert.achieved
    assert back.ratio == cert.ratio
    assert O.trace_to_json(space, back.trace) == O.trace_to_json(space, cert.trace)
    assert O.check_certificate(z1_action, P, Q, back) == []


def test_deep_certificate_json_roundtrip(z1_action):
    """1200 trace levels encode, print, parse and decode to the same certificate."""
    P = [((i,), Fraction(1)) for i in range(1200)]
    cert = O.separate_points(z1_action, P, [])
    assert len(cert.trace) == 1200
    space = z1_action.space
    text = json.dumps(O.certificate_to_json(space, cert))
    assert O.certificate_from_json(space, json.loads(text)) == cert


def test_equivariance_on_scaled_space(z1_action):
    P = [((0,), Fraction(6))]
    Q = [(0,), (10,)]
    cert = O.separate_points(z1_action, P, Q)
    scaled = O.ScaledSpace(O.ZdSpace(1, "l1"), Fraction(3, 2))
    act2 = O.GeneratedAction(scaled, [O.Translation((1,))])
    doubled = [((0,), Fraction(9))]  # weights scale with the metric
    achieved, ratio = O.evaluate_word(act2, doubled, Q, cert.word)
    assert ratio >= Fraction(1, 3)
    for (_, eps), (_, d) in zip(doubled, achieved):
        assert 3 * d >= eps


def test_free_group_separation(free2_action):
    P = [((), Fraction(2)), ((1,), Fraction(2))]
    Q = [(), (2,), (1, 2)]
    cert = O.separate_points(free2_action, P, Q, O.OrbitBudget(3000, 12))
    assert_valid(free2_action, P, Q, cert)


def test_solve_describes_each_generator_once():
    """A solve starts a walk per escape and per Q0 scan, but the action
    binds its skeleton key once: no generator is described twice."""
    gens = [O.Translation((1, 0)), O.Translation((0, 1))]
    action = O.GeneratedAction(O.ZdSpace(2, "l1"), gens)
    calls = []
    for i, g in enumerate(gens):
        g.describe = (lambda i, describe: lambda: calls.append(i) or describe())(i, g.describe)
    P = [((0, 0), Fraction(4)), ((3, 1), Fraction(3)), ((-2, 5), Fraction(2))]
    Q = [(0, 0), (1, 1), (3, 2), (-2, 4)]
    stats = O.SearchStats()
    cert = O.separate_points(action, P, Q, stats=stats)
    assert_valid(action, P, Q, cert)
    assert len(cert.trace) == 3 and stats.points > 3
    assert sorted(calls) == [0, 1]
    O.separate_points(action, P, Q)
    assert sorted(calls) == [0, 1]


def _referenced_names(func):
    """Every global name the function's code uses, following the package's
    module-level functions it calls (methods are not followed)."""
    names, seen, todo = set(), set(), [func]
    while todo:
        fn = todo.pop()
        if fn in seen:
            continue
        seen.add(fn)
        codes = [fn.__code__]
        while codes:
            code = codes.pop()
            names.update(code.co_names)
            for name in code.co_names:
                callee = fn.__globals__.get(name)
                if isinstance(callee, types.FunctionType) and callee.__module__.startswith(
                    "orbitsep"
                ):
                    todo.append(callee)
            codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return names


@pytest.mark.parametrize(
    "checker",
    [
        O.check_certificate,
        O.replay_trace,
        O.evaluate_word,
        O.certificate_from_json,
        O.trace_from_json,
        O.brute_force_separate,
    ],
    ids=lambda f: f.__name__,
)
def test_checker_shares_no_search_code(checker):
    """The checker, and the decoding the ``--check`` path runs before it,
    re-derive a certificate without the solver's search."""
    assert not _referenced_names(checker) & {
        "find_escape",
        "orbit_stream",
        "OrbitWalk",
        "_Skeleton",
        "_grow",
        "_skeleton",
        "_skeletons",
        "_detect_q0",
        "_separate",
        "_SUBTREE_TEST_EVERY",
        "skip",
        "_words",
        "_moves",
        "_skeleton_key",
        "_onward",
        "_seen",
    }


def _full_scan_q0(action, pivot, q_points, radius, budget):
    """Every Q-point within the fixed horizon against every orbit point."""
    space = action.space
    step = max(space.distance(pivot, move(pivot)) for _, move in action.moves())
    horizon = radius + budget.max_word_length * step
    candidates = [y for y in q_points if space.distance(pivot, y) < horizon]
    found = {}
    for x, w in O.orbit_stream(action, pivot, budget):
        for y in candidates:
            if y not in found and space.distance(x, y) < radius:
                found[y] = w
    return {y: found[y] for y in q_points if y in found}


class _Reflection(O.Translation):
    """On ℤ: x -> -x, a Translation by class.  It moves x by 2|x|, so orbit
    points do not share the pivot's displacement, and it does not commute
    with a translation."""

    def forward(self, p):
        return (-p[0],)

    backward = forward

    def power(self, p, k):
        return self.forward(p) if k % 2 else p


def _q0_actions():
    z2 = [O.Translation((1, 0)), O.Translation((0, 1)), O.Translation((2, -1))]
    z1 = [O.Translation((1,))]
    path3 = O.FiniteGraphSpace(3, [[0, 1, 1], [1, 2, "1/2"]])
    # A 12-cycle whose edges alternate weights 1 and 1/2, turned by two steps
    # and reflected through the edge 0-1: distances from a vertex repeat, so
    # several Q-points share one shell.
    halves = O.FiniteGraphSpace(
        12, [[i, (i + 1) % 12, "1/2" if i % 2 else 1] for i in range(12)]
    )
    return {
        "zd_l1": (O.ZdSpace(2, "l1"), z2),
        "zd_linf": (O.ZdSpace(2, "linf"), z2),
        "free2": (O.FreeSpace(2), [O.LeftMultiplication((1,)), O.LeftMultiplication((2,))]),
        "shift": (O.DiscreteShiftSpace(), [O.Shift()]),
        "c4": (
            O.FiniteGraphSpace(4, [[0, 1, 1], [1, 2, 1], [2, 3, 1], [3, 0, 1]]),
            [O.VertexPermutation((1, 2, 3, 0))],
        ),
        "scaled": (O.ScaledSpace(O.ZdSpace(2, "l1"), "3/2"), z2),  # D = 9/2
        "discrete": (O.DiscreteAdapterSpace(O.ZdSpace(1, "l1")), z1),
        # The reflection fixes the middle vertex: D = 0 for pivot 1.
        "fixed_pivot": (path3, [O.VertexPermutation((2, 1, 0))]),
        "graph_halves": (
            halves,
            [
                O.VertexPermutation([(i + 2) % 12 for i in range(12)]),
                O.VertexPermutation([(1 - i) % 12 for i in range(12)]),
            ],
        ),
        "reflection": (O.ZdSpace(1, "l1"), [O.Translation((1,)), _Reflection((1,))]),
    }


_WEIGHTS = st.one_of(
    st.integers(1, 9), st.fractions(Fraction(1, 9), 9, max_denominator=9)
)


@pytest.mark.parametrize("kind", sorted(_q0_actions()))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_evaluate_word_matches_fraction_reference(kind, data):
    """The integer-pair rating returns the achieved list and a ratio equal to,
    and of the same type as, the worst Fraction(d) / Fraction(eps); INF when P
    or Q is empty."""
    space, gens = _q0_actions()[kind]
    action = O.GeneratedAction(space, gens)
    rng = O.SplitMix64(data.draw(st.integers(0, 2**32)))
    sample = lambda: O.sample_point(space, rng, coord_max=8, word_max=6)
    weighted = [(sample(), data.draw(_WEIGHTS)) for _ in range(data.draw(st.integers(0, 5)))]
    q_points = [sample() for _ in range(data.draw(st.integers(0, 5)))]
    letters = [s for s, _ in action.moves()]
    word = tuple(data.draw(st.lists(st.sampled_from(letters), max_size=6)))
    if weighted and data.draw(st.booleans()):  # a zero distance
        q_points.append(action.apply_word(word, weighted[0][0]))
    achieved = []
    for p, _ in weighted:
        image = action.apply_word(word, p)
        achieved.append((p, min((space.distance(image, y) for y in q_points), default=O.INF)))
    ratios = (Fraction(d) / Fraction(eps) for (_, d), (_, eps) in zip(achieved, weighted))
    ratio = min(ratios, default=O.INF) if q_points else O.INF
    got_achieved, got_ratio = O.evaluate_word(action, weighted, q_points, word)
    assert got_achieved == achieved
    assert got_ratio == ratio and type(got_ratio) is type(ratio)


@pytest.mark.parametrize("kind", sorted(_q0_actions()))
def test_detect_q0_matches_full_scan(kind):
    """Free(2) pivots up to 6 letters, up to 16 Q-points, Fraction shells."""
    space, gens = _q0_actions()[kind]
    action = O.GeneratedAction(space, gens)
    rng = O.SplitMix64(sum(map(ord, kind)))
    sample = lambda: O.sample_point(space, rng, coord_max=8, word_max=6)
    budgets = [O.OrbitBudget(6, 8), O.OrbitBudget(40, 3), O.OrbitBudget(2000, 6)]
    for case in range(40):
        pivot = 1 if kind == "fixed_pivot" else sample()
        q_points = list(dict.fromkeys(sample() for _ in range(1 + rng.below(16))))
        radius = Fraction(1 + rng.below(12), 1 + rng.below(3))
        budget = budgets[case % len(budgets)]
        expected = _full_scan_q0(action, pivot, q_points, radius, budget)
        got = _detect_q0(action, pivot, q_points, radius, budget)
        assert got == expected
        assert list(got) == list(expected)  # Q order
    if kind == "fixed_pivot":
        assert all(move(1) == 1 for _, move in action.moves())  # D = 0
        assert _detect_q0(action, 1, [0, 1, 2], Fraction(1, 2), budgets[2]) == {1: ()}


_free_points = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=6).map(O.reduce_word)
_z2_points = st.tuples(st.integers(-8, 8), st.integers(-8, 8))
# The kinds whose generators commute (every zd kind, shift, c4), and controls
# whose generators do not (free2, graph_halves, reflection).
_Q0_PROPERTY_KINDS = {
    "free2": _free_points,
    "zd_linf": _z2_points,
    "zd_l1": _z2_points,
    "scaled": _z2_points,
    "shift": st.integers(-8, 8),
    "c4": st.integers(0, 3),
    "graph_halves": st.integers(0, 11),
    "reflection": st.tuples(st.integers(-8, 8)),
}


@pytest.mark.parametrize("kind", sorted(_Q0_PROPERTY_KINDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_detect_q0_property(kind, data):
    space, gens = _q0_actions()[kind]
    points = _Q0_PROPERTY_KINDS[kind]
    action = O.GeneratedAction(space, gens)
    pivot = data.draw(points)
    q_points = data.draw(st.lists(points, min_size=1, max_size=16, unique=True))
    radius = Fraction(data.draw(st.integers(1, 12)), data.draw(st.integers(1, 3)))
    budget = data.draw(
        st.sampled_from([O.OrbitBudget(40, 3), O.OrbitBudget(400, 5), O.OrbitBudget(1000, 9)])
    )
    got = _detect_q0(action, pivot, q_points, radius, budget)
    expected = _full_scan_q0(action, pivot, q_points, radius, budget)
    assert list(got.items()) == list(expected.items())


def test_detect_q0_prunes_no_subtree_of_a_translation_subclass():
    """A reflection of ℤ is a Translation by class but does not commute with
    a translation.  From pivot 1 every generator moves the pivot by at most
    D = 2, yet the reflection moves 4 by 8: the point 3 at length 2 is
    7 = radius + 3D from -4, and the only witness for -4 runs through it."""
    space, gens = _q0_actions()["reflection"]
    action = O.GeneratedAction(space, gens)
    budget = O.OrbitBudget(1000, 5)
    assert max(space.distance((1,), move((1,))) for _, move in action.moves()) == 2
    assert _full_scan_q0(action, (1,), [(-4,)], 1, budget) == {(-4,): (2, 1, 1, 1)}
    assert _detect_q0(action, (1,), [(-4,)], 1, budget) == {(-4,): (2, 1, 1, 1)}


class _CountingFreeSpace(O.FreeSpace):
    def __init__(self, rank):
        super().__init__(rank)
        self.calls = 0

    def distance(self, p, q):
        self.calls += 1
        return super().distance(p, q)


def _per_pair_distance_calls(action, pivot, q_points, radius, budget):
    """Distance calls of the scan without the pivot-distance window: the
    horizon, then every joined, not yet found Q-point against every orbit
    point."""
    space = action.space
    reach = max(space.distance(pivot, move(pivot)) for _, move in action.moves())
    calls = len(action.moves()) + len(q_points)
    joins = {}  # Q-point -> the word length from which it is compared
    for y in q_points:
        gap = space.distance(pivot, y) - radius
        if gap < 0:
            joins[y] = 0
        elif reach and gap // reach + 1 <= budget.max_word_length:
            joins[y] = gap // reach + 1
    if not joins:
        return calls
    for x, w in O.orbit_stream(action, pivot, budget):
        for y in [y for y, k in joins.items() if k <= len(w)]:
            calls += 1
            if space.distance(x, y) < radius:
                del joins[y]
        if not joins:
            break
    return calls


def test_detect_q0_distance_calls_on_free2_sequence(monkeypatch):
    """The pivot-distance window cuts the distance calls of the Q0 scans
    that placing six copies of criterion 5's free(2) tuple runs: pinned, and
    8x below the per-pair count of the same scans."""
    space = _CountingFreeSpace(2)
    action = O.GeneratedAction(
        space, [O.LeftMultiplication((1,)), O.LeftMultiplication((2,))]
    )
    scans = []

    def counted_scan(action, pivot, q_points, radius, budget, stats=None):
        before = space.calls
        found = _detect_q0(action, pivot, q_points, radius, budget, stats)
        scans.append(((pivot, list(q_points), radius, budget), space.calls - before))
        return found

    monkeypatch.setattr(sep, "_detect_q0", counted_scan)
    O.separated_sequence(action, [(), (1,), (2, 1)], 1, 6, O.OrbitBudget(4000, 16))
    calls = sum(n for _, n in scans)
    per_pair = sum(_per_pair_distance_calls(action, *args) for args, _ in scans)
    assert (len(scans), calls, per_pair) == (10, 165252, 1364577)
    assert 8 * calls < per_pair


def test_detect_q0_distance_calls_on_zd2_pool(monkeypatch):
    """The Q0 scans of 60 seeded zd2 instances with |P| >= 2, the benchmark
    pool's common case: scans, distance calls and orbit points pinned."""
    distance = O.ZdSpace.distance
    calls = [0]

    def counted_distance(self, p, q):
        calls[0] += 1
        return distance(self, p, q)

    totals = [0, 0, 0]  # scans, distance calls, orbit points

    def counted_scan(action, pivot, q_points, radius, budget, stats=None):
        local = O.SearchStats()
        before = calls[0]
        found = _detect_q0(action, pivot, q_points, radius, budget, local)
        totals[0] += 1
        totals[1] += calls[0] - before
        totals[2] += local.points
        return found

    monkeypatch.setattr(O.ZdSpace, "distance", counted_distance)
    monkeypatch.setattr(sep, "_detect_q0", counted_scan)
    master = O.SplitMix64(42)
    solved = 0
    while solved < 60:
        inst = O.random_instance("zd2", master.next_u64())
        if len(inst.weighted_p) < 2:
            continue
        solved += 1
        O.separate_points(inst.action(), inst.weighted_p, inst.q_points, inst.budget)
    assert totals == [114, 38919, 28034]


def test_detect_q0_walks_no_orbit_point_without_a_q_point_in_reach():
    """Q-points at d(pivot, y) >= radius + max_word_length * D never join."""
    z1 = O.GeneratedAction(O.ZdSpace(1, "l1"), [O.Translation((1,))])
    space, gens = _q0_actions()["fixed_pivot"]
    fixed = O.GeneratedAction(space, gens)  # D = 0 for pivot 1
    budget = O.OrbitBudget(100, 8)
    for action, pivot, q_points, radius in [
        (z1, (0,), [(9,), (-9,), (12,)], 1),
        (fixed, 1, [0, 2], Fraction(1, 2)),
        (z1, (0,), [], 1),
    ]:
        stats = O.SearchStats()
        assert _detect_q0(action, pivot, q_points, radius, budget, stats) == {}
        assert stats.points == 0


def _letter_fold(action, w, p):
    """apply_word one letter at a time, rightmost first."""
    for s in reversed(w):
        p = action.apply_word((s,), p)
    return p


def _runs_word(rng, n):
    """Up to 5 runs of one signed letter each, 1 to 4 long."""
    word = ()
    for _ in range(rng.below(6)):
        letter = (1 + rng.below(n)) * (1 if rng.below(2) else -1)
        word += (letter,) * (1 + rng.below(4))
    return word


@pytest.mark.parametrize("kind", sorted(_q0_actions()))
def test_enlarge_matches_apply_word_fold(kind):
    space, gens = _q0_actions()[kind]
    action = O.GeneratedAction(space, gens)
    n = len(gens)
    rng = O.SplitMix64(sum(map(ord, kind)) + 1)
    for _ in range(20):
        q_points = list(
            dict.fromkeys(O.sample_point(space, rng, coord_max=8) for _ in range(6))
        )
        a = _runs_word(rng, n)
        q0 = {y: _runs_word(rng, n) for y in q_points if rng.below(2)}
        expected = dict.fromkeys(q_points)
        for g_y in q0.values():
            shift = O.compose(g_y, O.invert(a))
            for q in q_points:
                expected.setdefault(_letter_fold(action, shift, q))
        assert _enlarge(action, q_points, q0, a) == list(expected)
