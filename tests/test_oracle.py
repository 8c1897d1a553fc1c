import random
from collections import deque
from fractions import Fraction

import pytest

import orbitsep as O
from orbitsep import oracle
from orbitsep.errors import InvalidInputError
from orbitsep.oracle import CSV_COLUMNS


def test_brute_force_single_point_example(z1_action):
    P = [((0,), Fraction(6))]
    Q = [(0,), (10,)]
    verdict = O.brute_force_separate(z1_action, P, Q, 8)
    assert verdict.explored == 17  # the 17 points of [-8, 8]
    assert ((-6,),) in verdict.valid_images
    assert verdict.best_ratio == Fraction(4, 3)
    assert verdict.best_word == (-1,) * 8
    assert verdict.contains_word(z1_action, P, (-1,) * 6)


def test_brute_force_valid_words_reverify(z1_action):
    P = [((0,), Fraction(6))]
    Q = [(0,), (10,)]
    verdict = O.brute_force_separate(z1_action, P, Q, 8)
    for word in verdict.valid_words:
        _, ratio = O.evaluate_word(z1_action, P, Q, word)
        assert 3 * ratio >= 1


def test_brute_force_empty_p(z1_action):
    verdict = O.brute_force_separate(z1_action, [], [(0,)], 4)
    assert verdict.best_ratio == O.INF
    assert verdict.valid_words == [()]
    assert verdict.contains_word(z1_action, [], (1, 1))


def test_brute_force_c4_no_escape(c4_action):
    P = [(v, Fraction(1)) for v in range(4)]
    Q = [0, 1, 2, 3]
    verdict = O.brute_force_separate(c4_action, P, Q, 6)
    assert verdict.valid_words == []
    assert verdict.best_ratio == 0


def test_brute_force_monotone_in_bound(z1_action):
    P = [((0,), Fraction(6))]
    Q = [(0,), (10,)]
    ratios = [
        O.brute_force_separate(z1_action, P, Q, bound).best_ratio
        for bound in range(0, 9)
    ]
    assert all(a <= b for a, b in zip(ratios, ratios[1:]))


def _reference_verdict(action, weighted, q_points, bound):
    """brute_force_separate's reference: a BFS folding ``step``, Fraction ratios."""
    space = action.space

    def rate(image):
        ratio = O.INF
        for p, (_, eps) in zip(image, weighted):
            d = min((space.distance(p, y) for y in q_points), default=O.INF)
            r = O.INF if d == O.INF else Fraction(d) / Fraction(eps)
            if r < ratio:
                ratio = r
        return ratio

    start = tuple(p for p, _ in weighted)
    seen = {start}
    queue = deque([(start, ())])
    valid = {}
    best_word, best_ratio = (), rate(start)
    if 3 * best_ratio >= 1:
        valid[start] = ()
    while queue:
        node, w = queue.popleft()
        if len(w) >= bound:
            continue
        for s, _ in action.moves():
            nxt = tuple(action.step(s, p) for p in node)
            if nxt in seen:
                continue
            seen.add(nxt)
            queue.append((nxt, (s,) + w))
            ratio = rate(nxt)
            if 3 * ratio >= 1:
                valid[nxt] = (s,) + w
            if ratio > best_ratio:
                best_ratio, best_word = ratio, (s,) + w
    return list(valid.values()), best_word, best_ratio, len(seen)


def _zd2(norm, u, v):
    return O.GeneratedAction(O.ZdSpace(2, norm), [O.Translation(u), O.Translation(v)])


def _z1_line(space, step):
    return O.GeneratedAction(space, [O.Translation((step,))])


# The 6-cycle under a rotation and a reflection: a dihedral group, so vertex
# stabilisers are not trivial.
DIHEDRAL6 = O.GeneratedAction(
    O.FiniteGraphSpace(6, [[i, (i + 1) % 6, 1] for i in range(6)]),
    [O.VertexPermutation((1, 2, 3, 4, 5, 0)), O.VertexPermutation((0, 5, 4, 3, 2, 1))],
)

EXACT_ACTIONS = {
    "zd2-l1": _zd2("l1", (2, -1), (1, 3)),
    "zd2-linf": _zd2("linf", (2, -1), (1, 3)),
    "zd1-l1": O.GeneratedAction(O.ZdSpace(1, "l1"), [O.Translation((2,)), O.Translation((-3,))]),
    "zd1-linf": _z1_line(O.ZdSpace(1, "linf"), 1),
    "free2": O.GeneratedAction(
        O.FreeSpace(2), [O.LeftMultiplication((1,)), O.LeftMultiplication((2,))]
    ),
    "shift": O.GeneratedAction(O.DiscreteShiftSpace(), [O.Shift()]),
    "c4": O.GeneratedAction(
        O.FiniteGraphSpace(4, [[0, 1, 1], [1, 2, 1], [2, 3, 1], [3, 0, 1]]),
        [O.VertexPermutation((1, 2, 3, 0))],
    ),
    "dihedral6": DIHEDRAL6,
    "scaled": _z1_line(O.ScaledSpace(O.ZdSpace(1, "l1"), Fraction(3, 2)), 2),
    "discrete": _z1_line(O.DiscreteAdapterSpace(O.ZdSpace(1, "linf")), 1),
}


def _distinct_sample(space, draw, coord_max):
    """The distinct points among 30 seeded draws, in draw order."""
    points = []
    for _ in range(30):
        p = O.sample_point(space, draw, coord_max=coord_max, word_max=3)
        if p not in points:
            points.append(p)
    return points


def _sample_sets(action, rng, p_count, q_count):
    """Distinct seeded P (with eps in {1/2, 1, ..., 4}) and Q points."""
    points = _distinct_sample(action.space, O.SplitMix64(rng.randrange(1 << 32)), 6)
    eps = [Fraction(rng.randint(1, 8), 2) for _ in points]
    weighted = list(zip(points[:p_count], eps))
    return weighted, points[p_count : p_count + q_count]


def _assert_same_verdict(action, weighted, q_points, bound):
    verdict = O.brute_force_separate(action, weighted, q_points, bound)
    got = (verdict.valid_words, verdict.best_word, verdict.best_ratio, verdict.explored)
    assert got == _reference_verdict(action, weighted, q_points, bound)
    return verdict


@pytest.mark.parametrize("kind", sorted(EXACT_ACTIONS))
def test_brute_force_matches_fraction_reference(kind):
    """Integer-pair ratios and move-table images give the exact verdict of a
    per-letter ``step`` BFS rating every image with Fractions."""
    rng = random.Random(kind)
    action = EXACT_ACTIONS[kind]
    bound = 3 if kind == "free2" else 5
    for _ in range(6):
        weighted, q_points = _sample_sets(action, rng, rng.randint(1, 3), rng.randint(1, 4))
        _assert_same_verdict(action, weighted, q_points, bound)
    weighted, q_points = _sample_sets(action, rng, 2, 3)
    _assert_same_verdict(action, [], q_points, bound)
    _assert_same_verdict(action, weighted, [], bound)
    _assert_same_verdict(action, weighted, q_points, 0)


@pytest.mark.parametrize("kind", sorted(EXACT_ACTIONS))
def test_brute_force_words_are_reduced(kind):
    """No oracle word holds a letter next to its inverse."""
    rng = random.Random("reduced " + kind)
    action = EXACT_ACTIONS[kind]
    for _ in range(4):
        weighted, q_points = _sample_sets(action, rng, rng.randint(1, 3), rng.randint(1, 4))
        verdict = O.brute_force_separate(action, weighted, q_points, 4)
        for word in verdict.valid_words + [verdict.best_word]:
            assert O.reduce_word(word) == word


def test_brute_force_never_tries_the_undo_letter(z1_action, monkeypatch):
    """On a line the identity tries both letters and every other image only
    the one that does not lead back: 2 + 14 moves for the 17 images of
    [-8, 8], where trying both letters everywhere made 30."""
    calls = 0

    def counted(move):
        def call(p):
            nonlocal calls
            calls += 1
            return move(p)

        return call

    moves = z1_action.moves()
    monkeypatch.setattr(z1_action, "moves", lambda: [(s, counted(m)) for s, m in moves])
    verdict = O.brute_force_separate(z1_action, [((0,), Fraction(6))], [(0,), (10,)], 8)
    assert (verdict.explored, calls) == (17, 16)


def test_brute_force_ratio_exactly_a_third_is_valid(z1_action):
    verdict = _assert_same_verdict(z1_action, [((0,), Fraction(3))], [(0,)], 2)
    assert ((1,),) in verdict.valid_images
    assert ((-1,),) in verdict.valid_images
    assert ((0,),) not in verdict.valid_images


@pytest.mark.parametrize("bound", [True, False, -1, 1.0, "8"])
def test_brute_force_rejects_a_bad_bound(z1_action, bound):
    with pytest.raises(InvalidInputError, match="max_word_length"):
        O.brute_force_separate(z1_action, [((0,), Fraction(1))], [(0,)], bound)


@pytest.mark.parametrize("eps", [0, Fraction(-1, 2), O.INF])
def test_brute_force_rejects_a_bad_eps(z1_action, eps):
    """The integer-pair ratios need every eps positive and finite; the
    refusal is the solver's own."""
    with pytest.raises(InvalidInputError, match=r"^weight for \(0,\) must be a positive rational"):
        O.brute_force_separate(z1_action, [((0,), eps)], [(0,)], 2)


_BAD_ZD2_POINTS = [
    ((1,), "expected a 2-tuple of ints, got (1,)"),
    ((1.5, 2), "lattice coordinate must be an int, got 1.5"),
    ((1, 2, 3), "expected a 2-tuple of ints, got (1, 2, 3)"),
]


def _refusals(action, weighted, q_points):
    """The messages separate_points and brute_force_separate refuse with."""
    messages = []
    for solve in (O.separate_points, lambda *a: O.brute_force_separate(*a, 2)):
        with pytest.raises(InvalidInputError) as info:
            solve(action, weighted, q_points)
        messages.append(str(info.value))
    return messages


@pytest.mark.parametrize("point, message", _BAD_ZD2_POINTS)
def test_brute_force_refuses_what_the_solver_refuses(zd2_action, point, message):
    """A short point once raised IndexError, a float coordinate AttributeError,
    and a 3-tuple on ℤ² was answered; the oracle now refuses each, in P or
    in Q, with the solver's own message."""
    one = Fraction(1)
    cases = [
        ([(point, one)], [(0, 0)]),
        ([((5, 5), one)], [(0, 0), point]),
    ]
    for weighted, q_points in cases:
        assert _refusals(zd2_action, weighted, q_points) == [message, message]


def test_brute_force_refuses_a_repeated_point(zd2_action):
    one = Fraction(1)
    twice_p = [((1, 1), one), ((1, 1), Fraction(2))]
    twice_q = [(0, 0), (0, 0)]
    for weighted, q_points, message in [
        (twice_p, [(0, 0)], "duplicate point (1, 1) in P"),
        ([((1, 1), one)], twice_q, "duplicate point (0, 0) in Q"),
    ]:
        assert _refusals(zd2_action, weighted, q_points) == [message, message]


def test_experiment_rejects_a_bool_bound():
    with pytest.raises(InvalidInputError, match="max_word_length"):
        O.ratio_experiment(["zd2"], 1, 9, oracle_bound=True)


@pytest.mark.parametrize("bad_kind", ["compact1d", "nope"])
def test_experiment_checks_every_kind_before_the_first_row(monkeypatch, bad_kind):
    calls = []
    check = oracle.differential_check

    def counted(instance, *args):
        calls.append(instance.kind)
        return check(instance, *args)

    monkeypatch.setattr(oracle, "differential_check", counted)
    with pytest.raises(InvalidInputError):
        O.ratio_experiment(["zd2", bad_kind], 2, 0)
    assert calls == []


def test_differential_check_validates_the_bound_before_solving(monkeypatch):
    def solve(*args):
        raise AssertionError("the solver ran before the bound was checked")

    monkeypatch.setattr(oracle, "separate_points", solve)
    with pytest.raises(InvalidInputError, match="max_word_length"):
        O.differential_check(O.random_instance("zd2", 1), oracle_bound=-1)


def test_random_instance_determinism():
    a = O.random_instance("zd2", 42)
    b = O.random_instance("zd2", 42)
    assert a.to_json() == b.to_json()
    c = O.random_instance("zd2", 43)
    assert c.to_json() != a.to_json()


def test_random_instance_free2_points_bounded():
    inst = O.random_instance("free2", 7)
    for p, _ in inst.weighted_p:
        assert len(p) <= 6
        inst.space.check_point(p)
    for q in inst.q_points:
        assert len(q) <= 6


def test_random_instance_caps():
    with pytest.raises(InvalidInputError):
        O.SizeCaps(p_max=7)
    with pytest.raises(InvalidInputError):
        O.SizeCaps(coord_max=33)
    with pytest.raises(InvalidInputError):
        O.SizeCaps(p_max=True)
    with pytest.raises(InvalidInputError):
        O.SizeCaps(delta_choices=(True, 3))
    with pytest.raises(InvalidInputError):
        O.random_instance("heisenberg", 1)


def test_random_instance_respects_sizes():
    sizes = O.SizeCaps(p_max=3, q_max=4, coord_max=10, eps_max=2)
    for seed in range(20):
        inst = O.random_instance("zd2", seed, sizes)
        assert 1 <= len(inst.weighted_p) <= 3
        assert 1 <= len(inst.q_points) <= 4
        for (x, y), eps in inst.weighted_p:
            assert abs(x) <= 10 and abs(y) <= 10
            assert eps in (1, 2)


def test_differential_check_seeded_instances():
    master = O.SplitMix64(2718)
    for kind in ("zd2", "shift"):
        for _ in range(25):
            inst = O.random_instance(kind, master.next_u64())
            report = O.differential_check(inst)
            assert report.status == "ok", report.problems


def test_differential_check_free_group():
    master = O.SplitMix64(555)
    budget = O.OrbitBudget(4000, 12)
    for _ in range(5):
        inst = O.random_instance("free2", master.next_u64(), budget=budget)
        report = O.differential_check(inst, oracle_bound=6)
        assert report.status == "ok", report.problems


# Families random_instance does not draw: (action, largest eps, budget).
# Only the dihedral 6-cycle may exhaust its budget: Q can cover an orbit
# there, as in c4.
DIFFERENTIAL_FAMILIES = {
    "zd2-linf-skew": (_zd2("linf", (1, 2), (-1, 1)), 4, O.DEFAULT_BUDGET),
    "zd3-l1": (
        O.GeneratedAction(
            O.ZdSpace(3, "l1"),
            [O.Translation((1, 0, 0)), O.Translation((0, 1, 0)), O.Translation((0, 0, 1))],
        ),
        4,
        O.OrbitBudget(5000, 12),
    ),
    "scaled-zd1": (
        _z1_line(O.ScaledSpace(O.ZdSpace(1, "linf"), Fraction(3, 2)), 1), 4, O.DEFAULT_BUDGET
    ),
    "discrete-zd1": (
        _z1_line(O.DiscreteAdapterSpace(O.ZdSpace(1, "linf")), 1), 1, O.DEFAULT_BUDGET
    ),
    "dihedral6": (DIHEDRAL6, 4, O.DEFAULT_BUDGET),
}


def _family_instance(family, seed):
    action, eps_max, budget = DIFFERENTIAL_FAMILIES[family]
    rng = O.SplitMix64(seed)
    points = _distinct_sample(action.space, rng, 8)
    p_count, q_count = 1 + rng.below(3), 1 + rng.below(4)
    weighted = [(p, Fraction(1 + rng.below(eps_max))) for p in points[:p_count]]
    q_points = points[p_count : p_count + q_count]
    return O.InstanceSpec(
        family, seed, action.space, action.generators, weighted, q_points, budget=budget
    )


@pytest.mark.parametrize("family", sorted(DIFFERENTIAL_FAMILIES))
def test_differential_check_more_space_kinds(family):
    master = O.SplitMix64(2024)
    statuses = set()
    for _ in range(40):
        report = O.differential_check(_family_instance(family, master.next_u64()))
        assert report.status != "mismatch", report.problems
        statuses.add(report.status)
    allowed = {"ok", "budget-exhausted"} if family == "dihedral6" else {"ok"}
    assert "ok" in statuses and statuses <= allowed


def test_differential_check_empty_p():
    inst = O.random_instance("zd2", 5)
    inst.weighted_p.clear()
    report = O.differential_check(inst)
    assert report.status == "ok"


def test_differential_check_flags_corrupted_certificate():
    inst = O.random_instance("zd2", 1)
    act = inst.action()
    cert = O.separate_points(act, inst.weighted_p, inst.q_points, inst.budget)
    corrupted = O.SeparationCertificate(
        cert.word[:-1] if cert.word else (1,), cert.achieved, cert.ratio, None
    )
    report = O.differential_check(inst, certificate=corrupted)
    assert report.status == "mismatch"
    assert report.problems
    payload = report.to_json()
    assert payload["status"] == "mismatch"
    assert payload["instance"]["kind"] == "zd2"


def test_differential_check_reports_a_low_stored_ratio_once():
    """A stored ratio of 1/4 is one fault: check_certificate's problems are
    the report's problems, with no second ratio test on top."""
    inst = O.random_instance("zd2", 1)
    act = inst.action()
    cert = O.separate_points(act, inst.weighted_p, inst.q_points, inst.budget)
    tampered = O.SeparationCertificate(
        cert.word, cert.achieved, Fraction(1, 4), cert.trace
    )
    report = O.differential_check(inst, certificate=tampered)
    assert report.status == "mismatch"
    problems = O.check_certificate(act, inst.weighted_p, inst.q_points, tampered)
    assert problems and report.problems == problems


def test_differential_check_lists_check_problems_before_the_oracle_verdict(monkeypatch):
    """A given certificate is checked before the oracle searches; its
    problems come first, the oracle's verdict on its word last."""
    inst = O.random_instance("zd2", 0)
    inst.q_points.append(inst.weighted_p[0][0])  # the identity moves p onto Q
    achieved, ratio = O.evaluate_word(inst.action(), inst.weighted_p, inst.q_points, ())
    calls = []

    def recorded(name):
        fn = getattr(oracle, name)

        def wrapper(*args):
            calls.append(name)
            return fn(*args)

        return wrapper

    for name in ("check_certificate", "brute_force_separate"):
        monkeypatch.setattr(oracle, name, recorded(name))
    cert = O.SeparationCertificate((), achieved, ratio, None)
    report = O.differential_check(inst, oracle_bound=4, certificate=cert)
    assert calls == ["check_certificate", "brute_force_separate"]
    assert report.problems == [
        "ratio 0 is below 1/3",
        "certificate word [] (length 0) is not oracle-valid at bound 4",
    ]


def test_differential_check_budget_exhaustion_is_not_mismatch():
    inst = O.random_instance("c4", 0)
    report = O.differential_check(inst)
    assert report.status == "budget-exhausted"
    assert report.certificate is None
    assert report.to_json()["oracle"]["best_ratio"] == "0"


def test_experiment_single_row():
    result = O.ratio_experiment(["zd2"], 1, 9)
    lines = result.csv_text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2
    assert lines[1].count(",") == len(CSV_COLUMNS) - 1


def test_experiment_c4_row_records_budget_exhaustion():
    result = O.ratio_experiment(["c4"], 1, 0)
    row = result.rows[0]
    assert row["status"] == "budget-exhausted"
    assert row["cert_ratio"] == ""
    assert result.min_ratio is None


def test_experiment_row_reports_mismatch(monkeypatch):
    """A row is a differential check: a wrong certificate reads "mismatch"."""
    solve = oracle.separate_points

    def inflated_ratio(*args):
        cert = solve(*args)
        return O.SeparationCertificate(cert.word, cert.achieved, cert.ratio + 1, cert.trace)

    monkeypatch.setattr(oracle, "separate_points", inflated_ratio)
    row = O.ratio_experiment(["zd2"], 1, 9).rows[0]
    assert row["status"] == "mismatch"
    assert row["cert_ratio"] != ""


def test_experiment_min_ratio_at_least_third():
    result = O.ratio_experiment(["zd2"], 30, 77)
    assert all(row["status"] == "ok" for row in result.rows)
    assert 3 * result.min_ratio >= 1


def test_experiment_deterministic():
    a = O.ratio_experiment(["zd2", "shift"], 12, 123)
    b = O.ratio_experiment(["zd2", "shift"], 12, 123)
    assert a.csv_text == b.csv_text


def test_instance_spec_json_shapes():
    sep = O.random_instance("zd2", 11).to_json()
    assert set(sep) == {"kind", "seed", "space", "generators", "P", "Q", "budget"}
    comp = O.random_instance("compact1d", 11).to_json()
    assert set(comp) == {"kind", "seed", "space", "generators", "C", "D", "budget"}
    assert comp["budget"] == {"max_points": 100000, "max_word_length": 768}
    # An explicit budget is used as given, whichever object it is.
    for budget in (O.DEFAULT_BUDGET, O.OrbitBudget()):
        assert O.random_instance("compact1d", 1, budget=budget).budget == budget


def test_splitmix_is_stable():
    rng = O.SplitMix64(0)
    first = [rng.next_u64() for _ in range(3)]
    rng2 = O.SplitMix64(0)
    assert first == [rng2.next_u64() for _ in range(3)]
    with pytest.raises(InvalidInputError):
        O.SplitMix64(-1)
