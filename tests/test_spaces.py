import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orbitsep as O
from orbitsep.errors import InvalidInputError
from orbitsep.spaces import require_distinct


def test_zd_linf_distance():
    z = O.ZdSpace(2, "linf")
    assert z.distance((0, 0), (1, 3)) == 3
    assert z.distance((1, 3), (1, 3)) == 0
    assert z.distance((4, -1), (-3, 2)) == 7
    assert O.ZdSpace(1, "linf").distance((5,), (-2,)) == 7
    assert O.ZdSpace(1, "linf").distance((-2,), (5,)) == 7
    assert O.ZdSpace(3, "linf").distance((0, 0, 0), (1, -5, 3)) == 5


def test_zd_l1_distance():
    z = O.ZdSpace(2, "l1")
    assert z.distance((0, 0), (1, 3)) == 4
    assert z.distance((-2, 5), (1, 5)) == 3
    assert z.distance((4, -1), (-3, 2)) == 10
    assert O.ZdSpace(1, "l1").distance((5,), (-2,)) == 7
    assert O.ZdSpace(1, "l1").distance((-2,), (-2,)) == 0
    assert O.ZdSpace(3, "l1").distance((0, 0, 0), (1, -5, 3)) == 9


def test_zd_dimension_cap():
    assert O.ZdSpace(O.spaces.MAX_DIM).dim == 64
    with pytest.raises(InvalidInputError, match="dimension must be in 1..64"):
        O.ZdSpace(65)


def test_discrete_shift_distance():
    s = O.DiscreteShiftSpace()
    assert s.distance(4, 9) == 1
    assert s.distance(4, 4) == 0


def test_point_space_mismatch_rejected():
    z = O.ZdSpace(2, "linf")
    with pytest.raises(InvalidInputError):
        z.check_point((0,))
    with pytest.raises(InvalidInputError):
        z.check_point("x")


def test_set_distance():
    z = O.ZdSpace(1, "l1")
    # the two one-point primitives behind every ball and set-distance query
    assert O.set_distance(z, [(5,), (-3,), (4,)])((0,)) == 3
    assert O.set_distance(z, [])((0,)) == O.INF
    assert O.first_within(z, (0,), [], 5) is None
    assert O.first_within(z, (0,), [(2,)], 2) is None  # d == r is outside
    assert O.first_within(z, (0,), [(2,)], Fraction(5, 2)) == (2,)
    # first in input order, not nearest
    assert O.first_within(z, (0,), [(9,), (3,), (1,)], 4) == (3,)
    assert O.first_within(z, (0,), [(9,), (3,)], O.INF) == (9,)
    with pytest.raises(InvalidInputError, match="0.5"):  # INF is the only float
        O.first_within(z, (0,), [(5,), (9,)], 0.5)
    scaled = O.ScaledSpace(z, Fraction(3, 2))  # d((0,), (2,)) == 3
    assert O.first_within(scaled, (0,), [(2,)], 3) is None
    assert O.first_within(scaled, (0,), [(2,)], Fraction(7, 2)) == (2,)
    assert O.first_within(scaled, (0,), [(3,), (2,)], Fraction(10, 3)) == (2,)
    assert O.set_distance(scaled, [(3,), (2,)])((0,)) == 3
    adapter = O.DiscreteAdapterSpace(z)
    assert O.first_within(adapter, (0,), [(5,), (0,)], 1) == (0,)
    assert O.first_within(adapter, (0,), [(5,), (6,)], 1) is None
    assert O.set_distance(adapter, [(5,), (6,)])((0,)) == 1


class _DoubledZd(O.ZdSpace):
    """A lattice subclass whose own ``distance`` is twice the norm."""

    def distance(self, p, q):
        return 2 * super().distance(p, q)


def _set_distance_space(kind, dim, norm):
    lattice = O.ZdSpace(dim, norm)
    return {
        "zd": lattice,
        "subclass": _DoubledZd(dim, norm),
        "scaled": O.ScaledSpace(lattice, Fraction(3, 2)),
        "discrete": O.DiscreteAdapterSpace(lattice),
        "free": O.FreeSpace(2),
    }[kind]


_COORDS = st.integers(-10, 10) | st.integers(-(2**70), 2**70)


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["zd", "subclass", "scaled", "discrete", "free"]),
    dim=st.sampled_from([1, 2, 3]),
    norm=st.sampled_from(["l1", "linf"]),
    data=st.data(),
)
def test_distance_to_set_matches_pairwise_minimum(kind, dim, norm, data):
    """The lattice kernel and the ``map`` form both equal the minimum of the
    space's own pairwise distances, a subclass's override included; an empty
    set is INF.  Bound once, to a list or to an iterator, ``set_distance``
    answers every query as a function bound for that query alone does."""
    space = _set_distance_space(kind, dim, norm)
    if kind == "free":
        letters = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=6)
        points = letters.map(O.reduce_word)
    else:
        points = st.tuples(*[_COORDS] * dim)
    xs = data.draw(st.lists(points, min_size=1, max_size=4))
    q_points = data.draw(st.lists(points, max_size=6))
    bound = O.set_distance(space, q_points)
    bound_once = O.set_distance(space, iter(q_points))
    for x in xs:
        want = min((space.distance(x, y) for y in q_points), default=O.INF)
        for got in (O.set_distance(space, q_points)(x), bound(x), bound_once(x)):
            assert got == want and type(got) is type(want)


def test_greedy_net_example():
    z = O.ZdSpace(1, "l1")
    points = [(0,), (1,), (2,), (10,)]
    net = O.greedy_epsilon_net(z, points, 2)
    assert net == [(0,), (2,), (10,)]
    # exhaustive cover check, independent of the construction
    for p in points:
        assert any(z.distance(p, n) < 2 for n in net)


def test_greedy_net_trivial_cases():
    z = O.ZdSpace(1, "l1")
    assert O.greedy_epsilon_net(z, [], 2) == []
    assert O.greedy_epsilon_net(z, [(0,), (1,)], 5) == [(0,)]
    with pytest.raises(InvalidInputError):
        O.greedy_epsilon_net(z, [(0,)], 0)


@pytest.mark.parametrize("points", [[(1, 2, 3), (0, 0)], [(1,), (0, 0)]])
def test_greedy_net_checks_every_point(points):
    """A point of the wrong dimension is refused with check_point's message,
    not kept in the net (too long) or left to the metric's IndexError (too
    short)."""
    z2 = O.ZdSpace(2, "linf")
    with pytest.raises(InvalidInputError) as got:
        O.greedy_epsilon_net(z2, points, Fraction(1))
    with pytest.raises(InvalidInputError) as expected:
        z2.check_point(points[0])
    assert str(got.value) == str(expected.value)


def test_free_word_metric():
    f = O.FreeSpace(2)
    ab = O.word_from_string("ab")
    a = O.word_from_string("a")
    assert f.distance(ab, a) == 1
    assert f.distance((), (1, -2, 1)) == 3
    assert f.distance((1, 2), (1, -2)) == 2  # shared prefix "a"


def test_free_word_string_roundtrip():
    f = O.FreeSpace(3)
    for text in ("", "a", "ab'c", "a'a'bb"):
        w = O.word_from_string(text)
        f.check_point(w)
        assert O.word_to_string(w) == text
    with pytest.raises(InvalidInputError):
        O.word_from_string("x!")
    for text in ("'a", "a''", "a''b", "ab'''"):  # one spelling per word
        with pytest.raises(InvalidInputError):
            O.word_from_string(text)
    with pytest.raises(InvalidInputError):
        f.check_point((1, -1))  # not reduced
    with pytest.raises(InvalidInputError):
        f.check_point((4,))  # beyond rank


def test_finite_graph_path():
    g = O.FiniteGraphSpace(3, [[0, 1, 1], [1, 2, 1]])
    assert g.distance(0, 2) == 2
    assert g.distance(2, 0) == 2


def test_finite_graph_rational_weights():
    g = O.FiniteGraphSpace(3, [[0, 1, "1/2"], [1, 2, "1/3"], [0, 2, "7"]])
    assert g.distance(0, 2) == Fraction(5, 6)


def _floyd_warshall(n, edges):
    """All-pairs shortest paths the slow way, as the reference table."""
    table = [[None] * n for _ in range(n)]
    for i in range(n):
        table[i][i] = Fraction(0)
    for i, j, w in edges:
        w = Fraction(w)
        if table[i][j] is None or w < table[i][j]:
            table[i][j] = table[j][i] = w
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if table[i][k] is not None and table[k][j] is not None:
                    via = table[i][k] + table[k][j]
                    if table[i][j] is None or via < table[i][j]:
                        table[i][j] = via
    return table


@pytest.mark.parametrize("seed", range(12))
def test_finite_graph_table_matches_floyd_warshall(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    weight = lambda: f"{rng.randint(1, 9)}/{rng.randint(1, 4)}"
    # A random spanning tree keeps the graph connected; the extra edges add
    # cycles and parallel edges (some repeating a tree edge, both orders).
    edges = [[rng.randrange(v), v, weight()] for v in range(1, n)]
    if n > 1:
        for _ in range(rng.randint(0, 2 * n)):
            edges.append([*rng.sample(range(n), 2), weight()])
    edges += [[j, i, weight()] for i, j, _ in rng.sample(edges, len(edges) // 3)]
    g = O.FiniteGraphSpace(n, edges)
    expected = _floyd_warshall(n, edges)
    got = [[g.distance(i, j) for j in range(n)] for i in range(n)]
    assert got == expected
    assert all(type(d) is Fraction for row in got for d in row)


def test_finite_graph_rows_are_computed_on_first_use():
    n = 2000
    g = O.FiniteGraphSpace(n, [[i, i + 1, 1] for i in range(n - 1)])
    assert list(g._table) == [0]  # only the connectivity check's row
    assert g.distance(1500, 3) == 1497
    assert g.distance(3, 1500) == 1497
    assert sorted(g._table) == [0, 3, 1500]
    assert g.distance(1500, 0) == 1500
    assert sorted(g._table) == [0, 3, 1500]


def test_finite_graph_validation():
    with pytest.raises(InvalidInputError):
        O.FiniteGraphSpace(3, [[0, 1, 1]])  # disconnected
    with pytest.raises(InvalidInputError):
        O.FiniteGraphSpace(2, [[0, 1, 0]])  # nonpositive weight
    with pytest.raises(InvalidInputError):
        O.FiniteGraphSpace(2, [[0, 0, 1]])  # self-loop
    with pytest.raises(InvalidInputError):
        O.FiniteGraphSpace(2, [[0, 5, 1]])  # endpoint out of range


def test_scaled_space():
    z = O.ZdSpace(1, "l1")
    s = O.ScaledSpace(z, Fraction(3, 2))
    assert s.distance((0,), (2,)) == 3
    with pytest.raises(InvalidInputError):
        O.ScaledSpace(z, 0)


def test_discrete_adapter():
    g = O.FiniteGraphSpace(3, [[0, 1, 1], [1, 2, 1]])
    d = O.DiscreteAdapterSpace(g)
    assert d.distance(0, 2) == 1
    assert d.distance(2, 2) == 0
    with pytest.raises(InvalidInputError):
        d.check_point(7)


def test_space_json_roundtrip():
    specs = [
        {"kind": "zd", "dim": 2, "norm": "linf"},
        {"kind": "free", "rank": 2},
        {"kind": "discrete_shift"},
        {"kind": "finite_graph", "n": 3, "edges": [[0, 1, "1"], [1, 2, "1/2"]]},
        {
            "kind": "scaled",
            "factor": "3/2",
            "inner": {"kind": "zd", "dim": 1, "norm": "l1"},
        },
        {"kind": "discrete", "inner": {"kind": "zd", "dim": 1, "norm": "l1"}},
    ]
    for spec in specs:
        assert O.space_from_json(spec).to_json() == spec
    with pytest.raises(InvalidInputError):
        O.space_from_json({"kind": "banach"})


@pytest.mark.parametrize(
    "wrapper, distance",
    [({"kind": "scaled", "factor": "2"}, 2**64), ({"kind": "discrete"}, 1)],
    ids=["scaled", "discrete"],
)
def test_space_nesting_cap(wrapper, distance):
    """64 scaled/discrete wrappers build a space; a 65th is refused."""
    spec = {"kind": "zd", "dim": 1, "norm": "l1"}
    for _ in range(64):
        spec = {**wrapper, "inner": spec}
    assert O.space_from_json(spec).distance((0,), (1,)) == distance
    with pytest.raises(InvalidInputError, match="nests more than 64"):
        O.space_from_json({**wrapper, "inner": spec})


def test_validate_metric_clean_space():
    z = O.ZdSpace(2, "linf")
    rng = O.SplitMix64(5)
    triples = [
        (O.sample_point(z, rng), O.sample_point(z, rng), O.sample_point(z, rng))
        for _ in range(100)
    ]
    assert O.validate_metric(z, triples) == []


def test_validate_metric_reports_corrupted_table():
    g = O.FiniteGraphSpace(3, [[0, 1, 1], [1, 2, 1]])
    g._table[0][2] = Fraction(5)
    g._table[2][0] = Fraction(5)
    violations = O.validate_metric(g)  # empty sample still checks exhaustively
    kinds = {v.axiom for v in violations}
    assert "triangle" in kinds
    offending = {v.points for v in violations if v.axiom == "triangle"}
    assert (0, 1, 2) in offending or (2, 1, 0) in offending


def test_validate_metric_rejects_pseudometric():
    g = O.FiniteGraphSpace(2, [[0, 1, 1]])
    g._table[0][1] = Fraction(0)
    g._table[1][0] = Fraction(0)
    violations = O.validate_metric(g)
    assert any(v.axiom == "positivity" for v in violations)


def test_validate_metric_sweeps_a_small_space_instead_of_the_sample():
    """On a space of at most 64 points every triple is checked instead of the
    sample, whose points must still belong to the space, and each violation
    is reported once."""
    g = O.FiniteGraphSpace(3, [[0, 1, 1], [1, 2, 1]])
    g._table[0][2] = Fraction(5)
    g._table[2][0] = Fraction(5)
    with pytest.raises(InvalidInputError):
        O.validate_metric(g, [(0, 1, 3)])

    def found(triples):
        return [repr(v) for v in O.validate_metric(g, triples)]

    assert found([(0, 1, 2)]) == found([(1, 1, 1), (2, 0, 1)]) == found(())
    keys = [(v.axiom, v.points) for v in O.validate_metric(g)]
    assert len(keys) == len(set(keys)) > 0


class _Lopsided(O.ZdSpace):
    """ℤ with one added to d(x, y) unless x lies above y: d(x, x) = 1, and
    d(x, y) != d(y, x) whenever x != y."""

    def distance(self, p, q):
        return abs(p[0] - q[0]) + (p[0] <= q[0])


def test_validate_metric_reports_identity_and_symmetry():
    space = _Lopsided(1, "l1")
    violations = O.validate_metric(space, [((0,), (0,), (2,))])
    assert [v.to_json(space) for v in violations] == [
        {"axiom": "identity", "points": [[0], [0]], "detail": "d(x,x)=1"},
        {"axiom": "symmetry", "points": [[0], [2]], "detail": "d=3 vs 2"},
    ]


def test_validate_metric_empty_sample_exhaustive_pass():
    g = O.FiniteGraphSpace(4, [[0, 1, 1], [1, 2, 1], [2, 3, 1], [3, 0, 1]])
    assert O.validate_metric(g) == []


def test_require_distinct():
    require_distinct([(0,), (1,)])
    with pytest.raises(InvalidInputError):
        require_distinct([(0,), (0,)])


coords = st.integers(min_value=-40, max_value=40)
# Small coordinates meet and cancel often; huge ones pass 2**64 either way.
wide_coords = st.one_of(coords, st.integers(min_value=-(2**80), max_value=2**80))


def zd_points(dim, count):
    """``count`` points of Z^dim, dim in 1..3: the two unrolled dimensions
    and the generic one."""
    point = st.tuples(*[wide_coords] * dim)
    return st.tuples(*[point] * count)


zd_triples = st.integers(1, 3).flatmap(lambda dim: zd_points(dim, 3))


@settings(max_examples=150, deadline=None)
@given(zd_triples)
def test_zd_metric_axioms(triple):
    x, y, z = triple
    for norm in ("l1", "linf"):
        sp = O.ZdSpace(len(x), norm)
        assert sp.distance(x, y) == sp.distance(y, x)
        assert sp.distance(x, x) == 0
        if x != y:
            assert sp.distance(x, y) > 0
        assert sp.distance(x, z) <= sp.distance(x, y) + sp.distance(y, z)


def reference_zd_distance(norm, p, q):
    gaps = [abs(a - b) for a, b in zip(p, q)]
    return sum(gaps) if norm == "l1" else max(gaps)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["l1", "linf"]),
    st.integers(1, 3).flatmap(lambda dim: zd_points(dim, 2)),
)
def test_zd_distance_matches_reference(norm, pair):
    """Each dimension's code path against max/sum of |a - b|, bare and
    wrapped in the scaled and discrete adapters."""
    p, q = pair
    z = O.ZdSpace(len(p), norm)
    expected = reference_zd_distance(norm, p, q)
    assert type(z.distance(p, q)) is int
    assert z.distance(p, q) == z.distance(q, p) == expected
    assert O.ScaledSpace(z, Fraction(7, 3)).distance(p, q) == Fraction(7, 3) * expected
    assert O.DiscreteAdapterSpace(z).distance(p, q) == (0 if p == q else 1)


free_words = st.lists(
    st.sampled_from([1, -1, 2, -2]), min_size=0, max_size=8
).map(O.reduce_word)


@settings(max_examples=150, deadline=None)
@given(free_words, free_words, free_words)
def test_free_metric_axioms(x, y, z):
    sp = O.FreeSpace(2)
    assert sp.distance(x, y) == sp.distance(y, x)
    assert sp.distance(x, x) == 0
    if x != y:
        assert sp.distance(x, y) > 0
    assert sp.distance(x, z) <= sp.distance(x, y) + sp.distance(y, z)
    # the metric is the length of the quotient word
    assert sp.distance(x, y) == len(O.compose(O.invert(x), y))


@st.composite
def free_word_pairs(draw):
    """(x, y) with y a prefix of x plus a tail, so long common prefixes and
    cancellation at the seam of x^-1 y are common; either may be empty."""
    x = draw(free_words)
    y = O.reduce_word(x[: draw(st.integers(0, len(x)))] + draw(free_words))
    return draw(st.sampled_from([(x, y), (y, x)]))


@settings(max_examples=300, deadline=None)
@given(free_word_pairs())
def test_free_distance_and_compose_match_stack_reduction(pair):
    """distance and compose against reduce_word's stack reduction, which
    shares neither's first-letter exit."""
    x, y = pair
    assert O.FreeSpace(2).distance(x, y) == len(O.reduce_word(O.invert(x) + y))
    assert O.compose(x, y) == O.reduce_word(x + y)
    assert O.compose(O.invert(x), y) == O.reduce_word(O.invert(x) + y)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(coords), max_size=12, unique=True))
def test_greedy_net_covers(points):
    z = O.ZdSpace(1, "l1")
    net = O.greedy_epsilon_net(z, points, 3)
    assert all(n in points for n in net)
    for p in points:
        assert any(z.distance(p, n) < 3 for n in net)


def test_scaled_distance_matches_factor_everywhere():
    z = O.ZdSpace(2, "linf")
    s = O.ScaledSpace(z, Fraction(5, 3))
    rng = O.SplitMix64(11)
    for _ in range(50):
        p, q = O.sample_point(z, rng), O.sample_point(z, rng)
        assert s.distance(p, q) == Fraction(5, 3) * z.distance(p, q)
