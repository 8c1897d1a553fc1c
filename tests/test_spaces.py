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
    assert O.distance(z, (0, 0), (1, 3)) == 3
    assert O.distance(z, (1, 3), (1, 3)) == 0


def test_zd_l1_distance():
    z = O.ZdSpace(2, "l1")
    assert O.distance(z, (0, 0), (1, 3)) == 4
    assert O.distance(z, (-2, 5), (1, 5)) == 3


def test_discrete_shift_distance():
    s = O.DiscreteShiftSpace()
    assert O.distance(s, 4, 9) == 1
    assert O.distance(s, 4, 4) == 0


def test_point_space_mismatch_rejected():
    z = O.ZdSpace(2, "linf")
    with pytest.raises(InvalidInputError):
        O.distance(z, (0,), (1, 3))
    with pytest.raises(InvalidInputError):
        O.distance(z, (0, 0), "x")


def test_set_distance():
    z = O.ZdSpace(1, "l1")
    assert O.set_distance(z, [(0,), (3,)], [(5,), (7,)]) == 2
    assert O.set_distance(z, [], [(0,)]) == O.INF
    assert O.set_distance(z, [(0,)], []) == O.INF
    assert O.set_distance(z, [(0,)], [(0,)]) == 0
    # the two one-point primitives behind every ball and set-distance query
    assert O.distance_to_set(z, (0,), [(5,), (-3,), (4,)]) == 3
    assert O.distance_to_set(z, (0,), []) == O.INF
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
    assert O.distance_to_set(scaled, (0,), [(3,), (2,)]) == 3
    adapter = O.DiscreteAdapterSpace(z)
    assert O.first_within(adapter, (0,), [(5,), (0,)], 1) == (0,)
    assert O.first_within(adapter, (0,), [(5,), (6,)], 1) is None
    assert O.distance_to_set(adapter, (0,), [(5,), (6,)]) == 1


def test_open_ball_is_strict():
    z = O.ZdSpace(1, "l1")
    assert not O.in_open_ball(z, (0,), 2, (2,))
    assert O.in_open_ball(z, (0,), 2, (1,))
    s = O.DiscreteShiftSpace()
    assert not O.in_open_ball(s, 0, 1, 5)
    with pytest.raises(InvalidInputError):
        O.in_open_ball(z, (0,), 0, (1,))
    with pytest.raises(InvalidInputError):
        O.in_open_ball(z, (0,), Fraction(-1, 2), (1,))


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


def test_free_word_metric():
    f = O.FreeSpace(2)
    ab = O.word_from_string("ab")
    a = O.word_from_string("a")
    assert O.distance(f, ab, a) == 1
    assert O.distance(f, (), (1, -2, 1)) == 3
    assert O.distance(f, (1, 2), (1, -2)) == 2  # shared prefix "a"


def test_free_word_string_roundtrip():
    f = O.FreeSpace(3)
    for text in ("", "a", "ab'c", "a'a'bb"):
        w = O.word_from_string(text)
        f.check_point(w)
        assert O.word_to_string(w) == text
    with pytest.raises(InvalidInputError):
        O.word_from_string("x!")
    with pytest.raises(InvalidInputError):
        f.check_point((1, -1))  # not reduced
    with pytest.raises(InvalidInputError):
        f.check_point((4,))  # beyond rank


def test_finite_graph_path():
    g = O.FiniteGraphSpace(3, [[0, 1, 1], [1, 2, 1]])
    assert O.distance(g, 0, 2) == 2
    assert O.distance(g, 2, 0) == 2


def test_finite_graph_rational_weights():
    g = O.FiniteGraphSpace(3, [[0, 1, "1/2"], [1, 2, "1/3"], [0, 2, "7"]])
    assert O.distance(g, 0, 2) == Fraction(5, 6)


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
    assert O.distance(s, (0,), (2,)) == 3
    with pytest.raises(InvalidInputError):
        O.ScaledSpace(z, 0)


def test_discrete_adapter():
    g = O.FiniteGraphSpace(3, [[0, 1, 1], [1, 2, 1]])
    d = O.DiscreteAdapterSpace(g)
    assert O.distance(d, 0, 2) == 1
    assert O.distance(d, 2, 2) == 0
    with pytest.raises(InvalidInputError):
        O.distance(d, 0, 7)


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


def test_validate_metric_empty_sample_exhaustive_pass():
    g = O.FiniteGraphSpace(4, [[0, 1, 1], [1, 2, 1], [2, 3, 1], [3, 0, 1]])
    assert O.validate_metric(g) == []


def test_require_distinct():
    require_distinct([(0,), (1,)])
    with pytest.raises(InvalidInputError):
        require_distinct([(0,), (0,)])


coords = st.integers(min_value=-40, max_value=40)
zd2_points = st.tuples(coords, coords)


@settings(max_examples=150, deadline=None)
@given(zd2_points, zd2_points, zd2_points)
def test_zd_metric_axioms(x, y, z):
    for norm in ("l1", "linf"):
        sp = O.ZdSpace(2, norm)
        assert sp.distance(x, y) == sp.distance(y, x)
        assert sp.distance(x, x) == 0
        if x != y:
            assert sp.distance(x, y) > 0
        assert sp.distance(x, z) <= sp.distance(x, y) + sp.distance(y, z)


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
