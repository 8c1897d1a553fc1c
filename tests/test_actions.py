import random
import sys
import threading
from collections import deque
from itertools import islice
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orbitsep as O
from orbitsep import actions as A
from orbitsep.errors import BudgetExhaustedError, InvalidInputError


def test_compose_invert_examples():
    assert O.compose((1,), (-1,)) == ()
    assert O.invert((1, 2)) == (-2, -1)
    assert O.compose((1, 2), (-2, 1)) == (1, 1)
    assert O.invert(O.invert((1, -2, 1))) == (1, -2, 1)
    assert O.compose((1, -2), O.invert((1, -2))) == ()


def test_reduce_word():
    assert O.reduce_word([1, -1]) == ()
    assert O.reduce_word([1, 2, -2, -1, 1]) == (1,)
    with pytest.raises(InvalidInputError):
        O.reduce_word([0])


def test_apply_examples(z1_action):
    assert z1_action.apply_word((1, 1, 1), (0,)) == (3,)
    assert z1_action.apply_word((), (7,)) == (7,)
    assert z1_action.apply_word((1, -1), (5,)) == (5,)


def test_apply_index_out_of_range(z1_action):
    with pytest.raises(InvalidInputError):
        z1_action.apply_word((2,), (0,))


@pytest.mark.parametrize("letter", [0, 3, -3, True, 1.0, "x"])
def test_bad_letter_raises(zd2_action, letter):
    """Letter 0, len(generators) + 1 and every letter that is not an int
    name no generator; True and 1.0 equal the valid letter 1."""
    with pytest.raises(InvalidInputError):
        zd2_action.step(letter, (0, 0))
    with pytest.raises(InvalidInputError):
        zd2_action.apply_word((letter,), (0, 0))
    with pytest.raises(InvalidInputError):
        zd2_action.apply_word((1, letter, -2), (0, 0))


def test_generators_are_fixed_at_construction():
    """Each generator is checked against the space once, when the action is
    built, and cannot be replaced afterwards."""
    act = O.GeneratedAction(O.ZdSpace(1, "l1"), [O.Translation((1,))])
    with pytest.raises(TypeError):
        act.generators[0] = O.Translation((3,))
    with pytest.raises(InvalidInputError):
        O.GeneratedAction(O.ZdSpace(1, "l1"), [O.Translation((3, 0))])
    assert list(islice(O.orbit_stream(act, (0,)), 3)) == [
        ((0,), ()),
        ((1,), (1,)),
        ((-1,), (-1,)),
    ]
    assert act.apply_word((1, 1), (0,)) == (2,)
    assert act.step(-1, (0,)) == (-1,)


def _fold_step(action, w, p):
    """apply_word's reference: one ``step`` per letter, rightmost first."""
    for s in reversed(w):
        p = action.step(s, p)
    return p


def _zd_action(dim, norm, rng):
    vectors = [tuple(rng.randint(-5, 5) for _ in range(dim)) for _ in range(3)]
    return O.GeneratedAction(O.ZdSpace(dim, norm), [O.Translation(v) for v in vectors])


_PATH7 = [[i, i + 1, 1] for i in range(6)]
# Left multiplications by words that are not cyclically reduced (and one that
# is), so their powers cancel inside the generator's own word.
_LEFTMULS = [(1, 2, -1), (2, 2, 1, -2), (1, 2, 1, -2, -1), (1,)]
RUN_ACTIONS = {
    **{
        f"zd{dim}-{norm}": (lambda rng, dim=dim, norm=norm: _zd_action(dim, norm, rng))
        for dim in (1, 2, 3)
        for norm in ("l1", "linf")
    },
    "free2": lambda rng: O.GeneratedAction(
        O.FreeSpace(2), [O.LeftMultiplication(w) for w in _LEFTMULS]
    ),
    "shift": lambda rng: O.GeneratedAction(O.DiscreteShiftSpace(), [O.Shift()]),
    # cycles (0 1 2)(3 4)(5)(6) and (0 6 5 4 3)(1)(2)
    "perm": lambda rng: O.GeneratedAction(
        O.FiniteGraphSpace(7, _PATH7),
        [
            O.VertexPermutation((1, 2, 0, 4, 3, 5, 6)),
            O.VertexPermutation((6, 1, 2, 0, 3, 4, 5)),
        ],
    ),
    "scaled": lambda rng: O.GeneratedAction(
        O.ScaledSpace(O.ZdSpace(2, "l1"), "3/2"),
        [O.Translation((2, -3)), O.Translation((0, 4))],
    ),
    "discrete": lambda rng: O.GeneratedAction(
        O.DiscreteAdapterSpace(O.FreeSpace(2)),
        [O.LeftMultiplication(w) for w in _LEFTMULS[:2]],
    ),
}


def _run_word(rng, n):
    """Up to 6 runs of one signed letter each, some 40 long, not reduced."""
    word = ()
    for _ in range(rng.randint(0, 6)):
        letter = rng.choice([1, -1]) * rng.randint(1, n)
        word += (letter,) * rng.choice([1, 2, 3, 7, 40])
    return word


@pytest.mark.parametrize("kind", sorted(RUN_ACTIONS))
def test_apply_word_matches_letter_by_letter(kind):
    rng = random.Random(kind)
    action = RUN_ACTIONS[kind](rng)
    n = len(action.generators)
    words = [(1,) * 40 + (-n,) * 7, (-1,) * 40, (1, -1) * 3, ()]
    words += [_run_word(rng, n) for _ in range(40)]
    points = [O.sample_point(action.space, O.SplitMix64(i)) for i in range(5)]
    for w in words:
        for p in points:
            assert action.apply_word(w, p) == _fold_step(action, w, p), (w, p)
        assert action.apply_word_all(w, points) == [action.apply_word(w, p) for p in points]
    for i, gen in enumerate(action.generators, 1):
        for k in range(1, 6):
            for p in points:
                assert gen.power(p, k) == _fold_step(action, (i,) * k, p)
                assert gen.power(p, -k) == _fold_step(action, (-i,) * k, p)


def test_apply_word_all_returns_a_new_list(z1_action):
    points = [(0,), (4,)]
    for w in [(), (1, -1)]:
        moved = z1_action.apply_word_all(w, points)
        assert moved == points and moved is not points
    assert z1_action.apply_word_all((1,), iter(points)) == [(1,), (5,)]
    assert z1_action.apply_word_all((1,), []) == []


@pytest.mark.parametrize("letter", [0, 3, -3, "x", None, 1.5, [1]])
def test_bad_letter_after_a_run_raises(zd2_action, letter):
    """A bad letter raises InvalidInputError wherever it sits among runs."""
    for w in [
        (letter,) + (1,) * 40,
        (1,) * 40 + (letter,),
        (2,) * 5 + (letter,) + (-1,) * 9,
        (letter, letter),
    ]:
        with pytest.raises(InvalidInputError):
            zd2_action.apply_word(w, (0, 0))
        with pytest.raises(InvalidInputError):
            zd2_action.apply_word_all(w, [(0, 0)])


@pytest.mark.parametrize("word", [(True, 1), (1.0, 1), (1, True)])
def test_letter_equal_to_the_run_before_it_must_be_an_int(z1_action, word):
    """True and 1.0 equal the letter 1 but are not generator indices."""
    with pytest.raises(InvalidInputError):
        z1_action.apply_word(word, (0,))
    with pytest.raises(InvalidInputError):
        z1_action.apply_word_all(word, [(0,)])


def test_equal_letters_form_one_run_whatever_their_identity():
    """Letters past CPython's small-int cache are equal but distinct objects."""
    act = O.GeneratedAction(O.ZdSpace(1, "l1"), [O.Translation((1,))] * 300)
    w = tuple(int("300") for _ in range(3))
    assert len({id(s) for s in w}) == 3
    gen = act.generators[299]  # all 300 are this one object
    runs = []  # the k of every power call: one per point moved by one run
    gen.power = lambda p, k: runs.append(k) or O.Translation.power(gen, p, k)
    assert act.apply_word(w, (0,)) == (3,)
    assert act.apply_word_all(w, [(0,), (5,)]) == [(3,), (8,)]
    assert runs == [3, 3, 3]


words_strategy = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=6).map(
    O.reduce_word
)


@settings(max_examples=100, deadline=None)
@given(words_strategy, words_strategy, st.tuples(st.integers(-9, 9), st.integers(-9, 9)))
def test_word_algebra_on_translations(u, v, p):
    act = O.GeneratedAction(
        O.ZdSpace(2, "linf"), [O.Translation((1, 0)), O.Translation((0, 1))]
    )
    assert act.apply_word(O.compose(u, v), p) == act.apply_word(u, act.apply_word(v, p))
    assert act.apply_word(O.compose(u, O.invert(u)), p) == p
    assert O.compose(u, O.invert(u)) == ()


def test_orbit_stream_order_zd2(zd2_action):
    got = list(islice(O.orbit_stream(zd2_action, (0, 0), O.OrbitBudget(100, 1)), 10))
    assert got == [
        ((0, 0), ()),
        ((1, 0), (1,)),
        ((-1, 0), (-1,)),
        ((0, 1), (2,)),
        ((0, -1), (-2,)),
    ]


def test_orbit_stream_cyclic(c4_action):
    got = list(O.orbit_stream(c4_action, 0, O.OrbitBudget(1000, 20)))
    assert [p for p, _ in got] == [0, 1, 3, 2]
    assert len(got) == 4


def test_orbit_stream_max_points(shift_action):
    got = list(O.orbit_stream(shift_action, 0, O.OrbitBudget(5, 24)))
    assert len(got) == 5
    assert len({p for p, _ in got}) == 5


def test_orbit_stream_properties(zd2_action):
    got = list(O.orbit_stream(zd2_action, (2, -1), O.OrbitBudget(200, 4)))
    points = [p for p, _ in got]
    assert len(points) == len(set(points))
    lengths = [len(w) for _, w in got]
    assert lengths == sorted(lengths)
    for p, w in got:
        assert all(w[k] != -w[k + 1] for k in range(len(w) - 1))  # reduced
        assert zd2_action.apply_word(w, (2, -1)) == p


def _reference_orbit(action, p, budget):
    """The orbit stream by a plain BFS over (point, word) pairs: every signed
    generator is tried from every point, and each new point gets its
    parent's word with one letter put in front."""
    seen = {p}
    stream = [(p, ())]
    queue = deque(stream)
    moves = action.moves()
    while queue:
        x, w = queue.popleft()
        if len(w) >= budget.max_word_length:
            continue
        for s, move in moves:
            y = move(x)
            if y in seen:
                continue
            if len(stream) >= budget.max_points:
                return stream
            seen.add(y)
            stream.append((y, (s,) + w))
            queue.append(stream[-1])
    return stream


_Z2 = [O.Translation((1, 0)), O.Translation((0, 1)), O.Translation((2, -1))]
WALK_ACTIONS = {
    "zd2-l1": (O.ZdSpace(2, "l1"), _Z2),
    "zd2-linf": (O.ZdSpace(2, "linf"), _Z2),
    "free2": (O.FreeSpace(2), [O.LeftMultiplication((1,)), O.LeftMultiplication((2,))]),
    "shift": (O.DiscreteShiftSpace(), [O.Shift()]),
    "c4": (
        O.FiniteGraphSpace(4, [[0, 1, 1], [1, 2, 1], [2, 3, 1], [3, 0, 1]]),
        [O.VertexPermutation((1, 2, 3, 0))],
    ),
    "scaled": (O.ScaledSpace(O.ZdSpace(2, "l1"), "3/2"), _Z2),
    "discrete": (O.DiscreteAdapterSpace(O.ZdSpace(1, "l1")), [O.Translation((1,))]),
}
WALK_BUDGETS = [
    # OrbitBudget refuses a word length of 0; the walk reads only the fields.
    SimpleNamespace(max_points=100, max_word_length=0),
    O.OrbitBudget(100, 1),
    # The 8th point is mid-layer everywhere but c4, whose orbit closes first.
    O.OrbitBudget(8, 24),
    O.OrbitBudget(3000, 6),
]


@pytest.mark.parametrize("kind", sorted(WALK_ACTIONS))
@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    budget=st.sampled_from(WALK_BUDGETS),
    stop=st.integers(1, 40),
)
def test_walk_matches_reference_bfs(kind, seed, budget, stop):
    """orbit_stream and OrbitWalk give the reference BFS's points, words and
    count, whole or stopped after ``stop`` points."""
    space, gens = WALK_ACTIONS[kind]
    action = O.GeneratedAction(space, gens)
    pivot = O.sample_point(space, O.SplitMix64(seed), coord_max=8, word_max=6)
    expected = _reference_orbit(action, pivot, budget)
    stats = O.SearchStats()
    assert list(O.orbit_stream(action, pivot, budget, stats)) == expected
    assert stats.points == len(expected)
    stats = O.SearchStats()
    walk = O.OrbitWalk(action, pivot, budget, stats)
    assert [(x, walk.length) for x in walk] == [(x, len(w)) for x, w in expected]
    assert [walk.word(i) for i in range(len(walk))] == [w for _, w in expected]
    assert stats.points == len(expected)
    stats = O.SearchStats()
    assert len(list(islice(O.OrbitWalk(action, pivot, budget, stats), stop))) == min(
        stop, len(expected)
    )
    assert stats.points == min(stop, len(expected))


class _Lopsided:
    """On the integers: forward adds 1 but backward adds 2, so backward does
    not invert forward."""

    kind = "lopsided"

    def check(self, space):
        pass

    def forward(self, p):
        return p + 1

    def backward(self, p):
        return p + 2

    def power(self, p, k):
        return p + k if k > 0 else p - 2 * k


@pytest.mark.parametrize("kind", sorted(WALK_ACTIONS) + ["lopsided"])
def test_walk_yields_reduced_words(kind):
    """No word undoes its own last letter, even when backward does not invert
    forward: stepping back from 1 would reach 3 by the word (-1, 1).  The
    "inverse" check of verify_isometry flags such a generator."""
    if kind == "lopsided":
        action = O.GeneratedAction(O.DiscreteShiftSpace(), [_Lopsided()])
        assert [v.kind for v in O.verify_isometry(action, [(0, 1)])] == ["inverse"]
        pivot = 0
    else:
        action = O.GeneratedAction(*WALK_ACTIONS[kind])
        pivot = O.sample_point(action.space, O.SplitMix64(7), coord_max=8, word_max=6)
    stream = list(O.orbit_stream(action, pivot, O.OrbitBudget(3000, 6)))
    assert len(stream) > 1
    for x, w in stream:
        assert O.reduce_word(w) == w
        assert action.apply_word(w, pivot) == x
    if kind == "lopsided":
        assert stream[:5] == [(0, ()), (1, (1,)), (2, (-1,)), (4, (-1, -1)), (6, (-1, -1, -1))]


_END = object()
# The kinds whose walks share a skeleton: translations, left multiplications
# (one by a two-letter word) and the shift.
SHARED_ACTIONS = {
    **{k: v for k, v in WALK_ACTIONS.items() if k != "c4"},
    "free2-ab": (O.FreeSpace(2), [O.LeftMultiplication((1, 2)), O.LeftMultiplication((2,))]),
}


def _fresh(kind):
    """The kind's action, built from new generator objects equal to the listed ones."""
    space, gens = SHARED_ACTIONS[kind]
    return O.GeneratedAction(space, [O.generator_from_json(g.to_json()) for g in gens])


def _pivots(action, seed, n):
    rng = O.SplitMix64(seed)
    return [O.sample_point(action.space, rng, coord_max=8, word_max=6) for _ in range(n)]


class _Recorded:
    """An OrbitWalk stepped from outside, recording each point with its length."""

    def __init__(self, action, p, budget):
        self.stats = O.SearchStats()
        self.walk = O.OrbitWalk(action, p, budget, self.stats)
        self.steps = iter(self.walk)
        self.got = []

    def step(self):
        x = next(self.steps, _END)
        if x is not _END:
            self.got.append((x, self.walk.length))
        return x is not _END

    def run(self, stop=None):
        while (stop is None or len(self.got) < stop) and self.step():
            pass
        return self

    def assert_matches(self, expected):
        """Points, lengths, words, len and stats.points equal the reference's."""
        assert self.got == [(x, len(w)) for x, w in expected]
        assert [self.walk.word(i) for i in range(len(self.walk))] == [w for _, w in expected]
        assert self.stats.points == len(expected)


def _interleave(*recorded):
    """Step the walks in turn, one point each, until every one has ended."""
    live = list(recorded)
    while live:
        live = [r for r in live if r.step()]


def _reference_escape(action, p, q_points, eps, budget):
    """find_escape's word, or the explored count it reports, from the reference BFS."""
    stream = _reference_orbit(action, p, budget)
    for x, w in stream:
        if all(action.space.distance(x, y) >= eps for y in q_points):
            return w
    return len(stream)


def _escape_or_explored(action, p, q_points, eps, budget):
    try:
        return O.find_escape(action, p, q_points, eps, budget)
    except BudgetExhaustedError as e:
        return e.explored


@pytest.mark.parametrize("kind", sorted(SHARED_ACTIONS))
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    budgets=st.lists(st.sampled_from(WALK_BUDGETS), min_size=2, max_size=2),
    stop=st.integers(1, 40),
    eps=st.integers(1, 6),
)
def test_shared_skeleton_walks_match_reference_bfs(kind, seed, budgets, stop, eps):
    """Walks that share a skeleton give the reference BFS's points, lengths,
    words, len, stats.points and find_escape result, however they meet it:
    after a first walk stopped early, so the skeleton is a prefix; two
    pivots walked interleaved, on two actions of equal generators built as
    separate objects; a second budget on equal generators."""
    A._skeletons.clear()
    first, second = budgets
    action, twin = _fresh(kind), _fresh(kind)
    p, q, r = _pivots(action, seed, 3)
    _Recorded(action, p, first).run(stop)  # leaves a prefix skeleton
    assert len(A._skeletons) == 1
    walks = [_Recorded(action, q, first), _Recorded(twin, p, first), _Recorded(twin, r, first)]
    _interleave(*walks)
    for walk, pivot in zip(walks, (q, p, r)):
        walk.assert_matches(_reference_orbit(action, pivot, first))
    _Recorded(twin, q, second).run().assert_matches(_reference_orbit(action, q, second))
    assert len(A._skeletons) == 1 + (first != second)
    for budget in budgets:
        assert _escape_or_explored(twin, r, [p, q], eps, budget) == _reference_escape(
            action, r, [p, q], eps, budget
        )


class _Reflection(O.Translation):
    """On ℤ: x -> -x.  A Translation by class, but 0 is its fixed point while
    every other point moves, so stabilisers differ between points."""

    def forward(self, p):
        return (-p[0],)

    backward = forward


# kind -> (space, generators, pivots)
GATED_ACTIONS = {
    "c4": (*WALK_ACTIONS["c4"], [0, 1]),
    "lopsided": (O.DiscreteShiftSpace(), [_Lopsided()], [0, 2]),
    "reflection": (
        O.ZdSpace(1, "l1"),
        [O.Translation((1,)), _Reflection((1,))],
        [(0,), (1,), (3,)],
    ),
}


@pytest.mark.parametrize("kind", sorted(GATED_ACTIONS))
def test_walks_share_no_skeleton_unless_every_generator_is_exactly_a_shared_kind(kind):
    """A permutation, a duck-typed generator and a Translation subclass that
    does not translate add no cache entry and walk as the reference does
    (the lopsided generator's backward does not invert forward, so its
    reference is pinned, as in test_walk_yields_reduced_words)."""
    A._skeletons.clear()
    space, gens, pivots = GATED_ACTIONS[kind]
    action = O.GeneratedAction(space, gens)
    budget = O.OrbitBudget(40, 6)
    walks = [_Recorded(action, p, budget) for p in pivots]
    _interleave(*walks)
    assert not A._skeletons
    if kind == "lopsided":
        assert walks[0].got[:5] == [(0, 0), (1, 1), (2, 1), (4, 2), (6, 3)]
        assert walks[1].got[:3] == [(2, 0), (3, 1), (4, 1)]
        return
    for walk, p in zip(walks, pivots):
        walk.assert_matches(_reference_orbit(action, p, budget))
    if kind == "reflection":  # 0 is fixed by the reflection, 1 is not
        assert len(walks[0].got) < len(walks[1].got)


def test_skeleton_cache_is_bounded():
    A._skeletons.clear()
    budget = O.OrbitBudget(50, 6)
    for k in range(1, A._SKELETONS_KEPT + 4):
        action = O.GeneratedAction(O.ZdSpace(1, "l1"), [O.Translation((k,))])
        _Recorded(action, (0,), budget).run()
        assert len(A._skeletons) == min(k, A._SKELETONS_KEPT)
    kept = [key[0][0][1] for key in A._skeletons]
    assert kept == [f"translation({k},)" for k in range(4, A._SKELETONS_KEPT + 4)]


def test_threads_share_one_skeleton():
    """Two threads walk 30 pivots each on one fresh key, switching threads
    as often as the interpreter allows; every walk matches the reference."""
    A._skeletons.clear()
    action = _fresh("zd2-l1")
    budget = O.OrbitBudget(3001, 24)
    pivots = _pivots(action, 11, 60)
    expected = [_reference_orbit(action, p, budget) for p in pivots]
    failures, done = [], []

    def walk_all(mine):
        try:
            for i in mine:
                _Recorded(action, pivots[i], budget).run().assert_matches(expected[i])
                done.append(i)
        except Exception as e:  # reported by the main thread
            failures.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=walk_all, args=(range(k, 60, 2),)) for k in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not failures, failures
    assert sorted(done) == list(range(60))
    assert len(A._skeletons) == 1


class _Interrupt(Exception):
    pass


def test_interrupted_skeleton_is_forgotten(monkeypatch):
    """A walk whose map raises leaves no broken skeleton behind: the cache
    forgets it, a walk still holding it refuses to go on, and the next walk
    of the key starts anew and matches the reference."""
    A._skeletons.clear()
    action = _fresh("zd2-l1")
    budget = O.OrbitBudget(500, 24)
    forward, calls = O.Translation.forward, []

    def failing(gen, p):
        calls.append(p)
        if len(calls) > 200:
            raise _Interrupt
        return forward(gen, p)

    monkeypatch.setattr(O.Translation, "forward", failing)
    holder = _Recorded(action, (5, 5), budget)
    holder.step()
    with pytest.raises(_Interrupt):
        _Recorded(action, (0, 0), budget).run()
    assert not A._skeletons
    monkeypatch.undo()
    with pytest.raises(RuntimeError):
        holder.run()
    _Recorded(action, (0, 0), budget).run().assert_matches(
        _reference_orbit(action, (0, 0), budget)
    )
    assert len(A._skeletons) == 1


def test_find_escape_derived_example(zd2_action):
    w = O.find_escape(zd2_action, (0, 0), [(0, 0), (1, 1)], 2)
    assert w == (-1, -1)
    assert zd2_action.apply_word(w, (0, 0)) == (-2, 0)


def test_find_escape_empty_q(zd2_action):
    assert O.find_escape(zd2_action, (3, 3), [], 1) == ()


def test_find_escape_budget_exhausted_on_c4(c4_action):
    adapter = O.DiscreteAdapterSpace(c4_action.space)
    act = O.GeneratedAction(adapter, c4_action.generators)
    with pytest.raises(BudgetExhaustedError) as info:
        O.find_escape(act, 0, [0, 1, 2, 3], 1)
    assert info.value.explored == 4


def test_find_escape_validates_eps(zd2_action):
    with pytest.raises(InvalidInputError):
        O.find_escape(zd2_action, (0, 0), [], 0)


def test_separated_family_z(z1_action):
    fam = O.separated_family(z1_action, (0,), 1, 3)
    assert [p for p, _ in fam] == [(0,), (2,), (-2,)]
    for p, w in fam:
        assert z1_action.apply_word(w, (0,)) == p
    for i, (p, _) in enumerate(fam):
        for q, _ in fam[i + 1 :]:
            assert z1_action.space.distance(p, q) >= 2


def test_separated_family_trivial_and_failing(z1_action, c4_action):
    fam = O.separated_family(z1_action, (5,), 2, 1)
    assert fam == [((5,), ())]
    with pytest.raises(BudgetExhaustedError):
        O.separated_family(c4_action, 0, 1, 5)


def test_verify_isometry_translations_clean(zd2_action):
    rng = O.SplitMix64(3)
    pairs = [
        (O.sample_point(zd2_action.space, rng), O.sample_point(zd2_action.space, rng))
        for _ in range(100)
    ]
    assert O.verify_isometry(zd2_action, pairs) == []


def test_verify_isometry_flags_non_automorphism():
    space = O.FiniteGraphSpace(4, [[0, 1, 1], [1, 2, 1], [2, 3, 1], [3, 0, 1]])
    bad = O.GeneratedAction(space, [O.VertexPermutation((1, 0, 2, 3))])
    violations = O.verify_isometry(bad)  # exhaustive, no sample needed
    assert any(v.kind == "distance" for v in violations)


def test_verify_isometry_exhaustive_pass(c4_action):
    assert O.verify_isometry(c4_action) == []


def test_verify_isometry_flags_bad_inverse(z1_action):
    class Broken:
        kind = "translation"

        def check(self, space):
            pass

        def forward(self, p):
            return (p[0] + 1,)

        def backward(self, p):
            return (p[0] + 1,)  # wrong on purpose

        def describe(self):
            return "broken"

    act = O.GeneratedAction(O.ZdSpace(1, "l1"), [Broken()])
    violations = O.verify_isometry(act, [((0,), (4,))])
    assert any(v.kind == "inverse" for v in violations)


class _RotateTwice:
    """A 4-cycle rotation whose backward rotates forward again: both maps are
    isometries, but backward does not invert forward at any vertex."""

    kind = "perm"

    def check(self, space):
        pass

    def forward(self, p):
        return (p + 1) % 4

    backward = forward


def test_verify_isometry_reports_each_bad_inverse_once(c4_action):
    act = O.GeneratedAction(c4_action.space, [_RotateTwice()])
    violations = O.verify_isometry(act)
    assert [(v.kind, v.generator_index, v.points) for v in violations] == [
        ("inverse", 1, (x,)) for x in range(4)
    ]


def test_verify_isometry_sweeps_a_small_space_instead_of_the_sample():
    """The sample is still checked to be points of the space, but on a space
    of at most 64 points every pair is checked instead of it."""
    space = O.FiniteGraphSpace(4, [[0, 1, 1], [1, 2, 1], [2, 3, 1], [3, 0, 1]])
    bad = O.GeneratedAction(space, [O.VertexPermutation((1, 0, 2, 3))])
    with pytest.raises(InvalidInputError):
        O.verify_isometry(bad, [(0, 7)])

    def found(pairs):
        return [repr(v) for v in O.verify_isometry(bad, pairs)]

    assert found([(0, 1)]) == found([(2, 3), (3, 3), (0, 2)]) == found(())
    keys = [(v.kind, v.generator_index, v.points) for v in O.verify_isometry(bad)]
    assert len(keys) == len(set(keys)) == 16


def test_action_validation():
    z2 = O.ZdSpace(2, "linf")
    with pytest.raises(InvalidInputError):
        O.GeneratedAction(z2, [])
    with pytest.raises(InvalidInputError):
        O.GeneratedAction(z2, [O.Shift()])
    with pytest.raises(InvalidInputError):
        O.GeneratedAction(z2, [O.Translation((1,))])  # dimension mismatch
    f2 = O.FreeSpace(2)
    with pytest.raises(InvalidInputError):
        O.GeneratedAction(f2, [O.LeftMultiplication((3,))])  # beyond rank
    g = O.FiniteGraphSpace(2, [[0, 1, 1]])
    with pytest.raises(InvalidInputError):
        O.GeneratedAction(g, [O.VertexPermutation((1, 2, 0))])  # wrong size


def test_action_on_wrapped_spaces(z1_action, c4_action):
    scaled = O.ScaledSpace(O.ZdSpace(1, "l1"), 2)
    O.GeneratedAction(scaled, [O.Translation((1,))])
    adapter = O.DiscreteAdapterSpace(c4_action.space)
    O.GeneratedAction(adapter, [O.VertexPermutation((1, 2, 3, 0))])


def test_orbit_budget_validation():
    with pytest.raises(InvalidInputError):
        O.OrbitBudget(0, 5)
    with pytest.raises(InvalidInputError):
        O.OrbitBudget(5, 0)
    with pytest.raises(InvalidInputError):
        O.OrbitBudget(True, 5)
    with pytest.raises(InvalidInputError):
        O.OrbitBudget(5, True)


def test_generator_json_roundtrip():
    specs = [
        {"kind": "translation", "v": [1, 0]},
        {"kind": "leftmul", "w": "ab'"},
        {"kind": "perm", "p": [1, 2, 3, 0]},
        {"kind": "shift"},
    ]
    for spec in specs:
        assert O.generator_from_json(spec).to_json() == spec
    with pytest.raises(InvalidInputError):
        O.generator_from_json({"kind": "rotation"})
