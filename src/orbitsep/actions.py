"""Generated isometry groups acting on metric spaces.

A group element is always an ``IsometryWord``: a reduced tuple of signed
1-based generator indices (``+i`` applies generator ``i``, ``-i`` its
inverse, the empty tuple is the identity).  Words are evaluated right to
left, so ``apply_word(compose(u, v), p) == apply_word(u, apply_word(v, p))``.

Orbit exploration is breadth-first and deterministic: signed generators are
tried in the order ``+1, -1, +2, -2, ...``, points are deduplicated by
structural equality, and each point is paired with the first word reaching
it.  One walker, ``OrbitWalk``, does every such search.  It stores each
point with its parent's index and the letter that reached it, builds a word
only for the points a search returns or keeps, and never tries the letter
that undoes a point's own last letter, because that move lands on the
parent.  This assumes that each generator's backward map inverts its
forward map, which the "inverse" check of ``verify_isometry`` tests.  A
search may skip the subtree of a point, the points whose first word runs
through it; the walk then builds none of them.  Every search is bounded by
an ``OrbitBudget``; running out of budget (or exhausting a finite orbit)
raises ``BudgetExhaustedError``.

The parent links, letters and word lengths form the walk's skeleton.  When
every generator is exactly a ``Translation``, ``LeftMultiplication`` or
``Shift``, the group acts through a homomorphism onto a group acting on
itself, so every point's stabiliser is the kernel: ``g.p == h.p`` exactly
when ``g.o == h.o``.  The walk then keeps or rejects the same moves from
every start point, and its skeleton is the same from all of them.  Such
walks share one skeleton per key (each generator's type and description,
and the budget's two fields), grown from the first start point seen, one
word length at a time and only as far as a walk asks, and replayed from
every start point, that first one included, with one map call per point.
A word length is built aside and appended whole, so a map that raises
leaves the skeleton without it and the next walk grows it again.  A module
cache keeps the 8 most recently used skeletons.  Other generators (a
``VertexPermutation``, whose stabilisers differ between points, a
subclass, a duck-typed generator) walk a skeleton of their own.  Growing a
skeleton takes its lock, so walks may share one between threads.

Every walk steps by the action's ``moves()``, one map per signed
generator.  An exact ``Translation`` of dimension 1 or 2 moves by
functions over its vector's coordinates; every other generator moves by
its own ``forward`` and ``backward``.  The moves and the skeleton key are
bound once per action on first use, not when it is built, since a
certificate check builds actions it never walks.
"""

from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import add, sub
from threading import Lock

from .errors import BudgetExhaustedError, InvalidInputError
from .rationals import check_int, check_positive
from .spaces import (
    DiscreteShiftSpace,
    FiniteGraphSpace,
    FreeSpace,
    ZdSpace,
    _tuples_to_check,
    base_space,
    first_within,
    word_from_string,
    word_to_string,
)
from .words import compose, invert, reduce_word


def _require_fit(gen, space, space_type, fits=lambda b: True):
    """Raise unless the base of ``space`` is a ``space_type`` that ``fits``."""
    base = base_space(space)
    if not isinstance(base, space_type):
        raise InvalidInputError(f"{gen.describe()} cannot act on a {base.kind} space")
    if not fits(base):
        raise InvalidInputError(f"{gen.describe()} does not fit {base.describe()}")


class Translation:
    """Lattice translation by an integer vector.

    In dimensions 1 and 2 ``power`` works on the coordinates directly;
    higher dimensions use a comprehension.  Points reach it only after
    ``check_point``, so the indexing is safe.  ``power_all`` moves a whole
    list of points by ``v·k`` in one comprehension, indexing each point as
    ``power`` does.  ``forward`` and ``backward`` map over the coordinates
    in every dimension: ``GeneratedAction.moves`` moves an exact
    ``Translation`` of dimension 1 or 2 by functions of its own, so walks
    and ``verify_isometry`` do not call them, and ``apply_word`` does only
    for a run of one letter.
    """

    kind = "translation"

    def __init__(self, v):
        v = tuple(check_int(c, "translation vector entry") for c in v)
        if not v:
            raise InvalidInputError("translation vector must be nonempty")
        self.v = v

    def check(self, space):
        _require_fit(self, space, ZdSpace, lambda b: len(self.v) == b.dim)

    def forward(self, p):
        return tuple(map(add, p, self.v))

    def backward(self, p):
        return tuple(map(sub, p, self.v))

    def power(self, p, k):
        v = self.v
        dim = len(v)
        if dim == 2:
            return (p[0] + k * v[0], p[1] + k * v[1])
        if dim == 1:
            return (p[0] + k * v[0],)
        return tuple([a + k * b for a, b in zip(p, v)])

    def power_all(self, points, k):
        """A new list of ``power(p, k)`` for each p of an iterable of points."""
        v = self.v
        dim = len(v)
        if dim == 2:
            a, b = k * v[0], k * v[1]
            return [(p[0] + a, p[1] + b) for p in points]
        if dim == 1:
            a = k * v[0]
            return [(p[0] + a,) for p in points]
        kv = [k * b for b in v]
        return [tuple([a + b for a, b in zip(p, kv)]) for p in points]

    def to_json(self):
        return {"kind": "translation", "v": list(self.v)}

    def describe(self):
        return f"translation{self.v}"


class LeftMultiplication:
    """Left multiplication of free-group points by a fixed reduced word."""

    kind = "leftmul"

    def __init__(self, word):
        self.word = reduce_word(word)
        self._inverse = invert(self.word)
        # word = head . core . head^-1 with core cyclically reduced, so the
        # k-th power is head . core^k . head^-1, reduced as written.
        m, n = 0, len(self.word)
        while 2 * m + 1 < n and self.word[m] == -self.word[n - 1 - m]:
            m += 1
        self._head, self._tail = self.word[:m], self.word[n - m :]
        self._core = self.word[m : n - m]
        self._core_inverse = invert(self._core)

    def check(self, space):
        letters = max((abs(s) for s in self.word), default=0)
        _require_fit(self, space, FreeSpace, lambda b: letters <= b.rank)

    def forward(self, p):
        return compose(self.word, p)

    def backward(self, p):
        return compose(self._inverse, p)

    def power(self, p, k):
        core = self._core if k > 0 else self._core_inverse
        return compose(self._head + core * abs(k) + self._tail, p)

    def to_json(self):
        return {"kind": "leftmul", "w": word_to_string(self.word)}

    def describe(self):
        return f"leftmul({word_to_string(self.word) or '1'})"


class Shift:
    """The successor map on the integers."""

    kind = "shift"

    def check(self, space):
        _require_fit(self, space, DiscreteShiftSpace)

    def forward(self, p):
        return p + 1

    def backward(self, p):
        return p - 1

    def power(self, p, k):
        return p + k

    def to_json(self):
        return {"kind": "shift"}

    def describe(self):
        return "shift"


class VertexPermutation:
    """A permutation of graph vertices given in one-line notation."""

    kind = "perm"

    def __init__(self, perm):
        perm = tuple(check_int(j, "permutation entries") for j in perm)
        if sorted(perm) != list(range(len(perm))):
            raise InvalidInputError(f"not a permutation of 0..{len(perm) - 1}: {perm!r}")
        self.perm = perm
        inv = [0] * len(perm)
        for i, j in enumerate(perm):
            inv[j] = i
        self._inv = tuple(inv)

    def check(self, space):
        _require_fit(self, space, FiniteGraphSpace, lambda b: len(self.perm) == b.n)

    def forward(self, p):
        return self.perm[p]

    def backward(self, p):
        return self._inv[p]

    def power(self, p, k):
        table = self.perm if k > 0 else self._inv
        for _ in range(abs(k)):
            p = table[p]
        return p

    def to_json(self):
        return {"kind": "perm", "p": list(self.perm)}

    def describe(self):
        return f"perm{self.perm}"


def generator_from_json(obj):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InvalidInputError(f"generator description must have a 'kind', got {obj!r}")
    kind = obj["kind"]
    if kind == "translation":
        return Translation(_json_array(obj, "v"))
    if kind == "leftmul":
        w = obj.get("w", "")
        return LeftMultiplication(
            word_from_string(w) if isinstance(w, str) else _json_array(obj, "w")
        )
    if kind == "shift":
        return Shift()
    if kind == "perm":
        return VertexPermutation(_json_array(obj, "p"))
    raise InvalidInputError(f"unknown generator kind {kind!r}")


def _json_array(obj, key):
    value = obj.get(key, [])
    if not isinstance(value, list):
        raise InvalidInputError(f"generator field {key!r} must be an array: {value!r}")
    return value


_NO_LETTER = object()  # equal to no letter, so the first letter opens a run


def _run_fold(step, doc=None):
    """A method ``(self, w, acc)`` that sets ``acc = step(acc, gen, k)`` for
    each maximal run of one letter in w, rightmost first, with ``gen`` the
    generator the letter names and ``k`` the signed run length, and returns
    the last ``acc``.

    This is the one place a word is split into runs and its letters are
    checked: a letter that names no generator raises InvalidInputError.
    ``apply_word`` is such a method itself, not a call to one, so applying a
    word to one point costs no extra call.
    """

    def fold(self, w, acc):
        generators = self.generators
        n = len(generators)
        run, k = _NO_LETTER, 0
        for s in reversed(w):
            # ``is`` passes the very object checked when the run opened;
            # True and 1.0 also equal 1, so an equal letter must be an int.
            if s is run or s == run and type(s) is int:
                k += 1
                continue
            if type(s) is not int or not 0 < abs(s) <= n:
                raise InvalidInputError(f"generator index {s!r} out of range")
            if k:
                acc = step(acc, generators[abs(run) - 1], k if run > 0 else -k)
            run, k = s, 1
        if k:
            acc = step(acc, generators[abs(run) - 1], k if run > 0 else -k)
        return acc

    fold.__doc__ = doc
    return fold


def _apply_power(p, gen, k):
    """gen^k applied to p: one ``forward``/``backward`` call for k = +-1, one
    ``power`` call otherwise."""
    if k == 1:
        return gen.forward(p)
    if k == -1:
        return gen.backward(p)
    return gen.power(p, k)


def _map_power(points, gen, k):
    """gen^k mapped over an iterable of points.  A generator that is exactly
    a ``Translation`` moves them all in one ``power_all`` call, a new list;
    any other maps them lazily, one ``map`` of ``forward``/``backward`` for
    k = +-1, of ``power`` otherwise, so a subclass keeps its own maps."""
    if type(gen) is Translation:
        return gen.power_all(points, k)
    if k == 1:
        return map(gen.forward, points)
    if k == -1:
        return map(gen.backward, points)
    return map(gen.power, points, repeat(k))


def _translation_moves(v):
    """The maps p -> p + v and p -> p - v for a 1- or 2-D integer vector v,
    over its coordinates."""
    if len(v) == 2:
        a, b = v
        return (lambda p: (p[0] + a, p[1] + b)), (lambda p: (p[0] - a, p[1] - b))
    (a,) = v
    return (lambda p: (p[0] + a,)), (lambda p: (p[0] - a,))


class GeneratedAction:
    """A metric space together with a finite generator list.

    Only the generators' maps are stored: ``forward``, ``backward`` and
    ``power(p, k)``, the k-th power applied to p for a signed ``k != 0``;
    the group itself is the set of words over the generators.  Each
    generator's ``check(space)`` raises InvalidInputError unless it can act
    on the space, and the generators are fixed once checked; whether they
    actually preserve distances is checked by :func:`verify_isometry`.
    """

    # Bound on first use by moves() and _skeleton; two threads may both
    # bind one, to equal values.
    _moves = None
    _skeleton_key = None

    def __init__(self, space, generators):
        generators = tuple(generators)
        if not generators:
            raise InvalidInputError("generator list must be nonempty")
        for gen in generators:
            gen.check(space)
        self.space = space
        self.generators = generators

    def step(self, s, p):
        """Apply one signed generator to a point."""
        if type(s) is not int or not 0 < abs(s) <= len(self.generators):
            raise InvalidInputError(f"generator index {s!r} out of range")
        gen = self.generators[abs(s) - 1]
        return gen.forward(p) if s > 0 else gen.backward(p)

    def moves(self):
        """[(s, map of signed generator s)] in expansion order.

        A generator that is exactly a ``Translation`` of dimension 1 or 2
        moves by functions over its vector's coordinates, so a move costs no
        method call and no dimension test; every other generator moves by
        its own ``forward`` and ``backward``.  The list is bound once per
        action, on first use, and every call returns it: callers must not
        mutate it."""
        moves = self._moves
        if moves is None:
            moves = []
            for i, gen in enumerate(self.generators, 1):
                if type(gen) is Translation and len(gen.v) <= 2:
                    ahead, back = _translation_moves(gen.v)
                else:
                    ahead, back = gen.forward, gen.backward
                moves += (i, ahead), (-i, back)
            self._moves = moves
        return moves

    apply_word = _run_fold(
        _apply_power,
        "Apply a word to a point, rightmost letter first, one power per run.",
    )
    _map_word = _run_fold(_map_power)

    def apply_word_all(self, w, points):
        """A new list of the points, each moved by the word: the word is
        split into runs and its letters checked once for the whole list."""
        moved = self._map_word(w, points)
        # A list other than the points themselves is power_all's new list.
        return moved if type(moved) is list and moved is not points else list(moved)

    def generators_to_json(self):
        return [g.to_json() for g in self.generators]


@dataclass(frozen=True)
class OrbitBudget:
    """Caps on orbit exploration: distinct points and word length."""

    max_points: int = 100000
    max_word_length: int = 24

    def __post_init__(self):
        for name in ("max_points", "max_word_length"):
            check_int(getattr(self, name), name, 1)

    def to_json(self):
        return {"max_points": self.max_points, "max_word_length": self.max_word_length}


DEFAULT_BUDGET = OrbitBudget()


@dataclass
class SearchStats:
    """Mutable counter threaded through searches for reporting."""

    points: int = 0


class OrbitWalk:
    """A breadth-first walk over the orbit of p, one word length at a time.

    Iterating yields each orbit point once, p first; ``length`` is the word
    length of the point last yielded, and ``word(i)`` the first word
    reaching the i-th point passed (p is the 0th), read off the parent
    links and kept for the words built after it; an i the walk has not
    passed raises InvalidInputError.  No point is moved by the
    letter that undoes its own last letter, so every word is reduced as
    built.  The walk ends when the orbit closes, after the points at length
    ``budget.max_word_length``, or when a point past ``budget.max_points``
    appears; ``stats.points`` counts each point as it is yielded.  Each
    iteration walks afresh; ``word``, ``len`` and ``skip`` act on the latest
    walk.  Before the first, ``len`` and ``length`` are 0 and ``word``
    raises InvalidInputError.

    ``skip()`` leaves out the subtree of the point last yielded: every point
    whose first word runs through it.  The walk builds and yields none of
    them but still passes them, so a point has the same index, word and
    length as in a walk without skips, and ``word()`` with no index is the
    word of the point last yielded.

    The parent links, letters and word lengths come from a ``_Skeleton``.
    When every generator is exactly a ``Translation``, ``LeftMultiplication``
    or ``Shift``, every point has the kernel as its stabiliser, so the
    skeleton is the same from every start point: the walk takes a shared one
    and replays it, ``x_n = move[letter n](x_(parent n))``, with no seen set
    and no rejected move; the moves are the action's ``moves()``, bound
    once per action, on first use.  The skeleton grows one word length at
    a time, as far as the walk asks.  A module cache keeps the 8 most
    recently used shared skeletons.  Any other action walks a skeleton of
    its own.
    """

    def __init__(self, action, p, budget=DEFAULT_BUDGET, stats=None):
        action.space.check_point(p)
        self._start = (action, p, budget, stats)
        self._points, self._parents, self._letters, self._words = [], [], [], {}
        self.length = 0

    def __len__(self):
        """The number of points the walk has passed, p and skipped points
        included."""
        return len(self._points)

    def skip(self):
        """Leave out the subtree of the point last yielded."""
        self._points[-1] = None

    def word(self, i=None):
        """The word reaching the i-th point passed, by default the point last
        yielded."""
        parents, letters, words = self._parents, self._letters, self._words
        passed = len(self._points)
        if not passed:
            raise InvalidInputError("an orbit walk has no word before its first point")
        if i is None:
            i = passed - 1
        elif i not in range(passed):
            raise InvalidInputError(f"the walk has passed {passed} points, not point {i!r}")
        start, head = i, []
        while i not in words:
            head.append(letters[i])
            i = parents[i]
        w = words[start] = tuple(head) + words[i]
        return w

    def __iter__(self):
        action, p, budget, stats = self._start
        skeleton = _skeleton(action, p, budget)
        self._parents = parents = skeleton.parents
        self._letters = letters = skeleton.letters
        lengths = skeleton.lengths
        moves = dict(action.moves())
        self._points = points = [p]
        self._words = {0: ()}  # the words built so far, by index
        self.length = 0
        if stats is not None:
            stats.points += 1
        yield p
        n = 1
        while True:
            end = len(lengths)
            if n == end:
                end = skeleton.extend(n)
                if n == end:
                    return
            for n in range(n, end):
                x = points[parents[n]]
                if x is None:  # in a skipped subtree
                    points.append(None)
                    continue
                x = moves[letters[n]](x)
                points.append(x)
                self.length = lengths[n]
                if stats is not None:
                    stats.points += 1
                yield x
            n = end


class _Skeleton:
    """The parent index, letter and word length of every point of one
    breadth-first walk, grown one word length at a time by ``extend``.

    ``points`` holds the walk's points, its start point first, while it
    grows, and is dropped with the seen set when the walk ends.  Growing
    takes the skeleton's lock; reading does not, since each word length is
    appended to every list in one ``+=``, ``lengths`` last, so its length
    counts entries complete in every list.
    """

    def __init__(self, action, p, budget):
        moves = action.moves()
        self.parents, self.letters, self.lengths = [0], [0], [0]
        self.points = [p]
        self._onward = {s: [m for m in moves if m[0] != -s] for s, _ in moves}
        self._onward[0] = moves  # p has no last letter to undo
        self._seen = {p}
        self._budget = budget
        self._lock = Lock()

    def extend(self, n):
        """Grow the skeleton until it holds entry n or its walk has ended;
        return its number of entries."""
        with self._lock:
            while self.points is not None and len(self.lengths) <= n:
                if not self._grow():
                    self.points = self._seen = self._onward = None
                    # Copies hold no spare slots; started walks keep the originals.
                    self.parents, self.letters = self.parents[:], self.letters[:]
                    self.lengths = self.lengths[:]
            return len(self.lengths)

    def _grow(self):
        """Append the points of the next word length; return False once the
        walk has ended: past ``max_word_length``, with no new point (the
        orbit closed) or with ``max_points`` points.  The new entries are
        built aside and appended whole, so a map that raises leaves the
        skeleton as it was and the next call grows the same word length."""
        points, parents, letters, lengths = self.points, self.parents, self.letters, self.lengths
        length = lengths[-1] + 1
        budget = self._budget
        if length > budget.max_word_length:
            return False
        seen, onward = self._seen, self._onward
        room = budget.max_points - len(points)
        fresh, new_points, new_parents, new_letters = set(), [], [], []
        for i in range(bisect_left(lengths, length - 1), len(points)):
            x = points[i]
            for s, move in onward[letters[i]]:
                y = move(x)
                if y not in seen:
                    fresh.add(y)
                    if len(fresh) > len(new_points):  # y was not in fresh
                        new_points.append(y)
                        new_parents.append(i)
                        new_letters.append(s)
            if len(new_points) >= room:  # the walk is full
                break
        del new_points[room:], new_parents[room:], new_letters[room:]
        seen |= fresh
        points += new_points
        parents += new_parents
        letters += new_letters
        lengths += [length] * len(new_points)
        return 0 < len(new_points) < room


# Skeletons of the actions that share them, least recently used first.  The
# key is each generator's exact type and description with the budget's two
# fields; the cache holds at most _SKELETONS_KEPT of them.
_SKELETONS_KEPT = 8
_skeletons = OrderedDict()
_skeletons_lock = Lock()


def _skeleton(action, p, budget):
    """The shared skeleton of the action's key, made from p if there is none;
    a skeleton of its own for a walk whose action may not share one."""
    gens_key = action._skeleton_key
    if gens_key is None:  # () for an action that may not share a skeleton
        gens = action.generators
        gens_key = action._skeleton_key = (
            tuple((type(g), g.describe()) for g in gens)
            if all(type(g) in (Translation, LeftMultiplication, Shift) for g in gens)
            else ()
        )
    if not gens_key:
        return _Skeleton(action, p, budget)
    key = (gens_key, budget.max_points, budget.max_word_length)
    with _skeletons_lock:
        skeleton = _skeletons.get(key)
        if skeleton is None:
            skeleton = _skeletons[key] = _Skeleton(action, p, budget)
            if len(_skeletons) > _SKELETONS_KEPT:
                _skeletons.popitem(last=False)
        else:
            _skeletons.move_to_end(key)
        return skeleton


def orbit_stream(action, p, budget=DEFAULT_BUDGET, stats=None):
    """Yield (point, word) over the orbit of p in deterministic BFS order.

    The points are an ``OrbitWalk``'s, each with the first word reaching it,
    built by following the walk's parent links.  The walk never steps back
    to a point's parent, so every word is reduced.
    """
    walk = OrbitWalk(action, p, budget, stats)
    for i, x in enumerate(walk):
        yield x, walk.word(i)


def find_escape(action, p, q_points, eps, budget=DEFAULT_BUDGET, stats=None):
    """First word a (in BFS order) with d(a.p, y) >= eps for every y in Q.

    Equivalently: the first orbit point outside every open eps-ball around Q.
    Exhausting the budget (or the whole orbit) raises BudgetExhaustedError
    carrying the explored-point count.

    p is checked, as every walk's start is, but Q is used as given: a point
    of Q outside the space may raise any error (a 1-tuple on ℤ², IndexError).
    The solver calls this once per level with a Q' built from checked
    points, so checking here would repeat the check for every point of
    every Q'.
    """
    check_positive(eps, "eps")
    space = action.space
    walk = OrbitWalk(action, p, budget, stats)
    for i, x in enumerate(walk):
        if first_within(space, x, q_points, eps) is None:
            return walk.word(i)
    raise BudgetExhaustedError(
        f"no escape at radius {eps} after exploring {len(walk)} orbit points",
        explored=len(walk),
    )


def separated_family(action, p, eps, n, budget=DEFAULT_BUDGET, stats=None):
    """Greedily collect n orbit points pairwise >= 2*eps apart, with words.

    Each open eps-ball contains at most one such point, so a successful
    family certifies that no eps-net of the orbit has fewer than n points.
    """
    check_positive(eps, "eps")
    check_int(n, "n", 1)
    space = action.space
    two_eps = 2 * Fraction(eps)
    kept, kept_points = [], []
    walk = OrbitWalk(action, p, budget, stats)
    for i, x in enumerate(walk):
        if first_within(space, x, kept_points, two_eps) is None:
            kept.append(i)
            kept_points.append(x)
            if len(kept) == n:
                return [(x, walk.word(i)) for x, i in zip(kept_points, kept)]
    raise BudgetExhaustedError(
        f"found only {len(kept)} of {n} separated orbit points "
        f"after exploring {len(walk)}",
        explored=len(walk),
    )


class IsometryViolation:
    """One generator failure: either a moved distance or a bad inverse."""

    def __init__(self, kind, generator_index, points, detail):
        self.kind = kind
        self.generator_index = generator_index
        self.points = points
        self.detail = detail

    def __repr__(self):
        return (
            f"IsometryViolation({self.kind}, gen={self.generator_index}, "
            f"{self.points}, {self.detail})"
        )

    def to_json(self, space):
        return {
            "kind": self.kind,
            "generator": self.generator_index,
            "points": [space.point_to_json(p) for p in self.points],
            "detail": self.detail,
        }


def verify_isometry(action, pairs=()):
    """Check d(s.x, s.y) == d(x, y) for every signed generator on each pair,
    and that backward inverts forward on each pair's first point.

    On a finite space of at most 64 points every pair of points is checked
    instead of the given ones, which must still be points of the space.
    Each violation is reported once, in the order found; they are returned,
    not raised.
    """
    space = action.space
    pairs = _tuples_to_check(space, pairs, 2)
    found = {}  # (kind, generator, points) -> its violation

    def report(kind, s, points, detail):
        found.setdefault((kind, s, points), IsometryViolation(kind, s, points, detail))

    moves = action.moves()
    inverted = set()
    for x, y in pairs:
        dxy = space.distance(x, y)
        for s, move in moves:
            moved = space.distance(move(x), move(y))
            if moved != dxy:
                report("distance", s, (x, y), f"d={dxy} moved to {moved}")
        if x not in inverted:
            inverted.add(x)
            for i, gen in enumerate(action.generators, 1):
                if gen.backward(gen.forward(x)) != x:
                    report("inverse", i, (x,), "backward(forward(x)) != x")
    return list(found.values())
