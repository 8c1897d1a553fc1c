"""Exact-rational metric spaces.

Built-in spaces:

* ``zd`` — integer lattice points of a fixed dimension under l1 or linf.
* ``free`` — reduced words over ``rank`` letters under the word metric
  ``d(u, v) = |u^-1 v|``.
* ``discrete_shift`` — the integers under the 0/1 discrete metric.
* ``finite_graph`` — vertices of a connected weighted graph under the
  shortest-path metric (one row of distances per source vertex, computed on
  first use).
* ``scaled`` — any inner space with distances multiplied by a positive
  rational constant.
* ``discrete`` — any inner space re-equipped with the 0/1 discrete metric.

Distances are ints or Fractions, never floats; the only non-finite value is
the ``INF`` sentinel ``set_distance`` gives for an empty set.  Every
operation here is a pure function of its arguments, and a space's only
mutable state is a graph's cache of distance rows, whose entries never
change once computed, so spaces are safe to share between threads.
"""

from fractions import Fraction
from heapq import heappop, heappush
from itertools import product, repeat
from operator import sub

from .errors import InvalidInputError
from .rationals import INF, check_int, check_positive, format_rational, parse_rational

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


class MetricSpace:
    """Base class: a point universe plus an exact distance function."""

    kind = "abstract"

    def distance(self, p, q):
        raise NotImplementedError

    def check_point(self, p):
        """Raise InvalidInputError unless p belongs to this space."""
        raise NotImplementedError

    def point_to_json(self, p):
        raise NotImplementedError

    def point_from_json(self, obj):
        raise NotImplementedError

    def universe(self):
        """All points of a finite space, or None when infinite."""
        return None

    def to_json(self):
        raise NotImplementedError

    def describe(self):
        return self.kind


# Every coordinate is read by each distance and each sampled check, so the
# lattice dimension is capped far below what a short document could ask for.
MAX_DIM = 64


class ZdSpace(MetricSpace):
    """Integer lattice of a fixed dimension, at most ``MAX_DIM``, under the
    l1 or linf norm.

    In dimensions 1 and 2 ``distance`` works on the coordinates directly
    (subtract, flip a negative sign, then add or take the larger); higher
    dimensions use a ``map`` chain.  Points reach it only after
    ``check_point``, so the indexing is safe.
    """

    kind = "zd"

    def __init__(self, dim, norm="linf"):
        check_int(dim, "dimension", 1)
        if dim > MAX_DIM:
            raise InvalidInputError(f"dimension must be in 1..{MAX_DIM}")
        if norm not in ("l1", "linf"):
            raise InvalidInputError(f"norm must be 'l1' or 'linf', got {norm!r}")
        self.dim = dim
        self.norm = norm

    def distance(self, p, q):
        dim = self.dim
        if dim == 2:
            a = p[0] - q[0]
            if a < 0:
                a = -a
            b = p[1] - q[1]
            if b < 0:
                b = -b
            if self.norm == "l1":
                return a + b
            return a if a > b else b
        if dim == 1:
            a = p[0] - q[0]
            return a if a >= 0 else -a
        if self.norm == "l1":
            return sum(map(abs, map(sub, p, q)))
        return max(map(abs, map(sub, p, q)))

    def check_point(self, p):
        if not isinstance(p, tuple) or len(p) != self.dim:
            raise InvalidInputError(f"expected a {self.dim}-tuple of ints, got {p!r}")
        for c in p:
            if type(c) is not int:
                check_int(c, "lattice coordinate")

    def point_to_json(self, p):
        return list(p)

    def point_from_json(self, obj):
        if not isinstance(obj, list):
            raise InvalidInputError(f"lattice point must be a JSON array, got {obj!r}")
        p = tuple(obj)
        self.check_point(p)
        return p

    def to_json(self):
        return {"kind": "zd", "dim": self.dim, "norm": self.norm}

    def describe(self):
        return f"zd(dim={self.dim}, {self.norm})"


class FreeSpace(MetricSpace):
    """Reduced words over ``rank`` letters under the word metric.

    ``d(u, v) = |u^-1 v|`` equals ``len(u) + len(v) - 2 * lcp(u, v)`` where
    ``lcp`` is the longest common prefix, since cancellation in ``u^-1 v``
    happens exactly along the shared prefix.  When either word is empty or
    their first letters differ, ``lcp`` is 0 and the distance is
    ``len(u) + len(v)`` with no loop.
    """

    kind = "free"

    def __init__(self, rank):
        check_int(rank, "rank")
        if not 1 <= rank <= len(_LETTERS):
            raise InvalidInputError(f"rank must be in 1..{len(_LETTERS)}")
        self.rank = rank

    def distance(self, p, q):
        if not p or not q or p[0] != q[0]:
            return len(p) + len(q)
        lp, lq = len(p), len(q)
        m = lp if lp < lq else lq
        i = 1
        while i < m and p[i] == q[i]:
            i += 1
        return lp + lq - 2 * i

    def check_point(self, p):
        if not isinstance(p, tuple):
            raise InvalidInputError(f"free-group point must be a word tuple, got {p!r}")
        for s in p:
            check_int(s, "word letter")
            if s == 0 or abs(s) > self.rank:
                raise InvalidInputError(f"letter {s} outside rank-{self.rank} alphabet")
        for k in range(len(p) - 1):
            if p[k] == -p[k + 1]:
                raise InvalidInputError(f"word {p!r} is not reduced")

    def point_to_json(self, p):
        return word_to_string(p)

    def point_from_json(self, obj):
        if not isinstance(obj, str):
            raise InvalidInputError(f"free-group point must be a string, got {obj!r}")
        p = word_from_string(obj)
        self.check_point(p)
        return p

    def to_json(self):
        return {"kind": "free", "rank": self.rank}

    def describe(self):
        return f"free(rank={self.rank})"


def word_to_string(word):
    """Render a signed-letter word as e.g. ``"ab'a"`` (``'`` marks inverses)."""
    out = []
    for s in word:
        out.append(_LETTERS[abs(s) - 1])
        if s < 0:
            out.append("'")
    return "".join(out)


def word_from_string(text):
    """Parse ``"ab'a"`` notation into a signed-letter tuple.

    Each ``'`` marks the letter just before it, so a word has one spelling:
    a mark with no letter before it, or after another mark, is refused.
    """
    letters = []
    prev = ""
    for ch in text:
        if ch == "'":
            if not letters:
                raise InvalidInputError(f"dangling inverse mark in {text!r}")
            if prev == "'":
                raise InvalidInputError(f"doubled inverse mark in {text!r}")
            letters[-1] = -letters[-1]
        elif ch in _LETTERS:
            letters.append(_LETTERS.index(ch) + 1)
        else:
            raise InvalidInputError(f"bad character {ch!r} in word {text!r}")
        prev = ch
    return tuple(letters)


class DiscreteShiftSpace(MetricSpace):
    """The integers under the discrete metric."""

    kind = "discrete_shift"

    def distance(self, p, q):
        return 0 if p == q else 1

    def check_point(self, p):
        check_int(p, "point")

    def point_to_json(self, p):
        return p

    def point_from_json(self, obj):
        self.check_point(obj)
        return obj

    def to_json(self):
        return {"kind": "discrete_shift"}


class FiniteGraphSpace(MetricSpace):
    """Shortest-path metric on a connected weighted graph.

    Distances from a source vertex come from one exact Dijkstra over
    Fractions (O(m log n)), run the first time that source is looked up and
    kept; construction runs only the one from vertex 0, which also checks
    that the graph is connected.  Later lookups are O(1).
    """

    kind = "finite_graph"

    def __init__(self, n, edges):
        check_int(n, "vertex count", 1)
        if not isinstance(edges, (list, tuple)):
            raise InvalidInputError(f"edges must be a list, got {edges!r}")
        if n > len(edges) + 1:  # a connected graph has at least n - 1 edges
            raise InvalidInputError("graph is not connected")
        self.n = n
        self.edges = []
        adjacency = [{} for _ in range(n)]  # neighbour -> lightest edge weight
        for edge in edges:
            if not isinstance(edge, (list, tuple)) or len(edge) != 3:
                raise InvalidInputError(f"edge must be [i, j, weight], got {edge!r}")
            i, j, w = edge
            check_int(i, "edge endpoint")
            check_int(j, "edge endpoint")
            if not (0 <= i < n and 0 <= j < n):
                raise InvalidInputError(f"edge endpoint out of range in {edge!r}")
            if i == j:
                raise InvalidInputError(f"self-loop {edge!r} not allowed")
            weight = check_positive(parse_rational(w), "edge weight")
            self.edges.append((i, j, weight))
            if weight < adjacency[i].get(j, INF):
                adjacency[i][j] = adjacency[j][i] = weight
        self._table = _DistanceRows(adjacency)
        if None in self._table[0]:
            raise InvalidInputError("graph is not connected")

    def distance(self, p, q):
        return self._table[p][q]

    def check_point(self, p):
        check_int(p, "vertex")
        if not 0 <= p < self.n:
            raise InvalidInputError(f"vertex {p} out of range 0..{self.n - 1}")

    def point_to_json(self, p):
        return p

    def point_from_json(self, obj):
        self.check_point(obj)
        return obj

    def universe(self):
        return list(range(self.n))

    def to_json(self):
        return {
            "kind": "finite_graph",
            "n": self.n,
            "edges": [[i, j, format_rational(w)] for i, j, w in self.edges],
        }

    def describe(self):
        return f"finite_graph(n={self.n})"


class _DistanceRows(dict):
    """source vertex -> its distance row, computed on first lookup."""

    def __init__(self, adjacency):
        self.adjacency = adjacency

    def __missing__(self, source):
        row = self[source] = _shortest_paths(self.adjacency, source)
        return row


def _shortest_paths(adjacency, source):
    """Exact distances from ``source`` (Dijkstra); None where unreachable."""
    dist = [None] * len(adjacency)
    dist[source] = Fraction(0)
    heap = [(dist[source], source)]
    settled = set()
    while heap:
        d, u = heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        for v, w in adjacency[u].items():
            via = d + w
            if dist[v] is None or via < dist[v]:
                dist[v] = via
                heappush(heap, (via, v))
    return dist


class WrappedSpace(MetricSpace):
    """An inner space's points under a new metric: the points, their JSON
    form and the universe are the inner space's."""

    def check_point(self, p):
        self.inner.check_point(p)

    def point_to_json(self, p):
        return self.inner.point_to_json(p)

    def point_from_json(self, obj):
        return self.inner.point_from_json(obj)

    def universe(self):
        return self.inner.universe()


class ScaledSpace(WrappedSpace):
    """An inner space with every distance multiplied by a positive rational."""

    kind = "scaled"

    def __init__(self, inner, factor):
        self.inner = inner
        self.factor = Fraction(check_positive(parse_rational(factor), "scale factor"))

    def distance(self, p, q):
        return self.factor * self.inner.distance(p, q)

    def to_json(self):
        return {
            "kind": "scaled",
            "factor": format_rational(self.factor),
            "inner": self.inner.to_json(),
        }

    def describe(self):
        return f"scaled({format_rational(self.factor)} * {self.inner.describe()})"


class DiscreteAdapterSpace(WrappedSpace):
    """An inner space's points re-equipped with the 0/1 discrete metric."""

    kind = "discrete"

    def __init__(self, inner):
        self.inner = inner

    def distance(self, p, q):
        return 0 if p == q else 1

    def to_json(self):
        return {"kind": "discrete", "inner": self.inner.to_json()}

    def describe(self):
        return f"discrete({self.inner.describe()})"


def base_space(space):
    """Unwrap scaled/discrete adapters down to the underlying space."""
    while isinstance(space, WrappedSpace):
        space = space.inner
    return space


def is_discrete(space):
    """True when the space carries the 0/1 discrete metric."""
    return isinstance(space, (DiscreteShiftSpace, DiscreteAdapterSpace))


# Each scaled/discrete wrapper adds a frame to every distance call, so their
# nesting is capped far below the recursion limit.
MAX_SPACE_NESTING = 64


def space_from_json(obj, depth=0):
    """Build a space from its description dict; ``depth`` counts the
    scaled/discrete wrappers around ``obj``."""
    if depth > MAX_SPACE_NESTING:
        raise InvalidInputError(
            f"space nests more than {MAX_SPACE_NESTING} scaled/discrete wrappers"
        )
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InvalidInputError(f"space description must have a 'kind', got {obj!r}")
    kind = obj["kind"]
    if kind == "zd":
        return ZdSpace(obj.get("dim"), obj.get("norm", "linf"))
    if kind == "free":
        return FreeSpace(obj.get("rank"))
    if kind == "discrete_shift":
        return DiscreteShiftSpace()
    if kind == "finite_graph":
        return FiniteGraphSpace(obj.get("n"), obj.get("edges", []))
    if kind == "scaled":
        inner = space_from_json(obj.get("inner"), depth + 1)
        return ScaledSpace(inner, obj.get("factor"))
    if kind == "discrete":
        return DiscreteAdapterSpace(space_from_json(obj.get("inner"), depth + 1))
    raise InvalidInputError(f"unknown space kind {kind!r}")


def first_within(space, x, points, r):
    """The first y of ``points``, in input order, with d(x, y) < r; else None.

    The strict comparison is exact: ``d * den < num`` with ``r = num/den``,
    taken apart once per call.  An INF radius contains every point; any other
    float is refused.
    """
    if isinstance(r, float):  # INF is the only non-rational radius
        if r != INF:
            raise InvalidInputError(f"radius must be a positive rational, got {r!r}")
        return next(iter(points), None)
    rn, rd = r.numerator, r.denominator
    for y in points:
        if space.distance(x, y) * rd < rn:
            return y
    return None


def set_distance(space, points):
    """The function x -> min d(x, y) over y in ``points``, INF when
    ``points`` is empty.  The points are read once, here, so an iterator
    serves any number of queries.

    The kernel is chosen once per set.  On an exact ``ZdSpace`` of dimension
    2 each query takes the minimum in one loop over the coordinates, with
    ``ZdSpace.distance``'s arithmetic inline for each y, so no method is
    called per pair.  The points are indexed unchecked, so callers check
    them first.  Other dimensions, a subclass, which may override
    ``distance``, and every other space use ``space.distance``.
    """
    points = list(points)
    if type(space) is not ZdSpace or space.dim != 2:
        distance = space.distance
        return lambda x: min(map(distance, repeat(x), points), default=INF)
    l1 = space.norm == "l1"

    def nearest(x):
        best = INF
        x0, x1 = x[0], x[1]
        for y in points:
            a = x0 - y[0]
            if a < 0:
                a = -a
            b = x1 - y[1]
            if b < 0:
                b = -b
            if l1:
                a += b
            elif b > a:
                a = b
            if a < best:
                best = a
        return best

    return nearest


def greedy_epsilon_net(space, points, eps):
    """Greedy net: scan ``points`` in order, keep each point not yet covered.

    The result N is a subset of the input in input order, and every input
    point lies strictly within eps of some kept point.  Net size is not
    minimized; determinism is the contract.  An INF eps keeps the first point.
    Each point is checked with the space's ``check_point``.
    """
    if eps != INF:
        check_positive(eps, "eps")
    net = []
    for p in points:
        space.check_point(p)
        if first_within(space, p, net, eps) is None:
            net.append(p)
    return net


def require_distinct(points, what="point set"):
    """Raise unless all points are pairwise distinct (structural equality)."""
    seen = set()
    for p in points:
        if p in seen:
            raise InvalidInputError(f"duplicate point {p!r} in {what}")
        seen.add(p)


def _check_members(space, weighted, points=()):
    """Raise InvalidInputError at the first point outside the space or weight
    that is not a positive rational: each (p, eps) of ``weighted`` in order,
    then each of ``points``.  Distinctness is not checked."""
    for p, eps in weighted:
        space.check_point(p)
        try:
            check_positive(eps, "weight")
        except InvalidInputError:  # name the point only for a refused weight
            check_positive(eps, f"weight for {p!r}")
    for q in points:
        space.check_point(q)


def check_weighted(space, weighted, what="P"):
    """Raise InvalidInputError unless each (p, eps) has p in the space and
    eps a positive rational, and the points are distinct."""
    _check_members(space, weighted)
    require_distinct([p for p, _ in weighted], what)


def check_points(space, points, what="Q"):
    """Raise InvalidInputError unless every point is in the space and the
    points are distinct."""
    _check_members(space, (), points)
    require_distinct(points, what)


class MetricViolation:
    """One failed metric axiom, with the offending points."""

    def __init__(self, axiom, points, detail):
        self.axiom = axiom
        self.points = points
        self.detail = detail

    def __repr__(self):
        return f"MetricViolation({self.axiom}, {self.points}, {self.detail})"

    def to_json(self, space):
        return {
            "axiom": self.axiom,
            "points": [space.point_to_json(p) for p in self.points],
            "detail": self.detail,
        }


EXHAUSTIVE_LIMIT = 64


def _tuples_to_check(space, tuples, arity):
    """Every ``arity``-tuple of a finite space of at most ``EXHAUSTIVE_LIMIT``
    points, else the given tuples; each point of the given ones is checked
    with the space's ``check_point`` either way."""
    tuples = list(tuples)
    for t in tuples:
        for x in t:
            space.check_point(x)
    universe = space.universe()
    if universe is not None and len(universe) <= EXHAUSTIVE_LIMIT:
        return product(universe, repeat=arity)
    return tuples


def validate_metric(space, triples=()):
    """Check metric axioms on the given triples; exhaustive on small spaces.

    Every (x, y, z) is checked for identity, positivity, symmetry, and the
    triangle inequality in all three arrangements.  On a finite space of at
    most 64 points all of its triples are checked instead of the given ones,
    which must still be points of the space.  Each violation is reported
    once, in the order found; they are returned, not raised.
    """
    triples = _tuples_to_check(space, triples, 3)
    found = {}  # (axiom, points) -> its violation

    def report(axiom, points, detail):
        found.setdefault((axiom, points), MetricViolation(axiom, points, detail))

    checked_pairs = set()
    for x, y, z in triples:
        dxy = space.distance(x, y)
        dyz = space.distance(y, z)
        dxz = space.distance(x, z)
        for a, b, dab in ((x, y, dxy), (y, z, dyz), (x, z, dxz)):
            if (a, b) in checked_pairs:
                continue
            checked_pairs.add((a, b))
            dba = space.distance(b, a)
            if dab != dba:
                report("symmetry", (a, b), f"d={dab} vs {dba}")
            if a == b:
                if dab != 0:
                    report("identity", (a, b), f"d(x,x)={dab}")
            elif dab <= 0:
                report("positivity", (a, b), f"d={dab}")
        for a, b, c, da, db, dc in (
            (x, z, y, dxz, dxy, dyz),
            (x, y, z, dxy, dxz, dyz),
            (y, z, x, dyz, dxy, dxz),
        ):
            if da > db + dc:
                report("triangle", (a, c, b), f"{da} > {db} + {dc}")
    return list(found.values())
