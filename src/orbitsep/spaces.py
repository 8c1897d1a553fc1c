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
the ``INF`` sentinel returned by ``distance_to_set`` and ``set_distance`` on
an empty side.  Every operation here is a pure function of its arguments, and
a space's only mutable state is a graph's cache of distance rows, whose
entries never change once computed, so spaces are safe to share between
threads.
"""

from fractions import Fraction
from heapq import heappop, heappush
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


class ZdSpace(MetricSpace):
    """Integer lattice of a fixed dimension under the l1 or linf norm."""

    kind = "zd"

    def __init__(self, dim, norm="linf"):
        check_int(dim, "dimension", 1)
        if norm not in ("l1", "linf"):
            raise InvalidInputError(f"norm must be 'l1' or 'linf', got {norm!r}")
        self.dim = dim
        self.norm = norm

    def distance(self, p, q):
        if self.norm == "l1":
            return sum(map(abs, map(sub, p, q)))
        return max(map(abs, map(sub, p, q)))

    def check_point(self, p):
        if not isinstance(p, tuple) or len(p) != self.dim:
            raise InvalidInputError(f"expected a {self.dim}-tuple of ints, got {p!r}")
        for c in p:
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
    happens exactly along the shared prefix.
    """

    kind = "free"

    def __init__(self, rank):
        check_int(rank, "rank")
        if not 1 <= rank <= len(_LETTERS):
            raise InvalidInputError(f"rank must be in 1..{len(_LETTERS)}")
        self.rank = rank

    def distance(self, p, q):
        i = 0
        m = min(len(p), len(q))
        while i < m and p[i] == q[i]:
            i += 1
        return len(p) + len(q) - 2 * i

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
    """Parse ``"ab'a"`` notation into a signed-letter tuple."""
    letters = []
    for ch in text:
        if ch == "'":
            if not letters:
                raise InvalidInputError(f"dangling inverse mark in {text!r}")
            letters[-1] = -letters[-1]
        elif ch in _LETTERS:
            letters.append(_LETTERS.index(ch) + 1)
        else:
            raise InvalidInputError(f"bad character {ch!r} in word {text!r}")
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


def space_from_json(obj):
    """Build a space from its description dict."""
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
        return ScaledSpace(space_from_json(obj.get("inner")), obj.get("factor"))
    if kind == "discrete":
        return DiscreteAdapterSpace(space_from_json(obj.get("inner")))
    raise InvalidInputError(f"unknown space kind {kind!r}")


def distance(space, p, q):
    """Exact distance between two points of the space."""
    space.check_point(p)
    space.check_point(q)
    return space.distance(p, q)


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


def distance_to_set(space, x, points):
    """min d(x, y) over y in ``points``; INF when ``points`` is empty."""
    return min((space.distance(x, y) for y in points), default=INF)


def set_distance(space, ps, qs):
    """min d(x, y) over x in ps, y in qs; INF when either side is empty."""
    return min((distance_to_set(space, x, qs) for x in ps), default=INF)


def in_open_ball(space, center, radius, x):
    """True iff d(center, x) < radius (strict, exact)."""
    check_positive(radius, "radius")
    return distance(space, center, x) < radius


def greedy_epsilon_net(space, points, eps):
    """Greedy net: scan ``points`` in order, keep each point not yet covered.

    The result N is a subset of the input in input order, and every input
    point lies strictly within eps of some kept point.  Net size is not
    minimized; determinism is the contract.  An INF eps keeps the first point.
    """
    if eps != INF:
        check_positive(eps, "eps")
    net = []
    for p in points:
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


def validate_metric(space, triples=()):
    """Check metric axioms on the given triples; exhaustive on small spaces.

    Every (x, y, z) is checked for identity, positivity, symmetry, and the
    triangle inequality in all three arrangements.  When the space has a
    finite universe of at most 64 points, all of its triples are checked in
    addition to the sample.  Violations are returned, not raised.
    """
    violations = []
    checked_pairs = set()

    def check_pair(x, y):
        key = (x, y)
        if key in checked_pairs:
            return
        checked_pairs.add(key)
        dxy = space.distance(x, y)
        dyx = space.distance(y, x)
        if dxy != dyx:
            violations.append(MetricViolation("symmetry", (x, y), f"d={dxy} vs {dyx}"))
        if x == y:
            if dxy != 0:
                violations.append(MetricViolation("identity", (x, y), f"d(x,x)={dxy}"))
        elif dxy <= 0:
            violations.append(MetricViolation("positivity", (x, y), f"d={dxy}"))

    def check_triple(x, y, z):
        check_pair(x, y)
        check_pair(y, z)
        check_pair(x, z)
        dxy = space.distance(x, y)
        dyz = space.distance(y, z)
        dxz = space.distance(x, z)
        for a, b, c, da, db, dc in (
            (x, z, y, dxz, dxy, dyz),
            (x, y, z, dxy, dxz, dyz),
            (y, z, x, dyz, dxy, dxz),
        ):
            if da > db + dc:
                violations.append(
                    MetricViolation("triangle", (a, c, b), f"{da} > {db} + {dc}")
                )

    for x, y, z in triples:
        space.check_point(x)
        space.check_point(y)
        space.check_point(z)
        check_triple(x, y, z)

    universe = space.universe()
    if universe is not None and len(universe) <= EXHAUSTIVE_LIMIT:
        for x in universe:
            for y in universe:
                for z in universe:
                    check_triple(x, y, z)

    return violations
