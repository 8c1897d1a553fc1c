"""Brute-force ground truth, seeded instances, and differential testing.

The oracle enumerates group words breadth-first, deduplicating by the image
of the whole weighted tuple rather than by word: two words moving every
point of P to the same places are interchangeable for separation purposes,
and on abelian actions this collapses an exponential word count to a
polynomial image count.  A certificate word of length <= L therefore
"appears in the valid set at bound L" exactly when its image tuple does.

Instance generation is driven by SplitMix64, a fixed 64-bit mixing
recurrence, so any instance is reproducible from its integer seed alone.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .actions import (
    DEFAULT_BUDGET,
    GeneratedAction,
    LeftMultiplication,
    OrbitBudget,
    SearchStats,
    Shift,
    Translation,
    VertexPermutation,
)
from .errors import BudgetExhaustedError, InvalidInputError
from .rationals import INF, check_int, format_rational, is_inf
from .separation import (
    certificate_to_json,
    check_certificate,
    separate_points,
    weighted_to_json,
)
from .spaces import (
    DiscreteShiftSpace,
    FiniteGraphSpace,
    FreeSpace,
    ZdSpace,
    base_space,
    check_points,
    check_weighted,
    set_distance,
)
from .words import IDENTITY

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """Deterministic 64-bit generator (SplitMix64 mixing recurrence)."""

    def __init__(self, seed):
        self.state = check_int(seed, "seed", 0) & _MASK64

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n):
        """Uniform-ish value in 0..n-1 (modulo bias is irrelevant at 64 bits)."""
        if n <= 0:
            raise InvalidInputError("below() needs a positive bound")
        return self.next_u64() % n

    def pick(self, seq):
        return seq[self.below(len(seq))]


@dataclass
class OracleVerdict:
    """Everything the exhaustive search learned at a given word-length bound."""

    valid_words: list  # BFS-first word per valid image tuple
    valid_images: dict  # image tuple -> that word
    best_word: tuple
    best_ratio: object
    explored: int

    def contains_word(self, action, weighted, word):
        """True iff the word's image tuple is among the valid images."""
        image = tuple(action.apply_word(word, p) for p, _ in weighted)
        return image in self.valid_images


def brute_force_separate(action, weighted, q_points, max_word_length, stats=None):
    """Enumerate every image of P under words up to the bound; rate them all.

    BFS over image tuples with the same signed-generator order as the orbit
    search, one word length at a time; each image carries the first word
    reaching it.  A tuple is valid when min over p of d(image_p, Q) / eps_p
    is at least 1/3 (vacuously INF when P or Q is empty), with each
    d(image_p, Q) from one ``set_distance`` bound to Q.  Returns all valid
    representatives, the best one, and the number of distinct images
    explored.

    The letter that undoes a word's last letter is never tried: its image is
    the parent's, already seen.  This assumes each generator's backward map
    inverts its forward map, as every built-in generator's does and as
    ``verify_isometry``'s inverse check tests.

    Ratios stay exact without a Fraction per image: with eps_p = en/ed,
    d/eps_p is the pair (d.num * ed, d.den * en), pairs are compared by
    cross-multiplying, and (1, 0) stands for INF.
    """
    check_int(max_word_length, "max_word_length", 0)
    weighted = list(weighted)
    q_points = list(q_points)
    space = action.space
    check_weighted(space, weighted)
    check_points(space, q_points)
    # With Q empty every d(image_p, Q) is INF, so every image rates INF.
    eps_parts = [(e.numerator, e.denominator) for _, e in weighted] if q_points else []
    distance_to_q = set_distance(space, q_points)

    def rate(image):
        num, den = 1, 0
        for p, (en, ed) in zip(image, eps_parts):
            d = distance_to_q(p)
            n, m = d.numerator * ed, d.denominator * en
            if n * den < num * m:
                num, den = n, m
        return num, den

    start = tuple(p for p, _ in weighted)
    seen = {start}
    valid_images = {}
    best_word = IDENTITY
    best_num, best_den = rate(start)
    if 3 * best_num >= best_den:
        valid_images[start] = IDENTITY
    moves = action.moves()
    # The letter undoing a word's last letter leads back to its parent.
    onward = {s: [m for m in moves if m[0] != -s] for s, _ in moves}
    onward[0] = moves  # the identity has no last letter to undo
    layer = [(start, IDENTITY, 0)]  # (image, word, the word's last letter)
    for _ in range(max_word_length):
        if not layer:  # the orbit of the tuple closed
            break
        below = []
        for node, w, last in layer:
            for s, move in onward[last]:
                nxt = tuple(map(move, node))
                if nxt in seen:
                    continue
                nw = (s,) + w
                seen.add(nxt)
                below.append((nxt, nw, s))
                num, den = rate(nxt)
                if 3 * num >= den:
                    valid_images[nxt] = nw
                if num * best_den > best_num * den:
                    best_num, best_den = num, den
                    best_word = nw
        layer = below
    if stats is not None:
        stats.points += len(seen)
    return OracleVerdict(
        valid_words=list(valid_images.values()),
        valid_images=valid_images,
        best_word=best_word,
        best_ratio=Fraction(best_num, best_den) if best_den else INF,
        explored=len(seen),
    )


@dataclass(frozen=True)
class SizeCaps:
    """Size parameters for random instances, with documented hard caps."""

    p_max: int = 4
    q_max: int = 5
    coord_max: int = 32
    eps_max: int = 4
    word_max: int = 6
    c_max: int = 4
    d_max: int = 4
    delta_choices: tuple = (3, 6, 9)

    def __post_init__(self):
        limits = {
            "p_max": (self.p_max, 6),
            "q_max": (self.q_max, 10),
            "coord_max": (self.coord_max, 32),
            "eps_max": (self.eps_max, 8),
            "word_max": (self.word_max, 8),
            "c_max": (self.c_max, 6),
            "d_max": (self.d_max, 6),
        }
        for name, (value, cap) in limits.items():
            if check_int(value, name, 1) > cap:
                raise InvalidInputError(f"{name}={value} exceeds the cap {cap}")
        for d in self.delta_choices:
            if check_int(d, "delta choice", 1) > 16:
                raise InvalidInputError(f"delta choice {d} exceeds the cap 16")


DEFAULT_SIZES = SizeCaps()

INSTANCE_KINDS = ("zd2", "zd1", "free2", "shift", "compact1d", "c4")


@dataclass
class InstanceSpec:
    """A reproducible problem instance: action, sets, and budget."""

    kind: str
    seed: int
    space: object
    generators: list
    weighted_p: list = field(default_factory=list)  # [(point, eps)]
    q_points: list = field(default_factory=list)
    c_weighted: Optional[list] = None  # [(point, delta)] for compact instances
    d_points: Optional[list] = None
    budget: OrbitBudget = DEFAULT_BUDGET

    def action(self):
        return GeneratedAction(self.space, self.generators)

    def to_json(self):
        space = self.space
        out = {
            "kind": self.kind,
            "seed": self.seed,
            "space": space.to_json(),
            "generators": [g.to_json() for g in self.generators],
        }
        if self.c_weighted is None:
            out["P"] = weighted_to_json(space, self.weighted_p, "eps")
            out["Q"] = [space.point_to_json(p) for p in self.q_points]
        else:
            out["C"] = weighted_to_json(space, self.c_weighted, "delta")
            out["D"] = [space.point_to_json(p) for p in self.d_points]
        out["budget"] = self.budget.to_json()
        return out


def _distinct_points(count, space, rng, sizes):
    points = []
    seen = set()
    while len(points) < count:
        p = sample_point(space, rng, sizes.coord_max, sizes.word_max)
        if p not in seen:
            seen.add(p)
            points.append(p)
    return points


def _coord(rng, coord_max):
    return rng.below(2 * coord_max + 1) - coord_max


def _free_word(rng, rank, max_len):
    length = rng.below(max_len + 1)
    letters = [s for i in range(1, rank + 1) for s in (i, -i)]
    word = []
    for _ in range(length):
        options = [s for s in letters if not word or s != -word[-1]]
        word.append(rng.pick(options))
    return tuple(word)


def random_instance(kind, seed, sizes=None, budget=None):
    """Deterministically generate an instance from (kind, seed, sizes).

    The same arguments always yield a byte-identical instance.  Orbits of
    the generated actions are genuinely unbounded for every kind except
    "c4", the fixed negative control whose orbit is contained in Q.  A
    ``budget`` of None means the kind's default; any other is used as given.
    """
    sizes = sizes or DEFAULT_SIZES
    if budget is None:
        # compact1d: the enlarged obstacle set roughly doubles its 1-D spread
        # per recursion level, so the last escape can sit far outside the
        # default word-length window.
        budget = OrbitBudget(100000, 768) if kind == "compact1d" else DEFAULT_BUDGET
    rng = SplitMix64(seed)
    if kind in ("zd2", "zd1", "free2", "shift"):
        if kind == "free2":
            space = FreeSpace(2)
            gens = [LeftMultiplication((1,)), LeftMultiplication((2,))]
        elif kind == "shift":
            space = DiscreteShiftSpace()
            gens = [Shift()]
        else:
            dim = 2 if kind == "zd2" else 1
            space = ZdSpace(dim, "linf")
            gens = [
                Translation(tuple(1 if j == i else 0 for j in range(dim)))
                for i in range(dim)
            ]
        p_points = _distinct_points(1 + rng.below(sizes.p_max), space, rng, sizes)
        # Shift points all weigh 1: the discrete metric has no larger distance.
        weighted = [
            (p, Fraction(1 if kind == "shift" else 1 + rng.below(sizes.eps_max)))
            for p in p_points
        ]
        q_points = _distinct_points(1 + rng.below(sizes.q_max), space, rng, sizes)
        return InstanceSpec(kind, seed, space, gens, weighted, q_points, budget=budget)
    if kind == "compact1d":
        space = ZdSpace(1, "linf")
        gens = [Translation((1,))]
        c_points = _distinct_points(1 + rng.below(sizes.c_max), space, rng, sizes)
        c_weighted = [(c, Fraction(rng.pick(sizes.delta_choices))) for c in c_points]
        d_points = _distinct_points(1 + rng.below(sizes.d_max), space, rng, sizes)
        return InstanceSpec(
            kind,
            seed,
            space,
            gens,
            c_weighted=c_weighted,
            d_points=d_points,
            budget=budget,
        )
    if kind == "c4":
        # Fixed negative control: a 4-cycle rotated into itself, Q everything.
        space = FiniteGraphSpace(
            4, [[0, 1, 1], [1, 2, 1], [2, 3, 1], [3, 0, 1]]
        )
        gens = [VertexPermutation((1, 2, 3, 0))]
        weighted = [(0, Fraction(1))]
        q_points = [0, 1, 2, 3]
        return InstanceSpec(kind, seed, space, gens, weighted, q_points, budget=budget)
    raise InvalidInputError(f"unknown instance kind {kind!r}; have {INSTANCE_KINDS}")


@dataclass
class DifferentialReport:
    """Outcome of one solver-vs-oracle comparison."""

    status: str  # "ok" | "mismatch" | "budget-exhausted"
    problems: list
    instance: InstanceSpec
    certificate: object = None
    verdict: Optional[OracleVerdict] = None
    explored: int = 0

    def to_json(self):
        space = self.instance.space
        out = {
            "status": self.status,
            "problems": list(self.problems),
            "instance": self.instance.to_json(),
            "explored": self.explored,
        }
        if self.certificate is not None:
            out["certificate"] = certificate_to_json(space, self.certificate)
        if self.verdict is not None:
            out["oracle"] = {
                "best_word": list(self.verdict.best_word),
                "best_ratio": format_rational(self.verdict.best_ratio),
                "valid_count": len(self.verdict.valid_words),
                "explored": self.verdict.explored,
            }
        return out


def differential_check(instance, oracle_bound=8, certificate=None):
    """Run the solver and the oracle on one instance and cross-check them.

    Asserts that (a) the certificate re-verifies by direct recomputation
    (``check_certificate``: trace replay, and a ratio of at least 1/3), and
    (b) when the word is within the oracle bound, its image tuple is
    oracle-valid.  A stored certificate can be passed in to be checked
    instead of solving; it is checked before the oracle runs, so a malformed
    one is refused without the oracle's search.  The oracle runs even when
    the solver exhausts the instance's budget, so every report carries the
    oracle's verdict.
    """
    if instance.c_weighted is not None:
        raise InvalidInputError("differential_check expects a P/Q instance")
    check_int(oracle_bound, "max_word_length", 0)
    action = instance.action()
    stats = SearchStats()
    problems = []
    cert = certificate
    if cert is None:
        try:
            cert = separate_points(
                action, instance.weighted_p, instance.q_points, instance.budget, stats
            )
        except BudgetExhaustedError as exc:
            problems.append(str(exc))
    if cert is not None:
        problems.extend(
            check_certificate(action, instance.weighted_p, instance.q_points, cert)
        )
    verdict = brute_force_separate(
        action, instance.weighted_p, instance.q_points, oracle_bound
    )
    if cert is None:
        return DifferentialReport(
            "budget-exhausted", problems, instance, None, verdict, stats.points
        )
    if len(cert.word) <= oracle_bound:
        if not verdict.contains_word(action, instance.weighted_p, cert.word):
            problems.append(
                f"certificate word {list(cert.word)} (length {len(cert.word)}) "
                f"is not oracle-valid at bound {oracle_bound}"
            )
    status = "mismatch" if problems else "ok"
    return DifferentialReport(
        status, problems, instance, cert, verdict, explored=stats.points
    )


CSV_COLUMNS = (
    "kind",
    "seed",
    "p_size",
    "q_size",
    "cert_ratio",
    "oracle_best_ratio",
    "word_len",
    "explored",
    "status",
)


@dataclass
class ExperimentResult:
    csv_text: str
    rows: list
    min_ratio: object  # min certificate ratio over successful rows, or None


def ratio_experiment(kinds, n_instances, seed, budget=None, oracle_bound=8):
    """Measure achieved ratios over seeded instances; emit a CSV table.

    Generates n_instances total, cycling through the given P/Q kinds, each
    from a fresh sub-seed of the master seed so any row is replayable on its
    own.  Each row is one ``differential_check``, so its status is "ok",
    "mismatch" or "budget-exhausted"; none of them is a failure.  The
    aggregate minimum certificate ratio over rows with a certificate is
    returned alongside the CSV text (None when no row has one).
    """
    kinds = list(kinds)
    for kind in kinds:  # every kind is checked before the first row is solved
        if kind not in INSTANCE_KINDS:
            raise InvalidInputError(f"unknown kind {kind!r}; have {INSTANCE_KINDS}")
        if kind == "compact1d":  # C and D, not the P and Q a row compares
            raise InvalidInputError("differential_check expects a P/Q instance")
    check_int(n_instances, "n_instances", 1)
    if not kinds:
        raise InvalidInputError("at least one instance kind is required")
    master = SplitMix64(seed)
    rows = []
    min_ratio = None
    for i in range(n_instances):
        kind = kinds[i % len(kinds)]
        inst_seed = master.next_u64()
        instance = random_instance(kind, inst_seed, budget=budget)
        report = differential_check(instance, oracle_bound)
        cert = report.certificate
        rows.append(
            {
                "kind": kind,
                "seed": str(inst_seed),
                "p_size": str(len(instance.weighted_p)),
                "q_size": str(len(instance.q_points)),
                "cert_ratio": "" if cert is None else format_rational(cert.ratio),
                "oracle_best_ratio": format_rational(report.verdict.best_ratio),
                "word_len": "" if cert is None else str(len(cert.word)),
                "explored": str(report.explored),
                "status": report.status,
            }
        )
        if cert is not None and not is_inf(cert.ratio):
            if min_ratio is None or cert.ratio < min_ratio:
                min_ratio = cert.ratio
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(row[c] for c in CSV_COLUMNS))
    return ExperimentResult("\n".join(lines) + "\n", rows, min_ratio)


def sample_point(space, rng, coord_max=32, word_max=6):
    """Draw a deterministic pseudo-random point of any built-in space."""
    space = base_space(space)
    if isinstance(space, ZdSpace):
        return tuple(_coord(rng, coord_max) for _ in range(space.dim))
    if isinstance(space, FreeSpace):
        return _free_word(rng, space.rank, word_max)
    if isinstance(space, DiscreteShiftSpace):
        return _coord(rng, coord_max)
    if isinstance(space, FiniteGraphSpace):
        return rng.below(space.n)
    raise InvalidInputError(f"cannot sample points of {space.kind}")
