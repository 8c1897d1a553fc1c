"""Constructive separation of finite point sets under isometric group actions.

The library models groups of isometries as word algebras over explicit
generators, explores orbits breadth-first under explicit budgets, and
produces exact, replayable certificates that a group element moves a
weighted finite set P at least eps_p/3 away from a finite set Q — together
with the compact-set, discrete-metric, and sequence variants, brute-force
oracles, and a seeded experiment harness.  All arithmetic is exact rational.
"""

from .actions import (
    DEFAULT_BUDGET,
    GeneratedAction,
    LeftMultiplication,
    OrbitBudget,
    OrbitWalk,
    SearchStats,
    Shift,
    Translation,
    VertexPermutation,
    find_escape,
    generator_from_json,
    orbit_stream,
    separated_family,
    verify_isometry,
)
from .errors import (
    BudgetExhaustedError,
    InvalidInputError,
    NotIsometricError,
    OrbitsepError,
    TraceReplayError,
)
from .oracle import (
    InstanceSpec,
    OracleVerdict,
    SizeCaps,
    SplitMix64,
    brute_force_separate,
    differential_check,
    random_instance,
    ratio_experiment,
    sample_point,
)
from .rationals import INF, format_rational, is_inf, parse_rational
from .separation import (
    CompactSeparationResult,
    LevelTrace,
    SeparationCertificate,
    certificate_from_json,
    certificate_to_json,
    check_certificate,
    evaluate_word,
    full_existence_step,
    replay_trace,
    separate_compact,
    separate_discrete,
    separate_points,
    separated_sequence,
    trace_from_json,
    trace_to_json,
)
from .spaces import (
    DiscreteAdapterSpace,
    DiscreteShiftSpace,
    FiniteGraphSpace,
    FreeSpace,
    ScaledSpace,
    ZdSpace,
    first_within,
    greedy_epsilon_net,
    set_distance,
    space_from_json,
    validate_metric,
    word_from_string,
    word_to_string,
)
from .words import IDENTITY, compose, invert, reduce_word

__version__ = "0.1.0"
