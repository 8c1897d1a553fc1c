"""Exact rational values and their string serialization.

Every correctness-relevant quantity in the package is an ``int`` or a
``fractions.Fraction``; the two mix exactly under arithmetic and comparison.
The single non-finite value is ``INF``, used as the distance between a point
set and the empty set (and as the ratio of an empty certificate).  ``INF`` is
``math.inf``, which compares exactly against any rational; it is never used in
arithmetic.
"""

import math
import re
from fractions import Fraction

from .errors import InvalidInputError

INF = math.inf
# The one literal grammar; Python's 4300-digit int limit bounds each literal.
_LITERAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def is_inf(x):
    return x == INF


def check_int(x, what, minimum=None):
    """``x`` once it is an int, not a bool, and at least ``minimum`` if given."""
    if not isinstance(x, int) or isinstance(x, bool) or (
        minimum is not None and x < minimum
    ):
        bound = "" if minimum is None else f" >= {minimum}"
        raise InvalidInputError(f"{what} must be an int{bound}, got {x!r}")
    return x


def check_positive(x, what):
    """``x`` once it is a positive int or Fraction: not a bool, a float or INF."""
    exact = isinstance(x, (int, Fraction)) and not isinstance(x, bool)
    if not exact or x <= 0:
        shown = x if exact else repr(x)  # "3/2", not "Fraction(3, 2)"
        raise InvalidInputError(f"{what} must be a positive rational, got {shown}")
    return x


def parse_rational(value):
    """Parse ``"p/q"``, ``"n"`` (either with an optional ``-``), ``"inf"``, or
    an int or Fraction into an exact value."""
    if value == "inf":
        return INF
    if isinstance(value, bool):
        raise InvalidInputError("expected a rational, got a bool")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        if not _LITERAL.fullmatch(value):
            raise InvalidInputError(f"bad rational literal {value!r}")
        num, _, den = value.partition("/")
        try:
            return Fraction(int(num), int(den or 1))
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInputError(f"bad rational literal {value!r}") from exc
    raise InvalidInputError(f"expected a rational, got {type(value).__name__}")


def format_rational(x):
    """Serialize an exact value as ``"p/q"``, ``"n"``, or ``"inf"``."""
    if is_inf(x):
        return "inf"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        return str(x)
    raise InvalidInputError(f"not an exact rational: {x!r}")


def ratio_of(dist, eps):
    """Exact ``dist / eps``; INF distances give an INF ratio."""
    if is_inf(dist):
        return INF
    return Fraction(dist) / Fraction(eps)
