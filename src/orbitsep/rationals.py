"""Exact rational values and their string serialization.

Every correctness-relevant quantity in the package is an ``int`` or a
``fractions.Fraction``; the two mix exactly under arithmetic and comparison.
The single non-finite value is ``INF``, used as the distance between a point
set and the empty set (and as the ratio of an empty certificate).  ``INF`` is
``math.inf``, which compares exactly against any rational; it is never used in
arithmetic.

Code that only compares ratios (``evaluate_word``, the oracle's ``rate``)
keeps each as an integer pair and compares pairs by cross-multiplying.

``parse_rational`` decodes an integer literal (``"n"`` or ``"-n"``) to an
``int`` and every other literal to a ``Fraction``; the two compare, hash and
format alike, so which one a decoded value is changes no output.
"""

import math
import re
from fractions import Fraction

from .errors import InvalidInputError

INF = math.inf
# The one literal grammar (parse_rational reads its integer literals without
# it); Python's 4300-digit int limit bounds each literal.
_LITERAL = re.compile(r"-?[0-9]+(/[0-9]+)?")
_EXACT = (Fraction, int)
# A refused literal is echoed up to this many characters, then its length.
_SHOWN = 40


def is_inf(x):
    return x == INF


def check_int(x, what, minimum=None):
    """``x`` once it is an int, not a bool, and at least ``minimum`` if given."""
    exact = type(x) is int or isinstance(x, int) and not isinstance(x, bool)
    if not exact or (minimum is not None and x < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise InvalidInputError(f"{what} must be an int{bound}, got {x!r}")
    return x


def check_positive(x, what):
    """``x`` once it is a positive int or Fraction: not a bool, a float or INF."""
    exact = type(x) in _EXACT or isinstance(x, _EXACT) and not isinstance(x, bool)
    if not exact or x.numerator <= 0:  # a Fraction's denominator is positive
        shown = x if exact else repr(x)  # "3/2", not "Fraction(3, 2)"
        raise InvalidInputError(f"{what} must be a positive rational, got {shown}")
    return x


def parse_rational(value):
    """Parse ``"p/q"``, ``"n"`` (either with an optional ``-``), ``"inf"``, or
    an int or Fraction into an exact value.

    An integer literal of ASCII digits decodes straight to an ``int``; every
    other string goes through the literal grammar and decodes to a
    ``Fraction``.  An int or Fraction argument decodes to a ``Fraction``.
    """
    if isinstance(value, str):  # before the other tests: most literals are ints
        digits = value[1:] if value[:1] == "-" else value
        if digits.isdigit() and digits.isascii():
            try:
                return int(value)
            except ValueError as exc:  # past the int-string digit limit
                raise _bad_literal(value) from exc
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
            raise _bad_literal(value)
        num, slash, den = value.partition("/")
        try:
            return Fraction(int(num), int(den)) if slash else Fraction(int(num))
        except (ValueError, ZeroDivisionError) as exc:
            raise _bad_literal(value) from exc
    raise InvalidInputError(f"expected a rational, got {type(value).__name__}")


def _bad_literal(value):
    if len(value) <= _SHOWN:
        return InvalidInputError(f"bad rational literal {value!r}")
    shown = value[:_SHOWN] + "…"
    return InvalidInputError(
        f"bad rational literal {shown!r} ({len(value)} characters)"
    )


def format_rational(x):
    """Serialize an exact value as ``"p/q"``, ``"n"``, or ``"inf"``."""
    if is_inf(x):
        return "inf"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        return str(x)
    raise InvalidInputError(f"not an exact rational: {x!r}")
