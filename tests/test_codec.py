"""The certificate codec: literal and word decoding, and round trips.

``parse_rational`` decodes an ASCII integer literal straight to an ``int``
and ``check_word`` passes a word of exact nonzero ints in one pass over its
types.  These tests hold both fast paths to the slow path they skip: the
literal grammar, and the letter-by-letter check.
"""

import json
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import orbitsep as O
from orbitsep.errors import InvalidInputError
from orbitsep.rationals import check_int, parse_rational
from orbitsep.words import check_word

_GRAMMAR = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _refusal(value):
    if len(value) <= 40:
        return f"bad rational literal {value!r}"
    return f"bad rational literal {value[:40] + '…'!r} ({len(value)} characters)"


def _by_grammar(value):
    """A string literal decoded by the grammar alone, with its messages."""
    if value == "inf":
        return O.INF
    if not _GRAMMAR.fullmatch(value):
        raise InvalidInputError(_refusal(value))
    num, slash, den = value.partition("/")
    try:
        return Fraction(int(num), int(den)) if slash else Fraction(int(num))
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInputError(_refusal(value)) from exc


def _outcome(decode, value):
    try:
        return "ok", decode(value)
    except InvalidInputError as exc:
        return "refused", str(exc)


@settings(max_examples=300, deadline=None)
@given(
    st.booleans(),
    st.integers(0, 3),
    st.text(alphabet="0123456789", min_size=1, max_size=4300),
)
@example(True, 0, "0")
@example(False, 3, "0")
@example(False, 0, "9" * 4300)
@example(True, 0, "1" + "0" * 4299)
def test_integer_literal_decodes_to_the_grammars_int(negative, zeros, digits):
    value = "-" * negative + ("0" * zeros + digits)[-4300:]
    got = parse_rational(value)
    assert type(got) is int
    assert got == _by_grammar(value)


@pytest.mark.parametrize(
    "value",
    ["+3", " 3", "3 ", "٣", "１", "²", "-²", "3.0", "-", "", "--3", "3-", "9" * 4301, "-" + "9" * 4301],
    ids=lambda v: v if len(v) < 10 else f"{len(v)} chars",
)
def test_near_miss_integer_literal_is_refused_as_before(value):
    with pytest.raises(InvalidInputError) as got:
        parse_rational(value)
    assert str(got.value) == _refusal(value)
    assert _outcome(_by_grammar, value) == ("refused", _refusal(value))


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="0123456789-+/ .٣１²inf", max_size=12))
def test_every_string_decodes_as_the_grammar_does(value):
    assert _outcome(parse_rational, value) == _outcome(_by_grammar, value)


class _Letter(int):
    """An int subclass that is not a bool: a letter check_int accepts."""


def _letter_by_letter(letters):
    """check_word's per-letter loop alone."""
    word = tuple(letters)
    for s in word:
        if check_int(s, "word letter") == 0:
            raise InvalidInputError("word letter must be nonzero, got 0")
    return word


@pytest.mark.parametrize(
    "letters, message",
    [
        ([1, True], "word letter must be an int, got True"),
        ([False], "word letter must be an int, got False"),
        ([2, 1.0], "word letter must be an int, got 1.0"),
        ([1, 0, -1], "word letter must be nonzero, got 0"),
        ([_Letter(0)], "word letter must be nonzero, got 0"),
        ([1] * 10**5 + [0], "word letter must be nonzero, got 0"),
    ],
    ids=["true", "false", "float", "zero", "zero-subclass", "long-zero"],
)
def test_bad_letter_is_refused_as_before(letters, message):
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        check_word(letters)


def test_word_is_returned_as_given():
    long = tuple(range(1, 10**5 + 1))
    assert check_word(list(long)) == long
    assert check_word([]) == ()
    word = check_word([1, _Letter(2)])
    assert word == (1, 2) and type(word[1]) is _Letter


_LETTERS = st.one_of(
    st.integers(-3, 3),
    st.integers(),
    st.sampled_from([True, False, 1.0, -2.0, _Letter(2), _Letter(0)]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_LETTERS, max_size=8))
def test_check_word_matches_the_letter_by_letter_check(letters):
    assert _outcome(check_word, letters) == _outcome(_letter_by_letter, letters)


_Z_RESTART = ([((0,), 3), ((50,), 3), ((100,), 3)], [(8,), (47,), (51,), (101,), (105,)])


def _z(norm):
    return O.GeneratedAction(O.ZdSpace(1, norm), [O.Translation((1,))])


ROUND_TRIP_CASES = {
    "z-l1": (_z("l1"), *_Z_RESTART, O.OrbitBudget(10000, 6)),
    "z-linf": (_z("linf"), *_Z_RESTART, O.OrbitBudget(10000, 6)),
    "free2": (
        O.GeneratedAction(
            O.FreeSpace(2), [O.LeftMultiplication((1,)), O.LeftMultiplication((2,))]
        ),
        [((), 2), ((1,), 2)],
        [(), (2,), (1, 2)],
        O.OrbitBudget(3000, 12),
    ),
    "shift": (
        O.GeneratedAction(O.DiscreteShiftSpace(), [O.Shift()]),
        [(0, 1), (1, 1), (7, 1)],
        [0, 1, 5],
        O.DEFAULT_BUDGET,
    ),
    "scaled-z": (
        O.GeneratedAction(
            O.ScaledSpace(O.ZdSpace(1, "l1"), Fraction(2)), [O.Translation((1,))]
        ),
        [(p, 2 * w) for p, w in _Z_RESTART[0]],
        _Z_RESTART[1],
        O.OrbitBudget(10000, 6),
    ),
    "c4": (
        O.GeneratedAction(
            O.FiniteGraphSpace(4, [[0, 1, 1], [1, 2, 1], [2, 3, 1], [3, 0, 1]]),
            [O.VertexPermutation((1, 2, 3, 0))],
        ),
        [(0, 1), (2, 1)],
        [0],
        O.DEFAULT_BUDGET,
    ),
}


@pytest.mark.parametrize("kind", ROUND_TRIP_CASES)
def test_certificate_round_trip_on_every_space_kind(kind):
    """A decoded certificate equals the solver's, re-encodes to the same
    bytes and checks clean, although every integer-valued weight and
    distance the solver holds as a Fraction decodes to an int."""
    action, weighted, q_points, budget = ROUND_TRIP_CASES[kind]
    weighted = [(p, Fraction(w)) for p, w in weighted]
    space = action.space
    cert = O.separate_points(action, weighted, q_points, budget)
    text = json.dumps(O.certificate_to_json(space, cert))
    back = O.certificate_from_json(space, json.loads(text))
    assert back == cert
    assert json.dumps(O.certificate_to_json(space, back)) == text
    assert {type(level.eps) for level in cert.trace} == {Fraction}
    assert {type(level.eps) for level in back.trace} == {int}
    if kind == "scaled-z":
        assert {type(d) for _, d in cert.achieved} == {Fraction}
        assert {type(d) for _, d in back.achieved} == {int}
    decoded = [(p, parse_rational(O.format_rational(w))) for p, w in weighted]
    assert O.check_certificate(action, weighted, q_points, back) == []
    assert O.check_certificate(action, decoded, q_points, back) == []
