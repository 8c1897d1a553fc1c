"""Reduced words over signed letters.

A word is a tuple of nonzero ints: ``+i`` is letter ``i``, ``-i`` its formal
inverse, and the empty tuple is the identity.  All functions keep words
reduced (no adjacent ``+i, -i`` pair).
"""

from .errors import InvalidInputError
from .rationals import check_int

IDENTITY = ()


def check_word(letters):
    """The letters as a tuple, as given, once each is checked to be a nonzero int.

    A word of exact ints passes in one pass over its types; the per-letter
    loop runs only when some letter is not, to raise or to accept an int
    subclass that is not a bool.
    """
    word = tuple(letters)
    if {*map(type, word)} <= {int} and 0 not in word:
        return word
    for s in word:
        if check_int(s, "word letter") == 0:
            raise InvalidInputError("word letter must be nonzero, got 0")
    return word


def reduce_word(letters):
    """Reduce an arbitrary letter sequence to a reduced word."""
    out = []
    for s in check_word(letters):
        if out and out[-1] == -s:
            out.pop()
        else:
            out.append(s)
    return tuple(out)


def compose(u, v):
    """Concatenate two reduced words, cancelling at the seam.

    When either word is empty or ``u``'s last letter does not undo ``v``'s
    first, nothing cancels and the result is ``u + v`` at once.
    """
    if not u or not v or u[-1] != -v[0]:
        return u + v
    i = len(u) - 1
    j = 1
    n = len(v)
    while i > 0 and j < n and u[i - 1] == -v[j]:
        i -= 1
        j += 1
    return u[:i] + v[j:]


def invert(w):
    """Reverse and negate a reduced word."""
    return tuple(-s for s in reversed(w))
