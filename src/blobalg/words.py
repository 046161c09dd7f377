"""Words in the blob algebra generator alphabet {e, U_1, ..., U_{n-1}}.

Letters are stored as ints: 0 is the blob generator e (``U0`` is accepted
as an input alias), i >= 1 is U_i.  A word carries its ambient strand
count n and validates every letter against it; n and every letter must be
an ``int`` (``bool`` excluded), never truncated.  The empty word is the
algebra unit and prints as ``"1"``.  Text form is whitespace separated,
e.g. ``"e U1 e U2 U1"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Tuple

_INT = frozenset({int})  # the one type a strand count or letter may have, bool excluded
_QUOTED = 24  # characters of a token an error message quotes


def quote(token: str) -> str:
    """The token as ``repr`` writes it, or its first ``_QUOTED`` characters
    and its length when it is longer, so an error line naming a token stays
    short whatever the input."""
    if len(token) <= _QUOTED:
        return repr(token)
    return f"{token[:_QUOTED]!r}... ({len(token)} characters)"


@dataclass(frozen=True)
class Word:
    n: int
    letters: Tuple[int, ...] = ()

    def __post_init__(self):
        if type(self.n) is not int:
            raise ValueError(f"strand count {self.n!r} is not an integer")
        if self.n < 0:
            raise ValueError("strand count must be nonnegative")
        letters = tuple(self.letters)
        if not _INT.issuperset(map(type, letters)):
            bad = next(x for x in letters if type(x) is not int)
            raise ValueError(f"letter {bad!r} is not an integer")
        object.__setattr__(self, "letters", letters)
        if letters and (min(letters) < 0 or max(letters) >= self.n):
            for letter in letters:
                if letter == 0:
                    if self.n < 1:
                        raise ValueError("e needs at least one strand")
                elif not 1 <= letter <= self.n - 1:
                    raise ValueError(f"U{letter} out of range for n={self.n}")

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return concat(self, other)

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        return " ".join("e" if x == 0 else f"U{x}" for x in self.letters)

    def with_n(self, n: int) -> "Word":
        """The same letter sequence viewed in ambient strand count n."""
        return Word(n, self.letters)


def unit(n: int) -> Word:
    return Word(n)


def gen_e(n: int) -> Word:
    return Word(n, (0,))


def gen_u(n: int, i: int) -> Word:
    return Word(n, (i,))


def concat(u: Word, v: Word) -> Word:
    """u followed by v.  Two valid words on the same n concatenate to a
    valid word, so the result skips the letter validation."""
    if u.n != v.n:
        raise ValueError(f"strand counts differ: {u.n} vs {v.n}")
    w = object.__new__(Word)
    object.__setattr__(w, "n", u.n)
    object.__setattr__(w, "letters", u.letters + v.letters)
    return w


def opposite(w: Word) -> Word:
    """Letter reversal, the word form of the opposite anti-isomorphism."""
    return Word(w.n, tuple(reversed(w.letters)))


@lru_cache(maxsize=64)
def _canonical_letters(n: int) -> Dict[str, int]:
    """The letter of each canonical token on n strands: ``e`` and ``U0`` to
    ``U{n-1}``."""
    letters = {f"U{i}": i for i in range(n)}
    letters["e"] = 0
    return letters


def parse_word(text: str, n: int) -> Word:
    """The word of whitespace-separated tokens ``e`` and ``U<digits>``; any
    token but a canonical one is read by its digits, and Word checks range.
    An error names its token by at most a short prefix (`quote`)."""
    tokens = text.split()
    if tokens == ["1"] or not tokens:
        return Word(n)
    canonical = _canonical_letters(n) if type(n) is int else {}  # Word names a bad n
    letters = []
    for tok in tokens:
        letter = canonical.get(tok)
        if letter is not None:
            letters.append(letter)
        elif tok == "e":
            letters.append(0)
        elif tok.startswith("U") and tok[1:].isascii() and tok[1:].isdigit():
            digits = tok[1:].lstrip("0") or "0"
            # a long index past n is named by its start (Word would print all
            # of it), and int() refuses a few thousand digits
            if len(tok) > _QUOTED and type(n) is int and len(digits) > len(str(n)):
                raise ValueError(f"letter {quote(tok)} out of range for n={n}")
            letters.append(int(digits))
        else:
            raise ValueError(f"bad word token {quote(tok)}")
    return Word(n, tuple(letters))


def descending_run(i: int, j: int, n: int) -> Word:
    """U_i U_{i-1} ... U_j, or the empty word when i < j."""
    if i < j:
        return Word(n)
    return Word(n, tuple(range(i, j - 1, -1)))


def skip_run(i: int, j: int, n: int) -> Word:
    """U_i U_{i-2} ... U_j in steps of two; empty unless i-j is in 2N."""
    if i < j or (i - j) % 2 != 0:
        return Word(n)
    return Word(n, tuple(range(i, j - 1, -2)))


def ascending_run(i: int, j: int, n: int) -> Word:
    """U_i U_{i+1} ... U_j, or the empty word when i > j."""
    if i > j:
        return Word(n)
    return Word(n, tuple(range(i, j + 1)))


def _check_weight(m: int, n: int) -> None:
    if m < 0 or m > n or (n - m) % 2 != 0:
        raise ValueError(f"weight m={m} invalid for n={n} (need 0 <= m <= n, m = n mod 2)")


def cap_word(m: int, n: int) -> Word:
    """U_1 U_3 ... U_{n-m-1}: the canonical word with m through-lines."""
    _check_weight(m, n)
    return Word(n, tuple(range(1, n - m, 2)))


def cap_word_right(m: int, n: int) -> Word:
    """U_{n-1} U_{n-3} ... U_{m+1}: caps packed against the right edge."""
    _check_weight(m, n)
    return Word(n, tuple(range(n - 1, m, -2)))


def blob_cap_word(m: int, n: int) -> Word:
    """cap_word followed by e U_2 U_4 ... U_{n-m} and cap_word again.

    The canonical word with m through-lines, the first of them blobbed.
    Defined for m > 0 only.
    """
    _check_weight(m, n)
    if m <= 0:
        raise ValueError("blob_cap_word needs m > 0")
    caps = cap_word(m, n)
    middle = Word(n, (0,) + tuple(range(2, n - m + 1, 2)))
    return caps * middle * caps
