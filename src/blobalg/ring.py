"""Exact arithmetic for the coefficient ring Z[g, de][q, q^-1].

An element is a finite integer combination of monomials q^a * g^b * de^c,
where the q-exponent a may be negative while b and c are nonnegative.
The three symbols are the scalars produced by diagram reduction:

    q + q^-1   value of an undecorated closed loop (the quantum integer [2])
    g          value of a blob-decorated closed loop
    de         value extracted when a second blob lands on one line

Elements are immutable in value and hashable; all arithmetic returns new
values, so they may be shared freely between threads.  An element caches
its canonical text the first time it is printed; the memo is internal,
always the text of the element's terms, and never changes its value.  The
constructor is the only place that drops zero coefficients: arithmetic and
:func:`parse_scalar` hand it raw sums.

Every word image's scalar is a monomial ``[2]^a g^b de^c``.  An element
built by :func:`monomial` records its exponents (a, b, c), and the product
of two such elements is ``monomial`` of the summed exponents, a cached
lookup; any other product multiplies the terms.  The named constants
``one``, ``loop``, ``gamma`` and ``delta_e`` are such monomials, and
:func:`parse_scalar` returns the recorded monomial for its canonical text
(other texts come back unrecorded).  Equality, hashing and the text form
depend on the terms alone, so a recorded and an unrecorded element with the
same terms are equal.

Canonical string form: terms sorted by (q-exp, g-exp, de-exp), factors
written as ``g``, ``de``, ``q`` with ``^`` exponents, e.g. ``"q^-1 + q"``,
``"g*q^2"``, ``"2*de"``.  :func:`parse_scalar` reads the same grammar back;
spaces on either side of ``^`` are dropped (``q ^ -1`` is ``q^-1``) and a
sign after ``^`` belongs to the exponent.  Any other space inside a factor
is an error: ``2 q`` does not parse.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Dict, Tuple

from .words import quote  # words imports nothing of the package

Monomial = Tuple[int, int, int]  # (q-exponent, g-exponent, de-exponent)


class RingElem:
    """A sparse Laurent polynomial in q with polynomial g, de parts."""

    # _terms: (monomial, coeff) pairs sorted by monomial, none zero;
    # _exps: (a, b, c) when built by monomial(a, b, c), else None;
    # _text: the canonical text once printed, else None
    __slots__ = ("_terms", "_exps", "_text")

    def __init__(self, terms: Dict[Monomial, int] | None = None):
        clean: Dict[Monomial, int] = {}
        for (a, b, c), coeff in (terms or {}).items():
            if type(a) is not int or type(b) is not int or type(c) is not int:
                raise ValueError(f"exponents {(a, b, c)!r} are not integers")
            if type(coeff) is not int:
                raise ValueError(f"coefficient {coeff!r} is not an integer")
            if b < 0 or c < 0:
                raise ValueError("g and de exponents must be nonnegative")
            if coeff:
                clean[(a, b, c)] = coeff
        self._terms = tuple(sorted(clean.items()))
        self._exps = None
        self._text = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "RingElem":
        return cls()

    @classmethod
    def one(cls) -> "RingElem":
        return monomial(0, 0, 0)

    @classmethod
    def integer(cls, k: int) -> "RingElem":
        return cls({(0, 0, 0): k})

    @classmethod
    def q_power(cls, a: int = 1) -> "RingElem":
        return cls({(a, 0, 0): 1})

    @classmethod
    def gamma(cls) -> "RingElem":
        return monomial(0, 1, 0)

    @classmethod
    def delta_e(cls) -> "RingElem":
        return monomial(0, 0, 1)

    @classmethod
    def loop(cls) -> "RingElem":
        """The undecorated-loop scalar q + q^-1."""
        return monomial(1, 0, 0)

    # -- structure ---------------------------------------------------------

    @property
    def terms(self) -> Dict[Monomial, int]:
        return dict(self._terms)

    def is_one(self) -> bool:
        return self._terms == (((0, 0, 0), 1),)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RingElem):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self._terms)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "RingElem") -> "RingElem":
        if not isinstance(other, RingElem):
            return NotImplemented
        terms = dict(self._terms)
        for mono, coeff in other._terms:
            terms[mono] = terms.get(mono, 0) + coeff
        return RingElem(terms)

    def __neg__(self) -> "RingElem":
        return RingElem({m: -c for m, c in self._terms})

    def __sub__(self, other: "RingElem") -> "RingElem":
        return self + (-other)

    def __mul__(self, other: "RingElem") -> "RingElem":
        if not isinstance(other, RingElem):
            return NotImplemented
        if self._exps is not None and other._exps is not None:
            (a1, b1, c1), (a2, b2, c2) = self._exps, other._exps
            return monomial(a1 + a2, b1 + b2, c1 + c2)
        terms: Dict[Monomial, int] = {}
        for (a1, b1, c1), k1 in self._terms:
            for (a2, b2, c2), k2 in other._terms:
                mono = (a1 + a2, b1 + b2, c1 + c2)
                terms[mono] = terms.get(mono, 0) + k1 * k2
        return RingElem(terms)

    def __pow__(self, exponent: int) -> "RingElem":
        if exponent < 0:
            raise ValueError("only nonnegative powers are defined")
        result = RingElem.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- specialization ----------------------------------------------------

    def specialize(self, q0: int, g0: int, d0: int, p: int) -> int:
        """Evaluate at q=q0, g=g0, de=d0 in the prime field F_p.

        q0 must be invertible mod p since negative q-exponents occur.
        """
        if q0 % p == 0:
            raise ValueError("q must specialize to an invertible element")
        total = 0
        for (a, b, c), coeff in self._terms:
            val = coeff * pow(q0, a, p)
            if b:
                val *= pow(g0, b, p)
            if c:
                val *= pow(d0, c, p)
            total += val
        return total % p

    # -- text form ---------------------------------------------------------

    @staticmethod
    def _factor_str(mono: Monomial, coeff: int) -> str:
        a, b, c = mono
        factors = []
        if b:
            factors.append("g" if b == 1 else f"g^{b}")
        if c:
            factors.append("de" if c == 1 else f"de^{c}")
        if a:
            factors.append("q" if a == 1 else f"q^{a}")
        mag = abs(coeff)
        if mag != 1 or not factors:
            factors.insert(0, _decimal(mag))
        return "*".join(factors)

    def __str__(self) -> str:
        if self._text is None:
            parts = []
            for i, (mono, coeff) in enumerate(self._terms):
                body = self._factor_str(mono, coeff)
                if i == 0:
                    parts.append(body if coeff > 0 else "-" + body)
                else:
                    parts.append((" + " if coeff > 0 else " - ") + body)
            self._text = "".join(parts) or "0"
        return self._text

    def __repr__(self) -> str:
        return f"RingElem({str(self)!r})"


def _decimal(mag: int) -> str:
    """The decimal digits of `mag` >= 0.  Past int's int-to-str digit limit
    ``str`` refuses it, so it is split by a power of ten into two halves,
    each written the same way; the process's limit is left as it is."""
    try:
        return str(mag)
    except ValueError:
        pass
    half = mag.bit_length() * 3 // 20  # about half its digits: log10(2) > 0.3
    high, low = divmod(mag, 10 ** half)
    return _decimal(high) + _decimal(low).zfill(half)


@lru_cache(maxsize=1024)
def monomial(a: int, b: int, c: int) -> RingElem:
    """[2]^a g^b de^c, [2] = q + q^-1, from binomial coefficients alone,
    each the one before it times (a - k) / (k + 1), so the row costs about
    a times its widest coefficient.  The result records (a, b, c), so
    products of monomials add exponents."""
    if a < 0 or b < 0 or c < 0:
        raise ValueError(f"monomial exponents {(a, b, c)} must be nonnegative")
    terms, binom = {}, 1
    for k in range(a + 1):
        terms[a - 2 * k, b, c] = binom
        binom = binom * (a - k) // (k + 1)
    elem = RingElem(terms)
    elem._exps = (a, b, c)
    return elem


def _digits(what: str, digits: str, text: str) -> int:
    """The int of `digits`, ASCII digits with an optional sign; past int's
    digit limit, a ValueError naming `what` and the scalar `text`."""
    try:
        return int(digits)
    except ValueError:
        raise ValueError(f"{what} {quote(digits)} has too many digits in scalar {quote(text)}") from None


def _read_term(sign: str, piece: str, text: str) -> Tuple[Monomial, int]:
    """One term of a scalar: its sign and its ``*``-joined factors, read
    into (monomial, coefficient).  Digits are ASCII only, as ``int`` and
    ``\\d`` would also take other scripts' digits.  ``text`` is the whole
    scalar, named in error messages."""
    coeff = -1 if sign == "-" else 1
    exps = {"q": 0, "g": 0, "de": 0}
    for factor in piece.split("*"):
        factor = factor.strip()
        if not factor:
            raise ValueError(f"malformed scalar {quote(text)}")
        if factor.isascii() and factor.isdigit():
            coeff *= _digits("coefficient", factor, text)
            continue
        sym, caret, exp_s = factor.partition("^")
        if sym not in exps:
            raise ValueError(f"unknown symbol {quote(sym)} in scalar {quote(text)}")
        if caret and not re.fullmatch(r"[+-]?[0-9]+", exp_s):
            raise ValueError(f"{sym} exponent {quote(exp_s)} is not an integer in scalar {quote(text)}")
        exp = _digits(f"{sym} exponent", exp_s, text) if caret else 1
        if exp < 0 and sym != "q":
            raise ValueError(f"{sym} exponent must be nonnegative")
        exps[sym] += exp
    return (exps["q"], exps["g"], exps["de"]), coeff


def _strip_spaces(text: str) -> str:
    r"""The text stripped and with the whitespace on either side of each
    ``^`` removed, as ``re.sub(r"\s*\^\s*", "^", text.strip())`` gives it,
    in time linear in the text: that regex retries a whitespace run from
    each of its positions."""
    return "^".join(piece.strip() for piece in text.strip().split("^"))


def parse_scalar(text: str) -> RingElem:
    """Parse the canonical string form back into an element.

    Grammar: sum of terms joined by + and -, each term a * product of an
    optional integer and symbol factors q, g, de with optional ^exponent
    (negative allowed on q only).  Spaces around ``^`` are dropped and a
    sign after it belongs to the exponent: ``q ^ -1`` is ``q^-1``.

    A text that is the canonical text of ``monomial(a, b, c)`` once
    stripped and with ``^`` spacing dropped returns that recorded monomial.
    Its first term has coefficient 1 and exponents (-a, b, c), it has
    exactly ``a + 1`` terms, and its binomial coefficients make it longer
    than ``a * a / 8`` characters.  The monomial is built only when the text
    holds ``a`` separators `` + `` and is that long, so the work stays
    bounded by the text.  Every other text is read term by term, and a
    coefficient or exponent in it past int's digit limit is refused.
    """
    s = _strip_spaces(text)
    if not s:
        raise ValueError("empty scalar")
    parts = re.split(r"(?<!\^)([+-])", s if s[0] in "+-" else "+" + s)[1:]
    pieces = zip(parts[::2], parts[1::2])
    mono, coeff = _read_term(*next(pieces), text)
    a = -mono[0]
    if coeff == 1 and a >= 0 and a * a <= 8 * len(s) and s.count(" + ") == a:
        elem = monomial(a, mono[1], mono[2])
        if str(elem) == s:
            return elem
    terms: Dict[Monomial, int] = {mono: coeff}
    for sign, piece in pieces:
        mono, coeff = _read_term(sign, piece, text)
        terms[mono] = terms.get(mono, 0) + coeff
    return RingElem(terms)
