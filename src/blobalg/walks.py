"""Pascal-triangle walks and the walk-to-word map.

A walk of length n is its weight sequence (0, s_1, ..., s_n) with unit
steps.  Each edge maps to a word: steps away from weight zero contribute
nothing, a step from (lvl, 0) up to +1 contributes e followed by the two
even/odd skip runs down from U_lvl, and a step toward zero contributes
the full descending run U_lvl ... U_1 (standard form) or the truncated
run stopping at U_{lvl-|m|+1} (variant form, never longer, equal in the
algebra).  The word of a walk is the left-to-right product of its edge
words.

``factor_walk_words`` splits each walk word as prefix * tail where the
tail is cap_word(|m|, n) for m <= 0 and blob_cap_word(m, n) for m > 0;
every emitted factorization is verified in the diagram algebra (one that
is not raises; ``check_walk_suite`` fails a check naming its walk instead).

A weight no walk of length n reaches (|m| > n, or m of the wrong parity)
raises ``ValueError``, as does a negative length.

The word bases are built from the factorizations: ``squared_basis(n, m)``
is every a * tail * opposite(b) over the prefixes a, b of weight m, and
``regular_basis(n)`` is their union over m, C(2n, n) words spanning b_n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import List, Optional, Tuple

from .presentation import is_reduced, phi_equal
from .reports import Report
from .words import (
    Word,
    blob_cap_word,
    cap_word,
    descending_run,
    gen_e,
    gen_u,
    opposite,
    quote,
    skip_run,
    unit,
)


@dataclass(frozen=True)
class Walk:
    sigma: Tuple[int, ...]

    def __post_init__(self):
        sigma = tuple(self.sigma)
        for x in sigma:
            if type(x) is not int:
                raise ValueError(f"weight {x!r} is not an integer")
        object.__setattr__(self, "sigma", sigma)
        if not self.sigma or self.sigma[0] != 0:
            raise ValueError("weight sequence must start at 0")
        for a, b in zip(self.sigma, self.sigma[1:]):
            if abs(a - b) != 1:
                raise ValueError("weights must move by one per step")

    @property
    def length(self) -> int:
        return len(self.sigma) - 1

    @property
    def weight(self) -> int:
        return self.sigma[-1]

    def __str__(self) -> str:
        return ",".join(str(x) for x in self.sigma)


def parse_walk(text: str) -> Walk:
    """Comma-separated weights; each is an ASCII integer, spaces and sign
    allowed.  ``int`` reads the bytes, as on a str it would also take other
    scripts' digits."""
    weights = []
    for tok in text.split(","):
        try:
            weights.append(int(tok.encode("ascii")))
        except ValueError:  # UnicodeEncodeError included
            raise ValueError(f"weight {quote(tok)} is not an integer "
                             f"in walk {quote(text)}") from None
    return Walk(tuple(weights))


def all_walks(n: int, m: Optional[int] = None) -> List[Walk]:
    """All weight sequences of length n (optionally ending at weight m),
    in lexicographic order on sigma."""
    if n < 0:
        raise ValueError("walk length must be nonnegative")
    if m is not None and (abs(m) > n or (n - m) % 2 != 0):
        raise ValueError(f"no walks of length {n} reach weight {m}")
    walks: List[Tuple[int, ...]] = [(0,)]
    for _ in range(n):
        walks = [w + (w[-1] + step,) for w in walks for step in (-1, 1)]
    out = [Walk(w) for w in walks]
    if m is not None:
        out = [w for w in out if w.weight == m]
    return out


@lru_cache(maxsize=1 << 12)
def edge_word(edge: Tuple[Tuple[int, int], Tuple[int, int]], variant: bool = False,
              n: Optional[int] = None) -> Word:
    """The word attached to one Pascal-triangle edge.

    The edge runs from (lvl, a) to (lvl+1, b) with |a-b| = 1.  Edges
    leaving weight 0 always use the blob rule (up) or the empty rule
    (down), never the away-from-zero rule.
    """
    (lvl, a), (lvl2, b) = edge
    if lvl2 != lvl + 1 or abs(a - b) != 1:
        raise ValueError(f"not a Pascal edge: {edge}")
    ambient = n if n is not None else lvl + 1
    if a == 0:
        if b == 1:
            return gen_e(ambient) * skip_run(lvl, 2, ambient) * skip_run(lvl - 1, 1, ambient)
        return unit(ambient)
    if abs(b) > abs(a):
        return unit(ambient)
    if variant:
        return descending_run(lvl, lvl - abs(b), ambient)
    return descending_run(lvl, 1, ambient)


def path_word(p: Walk, variant: bool = False) -> Word:
    """The left-to-right product of the edge words of p, in ambient n.
    Built once per walk and variant: the walk, diamond, word-basis and
    module suites all ask for the same words."""
    return _path_word(p, bool(variant))


@lru_cache(maxsize=1 << 13)
def _path_word(p: Walk, variant: bool) -> Word:
    n = p.length
    w = unit(n)
    for i in range(n):
        w = w * edge_word(((i, p.sigma[i]), (i + 1, p.sigma[i + 1])), variant=variant, n=n)
    return w


def walk_words(n: int, m: int, variant: bool = False) -> List[Word]:
    """The word set attached to walks from (0,0) to (n,m), in walk order."""
    return [path_word(p, variant=variant) for p in all_walks(n, m)]


def tail_word(m: int, n: int) -> Word:
    """The canonical tail of weight-m walk words: caps, blobbed when m > 0."""
    return blob_cap_word(m, n) if m > 0 else cap_word(-m, n)


def factor_walk_words(n: int, m: int) -> List[Tuple[Word, Word]]:
    """Factor each weight-m walk word as (prefix, tail).

    First tries literal suffix matching on the variant-form word; otherwise
    rebuilds the prefix by the edge recursion (away-from-zero edges keep the
    prefix, toward-zero edges append the truncated run, the blob edge is
    absorbed into the tail).  Every factorization is verified exactly in
    the diagram algebra; failure to verify is a programming error and
    raises AssertionError.
    """
    walks = all_walks(n, m)
    tail = tail_word(m, n)
    out = []
    for p in walks:
        prefix = _prefix(p, path_word(p), path_word(p, variant=True), tail)
        if prefix is None:
            raise AssertionError(f"factorization failed for walk {p}")
        out.append((prefix, tail))
    return out


def _prefix(p: Walk, word: Word, variant_word: Word, tail: Word) -> Optional[Word]:
    """The prefix before `tail` of p's variant word, else of the edge
    recursion; None unless `word` equals prefix * tail in the algebra."""
    prefix = _literal_prefix(variant_word, tail)
    if prefix is None:
        prefix = _recursive_prefix(p)
    return prefix if phi_equal(word, prefix * tail) else None


def _literal_prefix(word: Word, tail: Word) -> Optional[Word]:
    k = len(tail.letters)
    if k == 0:
        return word
    if word.letters[len(word.letters) - k:] == tail.letters:
        return Word(word.n, word.letters[: len(word.letters) - k])
    return None


def _recursive_prefix(p: Walk) -> Word:
    # Invariant: after edge i the walk word so far is prefix * tail(i+1, b)
    # in the algebra.  Away-from-zero edges and the blob edge only upgrade
    # the tail; the step from +1 down to 0 releases the blobbed middle of
    # the tail into the prefix; other toward-zero steps release a short
    # descending run.
    n = p.length
    prefix = unit(n)
    for i in range(n):
        a, b = p.sigma[i], p.sigma[i + 1]
        if a == 1 and b == 0:
            prefix = prefix * cap_word(1, i).with_n(n) * gen_e(n) \
                * Word(n, tuple(range(2, i, 2)))
        elif a != 0 and abs(b) < abs(a):
            prefix = prefix * descending_run(i, i + 1 - abs(b), n)
    return prefix


# -- squared basis and the regular basis --------------------------------------


@dataclass(frozen=True)
class SquaredBasis:
    """Words a * middle * opposite(b) over the walk-word prefixes to (n, m)."""

    n: int
    m: int
    prefixes: Tuple[Word, ...]
    middle: Word
    words: Tuple[Word, ...]  # row-major: row = b, column = a

    def grid(self) -> List[List[Word]]:
        k = len(self.prefixes)
        return [list(self.words[r * k: (r + 1) * k]) for r in range(k)]


@lru_cache(maxsize=256)
def squared_basis(n: int, m: int) -> SquaredBasis:
    pairs = factor_walk_words(n, m)
    prefixes = tuple(prefix for prefix, _ in pairs)
    middle = tail_word(m, n)
    tails = [middle * opposite(b) for b in prefixes]  # one per row
    words = tuple(a * tail for tail in tails for a in prefixes)
    return SquaredBasis(n, m, prefixes, middle, words)


@lru_cache(maxsize=64)
def regular_basis(n: int) -> Tuple[Word, ...]:
    """The union of all squared bases: C(2n, n) words spanning b_n."""
    out: List[Word] = []
    for m in range(-n, n + 1, 2):
        out.extend(squared_basis(n, m).words)
    return tuple(out)


# -- verification ------------------------------------------------------------


def check_walk_suite(n: int) -> Report:
    """Walk counts, reducedness of walk words, factorizations, and the
    agreement of standard and variant word forms."""
    rep = Report(f"walks(n={n})", meta={"n": n})
    walks = all_walks(n)
    words = [(path_word(p), path_word(p, variant=True)) for p in walks]
    rep.add("count-all", len(walks), 2 ** n, len(walks) == 2 ** n)
    for m in range(-n, n + 1, 2):
        got = sum(p.weight == m for p in walks)
        want = comb(n, (n + m) // 2)
        rep.add(f"count m={m}", got, want, got == want)
    for p, (w, v) in zip(walks, words):
        rep.add(f"reduced [{p}]", f"scalar of {w}", "1", is_reduced(w))
        ok = phi_equal(w, v) and len(v.letters) <= len(w.letters)
        rep.add(f"variant [{p}]", w, v, ok)
    for m in range(-n, n + 1, 2):
        tail = tail_word(m, n)
        prefixes = [(p, _prefix(p, w, v, tail)) for p, (w, v) in zip(walks, words) if p.weight == m]
        failed = next((p for p, prefix in prefixes if prefix is None), None)
        ok = failed is None and all(is_reduced(prefix) for _, prefix in prefixes)
        rep.add(f"factor m={m}", f"{len(prefixes)} prefixes * {tail}",
                "reduced prefixes, images verified", ok,
                f"factorization failed for walk {failed}" if failed is not None else "")
    return rep


def _substitute(p: Walk, at: int, segment: Tuple[int, ...]) -> Walk:
    return Walk(p.sigma[:at] + segment + p.sigma[at + len(segment):])


# The zigzag and ridge families for l >= 0: the segment, its replacement,
# and the index (negative: from the end) in the segment where U_i acts.
_FAMILIES = (
    ("zigzag", lambda l: ((0,) + (-1, -2) * l + (-1, 0, 1), (0,) + (1, 2) * l + (1, 2, 1)), -2),
    ("ridge", lambda l: ((0, 1) + (2, 3) * l + (2, 1), (0, -1) + (0, -1) * l + (0, 1)), 1),
)


def check_diamond_moves(n: int) -> Report:
    """Left multiplication by U_i as a local move on walks.

    Three verified families: flipping a (l, l-toward-0, l) notch with
    |l| > 1; the zigzag (0 (-1 -2)^l -1 0 1) versus (0 (1 2)^l 1 2 1); and
    the ridge (0 1 (2 3)^l 2 1) versus (0 -1 (0 -1)^l 0 1).
    """
    rep = Report(f"diamond(n={n})", meta={"n": n})
    walks = all_walks(n)
    words = {p: path_word(p) for p in walks}

    def move(label: str, i: int, p: Walk, q: Walk) -> None:
        rep.add(f"{label} [{p}]", f"U{i} w({p})", f"w({q})",
                phi_equal(gen_u(n, i) * words[p], words[q]))

    for p in walks:
        s = p.sigma
        for i in range(1, n):
            l, mid = s[i - 1], s[i]
            if s[i + 1] == l and abs(l) > 1 and abs(mid) < abs(l):
                move(f"notch i={i}", i, p, _substitute(p, i, (2 * l - mid,)))
    for name, pieces, at in _FAMILIES:
        for p in walks:
            for l in range(0, (n - 3) // 2 + 1):
                seg, repl = pieces(l)
                for start in range(0, n + 2 - len(seg)):
                    if p.sigma[start:start + len(seg)] == seg:
                        i = start + at % len(seg)
                        move(f"{name} i={i},l={l}", i, p, _substitute(p, start, repl))
    return rep
