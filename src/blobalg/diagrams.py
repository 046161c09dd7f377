"""Blob diagrams and their exact composition.

A blob diagram on n strands is a planar perfect matching of 2n boundary
points, some arcs carrying a blob.  Boundary numbering runs clockwise:
top edge left-to-right is 1..n, bottom edge right-to-left is n+1..2n, so
the western edge of the frame is the gap between point 2n and point 1.
A diagram is planar when its pairing is non-crossing, and an arc may
carry a blob when it is west-exposed: nested under no other arc, so it
can slide to the western edge.  One pass over the arcs in start order
decides both, for ``validate``, ``west_exposed`` and ``all_diagrams``;
``make_diagram`` accepts only ``int`` points, which the pass compares.

Composition stacks d1 on top of d2 and traces strands through the
interface.  Every closed loop and every excess blob is converted to a
scalar in Z[g, de][q, q^-1]:

    undecorated loop        ->  q + q^-1
    blob-decorated loop     ->  g      (after removing excess blobs)
    k blobs on one strand   ->  de^(k-1), one blob kept

so a product of two diagrams is always scalar * diagram.

A product whose right factor is a generator (built by
``generator_diagram``, which records its letter) is a local step with no
strand trace.  e blobs the arc ending at point 2n (scalar de if it was
blobbed already).  U_i caps d's bottom points 2n-i and 2n+1-i: if one arc
joins them it closes into a loop ([2], or g with its blob removed),
otherwise their far ends become one arc, blobbed if either was (de if
both were); then U_i's plain cup (2n-i, 2n+1-i) is added.

A diagram is validated once, where it enters the package: by
``make_diagram``, and so by ``diagram_from_dict`` and the generator and
identity constructors.  ``compose`` (trace and step) and ``flip`` build
``BlobDiagram`` directly and check nothing, as a product of valid
diagrams, or a mirror of one, is valid.  A ``BlobDiagram(...)`` built by
hand is unchecked.
"""

from __future__ import annotations

from collections import abc
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Dict, FrozenSet, Iterator, List, Sequence, Tuple

from .ring import RingElem, monomial

Arc = Tuple[int, int]


@dataclass(frozen=True, slots=True)
class BlobDiagram:
    n: int
    pairs: Tuple[Arc, ...]
    blobs: FrozenSet[Arc]

    def sort_key(self):
        return (self.pairs, tuple(sorted(self.blobs)))

    def __str__(self) -> str:
        inner = ", ".join(
            f"({i},{j})" + ("*" if (i, j) in self.blobs else "") for i, j in self.pairs
        )
        return f"<{self.n}: {inner}>"


def make_diagram(n: int, pairs: Sequence[Sequence[int]], blobs: Sequence[Sequence[int]] = ()) -> BlobDiagram:
    """Normalize, validate and freeze a diagram; every arc must be a pair
    of points, and n and every point an ``int``, as the arc pass would take
    ``True`` for 1 or ``2.0`` for 2.
    A blob arc listed twice is rejected: two blobs on one strand would be a
    factor de, which a diagram does not carry."""
    if type(n) is not int:
        raise ValueError(f"strand count {n!r} is not an integer")
    pairs, blobs = _point_pairs("arc", pairs), _point_pairs("blob arc", blobs)
    norm = tuple(sorted((min(i, j), max(i, j)) for i, j in pairs))
    blob_arcs = [(min(i, j), max(i, j)) for i, j in blobs]
    blob_set = frozenset(blob_arcs)
    if len(blob_set) < len(blob_arcs):
        repeated = next(a for k, a in enumerate(blob_arcs) if a in blob_arcs[:k])
        raise ValueError(f"blob arc {repeated} is listed more than once")
    d = BlobDiagram(n, norm, blob_set)
    validate(d)
    return d


def _point_pairs(kind: str, arcs: Sequence[Sequence[int]]) -> List[Arc]:
    """The arcs as tuples; each must be a sequence of two ``int`` points."""
    out = []
    for arc in arcs:
        if not isinstance(arc, abc.Sequence):
            raise ValueError(f"{kind} {arc!r} is not a pair of points")
        if len(arc) != 2:
            raise ValueError(f"{kind} {list(arc)} is not a pair of points")
        for p in arc:
            if type(p) is not int:
                raise ValueError(f"diagram point {p!r} is not an integer")
        out.append(tuple(arc))
    return out


_NOT_A_MATCHING = "pairs are not a perfect matching of 1..2n"


def _exposed_arcs(n: int, pairs: Sequence[Arc]) -> List[Arc]:
    """The west-exposed arcs of pairs, which must be a non-crossing perfect
    matching of 1..2n as (start, end) arcs, start < end, sorted by start.

    A stack holds the open arcs, innermost on top.  Each arc closes those
    ending before its start, must nest in the one left on top, and is
    west-exposed when none is left.
    """
    if len(pairs) != n:
        raise ValueError(_NOT_A_MATCHING)
    stack: List[Arc] = []
    exposed: List[Arc] = []
    prev = 0
    for arc in pairs:
        i, j = arc
        if not prev < i < j <= 2 * n:
            if 0 < i < prev or j < i:
                raise ValueError("pairs are not sorted (start, end) arcs")
            raise ValueError(_NOT_A_MATCHING)
        prev = i
        while stack and stack[-1][1] < i:
            stack.pop()
        if not stack:
            exposed.append(arc)
        elif stack[-1][1] <= j:
            k, l = stack[-1]  # l == i or l == j repeats a point; i < l < j crosses
            raise ValueError(_NOT_A_MATCHING if l in arc else f"arcs ({i},{j}) and ({k},{l}) cross")
        stack.append(arc)
    return exposed


def validate(d: BlobDiagram) -> None:
    """Raise ValueError unless d's pairs pass the arc pass of
    :func:`_exposed_arcs` and only west-exposed arcs carry a blob."""
    exposed = _exposed_arcs(d.n, d.pairs)
    for arc in d.blobs:
        if arc not in exposed:
            raise ValueError(f"blob on {'nested' if arc in d.pairs else 'missing'} arc {arc}")


def west_exposed(d: BlobDiagram, arc: Arc) -> bool:
    """True when no other arc nests over this one toward the west gap."""
    return arc in _exposed_arcs(d.n, d.pairs)


def identity_diagram(n: int) -> BlobDiagram:
    return make_diagram(n, [(i, 2 * n + 1 - i) for i in range(1, n + 1)])


def u_diagram(n: int, i: int) -> BlobDiagram:
    """The diagram of U_i: cap joining top i, i+1 over the matching cup."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"U{i} out of range for n={n}")
    pairs = [(i, i + 1), (2 * n - i, 2 * n + 1 - i)]
    pairs += [(k, 2 * n + 1 - k) for k in range(1, n + 1) if k not in (i, i + 1)]
    return make_diagram(n, pairs)


def e_diagram(n: int) -> BlobDiagram:
    """The diagram of e: identity with a blob on the leftmost line."""
    if n < 1:
        raise ValueError("e needs at least one strand")
    d = identity_diagram(n)
    return BlobDiagram(n, d.pairs, frozenset({(1, 2 * n)}))


# Every diagram generator_diagram has built, mapped to its letter (0 is e,
# i >= 1 is U_i).  compose looks its right operand up here by value.
_GENERATOR_LETTERS: Dict[BlobDiagram, int] = {}


@lru_cache(maxsize=4096)
def generator_diagram(n: int, letter: int) -> BlobDiagram:
    """The diagram of one generator: e for letter 0, U_i for letter i."""
    d = e_diagram(n) if letter == 0 else u_diagram(n, letter)
    _GENERATOR_LETTERS[d] = letter
    return d


def through_count(d: BlobDiagram) -> int:
    """Number of lines joining the top boundary to the bottom boundary."""
    return sum(1 for i, j in d.pairs if i <= d.n < j)


def flip(d: BlobDiagram) -> BlobDiagram:
    """Top-bottom mirror; the diagram form of the opposite map.  Point x
    goes to 2n+1-x, which keeps the west gap, so the mirror is built
    unchecked."""
    m = 2 * d.n + 1
    pairs = tuple(sorted((m - j, m - i) for i, j in d.pairs))
    return BlobDiagram(d.n, pairs, frozenset((m - j, m - i) for i, j in d.blobs))


@dataclass(frozen=True)
class ScaledDiagram:
    coeff: RingElem
    diagram: BlobDiagram

    def __str__(self) -> str:
        return f"({self.coeff}) {self.diagram}"


class _ArcPool(dict):
    """Arcs as shared tuples: ``pool[i, j]`` is the first ``(i, j)`` it was
    asked for.  Composition results reuse them, so the many diagrams a
    word-evaluation table keeps alive share their arcs; an arc enters on
    first use, so the pool holds only the arcs some result has had."""

    __slots__ = ()

    def __missing__(self, arc: Arc) -> Arc:
        self[arc] = arc
        return arc


@lru_cache(maxsize=64)
def _arc_pool(n: int) -> _ArcPool:
    """The shared arcs of n strands."""
    return _ArcPool()


_NO_BLOBS: FrozenSet[Arc] = frozenset()


def _point_arrays(d: BlobDiagram) -> Tuple[List[int], List[int]]:
    """Point-indexed mate and blob lists (length 2n+1, index 0 unused)."""
    mate = [0] * (2 * d.n + 1)
    blob = [0] * (2 * d.n + 1)
    for i, j in d.pairs:
        mate[i] = j
        mate[j] = i
    for i, j in d.blobs:
        blob[i] = blob[j] = 1
    return mate, blob


def _generator_step(d: BlobDiagram, letter: int) -> Tuple[BlobDiagram, int, int, int]:
    """d times the generator of `letter`, as (diagram, plain loops, blobbed
    loops, excess blobs).  Only the arcs at d's bottom points that the
    generator touches change; no strand is traced."""
    n, pairs, blobs = d.n, d.pairs, d.blobs
    n2 = 2 * n
    if letter == 0:
        # e blobs the arc ending at 2n; nothing nests over it
        arc = next(arc for arc in pairs if arc[1] == n2)
        if arc in blobs:
            return d, 0, 0, 1
        return BlobDiagram(n, pairs, blobs | {arc}), 0, 0, 0
    # U_i caps d's bottom points b and a, and brings its own plain cup (b, a)
    a = n2 + 1 - letter
    b = a - 1
    for arc in pairs:
        if b in arc:
            arc_b = arc
        if a in arc:
            arc_a = arc
    if arc_a == arc_b:
        if arc_a in blobs:
            return BlobDiagram(n, pairs, blobs - {arc_a}), 0, 1, 0
        return d, 1, 0, 0
    arcs = _arc_pool(n)
    x = arc_b[0] if arc_b[1] == b else arc_b[1]
    y = arc_a[0] if arc_a[1] == a else arc_a[1]
    joined = arcs[x, y] if x < y else arcs[y, x]
    kept = [arc for arc in pairs if arc != arc_a and arc != arc_b]
    kept += (joined, arcs[b, a])
    kept.sort()
    count = (arc_a in blobs) + (arc_b in blobs)
    if count:
        blobs = (blobs - {arc_a, arc_b}) | {joined}
    return BlobDiagram(n, tuple(kept), blobs), 0, 0, max(count - 1, 0)


def compose(d1: BlobDiagram, d2: BlobDiagram) -> ScaledDiagram:
    """Stack d1 on top of d2 and reduce to scalar * diagram.

    d1's bottom point 2n+1-j is glued to d2's top point j (the interface
    position j).  The result's points are d1's top row 1..n and d2's bottom
    row n+1..2n under their own labels.  One pass over the point-indexed
    mate and blob lists of both diagrams traces each strand from its
    smaller end, visiting start points in ascending order, so the result
    arcs come out sorted with start < end.  The interface positions no
    strand crossed lie on closed loops, traced afterwards.  Blobs are
    counted per strand; the scalar is the monomial of the module
    docstring, ``monomial(plain loops, blobbed loops, excess blobs)``.
    When d2 equals a diagram from :func:`generator_diagram`, only the arcs
    that generator touches are rewritten (the step of the module
    docstring) and nothing is traced.  Either way the result is built
    unchecked: the product of valid diagrams is valid.
    """
    if d1.n != d2.n:
        raise ValueError(f"strand counts differ: {d1.n} vs {d2.n}")
    letter = _GENERATOR_LETTERS.get(d2)
    if letter is not None:
        result, plain, blobbed, excess = _generator_step(d1, letter)
        return ScaledDiagram(monomial(plain, blobbed, excess), result)
    n = d1.n
    glue = 2 * n + 1  # d1 point glue - j meets d2 point j
    mate1, blob1 = _point_arrays(d1)
    mate2, blob2 = _point_arrays(d2)
    arcs = _arc_pool(n)
    done = [False] * glue  # result points already reached as an end
    crossed = [False] * (n + 1)  # interface positions some strand passed
    pairs: List[Arc] = []
    blobs: List[Arc] = []
    excess = 0

    for start in range(1, glue):
        if done[start]:
            continue
        count = 0
        pt = start
        upper = start <= n  # is pt a point of d1?
        while True:
            if upper:
                end = mate1[pt]
                count += blob1[pt]
                if end <= n:
                    break
                pt = glue - end
                crossed[pt] = True
                upper = False
            else:
                end = mate2[pt]
                count += blob2[pt]
                if end > n:
                    break
                crossed[end] = True
                pt = glue - end
                upper = True
        done[end] = True
        arc = arcs[start, end]
        pairs.append(arc)
        if count:
            blobs.append(arc)
            excess += count - 1

    plain = blobbed = 0
    for first in range(1, n + 1):
        if crossed[first]:
            continue
        count = 0
        pt = first
        while True:
            # down through d2 from interface pt to interface nxt, then back
            # up through d1; mark both interface points of the step
            nxt = mate2[pt]
            count += blob2[pt]
            crossed[pt] = crossed[nxt] = True
            count += blob1[glue - nxt]
            pt = glue - mate1[glue - nxt]
            if pt == first:
                break
        if count:
            blobbed += 1
            excess += count - 1
        else:
            plain += 1

    result = BlobDiagram(n, tuple(pairs), frozenset(blobs) if blobs else _NO_BLOBS)
    return ScaledDiagram(monomial(plain, blobbed, excess), result)


def compose_scaled(s1: ScaledDiagram, s2: ScaledDiagram) -> ScaledDiagram:
    inner = compose(s1.diagram, s2.diagram)
    return ScaledDiagram(s1.coeff * s2.coeff * inner.coeff, inner.diagram)


def _noncross_matchings(points: Tuple[int, ...]) -> Iterator[Tuple[Arc, ...]]:
    """All non-crossing perfect matchings of an even point list (ascending)."""
    if not points:
        yield ()
        return
    first = points[0]
    for k in range(1, len(points), 2):
        partner = points[k]
        inside = points[1:k]
        outside = points[k + 1:]
        for m_in in _noncross_matchings(inside):
            for m_out in _noncross_matchings(outside):
                yield ((first, partner),) + m_in + m_out


@lru_cache(maxsize=32)
def all_diagrams(n: int) -> Tuple[BlobDiagram, ...]:
    """Every blob diagram on n strands, in a fixed sorted order.

    Non-crossing matchings are enumerated by the Catalan recursion, then
    each west-exposed subset of arcs is decorated.  The total count is the
    central binomial C(2n, n).
    """
    out = []
    shared: Dict[FrozenSet[Arc], FrozenSet[Arc]] = {}  # equal blob sets, one object
    for matching in _noncross_matchings(tuple(range(1, 2 * n + 1))):
        exposed = _exposed_arcs(n, matching)
        for mask in range(1 << len(exposed)):
            blobs = frozenset(exposed[b] for b in range(len(exposed)) if mask >> b & 1)
            out.append(BlobDiagram(n, matching, shared.setdefault(blobs, blobs)))
    out.sort(key=BlobDiagram.sort_key)
    if len(out) != comb(2 * n, n):
        raise AssertionError(f"enumeration produced {len(out)} diagrams at n={n}")
    return tuple(out)


# -- formal linear combinations ---------------------------------------------


class LinComb:
    """A formal sum of blob diagrams with RingElem coefficients."""

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: Dict[BlobDiagram, RingElem] | None = None):
        self.n = n
        clean = {}
        if terms:
            for diag, coeff in terms.items():
                if diag.n != n:
                    raise ValueError("mixed strand counts in linear combination")
                if coeff:
                    clean[diag] = coeff
        self._terms = clean

    @classmethod
    def of(cls, scaled: ScaledDiagram) -> "LinComb":
        return cls(scaled.diagram.n, {scaled.diagram: scaled.coeff})

    def items(self) -> List[Tuple[BlobDiagram, RingElem]]:
        return sorted(self._terms.items(), key=lambda kv: kv[0].sort_key())

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinComb):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    def __add__(self, other: "LinComb") -> "LinComb":
        if self.n != other.n:
            raise ValueError("mixed strand counts")
        terms = dict(self._terms)
        for diag, coeff in other._terms.items():
            terms[diag] = terms[diag] + coeff if diag in terms else coeff
        return LinComb(self.n, terms)

    def scale(self, factor: RingElem) -> "LinComb":
        return LinComb(self.n, {d: factor * c for d, c in self._terms.items()})

    def __mul__(self, other: "LinComb") -> "LinComb":
        if self.n != other.n:
            raise ValueError("mixed strand counts")
        terms: Dict[BlobDiagram, RingElem] = {}
        for d1, c1 in self._terms.items():
            for d2, c2 in other._terms.items():
                prod = compose(d1, d2)
                coeff = c1 * c2 * prod.coeff
                terms[prod.diagram] = terms[prod.diagram] + coeff if prod.diagram in terms else coeff
        return LinComb(self.n, terms)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(f"({c}) {d}" for d, c in self.items())


# -- JSON forms --------------------------------------------------------------


def diagram_to_dict(d: BlobDiagram) -> dict:
    return {
        "n": d.n,
        "pairs": [list(arc) for arc in d.pairs],
        "blobs": [list(arc) for arc in sorted(d.blobs)],
    }


def scaled_to_dict(s: ScaledDiagram) -> dict:
    out = diagram_to_dict(s.diagram)
    out["coeff"] = str(s.coeff)
    return out


def diagram_from_dict(data: dict) -> BlobDiagram:
    return make_diagram(data["n"], data["pairs"], data.get("blobs", ()))
