"""Ideals, quotient dimensions, standard modules, and the word basis checks.

Everything here works in coordinates over the diagram basis of b_n.  Every
generator maps a basis diagram to a monomial [2]^a g^b de^c times one
diagram, and such a monomial is nonzero over the fraction field of
Z[q^+-1, g, de].  So every span the ideal, tower, quotient, word basis and
span-closure checks build is the coordinate span of a set of diagram
indices.  Those spans are boolean masks over the basis, and each claim is
decided once, exactly, by elementwise operations on them.  The
specialization points and the Schwartz-Zippel note are still recorded on
every report.

The basis has one index: the states (top half, bottom state) of the word
tables of ``presentation``, which pair two walks on the Pascal triangle as
the paper does.  One breadth-first walk from the identity's state over
those tables numbers the states and gives the right action tables;
``compose`` runs only to fill a missing table entry, and no basis diagram
is kept.  ``flip`` is an anti-automorphism of b_n fixing every generator,
and it maps halves to halves, so the left action is the right one read
through a flip computed on halves.  Both actions sit in one array,
``DiagramSpace.steps``.

Every ideal, tower and quotient span is a closure: start from some
diagrams and multiply by generators on the required side(s), which is
reachability over the action.  Every basis diagram is a unit-scalar
product of generators, so x b_k is the right closure of x's diagram under
the letters of b_k, which are the first k, and left * b_n * right
multiplies each diagram of left * b_n once by right; ``compose`` still
runs there, through ``compose_scaled``.  A closure is swept one frontier
at a time: the frontier's images under every table it uses, less what
was reached before.

Standard modules keep the images of their walk words, of each generator
times each walk word and of the cyclic word, built once per weight without
a point: each is a basis index and a recorded monomial.  At each
specialization point in F_p the distinct monomials are evaluated once,
every image becomes one ``(column, value)`` row (see `blobalg.modlin`),
and one solve expresses all the action rows in the walk-word basis modulo
a quotient span.  The relation instances of
``presentation.defining_relations``, the same list the relations suite
reports on, are checked on the resulting matrices as stacked products,
each stack bounded by ``_STACK`` entries.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

# compose stays bound here for the benchmark's tracer (bench/tracing.py
# requires the binding in this module); the tables compose in presentation
from .diagrams import BlobDiagram, ScaledDiagram, all_diagrams, compose, compose_scaled  # noqa: F401
from .modlin import CoordSolver, RowSpan, SpecPoint, draw_points, mulmod
from .presentation import _table, defining_relations, evaluate_word, phi_equal, walk_basis
from .reports import Report
from .ring import RingElem
from .walks import regular_basis, squared_basis, tail_word, walk_words
from .words import (
    Word,
    blob_cap_word,
    cap_word,
    cap_word_right,
    gen_e,
    gen_u,
    opposite,
    unit,
)


# -- coordinates and generator actions ---------------------------------------


class DiagramSpace:
    """The diagram basis of b_n, indexed by the states of the word tables.

    Basis element i is the state (``tops[i]``, ``bottoms[i]``) of
    ``presentation``'s tables of n, numbered in the order one breadth-first
    walk from the identity's state (0, 0) reaches them; the walk gives the
    right action tables.  ``flip`` maps the state (t, s) to (top[s],
    bottom[blobbed(s)][t]) (see ``_Halves.flips``), so the flip permutation
    of the basis comes from halves, and each left table is its right table
    conjugated by it.  ``steps[side, letter]`` is the table of one
    generator, side 0 acting on the left and side 1 on the right.  No
    diagram is kept per basis element: `diagram` rebuilds one from its
    halves and `index_of` splits one.

    A state's layer is n minus its through lines, plus one when the
    leftmost through line is blobbed.  Every top half with k through lines
    meets every bottom state with k, so a layer is the product of its top
    halves and its bottom states, and state (t, s) has the slot
    ``base[s] + rank[t] * width[s]`` among all C(2n, n) states; ``_where``
    maps a slot to its basis index.
    """

    def __init__(self, n: int):
        self.n = n
        self.letters = list(range(0, n))  # 0 is e, i >= 1 is U_i
        halves = self.halves = _table(n)
        self.tops, self.bottoms, right = walk_basis(halves)
        self.dim = len(self.tops)
        layer = [n - len(b[2]) + b[3] for b in halves.bottoms]
        rank, per_k = [], [0] * (n + 1)
        for top in halves.tops:
            rank.append(per_k[len(top[2])])
            per_k[len(top[2])] += 1
        order, per_layer = [], [0] * (n + 1)
        for lay in layer:
            order.append(per_layer[lay])
            per_layer[lay] += 1
        start = np.cumsum([0] + [per_k[n - lay + lay % 2] * per_layer[lay] for lay in range(n + 1)])
        self._rank = np.array(rank, dtype=np.int64)
        self._base = start[layer] + np.array(order, dtype=np.int64)
        self._width = np.array(per_layer, dtype=np.int64)[layer]
        self._where = np.full(start[-1], -1, dtype=np.int64)
        tops, bottoms = (np.frombuffer(a, dtype=np.intc) for a in (self.tops, self.bottoms))
        self._where[self._slot(tops, bottoms)] = np.arange(self.dim)

        flip_top, flip_bottom = halves.flips()
        flags = np.array([b[3] for b in halves.bottoms], dtype=np.int64)
        op = self._where[self._slot(np.array(flip_top)[bottoms],
                                    np.array(flip_bottom)[flags[bottoms], tops])]
        self.flip = array("i", op.tolist())
        on_right = np.array([np.frombuffer(row, np.intc) for row in right],
                            dtype=np.int32).reshape(n, self.dim)
        self.steps = np.stack([op[on_right[:, op]].astype(np.int32), on_right])

    def _slot(self, tops, bottoms):
        return self._base[bottoms] + self._rank[tops] * self._width[bottoms]

    def diagram(self, i: int) -> BlobDiagram:
        """The basis diagram of index i, rebuilt from its halves."""
        return self.halves.diagram(self.tops[i], self.bottoms[i], keep=False)

    def index_of(self, d: BlobDiagram) -> int:
        """The basis index of diagram d."""
        t, s = self.halves.state(d, keep=False)
        return self._where.item(self._base.item(s) + self._rank.item(t) * self._width.item(s))

    def word_rows(self, words: Iterable[Word], point: SpecPoint) -> np.ndarray:
        """The word images at the point as a k x 2 array of ``(column,
        value)`` rows: each is a monomial times one diagram."""
        at = (point.q0, point.g0, point.d0, point.prime)
        rows = [(self.index_of(s.diagram), s.coeff.specialize(*at)) for s in map(evaluate_word, words)]
        return np.array(rows, dtype=np.int64).reshape(-1, 2)

    def mask(self, indices: Iterable[int]) -> np.ndarray:
        """The span of the basis diagrams at `indices`, as a boolean mask."""
        out = np.zeros(self.dim, dtype=bool)
        out[list(indices)] = True
        return out

    def word_span(self, words: Iterable[Word]) -> np.ndarray:
        """Span of the word images: each is a nonzero monomial times one
        diagram, so this is the mask of their diagram indices."""
        return self.mask(self.index_of(evaluate_word(w).diagram) for w in words)

    def left_images(self, span: np.ndarray) -> np.ndarray:
        """The diagrams g * d over every generator g and every d in span."""
        out = np.zeros(self.dim, dtype=bool)
        out[self.steps[0][:, span]] = True
        return out


@lru_cache(maxsize=10)
def diagram_space(n: int) -> DiagramSpace:
    return DiagramSpace(n)


_SIDES = {"L": slice(0, 1), "R": slice(1, 2), "LR": slice(0, 2)}


def _closure(space: DiagramSpace, seeds: np.ndarray, sides: str,
             k: Optional[int] = None) -> np.ndarray:
    """Span of the seed mask closed under multiplication on `sides` by the
    generators of b_k, the first k letters (default: all of b_n): the
    states reachable from the seeds, one frontier at a time over the
    stacked action tables.  The mask is read-only, as caches share it."""
    tables = space.steps[_SIDES[sides], :space.n if k is None else k]
    reached = np.zeros(space.dim, dtype=bool)
    front = np.flatnonzero(seeds)
    while front.size:
        reached[front] = True
        new = np.zeros(space.dim, dtype=bool)
        new[tables[..., front]] = True
        front = np.flatnonzero(new > reached)
    reached.flags.writeable = False
    return reached


def ideal_span(n: int, g: Word, two_sided: bool) -> np.ndarray:
    """Span of the (one- or two-sided) ideal generated by the word g."""
    space = diagram_space(n)
    return _closure(space, space.word_span([g.with_n(n)]), "LR" if two_sided else "L")


@lru_cache(maxsize=4096)
def _cached_ideal(space: DiagramSpace, g: Word, two_sided: bool) -> np.ndarray:
    return ideal_span(space.n, g, two_sided)


def through_ideal(n: int, m: int) -> np.ndarray:
    """The two-sided ideal generated by the m-through-line cap word."""
    return _cached_ideal(diagram_space(n), cap_word(m, n), True)


def blob_ideal(n: int, m: int) -> np.ndarray:
    """The two-sided ideal generated by the blobbed m-through-line word."""
    return _cached_ideal(diagram_space(n), blob_cap_word(m, n), True)


def _fail_note(n: int, dim: int, points: Sequence[SpecPoint]) -> str:
    """The Schwartz-Zippel note on each check.  Only the standard modules
    still depend on the points; the text stays so that reports do not
    change."""
    degree = 4 * n * dim  # crude bound on the degree of any decided minor
    per = degree / points[0].prime
    return f"fail prob <= {per:.3e}/point, {per ** len(points):.3e} at {len(points)} points"


def default_points(seed: int = 0, prime: Optional[int] = None, count: int = 3) -> List[SpecPoint]:
    if prime is None:
        return draw_points(seed, count)
    return draw_points(seed, count, prime)


def _start_check(title: str, n: int, points: Optional[Sequence[SpecPoint]],
                 seed: Optional[int]) -> Tuple[Report, Sequence[SpecPoint], DiagramSpace, str]:
    """The shared start of a check: the report titled `title(n=n)` with
    its points recorded, the points (drawn from the seed when not given),
    the diagram space of b_n and the failure-bound note."""
    if points is None:
        points = default_points(seed if seed is not None else 0)
    rep = Report(f"{title}(n={n})", meta={"n": n})
    rep.meta["points"] = [pt.to_dict() for pt in points]
    rep.meta["prime"] = points[0].prime
    if seed is not None:
        rep.meta["seed"] = seed
    space = diagram_space(n)
    return rep, points, space, _fail_note(n, space.dim, points)


# -- the word basis -----------------------------------------------------------


def check_word_basis(n: int, points: Optional[Sequence[SpecPoint]] = None,
                     seed: Optional[int] = 0) -> Report:
    """The regular word basis maps bijectively onto the diagram basis
    (exact), each squared basis has an opposite-invariant member, and the
    squared bases span the two-sided ideal filtration layer by layer."""
    rep, _, space, note = _start_check("bases", n, points, seed)
    try:
        words = regular_basis(n)
    except AssertionError as exc:  # a walk word that does not factor names its walk
        rep.add("factor", "walk words as prefix * tail", "images verified", False, str(exc))
        return rep
    images = [evaluate_word(w) for w in words]
    rep.add("unit-scalars", f"{len(words)} word images", "all scalar 1",
            all(s.coeff.is_one() for s in images))
    distinct = {s.diagram for s in images}
    rep.add("distinct", len(distinct), len(words), len(distinct) == len(words))
    target = set(all_diagrams(n))
    rep.add("onto", f"{len(distinct)} distinct images", f"all {len(target)} diagrams",
            distinct == target)
    rep.add("count", len(words), comb(2 * n, n), len(words) == comb(2 * n, n))

    for m in range(-n, n + 1, 2):
        found = any(phi_equal(w, opposite(w)) for w in squared_basis(n, m).words)
        rep.add(f"self-opposite m={m}", "exists w = op(w) under evaluation", "true", found)

    def layer_ideal(m: int) -> np.ndarray:
        return blob_ideal(n, m) if m > 0 else through_ideal(n, -m)

    for m in range(-n, n + 1, 2):
        sq = squared_basis(n, m)
        lower = [m2 for m2 in range(-n, n + 1, 2) if abs(m2) < abs(m) or (m < 0 and m2 == -m)]
        below = np.zeros(space.dim, dtype=bool)
        for m2 in lower:
            below |= layer_ideal(m2)
        with_words = below | space.word_span(sq.words)
        ok_span = (with_words == below | layer_ideal(m)).all()
        rank = np.count_nonzero(below)
        ok_indep = np.count_nonzero(with_words) == rank + len(sq.words)
        ok_rank = rank == sum(comb(n, (n + m2) // 2) ** 2 for m2 in lower)
        rep.add(f"filtration m={m}", f"{len(sq.words)} squared words + lower ideals",
                "span of layer ideal, independent", ok_span and ok_indep, note)
        rep.add(f"filtration-rank m={m}", "rank of lower ideals",
                "sum of squared walk counts", ok_rank, note)
    return rep


# -- ideal inclusion checks ----------------------------------------------------


def commuting_subsets(n: int) -> List[Tuple[int, ...]]:
    """Subsets of {1..n-1} with no two adjacent indices (products commute),
    by size, then lexicographic."""
    return [c for k in range(n + 1) for c in combinations(range(1, n), k)
            if all(b - a >= 2 for a, b in zip(c, c[1:]))]


def check_ideal_inclusions(n: int, points: Optional[Sequence[SpecPoint]] = None,
                           seed: Optional[int] = 0) -> Report:
    """Products of commuting generators generate the through-line ideals;
    the ideals nest; blobbed ideals sit inside plain ones; g times a plain
    ideal lands in the blobbed ideal two steps up."""
    rep, _, space, note = _start_check("ideals", n, points, seed)

    for subset in commuting_subsets(n):
        m = n - 2 * len(subset)
        ok = (ideal_span(n, Word(n, subset), True) == through_ideal(n, m)).all()
        label = "*".join(f"U{i}" for i in subset) or "1"
        rep.add(f"generates W={label}", f"ideal of {label}", f"through ideal m={m}", ok, note)

    for m in range(n % 2, n - 1, 2):
        ok = (through_ideal(n, m) <= through_ideal(n, m + 2)).all()
        rep.add(f"nesting m={m}", f"ideal m={m}", f"inside ideal m={m + 2}", ok, note)

    for m in range(n % 2, n + 1, 2):
        if m == 0:
            continue
        ok = (blob_ideal(n, m) <= through_ideal(n, m)).all()
        rep.add(f"blob-inside m={m}", f"blobbed ideal m={m}", f"inside ideal m={m}", ok, note)

    for m in range(n % 2, n - 1, 2):
        # g is a nonzero scalar, so g times a span is the span itself
        ok = (through_ideal(n, m) <= blob_ideal(n, m + 2)).all()
        rep.add(f"g-step m={m}", f"g * ideal m={m}", f"inside blobbed ideal m={m + 2}", ok, note)
    return rep


# -- tower identities ----------------------------------------------------------


@lru_cache(maxsize=64)
def _conjugated_span(space: DiagramSpace, left: Word, right: Word) -> np.ndarray:
    """The span of left * b_n * right: left * b_n is the right closure of
    left's diagram under every letter, and each of its diagrams is
    multiplied once by right's image, unless right is the unit."""
    closure = _closure(space, space.word_span([left.with_n(space.n)]), "R")
    if not right.letters:
        return closure
    one, rv = RingElem.one(), evaluate_word(right.with_n(space.n))
    out = space.mask(space.index_of(compose_scaled(ScaledDiagram(one, space.diagram(d)), rv).diagram)
                     for d in np.flatnonzero(closure).tolist())
    out.flags.writeable = False
    return out


def check_tower(n: int, points: Optional[Sequence[SpecPoint]] = None,
                seed: Optional[int] = 0) -> Report:
    """The level decomposition b_n = b_{n-1} + b_{n-1} U_{n-1} b_{n-1}, the
    squeeze identities U_{n-1} b_n U_{n-1} = U_{n-1} b_{n-2} (rank one at
    n = 2, where [2] or g must be invertible), and the sandwich
    Er_m b_n Er_m = Er_m b_m.

    Every span is a closure over the action tables; no basis word is
    evaluated.  The decomposition closes {1, U_{n-1}} on both sides under
    e, U_1, ..., U_{n-2} and asks for all of b_n.  The left-hand sides come
    from `_conjugated_span`; the right-hand sides close U_{n-1} and Er_m
    on the right under the letters of b_{n-2} and b_m."""
    if n < 2:
        raise ValueError("tower checks need n >= 2")
    rep, _, space, note = _start_check("tower", n, points, seed)

    u_top, full = gen_u(n, n - 1), comb(2 * n, n)
    ok = np.count_nonzero(_closure(space, space.word_span([unit(n), u_top]), "LR", n - 1)) == full
    rep.add("decompose", f"b_{n-1} + b_{n-1} U{n-1} b_{n-1}", f"all of b_{n} (rank {full})",
            ok, note)

    want = _closure(space, space.word_span([u_top]), "R", n - 2)
    ok = (_conjugated_span(space, u_top, u_top) == want).all()
    if n == 2:
        rep.add("squeeze n=2", "U1 b_2 U1", "([2]K + gK) U1 b_0 = K U1", ok,
                note + "; needs [2] or g invertible, points have g nonzero")
    else:
        rep.add("squeeze", f"U{n-1} b_{n} U{n-1}", f"U{n-1} b_{n-2}", ok, note)

    for m in range(n % 2, n + 1, 2):
        er = cap_word_right(m, n)
        want = _closure(space, space.word_span([er]), "R", m)
        ok = (_conjugated_span(space, er, er) == want).all()
        extra = "; m=0 needs [2] or g invertible, points have g nonzero" if m == 0 else ""
        rep.add(f"sandwich m={m}", f"Er_{m} b_{n} Er_{m}", f"Er_{m} b_{m}", ok, note + extra)
    return rep


def check_quotient_dims(n: int, points: Optional[Sequence[SpecPoint]] = None,
                        seed: Optional[int] = 0) -> Report:
    """b_n mod the (n-2)-through ideal is two dimensional on {1, e}, and
    conjugating by Er keeps two dimensions with representatives
    {Er, e Er} at every deeper layer."""
    if n < 2:
        raise ValueError("quotient checks need n >= 2")
    rep, _, space, note = _start_check("quotients", n, points, seed)

    r = 0
    while n - 2 * r > 0 and n - 2 * r - 2 >= 0:
        m = n - 2 * r
        er = cap_word_right(m, n)
        ideal = through_ideal(n, m - 2)
        rank = np.count_nonzero(ideal)
        with_conj = ideal | _conjugated_span(space, er, er)
        ok_dim = np.count_nonzero(with_conj) - rank == 2
        with_reps = ideal | space.word_span([er, gen_e(n) * er])
        ok_reps = np.count_nonzero(with_reps) == rank + 2 and (with_reps == with_conj).all()
        label = f"Er_{m} b_n^{m - 2} Er_{m}" if r else f"b_n^{n - 2}"
        rep.add(f"dim r={r}", label, "dimension 2", ok_dim, note)
        rep.add(f"reps r={r}", label, "{1, e} Er representatives", ok_reps, note)
        r += 1
    return rep


# -- standard modules ----------------------------------------------------------


def _quotient_span(n: int, m: int) -> np.ndarray:
    """The span to quotient by so that the weight-m walk words become a
    module basis: nothing for m in {0, 1}; the blobbed left ideal for
    m = -1; the two-lower through ideal for m >= 2; both for m <= -2."""
    if m >= 2:
        return through_ideal(n, m - 2)
    space = diagram_space(n)
    if m >= 0:
        return space.mask(())
    blobbed = _cached_ideal(space, blob_cap_word(-m, n), False)
    return blobbed | through_ideal(n, -m - 2) if m <= -2 else blobbed


@dataclass
class StandardModule:
    """A cyclic module on the weight-m walk words over one specialization."""

    n: int
    m: int
    point: SpecPoint
    words: Tuple[Word, ...]
    matrices: Dict[str, np.ndarray]  # generator name -> dim x dim, column action
    cyclic: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.words)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "point": self.point.to_dict(),
            "basis": [str(w) for w in self.words],
            "cyclic": self.cyclic.tolist(),
            "matrices": {k: v.tolist() for k, v in sorted(self.matrices.items())},
        }


@lru_cache(maxsize=256)
def _walk_words(n: int, m: int) -> Tuple[Word, ...]:
    """The weight-m walk words, built once for the module and span-closure checks."""
    return tuple(walk_words(n, m))


@lru_cache(maxsize=256)
def _module_images(n: int, m: int, words: Tuple[Word, ...]) -> Tuple[Tuple[int, RingElem], ...]:
    """The point-free images of a module's walk words, then of every
    generator times every walk word (letter-major), then of the cyclic
    word, each as a basis index and a monomial.  Keyed on the words
    themselves, not only on the weight."""
    space = diagram_space(n)
    actions = [Word(n, (letter,)) * w for letter in space.letters for w in words]
    return tuple((space.index_of(s.diagram), s.coeff)
                 for s in map(evaluate_word, (*words, *actions, tail_word(m, n))))


def standard_module(n: int, m: int, point: SpecPoint) -> StandardModule:
    """Build the standard module with basis the weight-m walk words.

    Generator action vectors are expressed in the basis modulo the
    quotient span; an inexpressible vector means the walk words do not
    span, which is a bug, so it raises.  A weight no walk reaches raises
    ValueError in walk_words.  Each distinct monomial of the images is
    specialized once, and one solve expresses every action and the
    cyclic vector."""
    words = _walk_words(n, m)
    images = _module_images(n, m, words)
    at = (point.q0, point.g0, point.d0, point.prime)
    values = {c: c.specialize(*at) for c in {coeff for _, coeff in images}}
    rows = np.array([(col, values[c]) for col, c in images], dtype=np.int64)
    z_span = RowSpan.coordinate(diagram_space(n).dim, point.prime, np.flatnonzero(_quotient_span(n, m)))
    k = len(words)
    solver = CoordSolver(z_span.reduce(rows[:k]), point.prime)
    coeffs = solver.express(z_span.reduce(rows[k:]))
    if coeffs is None:
        raise AssertionError(f"a generator action or the cyclic vector left the module at m={m}")
    matrices = {("e" if x == 0 else f"U{x}"): coeffs[:, x * k:(x + 1) * k] for x in range(n)}
    return StandardModule(n, m, point, words, matrices, coeffs[:, -1])


_STACK = 1 << 15  # entries in one stacked operand of a relation product


@lru_cache(maxsize=64)
def _relation_sides(n: int) -> Tuple[np.ndarray, np.ndarray, Tuple[RingElem, ...]]:
    """The defining relations as letter rows, lhs then rhs of each, padded
    to the longest side; the length of each side; and each scalar."""
    rels = defining_relations(n)
    sides = [w.letters for *_, lhs, rhs, _ in rels for w in (lhs, rhs)]
    depth = max(map(len, sides), default=1)
    letters = np.array([s + (0,) * (depth - len(s)) for s in sides], dtype=np.int64)
    return (letters.reshape(-1, depth), np.array([len(s) for s in sides]),
            tuple(r[-1] or RingElem.one() for r in rels))


def matrices_satisfy_relations(mod: StandardModule) -> bool:
    """Check the defining relations of :func:`defining_relations` on the
    action matrices, exactly in F_p: a word acts as the product of its
    letters' matrices in word order, a scalar as its value at the point.

    The relations go in chunks whose stacked sides hold at most ``_STACK``
    entries.  Each product depth of a chunk is one `mulmod` over the sides
    that reach it, and each chunk is compared in one array operation."""
    pt, k = mod.point, mod.dim
    mats = np.array([mod.matrices["e" if x == 0 else f"U{x}"] for x in range(mod.n)],
                    dtype=np.int64).reshape(-1, k, k)
    letters, lengths, scalars = _relation_sides(mod.n)
    values = {s: s.specialize(pt.q0, pt.g0, pt.d0, pt.prime) for s in set(scalars)}
    scale = np.array([values[s] for s in scalars], dtype=np.int64)[:, None, None]
    step = 2 * max(1, _STACK // (2 * k * k))  # sides per chunk, whole relations
    for lo in range(0, len(letters), step):
        lets, lens = letters[lo:lo + step], lengths[lo:lo + step]
        prod = mats[lets[:, 0]]
        for d in range(1, lets.shape[1]):
            sel = np.flatnonzero(lens > d)
            if len(sel):
                prod[sel] = mulmod(prod[sel], mats[lets[sel, d]], pt.prime)
        if not (prod[0::2] == prod[1::2] * scale[lo // 2:(lo + step) // 2] % pt.prime).all():
            return False
    return True


def check_standard_modules(n: int, points: Optional[Sequence[SpecPoint]] = None,
                           seed: Optional[int] = 0) -> Report:
    """Module dimensions equal walk counts and the action matrices satisfy
    the defining relations, at every specialization point."""
    rep, points, space, note = _start_check("modules", n, points, seed)
    for m in range(-n, n + 1, 2):
        want = comb(n, (n + m) // 2)
        quotient = np.flatnonzero(_quotient_span(n, m))
        ok_dim = ok_rel = True
        why = note
        for pt in points:
            try:
                mod = standard_module(n, m, pt)
            except (ValueError, AssertionError) as exc:
                ok_dim = ok_rel = False
                why = f"{note}; not built: {exc}"
                break
            with_basis = RowSpan.coordinate(space.dim, pt.prime, quotient)
            with_basis.absorb(space.word_rows(mod.words, pt))
            ok_dim &= mod.dim == want and with_basis.rank == len(quotient) + want
            ok_rel &= matrices_satisfy_relations(mod)
        rep.add(f"dim m={m}", f"standard module at m={m}", f"dimension {want}", ok_dim, why)
        rep.add(f"relations m={m}", f"action matrices at m={m}", "defining relations", ok_rel, why)
    return rep


def check_span_closure(n: int, points: Optional[Sequence[SpecPoint]] = None,
                       seed: Optional[int] = 0) -> Report:
    """Left multiplication by any generator keeps each walk-word span
    inside itself plus its stated quotient span."""
    rep, _, space, note = _start_check("span-closure", n, points, seed)
    for m in range(-n, n + 1, 2):
        words = _walk_words(n, m)
        span = space.word_span(words)
        ok = (space.left_images(span) <= _quotient_span(n, m) | span).all()
        rep.add(f"closure m={m}", f"generators * {len(words)} walk words",
                "inside walk span + quotient span", ok, note)
    return rep
