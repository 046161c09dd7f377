"""Ideals, quotient dimensions, standard modules, and the squared word basis.

Everything here works in coordinates over the diagram basis of b_n.  Every
generator maps a basis diagram to a monomial [2]^a g^b de^c times one
diagram, and such a monomial is nonzero over the fraction field of
Z[q^+-1, g, de].  So every span the ideal, tower, quotient, word basis and
span-closure checks build is the coordinate span of a set of diagram
indices.  Those spans are `frozenset`s of basis indices, and each claim is
decided once, exactly, by set operations.  The specialization points and
the Schwartz-Zippel note are still recorded on every report.

Ideal spans are computed by closure: start from the generating word's
diagram and multiply by generators on the required side(s), which is
reachability over the generator action tables.  The tower's decompose
claim is decided the same way: b_{n-1} + b_{n-1} U_{n-1} b_{n-1} is the
closure of {1, U_{n-1}} under left and right multiplication by the letters
of b_{n-1}.

Standard modules are built per specialization point in F_p: their action
matrices are expressed in the walk-word basis modulo a quotient span, and
the defining relations are checked on those matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .diagrams import ScaledDiagram, all_diagrams, compose, compose_scaled
from .modlin import CoordSolver, RowSpan, SpecPoint, draw_points, mulmod
from .presentation import evaluate_word
from .reports import Report
from .walks import factor_walk_words, tail_word, walk_words
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
    """The diagram basis of b_n with its generator action tables.

    Each generator acts on a basis diagram as a nonzero monomial times one
    diagram, so an action table is the list of target indices, one per
    basis diagram, keyed by (side, letter).
    """

    def __init__(self, n: int):
        self.n = n
        self.basis = all_diagrams(n)
        self.dim = len(self.basis)
        self.index = {d: i for i, d in enumerate(self.basis)}
        self.letters = list(range(0, n))  # 0 is e, i >= 1 is U_i
        self.targets: Dict[Tuple[str, int], List[int]] = {}
        from .presentation import _generator_diagram

        for letter in self.letters:
            gen = _generator_diagram(n, letter)
            self.targets[("L", letter)] = [self.index[compose(gen, d).diagram] for d in self.basis]
            self.targets[("R", letter)] = [self.index[compose(d, gen).diagram] for d in self.basis]

    def vector(self, scaled: ScaledDiagram, point: SpecPoint) -> np.ndarray:
        vec = np.zeros(self.dim, dtype=np.int64)
        vec[self.index[scaled.diagram]] = scaled.coeff.specialize(
            point.q0, point.g0, point.d0, point.prime
        )
        return vec

    def word_vector(self, w: Word, point: SpecPoint) -> np.ndarray:
        return self.vector(evaluate_word(w), point)

    def word_span(self, words: Iterable[Word]) -> FrozenSet[int]:
        """Span of the word images: each is a nonzero monomial times one
        diagram, so this is the set of their diagram indices."""
        return frozenset(self.index[evaluate_word(w).diagram] for w in words)

    def word_matrix(self, words: Sequence[Word], point: SpecPoint) -> np.ndarray:
        out = np.zeros((len(words), self.dim), dtype=np.int64)
        for i, w in enumerate(words):
            out[i] = self.word_vector(w, point)
        return out


@lru_cache(maxsize=10)
def diagram_space(n: int) -> DiagramSpace:
    return DiagramSpace(n)


def _closure(space: DiagramSpace, seeds: Iterable[int], sides: str,
             letters: Optional[Sequence[int]] = None) -> FrozenSet[int]:
    """Span of the seed diagrams (basis indices) closed under
    multiplication on `sides` by the generators in `letters` (default: all
    of b_n): the diagrams reachable from the seeds in the action tables."""
    if letters is None:
        letters = space.letters
    used = [space.targets[(s, letter)] for s in sides for letter in letters]
    seen = set(seeds)
    queue = list(seen)
    while queue:
        d = queue.pop()
        for tgt in used:
            if tgt[d] not in seen:
                seen.add(tgt[d])
                queue.append(tgt[d])
    return frozenset(seen)


def ideal_span(n: int, g: Word, two_sided: bool) -> FrozenSet[int]:
    """Span of the (one- or two-sided) ideal generated by the word g."""
    space = diagram_space(n)
    return _closure(space, space.word_span([g.with_n(n)]), "LR" if two_sided else "L")


@lru_cache(maxsize=4096)
def _cached_ideal(g: Word, two_sided: bool) -> FrozenSet[int]:
    return ideal_span(g.n, g, two_sided)


def through_ideal(n: int, m: int) -> FrozenSet[int]:
    """The two-sided ideal generated by the m-through-line cap word."""
    return _cached_ideal(cap_word(m, n), True)


def blob_ideal(n: int, m: int) -> FrozenSet[int]:
    """The two-sided ideal generated by the blobbed m-through-line word."""
    return _cached_ideal(blob_cap_word(m, n), True)


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
    words = tuple(
        a * middle * opposite(b) for b in prefixes for a in prefixes
    )
    return SquaredBasis(n, m, prefixes, middle, words)


@lru_cache(maxsize=64)
def regular_basis(n: int) -> Tuple[Word, ...]:
    """The union of all squared bases: C(2n, n) words spanning b_n."""
    out: List[Word] = []
    for m in range(-n, n + 1, 2):
        out.extend(squared_basis(n, m).words)
    return tuple(out)


def check_word_basis(n: int, points: Optional[Sequence[SpecPoint]] = None,
                     seed: Optional[int] = 0) -> Report:
    """The regular word basis maps bijectively onto the diagram basis
    (exact), each squared basis has an opposite-invariant member, and the
    squared bases span the two-sided ideal filtration layer by layer."""
    rep, _, space, note = _start_check("bases", n, points, seed)
    words = regular_basis(n)
    images = [evaluate_word(w) for w in words]
    rep.add("unit-scalars", f"{len(words)} word images", "all scalar 1",
            all(s.coeff.is_one() for s in images))
    diags = [s.diagram for s in images]
    rep.add("distinct", len(set(diags)), len(words), len(set(diags)) == len(words))
    target = set(all_diagrams(n))
    rep.add("onto", f"{len(set(diags))} distinct images", f"all {len(target)} diagrams",
            set(diags) == target)
    rep.add("count", len(words), comb(2 * n, n), len(words) == comb(2 * n, n))

    for m in range(-n, n + 1, 2):
        sq = squared_basis(n, m)
        found = False
        for w in sq.words:
            s, so = evaluate_word(w), evaluate_word(opposite(w))
            if s.coeff == so.coeff and s.diagram == so.diagram:
                found = True
                break
        rep.add(f"self-opposite m={m}", "exists w = op(w) under evaluation", "true", found)

    def layer_ideal(m: int) -> FrozenSet[int]:
        return blob_ideal(n, m) if m > 0 else through_ideal(n, -m)

    for m in range(-n, n + 1, 2):
        sq = squared_basis(n, m)
        lower = [m2 for m2 in range(-n, n + 1, 2) if abs(m2) < abs(m) or (m < 0 and m2 == -m)]
        below = frozenset().union(*map(layer_ideal, lower))
        with_words = below | space.word_span(sq.words)
        ok_span = with_words == below | layer_ideal(m)
        ok_indep = len(with_words) == len(below) + len(sq.words)
        ok_rank = len(below) == sum(comb(n, (n + m2) // 2) ** 2 for m2 in lower)
        rep.add(f"filtration m={m}", f"{len(sq.words)} squared words + lower ideals",
                "span of layer ideal, independent", ok_span and ok_indep, note)
        rep.add(f"filtration-rank m={m}", "rank of lower ideals",
                "sum of squared walk counts", ok_rank, note)
    return rep


# -- ideal inclusion checks ----------------------------------------------------


def commuting_subsets(n: int) -> List[Tuple[int, ...]]:
    """Subsets of {1..n-1} with no two adjacent indices (products commute)."""
    out: List[Tuple[int, ...]] = [()]
    for size in range(1, n):
        def grow(prefix: Tuple[int, ...], start: int) -> None:
            if len(prefix) == size:
                out.append(prefix)
                return
            for nxt in range(start, n):
                grow(prefix + (nxt,), nxt + 2)
        grow((), 1)
    return out


def check_ideal_inclusions(n: int, points: Optional[Sequence[SpecPoint]] = None,
                           seed: Optional[int] = 0) -> Report:
    """Products of commuting generators generate the through-line ideals;
    the ideals nest; blobbed ideals sit inside plain ones; g times a plain
    ideal lands in the blobbed ideal two steps up."""
    rep, _, space, note = _start_check("ideals", n, points, seed)

    for subset in commuting_subsets(n):
        m = n - 2 * len(subset)
        ok = ideal_span(n, Word(n, subset), True) == through_ideal(n, m)
        label = "*".join(f"U{i}" for i in subset) or "1"
        rep.add(f"generates W={label}", f"ideal of {label}", f"through ideal m={m}", ok, note)

    for m in range(n % 2, n - 1, 2):
        ok = through_ideal(n, m) <= through_ideal(n, m + 2)
        rep.add(f"nesting m={m}", f"ideal m={m}", f"inside ideal m={m + 2}", ok, note)

    for m in range(n % 2, n + 1, 2):
        if m == 0:
            continue
        ok = blob_ideal(n, m) <= through_ideal(n, m)
        rep.add(f"blob-inside m={m}", f"blobbed ideal m={m}", f"inside ideal m={m}", ok, note)

    for m in range(n % 2, n - 1, 2):
        # g is a nonzero scalar, so g times a span is the span itself
        ok = through_ideal(n, m) <= blob_ideal(n, m + 2)
        rep.add(f"g-step m={m}", f"g * ideal m={m}", f"inside blobbed ideal m={m + 2}", ok, note)
    return rep


# -- tower identities ----------------------------------------------------------


@lru_cache(maxsize=64)
def _conjugated_span(space: DiagramSpace, left: Word, right: Word) -> FrozenSet[int]:
    """The span of left * b_n * right: the diagrams of left * w * right
    over the regular basis words w of b_n."""
    n = space.n
    lv = evaluate_word(left.with_n(n))
    rv = evaluate_word(right.with_n(n))
    return frozenset(
        space.index[compose_scaled(compose_scaled(lv, evaluate_word(w.with_n(n))), rv).diagram]
        for w in regular_basis(n)
    )


def check_tower(n: int, points: Optional[Sequence[SpecPoint]] = None,
                seed: Optional[int] = 0) -> Report:
    """The level decomposition b_n = b_{n-1} + b_{n-1} U_{n-1} b_{n-1}, the
    squeeze identities U_{n-1} b_n U_{n-1} = U_{n-1} b_{n-2} (rank one at
    n = 2, where [2] or g must be invertible), and the sandwich
    Er_m b_n Er_m = Er_m b_m.

    The decomposition is decided by closing {1, U_{n-1}} under left and
    right multiplication by e, U_1, ..., U_{n-2} and asking for all of
    b_n; no product of two basis words is formed.  The squeeze and
    sandwich left-hand sides come from `_conjugated_span`."""
    if n < 2:
        raise ValueError("tower checks need n >= 2")
    rep, _, space, note = _start_check("tower", n, points, seed)

    u_top = gen_u(n, n - 1)
    ok = len(_closure(space, space.word_span([unit(n), u_top]), "LR", range(n - 1))) == space.dim
    rep.add("decompose", f"b_{n-1} + b_{n-1} U{n-1} b_{n-1}", f"all of b_{n} (rank {space.dim})",
            ok, note)

    if n == 2:
        ok = _conjugated_span(space, u_top, u_top) == space.word_span([gen_u(2, 1)])
        rep.add("squeeze n=2", "U1 b_2 U1", "([2]K + gK) U1 b_0 = K U1", ok,
                note + "; needs [2] or g invertible, points have g nonzero")
    if n >= 3:
        want = space.word_span(u_top * w.with_n(n) for w in regular_basis(n - 2))
        ok = _conjugated_span(space, u_top, u_top) == want
        rep.add("squeeze", f"U{n-1} b_{n} U{n-1}", f"U{n-1} b_{n-2}", ok, note)

    for m in range(n % 2, n + 1, 2):
        er = cap_word_right(m, n)
        want = space.word_span(er * w.with_n(n) for w in regular_basis(m))
        ok = _conjugated_span(space, er, er) == want
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
        with_conj = ideal | _conjugated_span(space, er, er)
        ok_dim = len(with_conj) - len(ideal) == 2
        with_reps = ideal | space.word_span([er, gen_e(n) * er])
        ok_reps = len(with_reps) == len(ideal) + 2 and with_reps == with_conj
        label = f"Er_{m} b_n^{m - 2} Er_{m}" if r else f"b_n^{n - 2}"
        rep.add(f"dim r={r}", label, "dimension 2", ok_dim, note)
        rep.add(f"reps r={r}", label, "{1, e} Er representatives", ok_reps, note)
        r += 1
    return rep


# -- standard modules ----------------------------------------------------------


def _quotient_span(n: int, m: int) -> FrozenSet[int]:
    """The span to quotient by so that the weight-m walk words become a
    module basis: nothing for m in {0, 1}; the blobbed left ideal for
    m = -1; the two-lower through ideal for m >= 2; both for m <= -2."""
    if m >= 2:
        return through_ideal(n, m - 2)
    if m >= 0:
        return frozenset()
    blobbed = _cached_ideal(blob_cap_word(-m, n), False)
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


def standard_module(n: int, m: int, point: SpecPoint) -> StandardModule:
    """Build the standard module with basis the weight-m walk words.

    Generator action vectors are expressed in the basis modulo the
    quotient span; an inexpressible vector means the walk words do not
    span, which is a bug, so it raises."""
    if abs(m) > n or (n - m) % 2 != 0:
        raise ValueError(f"no module at weight m={m} for n={n}")
    space = diagram_space(n)
    words = tuple(walk_words(n, m))
    z_span = RowSpan.coordinate(space.dim, point.prime, _quotient_span(n, m))
    basis_vecs = space.word_matrix(words, point)
    residuals = z_span.reduce(basis_vecs)
    solver = CoordSolver(residuals, point.prime)

    matrices: Dict[str, np.ndarray] = {}
    for letter in space.letters:
        name = "e" if letter == 0 else f"U{letter}"
        mat = np.zeros((len(words), len(words)), dtype=np.int64)
        gen = gen_e(n) if letter == 0 else gen_u(n, letter)
        for j, w in enumerate(words):
            vec = space.word_vector(gen * w, point)
            coeffs = solver.express(z_span.reduce(vec))
            if coeffs is None:
                raise AssertionError(f"action of {name} left the module at m={m}, word {w}")
            mat[:, j] = coeffs
        matrices[name] = mat

    cyc = solver.express(z_span.reduce(space.word_vector(tail_word(m, n), point)))
    if cyc is None:
        raise AssertionError(f"cyclic vector escaped the module at m={m}")
    return StandardModule(n, m, point, words, matrices, cyc)


def matrices_satisfy_relations(mod: StandardModule) -> bool:
    """Check the defining relations on the action matrices, exactly in F_p."""
    p = mod.point.prime
    two = (mod.point.q0 + pow(mod.point.q0, -1, p)) % p
    g0, d0 = mod.point.g0 % p, mod.point.d0 % p
    mats = mod.matrices
    e = mats["e"]

    def mm(a, b):
        return mulmod(a, b, p)

    ok = True
    top = mod.n - 1
    for i in range(1, top + 1):
        u = mats[f"U{i}"]
        ok &= (mm(u, u) == (two * u) % p).all()
        for j in range(i + 2, top + 1):
            v = mats[f"U{j}"]
            ok &= (mm(u, v) == mm(v, u)).all()
        for j in (i - 1, i + 1):
            if 1 <= j <= top:
                v = mats[f"U{j}"]
                ok &= (mm(mm(u, v), u) == u).all()
        if i != 1:
            ok &= (mm(u, e) == mm(e, u)).all()
    if top >= 1:
        u1 = mats["U1"]
        ok &= (mm(mm(u1, e), u1) == (g0 * u1) % p).all()
    ok &= (mm(e, e) == (d0 * e) % p).all()
    return bool(ok)


def check_standard_modules(n: int, points: Optional[Sequence[SpecPoint]] = None,
                           seed: Optional[int] = 0) -> Report:
    """Module dimensions equal walk counts and the action matrices satisfy
    the defining relations, at every specialization point."""
    rep, points, space, note = _start_check("modules", n, points, seed)
    for m in range(-n, n + 1, 2):
        want = comb(n, (n + m) // 2)
        quotient = _quotient_span(n, m)
        ok_dim = True
        ok_rel = True
        for pt in points:
            mod = standard_module(n, m, pt)
            with_basis = RowSpan.coordinate(space.dim, pt.prime, quotient)
            with_basis.absorb(space.word_matrix(mod.words, pt))
            ok_dim &= mod.dim == want and with_basis.rank == len(quotient) + want
            ok_rel &= matrices_satisfy_relations(mod)
        rep.add(f"dim m={m}", f"standard module at m={m}", f"dimension {want}", ok_dim, note)
        rep.add(f"relations m={m}", f"action matrices at m={m}", "defining relations", ok_rel, note)
    return rep


def check_span_closure(n: int, points: Optional[Sequence[SpecPoint]] = None,
                       seed: Optional[int] = 0) -> Report:
    """Left multiplication by any generator keeps each walk-word span
    inside itself plus its stated quotient span."""
    rep, _, space, note = _start_check("span-closure", n, points, seed)
    gens = [gen_e(n)] + [gen_u(n, i) for i in range(1, n)]
    for m in range(-n, n + 1, 2):
        words = walk_words(n, m)
        allowed = _quotient_span(n, m) | space.word_span(words)
        ok = space.word_span(g * w for g in gens for w in words) <= allowed
        rep.add(f"closure m={m}", f"generators * {len(words)} walk words",
                "inside walk span + quotient span", ok, note)
    return rep
