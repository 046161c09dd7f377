"""Dense reference linear algebra for the coordinate span layer.

`blobalg.modlin` keeps only coordinate subspaces and a monomial solver
over ``(column, value)`` rows, because every word image at a
specialization point is a scaled unit vector, and `blobalg.towers` decides
span claims as sets of diagram indices with no point at all.  The general
per-point forms live here so tests can check the fast ones against them on
any input:

* `dense`: the dense expansion of ``(column, value)`` rows, and
  `image_vectors`/`word_vectors`: dense rows of scaled diagrams or word
  images at a point, built without `DiagramSpace.word_rows`;
* `ReferenceSpan`: a subspace of F_p^dim in reduced row echelon form, each
  row with a leading 1 in its pivot column and zeros in every other pivot
  column, absorbing arbitrary vectors;
* `ReferenceSolver`: an RREF of a fixed independent row list together with
  the transform back to the original rows;
* `point_actions`: the generator action tables at one point, composed
  afresh and specialized;
* `reference_closure`: the rank-stabilizing closure of arbitrary seed
  vectors under those tables;
* `bfs_closure`: the closure of basis indices one index at a time over
  the action tables of a `DiagramSpace`, the oracle for its rectangles;
* `reference_conjugated_span` and `reference_subalgebra_span`: the tower
  spans left * b_n * right and x * b_k as the diagram sets of explicit
  products with every regular-basis word, the definition that
  `towers` replaces by closures over the action tables;
* `reference_left_images`: the diagrams of every generator times every
  given word, each product evaluated as its own word, which the
  span-closure check replaces by one step of the left action tables;
* `reference_standard_module`: the action matrices and cyclic vector of a
  standard module from dense word vectors, a `ReferenceSpan` for the
  quotient span and a `ReferenceSolver` for coordinates;
* `reference_relations_hold`: the defining relations on a module's action
  matrices one relation at a time, each side a chain of `mulmod`s, where
  `towers` multiplies stacked sides one product depth at a time.
"""

import bisect
from functools import lru_cache, reduce
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from blobalg.diagrams import compose, compose_scaled, generator_diagram
from blobalg.modlin import SpecPoint, mulmod
from blobalg.presentation import defining_relations, evaluate_word
from blobalg.towers import _quotient_span, diagram_space, regular_basis
from blobalg.walks import tail_word, walk_words
from blobalg.words import Word


def dense(rows, dim: int) -> np.ndarray:
    """The dense form of ``(column, value)`` rows: a k x 2 batch gives a
    k x dim matrix, a single row a dim-vector."""
    rows = np.asarray(rows, dtype=np.int64)
    flat = rows.reshape(-1, 2)
    out = np.zeros((len(flat), dim), dtype=np.int64)
    out[np.arange(len(flat)), flat[:, 0]] = flat[:, 1]
    return out if rows.ndim == 2 else out[0]


def image_vectors(space, images, point: SpecPoint) -> np.ndarray:
    """The scaled diagrams `images` at the point, as dense rows over the
    diagram basis of `space`."""
    out = np.zeros((len(images), space.dim), dtype=np.int64)
    for i, s in enumerate(images):
        out[i, space.index_of(s.diagram)] = s.coeff.specialize(
            point.q0, point.g0, point.d0, point.prime)
    return out


def word_vectors(space, words, point: SpecPoint) -> np.ndarray:
    return image_vectors(space, [evaluate_word(w) for w in words], point)


class ReferenceSpan:
    """A subspace of F_p^dim kept as echelon rows sorted by pivot."""

    def __init__(self, dim: int, p: int):
        self.dim = dim
        self.p = p
        self.pivots: List[int] = []
        # rows[:rank] of a buffer that doubles when full, so inserting a row
        # moves only the rows after its pivot position
        self._buf = np.zeros((0, dim), dtype=np.int64)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def rows(self) -> np.ndarray:
        return self._buf[:self.rank]

    def reduce(self, vecs: np.ndarray) -> np.ndarray:
        """Residual of vectors after removing their span component."""
        if vecs.ndim == 1:
            return self.reduce(vecs[None, :])[0]
        vecs = vecs % self.p
        if not self.pivots or not len(vecs):
            return vecs
        coeffs = vecs[:, self.pivots]
        return (vecs - mulmod(coeffs, self.rows, self.p)) % self.p

    def _insert_reduced(self, vec: np.ndarray) -> None:
        piv = int(np.nonzero(vec)[0][0])
        rows, k = self.rows, self.rank
        col = rows[:, piv].copy()
        if col.any():
            rows[:] = (rows - np.outer(col, vec)) % self.p
        if k == len(self._buf):
            self._buf = np.concatenate([rows, np.zeros((max(k, 16), self.dim), dtype=np.int64)])
        at = bisect.bisect(self.pivots, piv)
        self._buf[at + 1:k + 1] = self._buf[at:k]
        self._buf[at] = vec
        self.pivots.insert(at, piv)

    def absorb(self, vecs: np.ndarray) -> np.ndarray:
        """Add vectors to the span; return the new basis rows added."""
        if vecs.ndim == 1:
            vecs = vecs[None, :]
        added = []
        batch = self.reduce(vecs)
        for i in range(batch.shape[0]):
            vec = batch[i]
            nz = np.nonzero(vec)[0]
            if not len(nz):
                continue
            piv = int(nz[0])
            inv = pow(int(vec[piv]), -1, self.p)
            row = (vec * inv) % self.p
            self._insert_reduced(row)
            added.append(row)
            rest = batch[i + 1:]
            if rest.shape[0]:
                col = rest[:, piv].copy()
                mask = col != 0
                if mask.any():
                    batch[i + 1:][mask] = (rest[mask] - np.outer(col[mask], row)) % self.p
        return np.array(added, dtype=np.int64).reshape(len(added), self.dim)

    def contains(self, vecs: np.ndarray) -> bool:
        return not self.reduce(vecs).any()


def span_of(vecs: np.ndarray, dim: int, p: int) -> ReferenceSpan:
    span = ReferenceSpan(dim, p)
    if len(vecs):
        span.absorb(np.asarray(vecs, dtype=np.int64))
    return span


class ReferenceSolver:
    """Express vectors as combinations of a fixed (independent) row list.

    Keeps an RREF of the rows together with the transform back to the
    original coordinates, so `express` returns the exact coefficient
    vector or None when the target is outside the span.
    """

    def __init__(self, rows: np.ndarray, p: int):
        rows = np.asarray(rows, dtype=np.int64) % p
        self.p = p
        self.k, self.dim = rows.shape
        self.rref = np.zeros((0, self.dim), dtype=np.int64)
        self.transform = np.zeros((0, self.k), dtype=np.int64)
        self.pivots: List[int] = []
        for i in range(self.k):
            vec = rows[i]
            coef = np.zeros(self.k, dtype=np.int64)
            coef[i] = 1
            vec, coef = self._reduce_pair(vec, coef)
            nz = np.nonzero(vec)[0]
            if not len(nz):
                raise ValueError("rows are not independent")
            piv = int(nz[0])
            inv = pow(int(vec[piv]), -1, p)
            vec = (vec * inv) % p
            coef = (coef * inv) % p
            col = self.rref[:, piv].copy()
            if len(col) and col.any():
                self.rref = (self.rref - np.outer(col, vec)) % p
                self.transform = (self.transform - np.outer(col, coef)) % p
            self.rref = np.vstack([self.rref, vec[None, :]])
            self.transform = np.vstack([self.transform, coef[None, :]])
            self.pivots.append(piv)

    def _reduce_pair(self, vec: np.ndarray, coef: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        if self.pivots:
            c = vec[self.pivots]
            vec = (vec - mulmod(c, self.rref, self.p)) % self.p
            coef = (coef - mulmod(c, self.transform, self.p)) % self.p
        return vec % self.p, coef % self.p

    def express(self, target: np.ndarray) -> Optional[np.ndarray]:
        vec = np.asarray(target, dtype=np.int64) % self.p
        c = vec[self.pivots]
        residual = (vec - mulmod(c, self.rref, self.p)) % self.p
        if residual.any():
            return None
        return mulmod(c, self.transform, self.p)


def _apply_action(action: Tuple[np.ndarray, np.ndarray], vecs: np.ndarray, p: int) -> np.ndarray:
    tgt, scal = action
    contrib = (vecs * scal[None, :]) % p
    out_t = np.zeros((vecs.shape[1], vecs.shape[0]), dtype=np.int64)
    np.add.at(out_t, tgt, contrib.T)
    return (out_t.T) % p


@lru_cache(maxsize=64)
def point_actions(space, point: SpecPoint) -> Dict[Tuple[str, int], Tuple[np.ndarray, np.ndarray]]:
    """Per (side, letter): the target index and the F_p scalar of the
    generator times each basis diagram of `space` at the point."""
    out = {}
    basis = [space.diagram(i) for i in range(space.dim)]
    for letter in space.letters:
        gen = generator_diagram(space.n, letter)
        for side in ("L", "R"):
            prods = [compose(gen, d) if side == "L" else compose(d, gen) for d in basis]
            tgt = np.array([space.index_of(p.diagram) for p in prods], dtype=np.int64)
            scal = np.array([p.coeff.specialize(point.q0, point.g0, point.d0, point.prime)
                             for p in prods], dtype=np.int64)
            out[(side, letter)] = (tgt, scal)
    return out


def reference_closure(space, seeds: np.ndarray, point: SpecPoint, sides: str,
                      letters: Optional[Sequence[int]] = None) -> ReferenceSpan:
    """Span of the seed vectors closed under multiplication on `sides` by
    the generators in `letters` (default: all of b_n), by absorbing the
    image of each new basis row until the rank stops growing."""
    acts = point_actions(space, point)
    if letters is None:
        letters = space.letters
    used = [acts[(s, letter)] for s in sides for letter in letters]
    span = ReferenceSpan(space.dim, point.prime)
    frontier = span.absorb(np.asarray(seeds, dtype=np.int64) % point.prime)
    while frontier.shape[0]:
        batch = np.vstack([_apply_action(a, frontier, point.prime) for a in used])
        frontier = span.absorb(batch)
    return span


def bfs_closure(space, seeds, sides: str, letters: Optional[Sequence[int]] = None) -> FrozenSet[int]:
    """The seed indices closed under the generators of `letters` (default:
    all of b_n) on `sides`, one basis index at a time over the action
    tables of `space`: the search `towers` replaces by rectangles."""
    if letters is None:
        letters = space.letters
    used = [space.targets[(side, letter)] for side in sides for letter in letters]
    seen = set(seeds)
    queue = list(seen)
    while queue:
        d = queue.pop()
        for tgt in used:
            if tgt[d] not in seen:
                seen.add(tgt[d])
                queue.append(tgt[d])
    return frozenset(seen)


def reference_conjugated_span(space, left, right) -> FrozenSet[int]:
    """The diagrams of left * w * right over the regular basis words w of
    b_n, each formed as two explicit products."""
    n = space.n
    lv, rv = evaluate_word(left.with_n(n)), evaluate_word(right.with_n(n))
    return frozenset(
        space.index_of(compose_scaled(compose_scaled(lv, evaluate_word(w.with_n(n))), rv).diagram)
        for w in regular_basis(n)
    )


def reference_subalgebra_span(space, x, k: int) -> FrozenSet[int]:
    """The diagrams of x * w over the regular basis words w of b_k, read
    as words on the n strands of `space`."""
    return space.word_span(x * w.with_n(space.n) for w in regular_basis(k))


def reference_left_images(space, words) -> FrozenSet[int]:
    """The diagrams of g * w over every generator g of b_n and every word
    w, each product evaluated as a word."""
    n = space.n
    return space.word_span(Word(n, (letter,)) * w for letter in range(n) for w in words)


@lru_cache(maxsize=None)
def _reference_quotient(n: int, m: int, p: int) -> ReferenceSpan:
    dim = diagram_space(n).dim
    quotient = np.array(sorted(_quotient_span(n, m)), dtype=np.int64)
    return span_of(dense(np.stack([quotient, np.ones_like(quotient)], axis=1), dim), dim, p)


def reference_standard_module(n: int, m: int, point: SpecPoint):
    """(matrices, cyclic) of the weight-m standard module at the point:
    every image a dense vector reduced by the quotient span, and its
    coordinates in the reduced walk-word images solved for in general."""
    space = diagram_space(n)
    words = walk_words(n, m)
    quotient = _reference_quotient(n, m, point.prime)
    solver = ReferenceSolver(quotient.reduce(word_vectors(space, words, point)), point.prime)

    def coordinates(images):
        coeffs = [solver.express(v) for v in quotient.reduce(word_vectors(space, images, point))]
        assert all(c is not None for c in coeffs)
        return np.array(coeffs, dtype=np.int64).T

    matrices = {("e" if letter == 0 else f"U{letter}"):
                coordinates([Word(n, (letter,)) * w for w in words]) for letter in space.letters}
    return matrices, coordinates([tail_word(m, n)])[:, 0]


def reference_relations_hold(mod) -> bool:
    """Whether the module's action matrices satisfy every defining
    relation: each side the product of its letters' matrices, one `mulmod`
    per letter, and the right side scaled by the relation's scalar at the
    module's point."""
    pt = mod.point

    def image(w):
        mats = (mod.matrices["e" if x == 0 else f"U{x}"] for x in w.letters)
        return reduce(lambda a, b: mulmod(a, b, pt.prime), mats)

    ok = True
    for *_, lhs, rhs, scalar in defining_relations(mod.n):
        want = image(rhs)
        if scalar is not None:
            want = scalar.specialize(pt.q0, pt.g0, pt.d0, pt.prime) * want % pt.prime
        ok &= (image(lhs) == want).all()
    return bool(ok)
