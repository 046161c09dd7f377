"""Exact linear algebra over a prime field F_p with 2^30 < p < 2^31.

Matrices are numpy int64 arrays with entries in [0, p).  The size bound on
p keeps every product below 2^62 so single multiplications stay exact in
int64, and lets matrix products run through float64 BLAS after splitting
each factor into 16-bit high/low parts (every partial product then fits
float64's 53-bit mantissa exactly).

`RowSpan` maintains a row-reduced basis of a subspace: each row has a
leading 1 in its pivot column and zeros in every other pivot column, so
reducing a batch of vectors against the span is a single matrix product.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

DEFAULT_PRIME = (1 << 31) - 1  # Mersenne prime, comfortably above 2^30

_SPLIT = 16
_MASK = (1 << _SPLIT) - 1


def check_prime(p: int) -> int:
    if not (1 << 30) < p < (1 << 31):
        raise ValueError("prime must lie strictly between 2^30 and 2^31")
    if p % 2 == 0 or any(p % d == 0 for d in range(3, int(p ** 0.5) + 1, 2)):
        raise ValueError(f"{p} is not prime")
    return p


def mulmod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) mod p, exact, using split float64 BLAS products."""
    if a.ndim == 1:
        return mulmod(a[None, :], b, p)[0]
    ah = (a >> _SPLIT).astype(np.float64)
    al = (a & _MASK).astype(np.float64)
    bh = (b >> _SPLIT).astype(np.float64)
    bl = (b & _MASK).astype(np.float64)
    hh = (ah @ bh).astype(np.int64) % p
    mid = (ah @ bl + al @ bh).astype(np.int64) % p
    ll = (al @ bl).astype(np.int64) % p
    shift_hi = (1 << (2 * _SPLIT)) % p
    shift_mid = (1 << _SPLIT) % p
    return ((hh * shift_hi) % p + (mid * shift_mid) % p + ll) % p


@dataclass(frozen=True)
class SpecPoint:
    """One random specialization of (q, g, de) in F_p."""

    prime: int
    q0: int
    g0: int
    d0: int

    def to_dict(self) -> dict:
        return {"prime": self.prime, "q0": self.q0, "g0": self.g0, "d0": self.d0}


def draw_points(seed: int, count: int = 3, prime: int = DEFAULT_PRIME) -> List[SpecPoint]:
    """Deterministic independent specialization points.

    All three values are drawn uniformly from the nonzero elements: q must
    be invertible, and nonzero g keeps the handful of "g or [2] invertible"
    side conditions satisfied at every point.
    """
    rng = random.Random(f"blobalg-points-{seed}-{prime}")
    return [
        SpecPoint(prime, rng.randrange(1, prime), rng.randrange(1, prime), rng.randrange(1, prime))
        for _ in range(count)
    ]


class RowSpan:
    """A subspace of F_p^dim kept in reduced row echelon form.

    A coordinate subspace (every basis row a plain unit vector, which is
    what ideal closures produce here) is stored as its pivot list alone:
    reduction zeroes the pivot columns, containment between two coordinate
    spans is a subset test, and `rows` is built only when asked for.  The
    first vector with two or more nonzero entries switches the span to
    dense rows for good.
    """

    def __init__(self, dim: int, p: int):
        self.dim = dim
        self.p = p
        self.pivots: List[int] = []
        self._rows: Optional[np.ndarray] = None  # None while a coordinate subspace

    @classmethod
    def coordinate(cls, dim: int, p: int, indices: Iterable[int]) -> "RowSpan":
        """The span of the unit vectors at the given coordinate indices."""
        out = cls(dim, p)
        out.pivots = sorted({int(i) for i in indices})
        return out

    @property
    def rows(self) -> np.ndarray:
        """The echelon rows, ordered by pivot (built on demand for a
        coordinate span)."""
        if self._rows is not None:
            return self._rows
        return _unit_rows(self.pivots, self.dim)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, vecs: np.ndarray) -> np.ndarray:
        """Residual of vectors after removing their span component."""
        if vecs.ndim == 1:
            return self.reduce(vecs[None, :])[0]
        if not self.pivots or not len(vecs):
            return vecs % self.p
        vecs = vecs % self.p
        if self._rows is None:
            vecs[:, self.pivots] = 0
            return vecs
        coeffs = vecs[:, self.pivots]
        return (vecs - mulmod(coeffs, self._rows, self.p)) % self.p

    def _insert_reduced(self, vec: np.ndarray) -> None:
        piv = int(np.nonzero(vec)[0][0])
        col = self._rows[:, piv].copy()
        if col.any():
            self._rows = (self._rows - np.outer(col, vec)) % self.p
        self._rows = np.vstack([self._rows, vec[None, :]])
        self.pivots.append(piv)
        order = np.argsort(self.pivots, kind="stable")
        self._rows = self._rows[order]
        self.pivots = [self.pivots[i] for i in order]

    def absorb(self, vecs: np.ndarray) -> np.ndarray:
        """Add vectors to the span; return the new basis rows added."""
        if vecs.ndim == 1:
            vecs = vecs[None, :]
        if self._rows is None:
            nz_rows, nz_cols = np.nonzero(vecs % self.p)
            if len(nz_rows) == len(set(nz_rows.tolist())):  # <= 1 entry per row
                seen = set(self.pivots)
                new: List[int] = []
                for d in nz_cols.tolist():
                    if d not in seen:
                        seen.add(d)
                        new.append(d)
                if new:
                    self.pivots = sorted(seen)
                return _unit_rows(new, self.dim)
            self._rows = self.rows
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

    def absorb_span(self, other: "RowSpan") -> None:
        """Add another span's basis; two coordinate spans merge pivot sets."""
        if self._rows is None and other._rows is None:
            self.pivots = sorted(set(self.pivots).union(other.pivots))
        else:
            self.absorb(other.rows)

    def contains(self, vecs: np.ndarray) -> bool:
        return not self.reduce(vecs).any()

    def contains_span(self, other: "RowSpan") -> bool:
        if self._rows is None and other._rows is None:
            return set(other.pivots) <= set(self.pivots)
        return self.contains(other.rows)

    def equals(self, other: "RowSpan") -> bool:
        return self.rank == other.rank and self.contains_span(other)

    def copy(self) -> "RowSpan":
        out = RowSpan(self.dim, self.p)
        out.pivots = list(self.pivots)
        if self._rows is not None:
            out._rows = self._rows.copy()
        return out


def _unit_rows(indices: Sequence[int], dim: int) -> np.ndarray:
    out = np.zeros((len(indices), dim), dtype=np.int64)
    out[np.arange(len(indices)), indices] = 1
    return out


def span_of(vecs: np.ndarray, dim: int, p: int) -> RowSpan:
    span = RowSpan(dim, p)
    if len(vecs):
        span.absorb(np.asarray(vecs, dtype=np.int64))
    return span


class CoordSolver:
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
