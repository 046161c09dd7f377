"""Exact linear algebra over a prime field F_p with 2^30 < p < 2^31.

Matrices are numpy int64 arrays with entries in [0, p).  The size bound on
p keeps every product below 2^62 so single multiplications stay exact in
int64, and lets matrix products run through float64 BLAS after splitting
each factor into 16-bit high/low parts (every partial product then fits
float64's 53-bit mantissa exactly).

Span claims are decided without a point, as sets of diagram indices (see
`blobalg.towers`).  This module serves the standard modules, which are
built at each specialization point.  Every product of basis diagrams is
one diagram times a monomial, so at a point every word image is a scaled
unit vector.  The span and solver types rely on that and accept nothing
else: `RowSpan` is a coordinate subspace kept as its set of pivot columns,
and `CoordSolver` expresses vectors in a basis of scaled unit vectors on
distinct columns.  Both raise `ValueError` on a row with two or more
nonzero entries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, List, Optional

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
    """A coordinate subspace of F_p^dim: the span of the unit vectors at
    its pivot columns, kept as the sorted pivot list alone.  Reduction
    zeroes the pivot columns.
    """

    def __init__(self, dim: int, p: int):
        self.dim = dim
        self.p = p
        self.pivots: List[int] = []

    @classmethod
    def coordinate(cls, dim: int, p: int, indices: Iterable[int]) -> "RowSpan":
        """The span of the unit vectors at the given coordinate indices."""
        out = cls(dim, p)
        out.pivots = sorted({int(i) for i in indices})
        return out

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, vecs: np.ndarray) -> np.ndarray:
        """Residual of vectors after removing their span component."""
        vecs = vecs % self.p
        vecs[..., self.pivots] = 0
        return vecs

    def absorb(self, vecs: np.ndarray) -> np.ndarray:
        """Add vectors with at most one nonzero entry each; return the
        pivot columns this added, in the order the vectors reach them."""
        rows, cols = np.nonzero(np.atleast_2d(vecs % self.p))
        if (rows[1:] == rows[:-1]).any():
            raise ValueError("a coordinate span absorbs only vectors with at most one nonzero entry")
        seen = set(self.pivots)
        new = [c for c in dict.fromkeys(cols.tolist()) if c not in seen]
        if new:
            self.pivots = sorted(seen.union(new))
        return np.array(new, dtype=np.int64)


class CoordSolver:
    """Express vectors as combinations of a fixed list of scaled unit
    vectors on distinct columns.

    Row i is s_i times the unit vector at column c_i, so a target t lies in
    the span exactly when it vanishes off {c_i}, and its coefficients are
    t[c_i] / s_i.  A zero row, a repeated column or a row with two or more
    nonzero entries raises `ValueError`.
    """

    def __init__(self, rows: np.ndarray, p: int):
        rows = np.asarray(rows, dtype=np.int64) % p
        counts = np.count_nonzero(rows, axis=1)
        if (counts > 1).any():
            raise ValueError("solver rows must have at most one nonzero entry")
        self.p = p
        self.cols = rows.argmax(axis=1)
        if (counts == 0).any() or len(set(self.cols.tolist())) < len(self.cols):
            raise ValueError("rows are not independent")
        scalars = rows[np.arange(len(rows)), self.cols].tolist()
        self.inverses = np.array([pow(s, -1, p) for s in scalars], dtype=np.int64)

    def express(self, target: np.ndarray) -> Optional[np.ndarray]:
        vec = np.asarray(target, dtype=np.int64) % self.p
        coeffs = vec[self.cols] * self.inverses % self.p
        vec[self.cols] = 0
        if vec.any():
            return None
        return coeffs
