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
unit vector, and that is the only vector this module writes: an int64
``(column, value)`` row standing for value times the unit vector at
column, with a batch of k vectors a k x 2 array.  A value that is 0 mod p
is the zero vector.  `RowSpan` is a coordinate subspace kept as the boolean
mask over the basis that `blobalg.towers` builds for it (`coordinate`
copies the mask), and `CoordSolver` expresses such rows in a basis of them
on distinct columns, once an absorb into a `RowSpan` has shown them
independent.  Both stay only until the module relations are decided on
partial maps without a point (ROADMAP item 4).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

DEFAULT_PRIME = (1 << 31) - 1  # Mersenne prime, comfortably above 2^30

_SPLIT = 16
_MASK = (1 << _SPLIT) - 1


def check_prime(p: int) -> int:
    """p itself when it is a prime strictly between 2^30 and 2^31.  The
    test is Miller-Rabin to bases 2, 3, 5 and 7, which no odd composite
    below 3,215,031,751 passes."""
    if not (1 << 30) < p < (1 << 31):
        raise ValueError("prime must lie strictly between 2^30 and 2^31")
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2^s with d odd
    for a in (2, 3, 5, 7):
        x = pow(a, (p - 1) >> s, p)
        if p % 2 == 0 or x != 1 and all(pow(x, 1 << r, p) != p - 1 for r in range(s)):
            raise ValueError(f"{p} is not prime")
    return p


def mulmod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) mod p, exact, using split float64 BLAS products; a and b
    may be stacks of matrices, multiplied pairwise.

    For inner dimension k < 2^30, the reduced high part times 2^32 mod p
    (below 2^62), the reduced middle part shifted up (below 2^47) and the
    unreduced low part (below 2^32 k) sum below 2^63, so the sum is
    reduced once.  At module sizes an int64 ``%`` costs more than a BLAS
    product."""
    if a.ndim == 1:
        return mulmod(a[None, :], b, p)[0]
    ah = (a >> _SPLIT).astype(np.float64)
    al = (a & _MASK).astype(np.float64)
    bh = (b >> _SPLIT).astype(np.float64)
    bl = (b & _MASK).astype(np.float64)
    hh = (ah @ bh).astype(np.int64) % p
    mid = (ah @ bl + al @ bh).astype(np.int64) % p
    ll = (al @ bl).astype(np.int64)
    return (hh * ((1 << (2 * _SPLIT)) % p) + (mid << _SPLIT) + ll) % p


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
    """A coordinate subspace of F_p^dim: the span of the unit vectors where
    its boolean mask is set, kept as that mask alone.  Vectors come as
    ``(column, value)`` rows, one row or a k x 2 batch; reduction zeroes
    the value of each row whose column is in the mask.
    """

    def __init__(self, dim: int, p: int):
        self.p = p
        self.mask = np.zeros(dim, dtype=bool)

    @classmethod
    def coordinate(cls, p: int, mask: np.ndarray) -> "RowSpan":
        """The span of the unit vectors where `mask` is set.  The mask is
        copied, so a cached read-only one may be passed."""
        out = cls(len(mask), p)
        out.mask[:] = mask
        return out

    def reduce(self, rows: np.ndarray) -> np.ndarray:
        """Residual of rows after removing their span component."""
        rows = np.array(rows, dtype=np.int64)
        rows[..., 1] = np.where(self.mask[rows[..., 0]], 0, rows[..., 1] % self.p)
        return rows

    def absorb(self, rows: np.ndarray) -> np.ndarray:
        """Add rows; return the columns this added, in the order the rows
        reach them."""
        rows = np.atleast_2d(rows)
        cols = rows[(rows[:, 1] % self.p != 0) & ~self.mask[rows[:, 0]], 0]
        new, first = np.unique(cols, return_index=True)
        self.mask[new] = True
        return new[np.argsort(first)].astype(np.int64)


class CoordSolver:
    """Express ``(column, value)`` rows as combinations of a fixed list of
    them on distinct columns.

    Basis row i is s_i times the unit vector at column c_i, so a target
    (c, t) lies in the span exactly when t is 0 mod p or c is some c_i, and
    its coefficient on row i is then t / s_i.  The rows must be
    independent, each nonzero mod p and on its own column;
    `blobalg.towers.standard_module` decides that with one
    `RowSpan.absorb` before it solves.
    """

    def __init__(self, rows: np.ndarray, p: int):
        cols, scalars = np.asarray(rows, dtype=np.int64).T.tolist()
        self.p = p
        self.slot = {c: i for i, c in enumerate(cols)}
        self.inverses = [pow(s, -1, p) for s in scalars]

    def express(self, rows: np.ndarray) -> Optional[np.ndarray]:
        """The k x t coefficient matrix whose column j expresses row j of
        the t x 2 batch `rows`, or None when some row lies outside the
        span."""
        coeffs = np.zeros((len(self.inverses), len(rows)), dtype=np.int64)
        for j, (col, value) in enumerate(np.asarray(rows).tolist()):
            if value % self.p:
                if col not in self.slot:
                    return None
                i = self.slot[col]
                coeffs[i, j] = value * self.inverses[i] % self.p
        return coeffs
