"""Word bases, ideal filtrations, and standard module matrices.

The squared words a * tail * opposite(b) over walk-word prefixes give a
basis of the whole algebra matching the diagram count C(2n, n).  Every
generator maps a diagram to a nonzero monomial times one diagram, so an
ideal is the set of diagram indices it reaches and its rank is the size of
that set, with no specialization.  Standard module matrices are written
over a large prime field at a random specialization of (q, g, de).
"""

import numpy as np

from blobalg import (
    all_diagrams,
    default_points,
    evaluate_word,
    ideal_span,
    regular_basis,
    squared_basis,
    standard_module,
    unit,
)
from blobalg.towers import through_ideal

point = default_points(seed=0)[0]
print(f"Specialization: prime={point.prime}, q={point.q0}, g={point.g0}, de={point.d0}")

print()
print("The squared basis at (3, 1) as a 3x3 grid:")
for row in squared_basis(3, 1).grid():
    print("  " + " | ".join(f"{str(w):18s}" for w in row))

print()
print("Regular basis sizes against the diagram counts:")
for n in range(1, 7):
    words = regular_basis(n)
    images = {evaluate_word(w).diagram for w in words}
    print(f"  n={n}: {len(words)} words, {len(images)} distinct diagrams,"
          f" C(2n,n)={len(all_diagrams(n))}")

print()
print("Through-line ideal ranks for n = 4 (0 <= m <= 4):")
for m in (0, 2, 4):
    print(f"  rank of ideal at m={m}: {np.count_nonzero(through_ideal(4, m))}")
print("  the unit generates everything:",
      np.count_nonzero(ideal_span(4, unit(4), True)))

print()
print("A standard module: n=4, m=0, with its U_1 action matrix:")
mod = standard_module(4, 0, point)
print(f"  basis ({mod.dim} walk words):")
for w in mod.words:
    print(f"    {w}")
print("  U1 acts by (columns are images):")
for row in mod.actions[1]:
    print("   ", row.tolist())
