"""Diamond-grid walks: the re-encoding of Pascal walks and envelope words.

A diamond walk is a right-stepping N/S sequence on the 45-degree square
grid of side n, always finishing at the rightmost vertex (column n,
height n, heights measured from the grid's lowest vertex).  The start
height on the centre vertical is therefore 2n - 2 #N.

The re-encoding of a Pascal walk reads its weight sequence left to right:
a step that shrinks |weight| parses to S, a step that grows it parses to
N, except that the step from weight 0 up to 1 parses to S.

The envelope word of a diamond walk t is read from the region between t
and the lowest walk that stays at height >= n - |m| - 1 (m recovered from
t's lowest point; the floor was calibrated on the small cases).  Full
diamond cells in the region at column x are labelled U_x, the half cells
against the centre vertical are labelled e, and the word is read row by
row from the top, left to right within a row.  This reproduces the walk
word of the preimage Pascal walk in the algebra, and letter for letter
for the poset-maximal (all-S) walks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import List, Tuple

from .presentation import phi_equal
from .reports import Report
from .walks import Walk, all_walks, path_word
from .words import Word, quote


@dataclass(frozen=True)
class DiamondWalk:
    """A right-stepping N/S sequence; the start height is derived from the
    steps, never stored."""

    steps: Tuple[str, ...]

    def __post_init__(self):
        if any(s not in ("N", "S") for s in self.steps):
            raise ValueError("steps must be N or S")

    @property
    def start_height(self) -> int:
        return 2 * self.n - 2 * self.steps.count("N")

    @property
    def n(self) -> int:
        return len(self.steps)

    def heights(self) -> Tuple[int, ...]:
        out = [self.start_height]
        for s in self.steps:
            out.append(out[-1] + (1 if s == "N" else -1))
        return tuple(out)

    @property
    def lowest(self) -> int:
        return min(self.heights())

    def __str__(self) -> str:
        return "".join(self.steps)


def diamond_walk(steps: str) -> DiamondWalk:
    return DiamondWalk(tuple(steps))


def diamond_to_dict(t: DiamondWalk) -> dict:
    return {"steps": "".join(t.steps), "start_height": t.start_height}


def diamond_from_dict(data: dict) -> DiamondWalk:
    """The walk of ``data["steps"]``, a ``str``; a ``start_height``, if
    given, must be an ``int`` (``bool`` excluded) equal to the derived one.
    An error names a value by at most a short prefix (`quote`)."""
    steps = data["steps"]
    if type(steps) is not str:
        raise ValueError(f"steps {quote(repr(steps), str)} is not a string")
    t = diamond_walk(steps)
    if "start_height" in data:
        height = data["start_height"]
        if type(height) is not int:
            raise ValueError(f"start_height {quote(repr(height), str)} is not an integer")
        if height != t.start_height:
            raise ValueError("start_height does not match the step sequence")
    return t


def to_diamond(p: Walk) -> DiamondWalk:
    """Parse a Pascal walk's weight sequence into a diamond walk."""
    steps = []
    for prev, cur in zip(p.sigma, p.sigma[1:]):
        shrinks = abs(cur) < abs(prev) or (prev, cur) == (0, 1)
        steps.append("S" if shrinks else "N")
    return DiamondWalk(tuple(steps))


def all_diamond_walks(n: int) -> List[DiamondWalk]:
    """All 2^n diamond walks of length n, in lexicographic order on steps."""
    if n < 0:
        raise ValueError("walk length must be nonnegative")
    return [DiamondWalk(steps) for steps in product("NS", repeat=n)]


def heights_leq(t: DiamondWalk, u: DiamondWalk) -> bool:
    """Pointwise height comparison t <= u."""
    if t.n != u.n:
        raise ValueError("walks have different lengths")
    return all(a <= b for a, b in zip(t.heights(), u.heights()))


def expected_lowest(n: int, m: int) -> int:
    """Lowest point of the image of the weight-m Pascal walks.

    n - |m| + 1 for positive m, n - |m| otherwise (the m = 0 value n is
    derived from small cases; the two branches stay on opposite height
    parities, which is what makes the weight recoverable)."""
    return n - abs(m) + (1 if m > 0 else 0)


def weight_of_diamond(t: DiamondWalk) -> int:
    """Recover the Pascal endpoint weight from the lowest height.

    Nonpositive weights bottom out at even heights n - |m|, positive ones
    at odd heights n - m + 1, so the parity of the lowest point fixes the
    sign and the value."""
    n, low = t.n, t.lowest
    if low % 2 == 0:
        return -(n - low)
    return n - low + 1


def envelope_word(t: DiamondWalk) -> Word:
    """Read the generator word out of the envelope below the walk."""
    n = t.n
    m = weight_of_diamond(t)
    floor = n - abs(m) - 1
    upper = t.heights()
    lower = _hugging_walk(n, floor)
    cells: List[Tuple[int, int]] = []  # (height, column)
    for col in range(0, n):
        lo, hi = lower[col] + 1, upper[col] - 1
        first = lo if (lo + col) % 2 == 1 else lo + 1  # cell centres sit off the vertex parity
        for y in range(first, hi + 1, 2):
            cells.append((y, col))
    cells.sort(key=lambda cy: (-cy[0], cy[1]))
    return Word(n, tuple(col for _, col in cells))


def _hugging_walk(n: int, floor: int) -> Tuple[int, ...]:
    """Heights of the lowest valid walk staying at height >= floor."""
    out = []
    for col in range(n + 1):
        h = floor if (floor + col) % 2 == 0 else floor + 1
        out.append(max(h, col))
    return tuple(out)


# -- verification -------------------------------------------------------------


def check_diamond_walks(n: int) -> Report:
    """Bijectivity of the re-encoding, the lowest-point characterization,
    and poset spot checks."""
    rep = Report(f"appendix-walks(n={n})", meta={"n": n})
    walks = all_walks(n)
    images = [to_diamond(p) for p in walks]
    grid = all_diamond_walks(n)
    lows = [t.lowest for t in grid]
    rep.add("injective", len(set(images)), len(walks), len(set(images)) == len(walks))
    rep.add("onto", len(set(images)), 2 ** n, set(images) == set(grid))
    for m in range(-n, n + 1, 2):
        want = expected_lowest(n, m)
        fwd = {t for p, t in zip(walks, images) if p.weight == m}
        got = {t.lowest for t in fwd}
        note = "derived m=0 value" if m == 0 else ""
        rep.add(f"lowest m={m}", sorted(got), [want], got == {want}, note)
        back = {t for t, low in zip(grid, lows) if low == want}
        rep.add(f"fibre m={m}", len(fwd), len(back), fwd == back)
    top = diamond_walk("S" * n)
    rep.add("max-walk", "all-S walk", "dominates every diamond walk",
            all(heights_leq(t, top) for t in grid))
    if n >= 6:
        zero_fibre = [t for t, low in zip(grid, lows) if low == expected_lowest(n, 0)]
        found = any(
            not heights_leq(a, b) and not heights_leq(b, a)
            for i, a in enumerate(zero_fibre) for b in zero_fibre[i + 1:]
        )
        rep.add("incomparable", "weight-0 fibre", "contains an incomparable pair", found)
    return rep


def check_envelope_words(n: int) -> Report:
    """envelope(to_diamond(p)) equals the walk word of p for every p:
    letter for letter against the standard or variant form when possible,
    and always in the algebra."""
    rep = Report(f"envelope(n={n})", meta={"n": n})
    literal_std = literal_var = 0
    for p in all_walks(n):
        t = to_diamond(p)
        got = envelope_word(t)
        std = path_word(p)
        var = path_word(p, variant=True)
        if got.letters == std.letters:
            literal_std += 1
            rep.add(f"word [{p}]", got, std, True, "letters match standard form")
        elif got.letters == var.letters:
            literal_var += 1
            rep.add(f"word [{p}]", got, var, True, "letters match variant form")
        else:
            rep.add(f"word [{p}]", got, std, phi_equal(got, std), "algebra equality only")
    rep.meta["letter_equal_standard"] = literal_std
    rep.meta["letter_equal_variant"] = literal_var
    rep.meta["total"] = 2 ** n
    return rep
