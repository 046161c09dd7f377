"""Ideals, quotient dimensions, standard modules, and the squared word basis.

Everything here works in coordinates over the diagram basis of b_n.  Every
generator maps a basis diagram to a monomial [2]^a g^b de^c times one
diagram, and such a monomial is nonzero over the fraction field of
Z[q^+-1, g, de].  So every span the ideal, tower, quotient, word basis and
span-closure checks build is the coordinate span of a set of diagram
indices.  Those spans are `frozenset`s of basis indices, and each claim is
decided once, exactly, by set operations.  The specialization points and
the Schwartz-Zippel note are still recorded on every report.

The basis has one index: the states (top half, bottom state) of the word
tables of ``presentation``, which pair two walks on the Pascal triangle as
the paper does.  One breadth-first walk from the identity's state over
those tables numbers the states and gives the right action tables;
``compose`` runs only to fill a missing table entry, and no basis diagram
is kept.  ``flip`` is an anti-automorphism of
b_n fixing every generator, and it maps halves to halves, so the left
action is the right one read through a flip computed on halves.

Every ideal, tower and quotient span is a closure: start from some
diagrams and multiply by generators on the required side(s), which is
reachability over the action.  Every basis diagram is a unit-scalar
product of generators, so x b_k is the right closure of x's diagram under
the letters of b_k, and left * b_n * right multiplies each diagram of
left * b_n once by right.  A closure is found as rectangles, a set of top
halves times a set of bottom states per layer (see
`DiagramSpace.rectangles`), and then listed as basis indices.

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
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

# compose stays bound here for the benchmark's tracer (bench/tracing.py
# requires the binding in this module); the tables compose in presentation
from .diagrams import BlobDiagram, ScaledDiagram, all_diagrams, compose, compose_scaled  # noqa: F401
from .modlin import CoordSolver, RowSpan, SpecPoint, draw_points, mulmod
from .presentation import _table, defining_relations, evaluate_word, phi_equal, walk_basis
from .reports import Report
from .ring import RingElem
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
    """The diagram basis of b_n, indexed by the states of the word tables.

    Basis element i is the state (``tops[i]``, ``bottoms[i]``) of
    ``presentation``'s tables of n, numbered in the order one breadth-first
    walk from the identity's state (0, 0) reaches them; the walk gives the
    right action tables.  ``flip`` maps the state (t, s) to (top[s],
    bottom[blobbed(s)][t]) (see ``_Halves.flips``), so the flip permutation
    of the basis comes from halves, and each left table is its right table
    conjugated by it.  No diagram is kept per basis element: `diagram`
    rebuilds one from its halves and `index_of` splits one.

    A state's layer is n minus its through lines, plus one when the
    leftmost through line is blobbed; no step climbs to a smaller layer.
    Every top half with k through lines meets every bottom state with k,
    so a layer is the product of its top halves and its bottom states, and
    state (t, s) has the slot ``base[s] + rank[t] * width[s]`` among all
    C(2n, n) states; ``_where`` maps a slot to its basis index.
    """

    def __init__(self, n: int):
        self.n = n
        self.letters = list(range(0, n))  # 0 is e, i >= 1 is U_i
        halves = self.halves = _table(n)
        self.tops, self.bottoms, right = walk_basis(halves)
        self.dim = len(self.tops)
        self.layer = [n - len(b[2]) + b[3] for b in halves.bottoms]
        rank, per_k = [], [0] * (n + 1)
        for top in halves.tops:
            rank.append(per_k[len(top[2])])
            per_k[len(top[2])] += 1
        order, per_layer = [], [0] * (n + 1)
        for lay in self.layer:
            order.append(per_layer[lay])
            per_layer[lay] += 1
        start = np.cumsum([0] + [per_k[n - lay + lay % 2] * per_layer[lay] for lay in range(n + 1)])
        self._rank = np.array(rank, dtype=np.int64)
        self._base = start[self.layer] + np.array(order, dtype=np.int64)
        self._width = np.array(per_layer, dtype=np.int64)[self.layer]
        self._where = np.full(start[-1], -1, dtype=np.int64)
        tops, bottoms = (np.frombuffer(a, dtype=np.intc) for a in (self.tops, self.bottoms))
        self._where[self._slot(tops, bottoms)] = np.arange(self.dim)
        self._ints = list(range(self.dim))

        self.flip_top, self.flip_bottom = halves.flips()
        flags = np.array([b[3] for b in halves.bottoms], dtype=np.int64)
        op = self._where[self._slot(np.array(self.flip_top)[bottoms],
                                    np.array(self.flip_bottom)[flags[bottoms], tops])]
        self.flip = array("i", op.tolist())
        self.targets: Dict[Tuple[str, int], array] = {}
        for letter in self.letters:
            self.targets[("R", letter)] = right[letter]
            self.targets[("L", letter)] = array("i", op[np.frombuffer(right[letter], np.intc)[op]].tolist())
        # a left step that stays in its layer moves the top half alone when
        # flipping a bottom state twice gives it back
        self.mirrored = all(self.flip_bottom[f][self.flip_top[s]] == s
                            for s, f in enumerate(flags.tolist()))
        self._moves: Dict[Tuple[int, ...], _Moves] = {}

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

    def word_span(self, words: Iterable[Word]) -> FrozenSet[int]:
        """Span of the word images: each is a nonzero monomial times one
        diagram, so this is the set of their diagram indices."""
        return frozenset(self.index_of(evaluate_word(w).diagram) for w in words)

    def left_images(self, span: Iterable[int]) -> FrozenSet[int]:
        """The diagrams g * d over every generator g and index d in span."""
        return frozenset(self.targets[("L", letter)][d] for letter in self.letters for d in span)

    def rectangles(self, seeds: Iterable[int], sides: str,
                   letters: Sequence[int]) -> List[Tuple[FrozenSet[int], List[int]]]:
        """The closure of the seed indices under the generators of
        `letters` on `sides`, as (top ids, bottom ids) rectangles whose
        states together are the closure.

        Layers are closed from the top down.  In a layer a right step moves
        the bottom state alone and a left step the top half alone, so a
        rectangle closes to (top orbit) x (bottom orbit).  A step out of the
        layer maps a whole side at once: a right join maps every top half,
        a left join every bottom state, into one rectangle of a lower layer.
        A state already covered in its layer is not stepped from again.
        """
        key = tuple(letters)
        moves = self._moves.get(key)
        if moves is None:
            moves = self._moves[key] = _Moves(self, key)
        left_side, right_side = "L" in sides, "R" in sides
        layer, joins = self.layer, self.halves.joins
        flip_top, flip_bottom = self.flip_top, self.flip_bottom
        pending: Dict[int, Dict[FrozenSet[int], set]] = {}

        def push(lay: int, tops: Iterable[int], bottoms: Iterable[int]) -> None:
            if left_side:
                tops = moves.close(tops, lay % 2)
            pending.setdefault(lay, {}).setdefault(frozenset(tops), set()).update(bottoms)

        for i in seeds:
            push(layer[self.bottoms[i]], (self.tops[i],), (self.bottoms[i],))
        covered: Dict[int, Dict[int, FrozenSet[int]]] = {}
        out = []
        while pending:
            lay = min(pending)
            flag, cover = lay % 2, covered.setdefault(lay, {})
            for tops, bottoms in pending.pop(lay).items():
                if right_side:
                    bottoms = moves.close(bottoms, 2)
                new = [s for s in bottoms if s not in cover or not tops <= cover[s]]
                if not new:
                    continue
                for s in new:
                    cover[s] = cover[s] | tops if s in cover else tops
                out.append((tops, new))
                groups: Dict[Tuple[int, int], list] = {}
                for s in new if right_side else ():
                    for join, to, nxt in moves.exits[2][s]:
                        groups.setdefault((join, to), []).append(nxt)
                for (join, to), moved in groups.items():
                    push(to, [joins[t, join] for t in tops] if join else tops, moved)
                groups = {}
                for t in tops if left_side else ():
                    for join, to_flag, nxt in moves.exits[flag][t]:
                        groups.setdefault((join, to_flag), []).append(nxt)
                for (join, to_flag), moved in groups.items():
                    under = flip_bottom[to_flag]
                    mapped = [under[joins[flip_top[s], join]] if join else under[flip_top[s]]
                              for s in new]
                    push(lay - flag + to_flag + (2 if join else 0), moved, mapped)
        return out

    def indices(self, rectangles: Iterable[Tuple[Iterable[int], Sequence[int]]]) -> FrozenSet[int]:
        """The basis indices of every state of the rectangles."""
        parts = [self._where[self._slot(np.fromiter(tops, np.int64)[:, None], np.array(bottoms))]
                 for tops, bottoms in rectangles]
        if not parts:
            return frozenset()
        # the members are the space's own ints, so the spans share them
        return frozenset(map(self._ints.__getitem__, np.concatenate(parts, axis=None).tolist()))


class _Moves:
    """The steps of some letters on halves, split into those that stay in
    their layer and those that leave it, and the in-layer orbits met so far.

    Index 0 and 1 hold the left steps of the top halves under a clear and a
    blobbed leftmost line, index 2 the right steps of the bottom states.
    An in-layer step is a next half; a leaving step is (join, where to,
    next half), where to being the next flag of a left step and the next
    layer of a right step.  When flipping a bottom state twice does not
    give it back, no left step counts as in-layer.
    """

    def __init__(self, space: DiagramSpace, letters: Tuple[int, ...]):
        n, right, layer, flip_top = space.n, space.halves.right, space.layer, space.flip_top
        self.inner: Tuple[list, list, list] = ([], [], [])
        self.exits: Tuple[list, list, list] = ([], [], [])
        self.orbits: Tuple[dict, dict, dict] = ({}, {}, {})
        for s, lay in enumerate(layer):
            steps = [right[s * n + letter] for letter in letters]
            self.inner[2].append([nxt for nxt, _, join in steps if not join and layer[nxt] == lay])
            self.exits[2].append([(join, layer[nxt], nxt) for nxt, _, join in steps
                                  if join or layer[nxt] != lay])
        for flag in (0, 1):
            for b in space.flip_bottom[flag]:
                steps = [] if b < 0 else [right[b * n + letter] for letter in letters]
                steps = [(join, layer[nxt] % 2, flip_top[nxt]) for nxt, _, join in steps]
                stay = [(join, to, nxt) for join, to, nxt in steps
                        if not join and to == flag and space.mirrored]
                self.inner[flag].append([nxt for _, _, nxt in stay])
                self.exits[flag].append([step for step in steps if step not in stay])

    def close(self, halves: Iterable[int], side: int) -> set:
        """The halves reachable from `halves` by in-layer steps of `side`
        (0 or 1: left steps under that flag; 2: right steps).  The orbit
        of each start is kept, and a later search stops where it meets one."""
        inner, known = self.inner[side], self.orbits[side]
        out: set = set()
        for x in halves:
            if x in out:
                continue
            orbit = known.get(x)
            if orbit is None:
                seen, stack = {x}, [x]
                while stack:
                    for y in inner[stack.pop()]:
                        if y not in seen:
                            done = known.get(y)
                            if done is None:
                                seen.add(y)
                                stack.append(y)
                            else:
                                seen |= done
                orbit = known[x] = frozenset(seen)
            out |= orbit
        return out


@lru_cache(maxsize=10)
def diagram_space(n: int) -> DiagramSpace:
    return DiagramSpace(n)


def _closure(space: DiagramSpace, seeds: Iterable[int], sides: str,
             letters: Optional[Sequence[int]] = None) -> FrozenSet[int]:
    """Span of the seed diagrams (basis indices) closed under
    multiplication on `sides` by the generators in `letters` (default: all
    of b_n): the states reachable from the seeds, found as rectangles of
    top halves and bottom states (`DiagramSpace.rectangles`)."""
    if letters is None:
        letters = space.letters
    return space.indices(space.rectangles(seeds, sides, letters))


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
    distinct = {s.diagram for s in images}
    rep.add("distinct", len(distinct), len(words), len(distinct) == len(words))
    target = set(all_diagrams(n))
    rep.add("onto", f"{len(distinct)} distinct images", f"all {len(target)} diagrams",
            distinct == target)
    rep.add("count", len(words), comb(2 * n, n), len(words) == comb(2 * n, n))

    for m in range(-n, n + 1, 2):
        found = any(phi_equal(w, opposite(w)) for w in squared_basis(n, m).words)
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
    """The span of left * b_n * right: left * b_n is the right closure of
    left's diagram under every letter, and each of its diagrams is
    multiplied once by right's image, unless right is the unit."""
    closure = _closure(space, space.word_span([left.with_n(space.n)]), "R")
    if not right.letters:
        return closure
    one, rv = RingElem.one(), evaluate_word(right.with_n(space.n))
    return frozenset(
        space.index_of(compose_scaled(ScaledDiagram(one, space.diagram(d)), rv).diagram)
        for d in closure
    )


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

    u_top = gen_u(n, n - 1)
    ok = len(_closure(space, space.word_span([unit(n), u_top]), "LR", range(n - 1))) == space.dim
    rep.add("decompose", f"b_{n-1} + b_{n-1} U{n-1} b_{n-1}", f"all of b_{n} (rank {space.dim})",
            ok, note)

    want = _closure(space, space.word_span([u_top]), "R", range(n - 2))
    ok = _conjugated_span(space, u_top, u_top) == want
    if n == 2:
        rep.add("squeeze n=2", "U1 b_2 U1", "([2]K + gK) U1 b_0 = K U1", ok,
                note + "; needs [2] or g invertible, points have g nonzero")
    else:
        rep.add("squeeze", f"U{n-1} b_{n} U{n-1}", f"U{n-1} b_{n-2}", ok, note)

    for m in range(n % 2, n + 1, 2):
        er = cap_word_right(m, n)
        want = _closure(space, space.word_span([er]), "R", range(m))
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
    z_span = RowSpan.coordinate(diagram_space(n).dim, point.prime, _quotient_span(n, m))
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
        quotient = _quotient_span(n, m)
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
        ok = space.left_images(span) <= _quotient_span(n, m) | span
        rep.add(f"closure m={m}", f"generators * {len(words)} walk words",
                "inside walk span + quotient span", ok, note)
    return rep
