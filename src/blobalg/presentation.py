"""Evaluation of words to scaled diagrams and relation verification.

``evaluate_word`` is the algebra map sending e and U_i to their generator
diagrams and a word to the composed product (the CLI calls it ``phi``).
Because any product of basis diagrams is scalar * diagram, the image of a
word is always a single :class:`ScaledDiagram`.

A basis diagram times one generator is one diagram times 1, [2], g or de,
and the generator touches only the diagram's bottom half, so words are
evaluated by walking the right action of the generators over halves, as
the paper indexes b_n by pairs of walks.  A walk is at a state (top half,
bottom state): the top half is the caps, their blobs and the through
points on the top edge; the bottom state is the same on the bottom edge
plus the blob of the leftmost through line, and b_n has exactly 2^n of
them, one per walk.  Per strand count, a right table maps (bottom state,
letter) to (next bottom state, step code, join); a step that caps through
lines j, j+1 also moves the top half, which a join table maps from (top
half, j, blob).  The right table holds at most n * 2^n entries, so no
table is ever emptied; ``reset_tables`` gives the tests a cold start.
``compose`` runs only to fill a missing entry, on the diagram the walk is
at.  One loop, ``_advance``, walks letters from a state: it returns the
state reached and counts the steps per code.  A *position* is (top id,
bottom id, coeff); the tables intern halves, so equal positions are equal
images.  ``evaluate_word`` walks from the root and builds its image once,
``monomial`` of the counts times the diagram rebuilt from the halves where
the walk ends.  ``evaluate_from`` continues a walk from the image of a
word w: it looks up (or splits) the image's diagram, walks only the
tail's letters and multiplies the coefficient by the tail's monomial, so
w * tail needs neither w's letters again nor a cache entry of its own.
The reduction-stability check walks positions on in the same way and
never turns one back into a diagram.

The same states index the basis of b_n in ``towers``: ``walk_basis``
walks every letter from every state once, breadth first from the root,
and so reaches each of the C(2n, n) states once and fills every entry.
``_Halves.flips`` gives ``flip`` on states from the halves alone: the
top half of flip(t, s) depends only on s, and its bottom state only on t
and the blob of s's leftmost through line.

A word is *reduced* when it is not a non-unit scalar times a shorter
expression; since every length-reducing relation introduces a non-unit
scalar, this is detected exactly by a unit scalar in the word's diagram
image (the reduction proxy).
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from itertools import combinations
from typing import Dict, List, Optional, Tuple

from .diagrams import (
    Arc,
    BlobDiagram,
    ScaledDiagram,
    _NO_BLOBS,
    _arc_pool,
    compose,
    generator_diagram,
    identity_diagram,
)
from .reports import Report
from .ring import RingElem, monomial
from .words import (
    Word,
    ascending_run,
    cap_word,
    blob_cap_word,
    descending_run,
    gen_e,
    gen_u,
    skip_run,
    unit,
)


# The scalar of each step code a right entry stores: 1, [2], g and de.
_STEP_SCALARS = (monomial(0, 0, 0), monomial(1, 0, 0), monomial(0, 1, 0), monomial(0, 0, 1))
_STEP_CODES = {scalar: code for code, scalar in enumerate(_STEP_SCALARS)}


def _intern(ids: Dict[tuple, int], halves: List[tuple], half: tuple) -> int:
    """The id of `half` in (ids, halves), adding it if it is new."""
    found = ids.get(half)
    if found is None:
        found = ids[half] = len(halves)
        halves.append(half)
    return found


class _Halves:
    """The word-evaluation tables of one strand count n.

    A walk is at a state (top id, bottom id).  ``tops`` lists the top
    halves met so far, (caps, blobbed caps, through points) on points
    1..n, and ``bottoms`` the bottom states, (caps, blobbed caps, through
    points left to right, leftmost through line blobbed) on n+1..2n;
    ``top_ids`` and ``bottom_ids`` invert them.  ``right[s * n + letter]``
    is None until filled, then (next bottom id, step code, join): join is
    0, or 2j + 1 + b when the step caps through lines j, j+1 (counted from
    the left, the cap blobbed if b), and ``joins[t, join]`` is the top id
    that then follows top t.  ``ends`` maps each state a walk ended at or
    a fill started from to its diagram, and that diagram back to its state.
    """

    __slots__ = ("n", "top_ids", "tops", "bottom_ids", "bottoms", "right", "joins", "ends")

    def __init__(self, n: int) -> None:
        self.n = n
        self.top_ids: Dict[tuple, int] = {}
        self.tops: List[tuple] = []
        self.bottom_ids: Dict[tuple, int] = {}
        self.bottoms: List[tuple] = []
        self.right: List[Optional[Tuple[int, int, int]]] = []
        self.joins: Dict[Tuple[int, int], int] = {}
        self.ends: dict = {}
        self.state(identity_diagram(n))  # the root, state (0, 0)

    def state(self, d: BlobDiagram, keep: bool = True) -> Tuple[int, int]:
        """The state of diagram d, split into halves the first time it is
        seen; with `keep` false the split is not stored in ``ends``."""
        state = self.ends.get(d)
        if state is None:
            n, blobs = self.n, d.blobs
            top: List[Arc] = []
            bottom: List[Arc] = []
            through: List[Arc] = []
            for arc in d.pairs:
                (top if arc[1] <= n else bottom if arc[0] > n else through).append(arc)
            t = _intern(self.top_ids, self.tops, (
                tuple(top), tuple(a for a in top if a in blobs), tuple(i for i, _ in through)))
            s = _intern(self.bottom_ids, self.bottoms, (
                tuple(bottom), tuple(a for a in bottom if a in blobs),
                tuple(j for _, j in through), bool(through) and through[0] in blobs))
            self.right.extend([None] * (n * len(self.bottoms) - len(self.right)))
            state = (t, s)
            if keep:
                self.ends[d] = state
                self.ends.setdefault(state, d)
        return state

    def flips(self) -> Tuple[List[int], Tuple[List[int], List[int]]]:
        """``flip`` on halves: (top, bottom) with ``flip(t, s) == (top[s],
        bottom[blobbed][t])``, blobbed the leftmost-through flag of s.

        The mirror x -> 2n+1-x takes the bottom state s to a top half, its
        flag dropped, and a top half with a flag to a bottom state, so each
        map is read off the halves alone; ``bottom[True][t]`` is -1 when t
        has no through line to carry the blob.  The tables must hold the
        halves of every state of b_n, as they do after `walk_basis`.
        """
        m = 2 * self.n + 1

        def mirror(half: tuple) -> Tuple[tuple, tuple, tuple]:
            caps, blobbed, through = half[:3]
            return (tuple(sorted((m - j, m - i) for i, j in caps)),
                    tuple(sorted((m - j, m - i) for i, j in blobbed)),
                    tuple(m - x for x in through))

        top = [self.top_ids[mirror(half)] for half in self.bottoms]
        flipped = [mirror(half) for half in self.tops]
        return top, ([self.bottom_ids[(*half, False)] for half in flipped],
                     [self.bottom_ids[(*half, True)] if half[2] else -1 for half in flipped])

    def diagram(self, t: int, s: int, keep: bool = True) -> BlobDiagram:
        """The diagram of state (t, s), rebuilt from its halves the first
        time; with `keep` false the rebuilt diagram is not stored in ``ends``."""
        d = self.ends.get((t, s))
        if d is None:
            top, top_blobs, top_through = self.tops[t]
            bottom, bottom_blobs, bottom_through, blobbed = self.bottoms[s]
            arcs = _arc_pool(self.n)  # shared arcs, as compose's results use
            through = tuple(arcs[i, j] for i, j in zip(top_through, bottom_through))
            blobs = top_blobs + bottom_blobs + (through[:1] if blobbed else ())
            d = BlobDiagram(self.n, tuple(sorted(top + bottom + through)),
                            frozenset(blobs) if blobs else _NO_BLOBS)
            if keep:
                self.ends[t, s] = d
                self.ends[d] = (t, s)
        return d

    def fill(self, t: int, s: int, letter: int) -> Tuple[int, int, int]:
        """Compose the diagram at state (t, s) with the generator of
        `letter`; store the right entry of (s, letter) and, when the step
        caps two through lines, the join entry of t.  Return the right entry."""
        n = self.n
        step = compose(self.diagram(t, s), generator_diagram(n, letter))
        top, nxt = self.state(step.diagram)
        join = 0
        if top != t:  # U_letter capped the lines through bottom points 2n+1-letter, 2n-letter
            _, _, through, blobbed = self.bottoms[s]
            j = through.index(2 * n + 1 - letter)
            join = 2 * j + 1 + (j == 0 and blobbed)
            self.joins[t, join] = top
        entry = self.right[s * n + letter] = (nxt, _STEP_CODES[step.coeff], join)
        return entry


# Per strand count, its tables; each is rooted at the identity and never
# holds more than n * 2^n right entries, so it is never emptied.
_tables: Dict[int, _Halves] = {}


def reset_tables() -> None:
    """Empty the tables of every strand count (a cold start)."""
    _tables.clear()


def _table(n: int) -> _Halves:
    """The tables of n, started if there are none."""
    tables = _tables.get(n)
    if tables is None:
        tables = _tables[n] = _Halves(n)
    return tables


def _advance(tables: _Halves, t: int, s: int,
             letters: Tuple[int, ...]) -> Tuple[int, int, int, int, int]:
    """Walk `letters` through `tables` from state (t, s): the top and
    bottom ids reached, and the walk's [2], g and de step counts."""
    right, joins, n = tables.right, tables.joins, tables.n
    count = [0, 0, 0, 0]
    for letter in letters:
        nxt, code, join = right[s * n + letter] or tables.fill(t, s, letter)
        if join:
            key = (t, join)
            if key not in joins:
                tables.fill(t, s, letter)
            t = joins[key]
        s = nxt
        count[code] += 1
    return t, s, count[1], count[2], count[3]


def walk_basis(tables: _Halves) -> Tuple[array, array, List[array]]:
    """Every state one breadth-first walk from the identity's state (0, 0)
    reaches, in walk order: their top ids and bottom ids as two arrays,
    and per letter the walk index of each state times that letter.

    Each step looks up its entries as `_advance` does, so a missing right
    or join entry costs one fill; once the walk ends, every right entry and
    every join entry of b_n is filled.
    """
    n, right, joins, fill = tables.n, tables.right, tables.joins, tables.fill
    tops, bottoms = array("i", [0]), array("i", [0])
    seen = {0: 0}  # (t << n) | s -> walk index, as a bottom id is below 2^n
    steps = [array("i") for _ in range(n)]
    i = 0
    while i < len(tops):
        t, s = tops[i], bottoms[i]
        for letter, row in enumerate(steps):
            nxt, _, join = right[s * n + letter] or fill(t, s, letter)
            top = t
            if join:
                key = (t, join)
                if key not in joins:
                    fill(t, s, letter)
                top = joins[key]
            code = top << n | nxt
            j = seen.get(code)
            if j is None:
                j = seen[code] = len(tops)
                tops.append(top)
                bottoms.append(nxt)
            row.append(j)
        i += 1
    return tops, bottoms, steps


# A walk position: (top id, bottom id, coefficient) in one strand count's tables.
Position = Tuple[int, int, RingElem]


def _walk_on(tables: _Halves, position: Position, letters: Tuple[int, ...]) -> Position:
    """The position reached by walking `letters` on from `position`: its
    coefficient times the monomial of the steps, multiplied once, and not
    at all when the monomial is 1."""
    t, s, coeff = position
    t, s, a, b, c = _advance(tables, t, s, letters)
    return t, s, (coeff * monomial(a, b, c) if a or b or c else coeff)


@lru_cache(maxsize=1 << 17)
def evaluate_word(w: Word) -> ScaledDiagram:
    """The diagram image of a word, with its exact scalar.

    The image is the left-to-right product of the generator diagrams.  A
    word the cache misses is walked from the identity's state through the
    half tables of ``w.n``: each letter looks up the bottom state's right
    entry (next bottom state, step code, join) and, on a join, the top
    half's join entry.  The coefficient is the monomial of the walk's
    [2], g and de step counts, and the empty word maps to the identity.
    A missing entry costs one :func:`compose` of the diagram the walk is
    at with the letter's generator, which fills it.
    ``evaluate_word.cache_clear()`` empties the word cache only;
    :func:`reset_tables` empties the tables.
    """
    tables = _table(w.n)
    t, s, a, b, c = _advance(tables, 0, 0, w.letters)
    return ScaledDiagram(monomial(a, b, c), tables.diagram(t, s))


def evaluate_from(image: ScaledDiagram, tail: Word) -> ScaledDiagram:
    """The image of w * tail, given ``image = evaluate_word(w)``.

    The image is a position, the state of its diagram in the tables of
    ``tail.n`` with its coefficient; a diagram the tables have not seen
    (one from elsewhere, or met before :func:`reset_tables`) is split into
    its halves first.  Only the tail's letters are walked on from there,
    by the same loop as :func:`evaluate_word`.  The tail's monomial
    multiplies the image's coefficient once, unless it is 1; nothing
    enters the cache.
    """
    n = tail.n
    if image.diagram.n != n:
        raise ValueError(f"strand counts differ: {image.diagram.n} vs {n}")
    if not tail.letters:
        return image
    tables = _table(n)
    t, s, coeff = _walk_on(tables, (*tables.state(image.diagram), image.coeff), tail.letters)
    return ScaledDiagram(coeff, tables.diagram(t, s))


def phi_equal(u: Word, v: Word, scalar: RingElem | None = None) -> bool:
    """True when evaluate(u) == scalar * evaluate(v) (scalar defaults to 1)."""
    lhs = evaluate_word(u)
    rhs = evaluate_word(v)
    want = rhs.coeff if scalar is None else scalar * rhs.coeff
    return lhs.diagram == rhs.diagram and lhs.coeff == want


def is_reduced(w: Word) -> bool:
    """Unit-scalar reduction proxy: no relation can strip a scalar off w."""
    return evaluate_word(w).coeff.is_one()


# -- defining relations ------------------------------------------------------


Relation = Tuple[str, str, str, Word, Word, Optional[RingElem]]


def defining_relations(n: int) -> List[Relation]:
    """Every instance of the six defining relation families on n strands,
    as (label, lhs text, rhs text, lhs word, rhs word, scalar): the
    relation reads lhs = scalar * rhs, and a scalar of None means 1."""
    out: List[Relation] = []
    for i in range(1, n):
        u = gen_u(n, i)
        out.append((f"UU i={i}", f"U{i} U{i}", f"(q+q^-1) U{i}", u * u, u, RingElem.loop()))
    for i in range(1, n):
        for j in (i - 1, i + 1):
            if 1 <= j <= n - 1:
                u, v = gen_u(n, i), gen_u(n, j)
                out.append((f"UUU i={i},j={j}", f"U{i} U{j} U{i}", f"U{i}", u * v * u, u, None))
    for i in range(1, n):
        for j in range(i + 2, n):
            u, v = gen_u(n, i), gen_u(n, j)
            out.append((f"far-commute i={i},j={j}", f"U{i} U{j}", f"U{j} U{i}",
                        u * v, v * u, None))
    if n >= 2:
        u1, e = gen_u(n, 1), gen_e(n)
        out.append(("UeU", "U1 e U1", "g U1", u1 * e * u1, u1, RingElem.gamma()))
    if n >= 1:
        e = gen_e(n)
        out.append(("ee", "e e", "de e", e * e, e, RingElem.delta_e()))
    for i in range(2, n):
        u, e = gen_u(n, i), gen_e(n)
        out.append((f"e-commute i={i}", f"U{i} e", f"e U{i}", u * e, e * u, None))
    return out


def check_defining_relations(n: int) -> Report:
    """Verify the six defining relation families in the diagram algebra."""
    rep = Report(f"relations(n={n})", meta={"n": n})
    for label, lhs_text, rhs_text, lhs, rhs, scalar in defining_relations(n):
        rep.add(label, lhs_text, rhs_text, phi_equal(lhs, rhs, scalar))
    return rep


# -- run identities ----------------------------------------------------------


def check_run_identities(n: int) -> Report:
    """Verify the cap-word and descending/skip run identities under evaluation.

    The chained-run families are checked for every index tuple that fits in
    n.  The third expression of the two-run chain needs k >= 3 (as in the
    longer-chain side condition); at k = 2 it is genuinely false.
    """
    rep = Report(f"identities(n={n})", meta={"n": n})

    for i in range(0, n - 1, 2):
        lhs = cap_word(0, i).with_n(n) * descending_run(i + 1, 1, n)
        rhs = cap_word(0, i + 2).with_n(n)
        rep.add(f"cap-extend i={i}", lhs, rhs, phi_equal(lhs, rhs))
    for i in range(1, n - 1, 2):
        lhs = blob_cap_word(1, i).with_n(n) * descending_run(i + 1, 1, n)
        rhs = gen_u(n, i + 1) * blob_cap_word(1, i + 2).with_n(n)
        rep.add(f"blobcap-extend i={i}", lhs, rhs, phi_equal(lhs, rhs))

    for j in range(1, n):
        for k in range(j + 1, n):
            lhs = descending_run(j, 1, n) * descending_run(k, 1, n)
            rhs = descending_run(j, 1, n) * descending_run(k, 3, n)
            rep.add(f"tworun-a j={j},k={k}", lhs, rhs, phi_equal(lhs, rhs))
            if k >= 3:
                rhs2 = (descending_run(j, 2, n) * descending_run(k, 4, n)
                        * gen_u(n, 1) * gen_u(n, 3))
                rep.add(f"tworun-b j={j},k={k}", lhs, rhs2, phi_equal(lhs, rhs2))

    # Longer chains need j_i >= 2i-1 throughout: at smaller indices the
    # shifted runs degenerate to 1 and the equality genuinely fails.
    for js in (c for k in range(3, n) for c in combinations(range(1, n), k)):
        if any(j < 2 * t - 1 for t, j in enumerate(js, start=1)):
            continue
        lhs = unit(n)
        rhs = unit(n)
        for t, j in enumerate(js, start=1):
            lhs = lhs * descending_run(j, 1, n)
            rhs = rhs * descending_run(j, 2 * t - 1, n)
        rep.add(f"multirun-a js={js}", lhs, rhs, phi_equal(lhs, rhs))
        if 2 * len(js) - 1 <= n - 1:
            rhs2 = unit(n)
            for t, j in enumerate(js, start=1):
                rhs2 = rhs2 * descending_run(j, 2 * t, n)
            for t in range(1, len(js) + 1):
                rhs2 = rhs2 * gen_u(n, 2 * t - 1)
            rep.add(f"multirun-b js={js}", lhs, rhs2, phi_equal(lhs, rhs2))

    for j in range(1, (n - 1) // 2 + 1):
        for k in range(1, j + 1):
            lhs = descending_run(2 * k, 1, n) * skip_run(2 * j, 2, n)
            rhs = skip_run(2 * j, 2, n)
            rep.add(f"absorb-left j={j},k={k}", lhs, rhs, phi_equal(lhs, rhs))
    for j in range(1, n // 2 + 1):
        for k in range(1, j + 1):
            if 2 * k <= n - 1:
                lhs = skip_run(2 * j - 1, 1, n) * descending_run(2 * k, 1, n)
                rhs = skip_run(2 * j - 1, 1, n)
                rep.add(f"absorb-right j={j},k={k}", lhs, rhs, phi_equal(lhs, rhs))
    return rep


# -- reduction stability -----------------------------------------------------


def check_reduction_stability(n: int) -> Report:
    """Verify that appending the standard tails preserves reducedness.

    Quantified over the squared word basis of rank n-1 plus, for each such
    word, a deliberately non-reduced variant with its last letter doubled;
    this exercises both directions of each biconditional without walking
    the full exponential word space.

    Every claim is decided on walk positions (top id, bottom id, coeff) in
    the tables of n and n + 1, and no image becomes a diagram.  The tables
    intern halves, so equal positions are equal images, and a word is
    reduced when its coeff is 1.  Each basis word w is walked once from
    the root of n, once from the root of n + 1 and once from the position
    of U_n in n + 1; its variant is one letter more from each of those
    stems, and every tail walks on from a stem.
    """
    if n < 3:
        raise ValueError("reduction stability needs n >= 3")
    from .walks import regular_basis  # deferred: walks builds on this module

    rep = Report(f"redux(n={n})", meta={"n": n})
    # the tails depend only on n, so they are built once
    u_far = gen_u(n + 1, n)
    run_down = descending_run(n - 1, 1, n)
    collapse_tail = u_far * descending_run(n - 1, 1, n + 1) * ascending_run(2, n, n + 1)
    skip_n = skip_run(n - 2, 1, n)
    e_n = gen_e(n)
    blob_tail = e_n * skip_run(n - 1, 2, n) * skip_n
    big_skip = skip_run(n - 2, 1, n + 1)
    e_big = gen_e(n + 1)
    big_tail = (e_big * skip_run(n - 1, 2, n + 1) * big_skip * skip_run(n - 1, 2, n + 1)
                * skip_run(n, 3, n + 1))
    e_u_far = e_big * u_far
    # the labels are text joined from parts formatted once, as Word.__str__
    # would print them ("" stands for an empty part)
    far_t, collapse_t, skip_t, blob_t, big_skip_t, big_tail_t, e_u_far_t = (
        str(t) if t.letters else ""
        for t in (u_far, collapse_tail, skip_n, blob_tail, big_skip, big_tail, e_u_far))

    def text(*parts: str) -> str:
        return " ".join(filter(None, parts)) or "1"

    small_tables, big_tables = _table(n), _table(n + 1)
    root = (0, 0, monomial(0, 0, 0))

    def small(position: Position, tail: Word) -> Position:
        return _walk_on(small_tables, position, tail.letters)

    def big(position: Position, tail: Word) -> Position:
        return _walk_on(big_tables, position, tail.letters)

    def decide(body: str, stem_n: Position, stem_big: Position, far_stem: Position) -> None:
        """The checks of the sample printed `body` ("" when empty), from its
        stems at the root of n, the root of n + 1 and U_n in n + 1."""
        label = body or "1"
        big_far = big(stem_big, u_far)
        rep.add(f"append-far [{label}]", f"reduced({label})", f"reduced({label} U{n})",
                stem_big[2].is_one() == big_far[2].is_one())
        rep.add(f"append-run [{label}]", f"reduced({label})", f"reduced({label} U{n-1}..U1)",
                stem_n[2].is_one() == small(stem_n, run_down)[2].is_one())
        rep.add(f"run-collapse [{label}]", text(body, collapse_t), text(body, far_t),
                big(stem_big, collapse_tail) == big_far)

        if n % 2 == 1:
            # the blobbed-growth form needs genuine skip runs, so odd n only
            stem = small(stem_n, skip_n)
            stem_label = text(body, skip_t)
            reduced = stem[2].is_one()
            rep.add(f"append-e [{label}]", f"reduced({stem_label})", f"reduced({stem_label} e)",
                    reduced == small(stem, e_n)[2].is_one())
            rep.add(f"append-blob [{label}]", f"reduced({stem_label})",
                    f"reduced({text(body, skip_t, blob_t)})",
                    reduced == small(stem, blob_tail)[2].is_one())

        rep.add(f"blob-collapse [{label}]", text(far_t, body, big_skip_t, big_tail_t),
                text(body, big_skip_t, e_u_far_t),
                big(big(far_stem, big_skip), big_tail) == big(big(stem_big, big_skip), e_u_far))

    far = big(root, u_far)
    for w in regular_basis(n - 1):
        stems = (small(root, w), big(root, w), big(far, w))
        body = str(w) if w.letters else ""
        decide(body, *stems)
        if w.letters:
            last = w.letters[-1:]
            decide(f"{body} {'e' if last[0] == 0 else f'U{last[0]}'}",
                   _walk_on(small_tables, stems[0], last), _walk_on(big_tables, stems[1], last),
                   _walk_on(big_tables, stems[2], last))
    return rep
