"""Cross-check diagram composition and validation against references.

``compose`` makes one pass over point-indexed mate and blob lists.  Two
references share no code with it:

* ``reference_compose`` is the earlier strand tracer.  It walks the two
  diagrams through dictionaries of blobbed arcs, builds the scalar with
  ``RingElem`` arithmetic and normalizes its result through
  ``make_diagram``;
* ``compose_by_union_find`` glues the two diagrams' boundary points with a
  union-find, classifies every class as a through strand or a closed loop,
  and tallies blobs per class.

``reference_validate`` is the earlier quadratic validator, which compares
every pair of arcs for crossings and scans for an enclosing arc per blob.
All must agree with the production code.  The arc pass behind ``validate``
is also held to the reference on random malformed diagrams, and the arcs
``all_diagrams`` decorates to the reference nesting rule.

A right operand that is a generator takes ``compose``'s local step instead
of the trace; both references check that path too, on every product at
n <= 7 and on random diagrams at n = 8..10.  ``compose`` does not validate
what it builds, so these comparisons are what hold its results valid.
"""

import itertools
import random
from typing import List, Tuple

import pytest

from blobalg import diagrams
from blobalg.diagrams import (
    BlobDiagram,
    ScaledDiagram,
    all_diagrams,
    compose,
    diagram_from_dict,
    diagram_to_dict,
    flip,
    generator_diagram,
    identity_diagram,
    make_diagram,
    validate,
)
from blobalg.ring import RingElem, monomial


def reference_compose(d1, d2):
    """Trace strands point to point, one interface crossing at a time."""
    if d1.n != d2.n:
        raise ValueError(f"strand counts differ: {d1.n} vs {d2.n}")
    n = d1.n

    def mate_of(d):
        mate = [0] * (2 * d.n + 1)
        for i, j in d.pairs:
            mate[i] = j
            mate[j] = i
        return mate

    mate1, mate2 = mate_of(d1), mate_of(d2)
    blob1 = {arc: 1 for arc in d1.blobs}
    blob2 = {arc: 1 for arc in d2.blobs}

    def arc_blob(which, a, b):
        arc = (a, b) if a < b else (b, a)
        return (blob1 if which == 1 else blob2).get(arc, 0)

    seen_ext = set()
    seen_mid = set()
    loops_plain = 0
    loops_blobbed = 0
    excess_blobs = 0
    new_pairs: List[Tuple[int, int]] = []
    new_blobs: List[Tuple[int, int]] = []

    def trace(which, start):
        blobs = 0
        w, pt = which, start
        while True:
            other = (mate1 if w == 1 else mate2)[pt]
            blobs += arc_blob(w, pt, other)
            if w == 1:
                if other <= n:
                    return 1, other, blobs
                mid = 2 * n + 1 - other
                seen_mid.add(mid)
                w, pt = 2, mid
            else:
                if other > n:
                    return 2, other, blobs
                seen_mid.add(other)
                w, pt = 1, 2 * n + 1 - other

    starts = [(1, i) for i in range(1, n + 1)] + [(2, j) for j in range(n + 1, 2 * n + 1)]
    for which, start in starts:
        if (which, start) in seen_ext:
            continue
        seen_ext.add((which, start))
        end_which, end, blobs = trace(which, start)
        seen_ext.add((end_which, end))
        a, b = min(start, end), max(start, end)
        new_pairs.append((a, b))
        if blobs:
            excess_blobs += blobs - 1
            new_blobs.append((a, b))

    for mid in range(1, n + 1):
        if mid in seen_mid:
            continue
        blobs = 0
        w, pt = 2, mid
        while True:
            other = (mate1 if w == 1 else mate2)[pt]
            blobs += arc_blob(w, pt, other)
            nxt = other if w == 2 else 2 * n + 1 - other
            seen_mid.add(nxt)
            w = 3 - w
            pt = nxt if w == 2 else 2 * n + 1 - nxt
            if w == 2 and pt == mid:
                break
        if blobs:
            excess_blobs += blobs - 1
            loops_blobbed += 1
        else:
            loops_plain += 1

    scalar = RingElem.one()
    if loops_plain:
        scalar = scalar * RingElem.loop() ** loops_plain
    if loops_blobbed:
        scalar = scalar * RingElem.gamma() ** loops_blobbed
    if excess_blobs:
        scalar = scalar * RingElem.delta_e() ** excess_blobs
    return ScaledDiagram(scalar, make_diagram(n, new_pairs, new_blobs))


def reference_validate(d):
    """The quadratic validator: all arc pairs for crossings, a scan per blob."""
    points = [p for arc in d.pairs for p in arc]
    if sorted(points) != list(range(1, 2 * d.n + 1)):
        raise ValueError("pairs are not a perfect matching of 1..2n")
    for idx, (i, j) in enumerate(d.pairs):
        for k, l in d.pairs[idx + 1:]:
            if i < k < j < l or k < i < l < j:
                raise ValueError(f"arcs ({i},{j}) and ({k},{l}) cross")
    for arc in d.blobs:
        if arc not in d.pairs:
            raise ValueError(f"blob on missing arc {arc}")
        i, j = arc
        if any(k < i and j < l for k, l in d.pairs if (k, l) != (i, j)):
            raise ValueError(f"blob on nested arc {arc}")


class UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y):
        self.parent[self.find(x)] = self.find(y)


def compose_by_union_find(d1, d2):
    n = d1.n
    uf = UnionFind()
    for i, j in d1.pairs:
        uf.union((1, i), (1, j))
    for i, j in d2.pairs:
        uf.union((2, i), (2, j))
    for pos in range(1, n + 1):
        uf.union((1, 2 * n + 1 - pos), (2, pos))

    blobs = {}
    for which, diag in ((1, d1), (2, d2)):
        for arc in diag.blobs:
            root = uf.find((which, arc[0]))
            blobs[root] = blobs.get(root, 0) + 1

    external = {}
    for i in range(1, n + 1):
        external.setdefault(uf.find((1, i)), []).append(i)
    for j in range(n + 1, 2 * n + 1):
        external.setdefault(uf.find((2, j)), []).append(j)

    pairs, blobbed = [], []
    scalar = RingElem.one()
    for root, ends in external.items():
        assert len(ends) == 2, "a strand must join exactly two boundary points"
        arc = (min(ends), max(ends))
        pairs.append(arc)
        k = blobs.pop(root, 0)
        if k:
            blobbed.append(arc)
            scalar = scalar * RingElem.delta_e() ** (k - 1)

    # classes never meeting the boundary are loops; count them by their
    # members among the glued interface points
    loop_roots = set()
    for pos in range(1, n + 1):
        root = uf.find((2, pos))
        if root not in external:
            loop_roots.add(root)
    for root in sorted(loop_roots, key=str):
        k = blobs.pop(root, 0)
        if k:
            scalar = scalar * RingElem.gamma() * RingElem.delta_e() ** (k - 1)
        else:
            scalar = scalar * RingElem.loop()

    return ScaledDiagram(scalar, make_diagram(n, pairs, blobbed))


def _all_products_agree(d1, d2):
    got = compose(d1, d2)
    assert got == reference_compose(d1, d2)
    assert got == compose_by_union_find(d1, d2)


def test_oracle_agrees_exhaustively_small_n():
    for n in range(0, 4):
        basis = all_diagrams(n)
        for d1 in basis:
            for d2 in basis:
                _all_products_agree(d1, d2)


def test_oracle_agrees_on_random_pairs():
    rng = random.Random("uf-oracle")
    for n, count in ((4, 2000), (5, 2000), (6, 2000), (7, 1000), (8, 1000)):
        basis = all_diagrams(n)
        for _ in range(count):
            d1 = basis[rng.randrange(len(basis))]
            d2 = basis[rng.randrange(len(basis))]
            _all_products_agree(d1, d2)


def _accepts(check, d):
    try:
        check(d)
    except ValueError:
        return False
    return True


def test_validate_agrees_with_reference_on_every_diagram():
    for n in range(0, 7):
        for d in all_diagrams(n):
            validate(d)
            reference_validate(d)


def _perfect_matchings(points):
    if not points:
        yield ()
        return
    first, rest = points[0], points[1:]
    for k, partner in enumerate(rest):
        for m in _perfect_matchings(rest[:k] + rest[k + 1:]):
            yield ((first, partner),) + m


def test_validate_agrees_with_reference_on_all_blob_placements():
    # every perfect matching, crossing or not, with every subset of its
    # arcs blobbed; both validators must accept exactly the same ones
    for n in range(0, 5):
        for pairs in _perfect_matchings(tuple(range(1, 2 * n + 1))):
            for r in range(len(pairs) + 1):
                for blobs in itertools.combinations(pairs, r):
                    d = BlobDiagram(n, pairs, frozenset(blobs))
                    assert _accepts(validate, d) == _accepts(reference_validate, d), d


BAD_DIAGRAMS = {
    "crossing arcs": BlobDiagram(2, ((1, 3), (2, 4)), frozenset()),
    "blob on nested arc": BlobDiagram(2, ((1, 4), (2, 3)), frozenset({(2, 3)})),
    "blob on missing arc": BlobDiagram(2, ((1, 4), (2, 3)), frozenset({(1, 2)})),
    "blob outside 1..2n": BlobDiagram(2, ((1, 4), (2, 3)), frozenset({(0, 5)})),
    "repeated point": BlobDiagram(2, ((1, 4), (1, 4)), frozenset()),
    "point outside 1..2n": BlobDiagram(2, ((1, 2), (3, 5)), frozenset()),
    "point zero": BlobDiagram(2, ((0, 1), (2, 3)), frozenset()),
    "too few arcs": BlobDiagram(3, ((1, 2), (3, 4)), frozenset()),
    "too many arcs": BlobDiagram(1, ((1, 2), (3, 4)), frozenset()),
}


@pytest.mark.parametrize("name", sorted(BAD_DIAGRAMS))
def test_both_validators_reject_bad_input(name):
    d = BAD_DIAGRAMS[name]
    with pytest.raises(ValueError):
        validate(d)
    with pytest.raises(ValueError):
        reference_validate(d)


def test_validate_requires_canonical_arc_order():
    # validate also checks the sorted (start, end) form that make_diagram
    # normalizes to and compose and flip build; the reference did not need
    # to, and accepts these
    for pairs in (((2, 3), (1, 4)), ((4, 1), (2, 3))):
        d = BlobDiagram(2, pairs, frozenset())
        reference_validate(d)
        with pytest.raises(ValueError, match="sorted"):
            validate(d)
        assert make_diagram(2, pairs) == BlobDiagram(2, ((1, 4), (2, 3)), frozenset())


def _canonical(d):
    """The (start, end) form, start < end, sorted by start, that validate
    requires and reference_validate does not check."""
    return all(i < j for i, j in d.pairs) and list(d.pairs) == sorted(d.pairs)


def _malformed(n, rng):
    """A random diagram on n strands with up to three random faults."""
    d = _random_diagram(n, rng)
    pairs, blobs = [list(arc) for arc in d.pairs], set(d.blobs)
    n2 = 2 * n
    for _ in range(rng.randrange(4)):
        fault = rng.randrange(8)
        if fault == 0 and len(pairs) > 1:  # unsorted arcs
            a, b = rng.sample(range(len(pairs)), 2)
            pairs[a], pairs[b] = pairs[b], pairs[a]
        elif fault == 1 and pairs:  # start > end
            arc = rng.choice(pairs)
            arc.reverse()
        elif fault == 2 and pairs:  # a repeated or out-of-range point
            arc = rng.choice(pairs)
            arc[rng.randrange(2)] = rng.choice([-1, 0, n2 + 1, rng.randint(1, max(n2, 1))])
        elif fault == 3 and pairs:  # too few arcs
            pairs.pop(rng.randrange(len(pairs)))
        elif fault == 4:  # too many arcs
            pairs.insert(rng.randrange(len(pairs) + 1), rng.choice(pairs + [[n2 + 1, n2 + 2]]))
        elif fault == 5 and len(pairs) > 1:  # rewire two arcs: nested, side by side or crossing
            a, b = rng.sample(range(len(pairs)), 2)
            pts = sorted(pairs[a] + pairs[b])
            rng.shuffle(pts)
            pairs[a], pairs[b] = sorted(pts[:2]), sorted(pts[2:])
        elif fault == 6 and pairs:  # a blob on an arc of the pairs, nested or not
            blobs.add(tuple(rng.choice(pairs)))
        elif fault == 7:  # a blob on a missing arc
            blobs.add(tuple(sorted(rng.sample(range(0, n2 + 2), 2))))
    return BlobDiagram(n, tuple(tuple(arc) for arc in pairs), frozenset(blobs))


def test_validate_agrees_with_reference_on_random_malformed_diagrams():
    rng = random.Random("arc-pass")
    verdicts = {True: 0, False: 0}
    for _ in range(24000):
        d = _malformed(rng.randint(0, 6), rng)
        want = _accepts(reference_validate, d) and _canonical(d)
        assert _accepts(validate, d) == want, d
        verdicts[want] += 1
    assert min(verdicts.values()) > 4000, verdicts


def _reference_exposed(pairs):
    """The reference nesting rule: an arc no other arc encloses."""
    return {(i, j) for i, j in pairs if not any(k < i and j < l for k, l in pairs)}


def test_all_diagrams_decorates_exactly_the_reference_exposed_arcs():
    # every non-crossing matching, found among all perfect matchings by the
    # reference validator, carries every subset of its exposed arcs as blobs
    for n in range(0, 7):
        decorated = {}
        for d in all_diagrams(n):
            decorated.setdefault(d.pairs, set()).add(d.blobs)
        matchings = [pairs for pairs in _perfect_matchings(tuple(range(1, 2 * n + 1)))
                     if _accepts(reference_validate, BlobDiagram(n, pairs, frozenset()))]
        assert sorted(decorated) == sorted(matchings)
        for pairs in matchings:
            exposed = sorted(_reference_exposed(pairs))
            subsets = {frozenset(c) for r in range(len(exposed) + 1)
                       for c in itertools.combinations(exposed, r)}
            assert decorated[pairs] == subsets, pairs


def test_compose_builds_monomials_without_ring_products(monkeypatch):
    # the scalar is read off binomial coefficients, never multiplied out,
    # even when the monomial table is cold
    want = RingElem.loop() ** 3 * RingElem.gamma() * RingElem.delta_e() ** 2

    def forbidden(self, other):
        raise AssertionError("compose multiplied RingElems")

    monkeypatch.setattr(RingElem, "__mul__", forbidden)
    monkeypatch.setattr(RingElem, "__pow__", forbidden)
    monomial.cache_clear()
    basis = all_diagrams(4)
    for d1 in basis:
        for d2 in basis:
            compose(d1, d2)
    assert monomial(3, 1, 2) == want


# -- the generator step ------------------------------------------------------


def _random_diagram(n, rng):
    """A random blob diagram on n strands, drawn without enumerating them: a
    random bracket word on 1..2n gives the arcs, and each west-exposed arc
    (one that closes on an empty stack) gets a blob with probability 1/2."""
    pairs, blobs, stack = [], [], []
    for p in range(1, 2 * n + 1):
        if stack and (len(stack) == 2 * n + 1 - p or rng.random() < 0.5):
            i = stack.pop()
            pairs.append((i, p))
            if not stack and rng.random() < 0.5:
                blobs.append((i, p))
        else:
            stack.append(p)
    return make_diagram(n, pairs, blobs)


def _count_traces(monkeypatch):
    """Count the general trace's calls of _point_arrays (two per compose)."""
    calls = []
    real = diagrams._point_arrays

    def counted(d):
        calls.append(d)
        return real(d)

    monkeypatch.setattr(diagrams, "_point_arrays", counted)
    return calls


def _generator_products_agree(d, n):
    for letter in range(n):
        gen = generator_diagram(n, letter)
        got = compose(d, gen)
        assert got == reference_compose(d, gen), (d, letter)
        assert got == compose_by_union_find(d, gen), (d, letter)


def test_generator_step_agrees_on_every_product_small_n(monkeypatch):
    traces = _count_traces(monkeypatch)
    for n in range(1, 8):
        for d in all_diagrams(n):
            _generator_products_agree(d, n)
    assert traces == []


def test_generator_step_agrees_on_random_diagrams_large_n(monkeypatch):
    rng = random.Random("generator-step")
    traces = _count_traces(monkeypatch)
    for n, count in ((8, 300), (9, 200), (10, 150)):
        for _ in range(count):
            _generator_products_agree(_random_diagram(n, rng), n)
    assert traces == []


def test_generator_built_elsewhere_gives_the_same_product():
    # the step is chosen by the operand's value, not by where it was built
    for n in range(1, 6):
        for letter in range(n):
            gen = generator_diagram(n, letter)
            copies = (make_diagram(n, gen.pairs, gen.blobs),
                      diagram_from_dict(diagram_to_dict(gen)))
            for copy in copies:
                assert copy == gen and copy is not gen
                for d in all_diagrams(n):
                    assert compose(d, copy) == compose(d, gen) == reference_compose(d, gen)


def test_non_generator_operands_take_the_general_trace(monkeypatch):
    rng = random.Random("not-a-generator")
    operands = []
    for n in range(1, 8):
        e = generator_diagram(n, 0)
        operands += [identity_diagram(n), BlobDiagram(n, e.pairs, frozenset()),
                     _random_diagram(n, rng)]
    gens = {generator_diagram(n, letter) for n in range(1, 8) for letter in range(n)}
    traces = _count_traces(monkeypatch)
    for d2 in operands:
        if d2 in gens:
            continue
        for _ in range(40):
            d1 = _random_diagram(d2.n, rng)
            traces.clear()
            assert compose(d1, d2) == reference_compose(d1, d2)
            assert traces == [d1, d2]


def test_kernels_return_without_validate(monkeypatch):
    # validation happens where a diagram enters (make_diagram); compose and
    # flip build their results unchecked, and the oracles above, which both
    # normalize through make_diagram, hold those results to be valid
    gens = [generator_diagram(n, letter) for n in range(1, 6) for letter in range(n)]

    def refuse(d):
        raise AssertionError(f"validate called on {d}")

    monkeypatch.setattr(diagrams, "validate", refuse)
    for n in range(0, 4):
        basis = all_diagrams(n)
        for d1 in basis:
            for d2 in basis:
                assert isinstance(compose(d1, d2), ScaledDiagram)
    for gen in gens:
        for d in all_diagrams(gen.n):
            assert isinstance(compose(d, gen), ScaledDiagram)
    for n in range(0, 7):
        for d in all_diagrams(n):
            assert isinstance(flip(d), BlobDiagram)
