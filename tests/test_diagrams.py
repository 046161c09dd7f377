import json
import random
from math import comb

import pytest

from blobalg.diagrams import (
    ScaledDiagram,
    all_diagrams,
    compose,
    compose_scaled,
    diagram_from_dict,
    diagram_to_dict,
    e_diagram,
    flip,
    identity_diagram,
    make_diagram,
    scaled_to_dict,
    through_count,
    u_diagram,
    validate,
    west_exposed,
)
from blobalg.presentation import evaluate_word
from blobalg.ring import RingElem
from blobalg.words import cap_word, parse_word
from test_compose_oracle import _random_diagram


def test_generator_diagrams():
    assert u_diagram(2, 1).pairs == ((1, 2), (3, 4))
    assert not u_diagram(2, 1).blobs
    assert e_diagram(1).pairs == ((1, 2),)
    assert e_diagram(1).blobs == frozenset({(1, 2)})
    assert identity_diagram(3).pairs == ((1, 6), (2, 5), (3, 4))


def test_generator_index_range():
    with pytest.raises(ValueError):
        u_diagram(3, 3)
    with pytest.raises(ValueError):
        u_diagram(3, 0)


def test_west_exposed():
    d = identity_diagram(2)
    assert west_exposed(d, (1, 4))
    assert not west_exposed(d, (2, 3))
    d = u_diagram(3, 2)  # pairs (1,6),(2,3),(4,5)
    assert not west_exposed(d, (2, 3))
    assert not west_exposed(d, (4, 5))
    assert west_exposed(d, (1, 6))


def test_validate_rejects_crossing_and_bad_blob():
    with pytest.raises(ValueError):
        make_diagram(2, [(1, 3), (2, 4)])
    with pytest.raises(ValueError):
        make_diagram(2, [(1, 4), (2, 3)], blobs=[(2, 3)])
    with pytest.raises(ValueError):
        make_diagram(2, [(1, 4), (1, 4)])


def test_make_diagram_rejects_a_repeated_blob_arc():
    for blobs in ([(1, 4), (1, 4)], [(1, 4), (4, 1)]):
        with pytest.raises(ValueError, match=r"blob arc \(1, 4\) is listed more than once"):
            make_diagram(2, [(1, 4), (2, 3)], blobs=blobs)
    assert make_diagram(2, [(1, 4), (2, 3)], blobs=[(4, 1)]).blobs == {(1, 4)}


@pytest.mark.parametrize("pairs, blobs, message", [
    ([[1, 2, 3], [4]], [], "arc [1, 2, 3] is not a pair of points"),
    ([[1], [2, 3, 4]], [], "arc [1] is not a pair of points"),
    ([[1, 4], []], [], "arc [] is not a pair of points"),
    ([[1, 4], [2, 3]], [[1]], "blob arc [1] is not a pair of points"),
    ([[1, 4], [2, 3]], [[1, 4, 2]], "blob arc [1, 4, 2] is not a pair of points"),
])
def test_make_diagram_names_an_arc_that_is_not_a_pair(pairs, blobs, message):
    # an arc of the wrong length used to fail with tuple unpacking's message
    with pytest.raises(ValueError) as info:
        make_diagram(2, pairs, blobs)
    assert str(info.value) == message


@pytest.mark.parametrize("pairs, blobs, message", [
    ([5, [2, 3]], [], "arc 5 is not a pair of points"),
    ([[1, 4], [2, 3]], [None], "blob arc None is not a pair of points"),
    ([[1, 4], [2, 3]], [{1, 4}], "blob arc {1, 4} is not a pair of points"),
])
def test_make_diagram_names_an_arc_that_is_not_a_sequence(pairs, blobs, message):
    # tuple() on such an arc used to raise TypeError
    with pytest.raises(ValueError) as info:
        make_diagram(2, pairs, blobs)
    assert str(info.value) == message


def test_compose_relations():
    s = compose(u_diagram(4, 2), u_diagram(4, 2))
    assert s.coeff == RingElem.loop() and s.diagram == u_diagram(4, 2)
    s = compose(e_diagram(3), e_diagram(3))
    assert s.coeff == RingElem.delta_e() and s.diagram == e_diagram(3)
    s = compose(compose(u_diagram(2, 1), e_diagram(2)).diagram, u_diagram(2, 1))
    assert s.coeff == RingElem.gamma() and s.diagram == u_diagram(2, 1)


def test_compose_worked_example():
    # U2 U1 e U2 U1 collapses to e U2 U1 with no scalar
    lhs = evaluate_word(parse_word("U2 U1 e U2 U1", 3))
    rhs = evaluate_word(parse_word("e U2 U1", 3))
    assert lhs.coeff.is_one() and rhs.coeff.is_one()
    assert lhs.diagram == rhs.diagram


def test_compose_rejects_mixed_n():
    with pytest.raises(ValueError):
        compose(identity_diagram(2), identity_diagram(3))


def test_through_count():
    assert through_count(identity_diagram(5)) == 5
    assert through_count(u_diagram(2, 1)) == 0
    assert through_count(evaluate_word(cap_word(0, 4)).diagram) == 0
    assert through_count(evaluate_word(cap_word(2, 4)).diagram) == 2


def test_flip():
    for n, i in [(2, 1), (3, 1), (3, 2), (5, 3)]:
        assert flip(u_diagram(n, i)) == u_diagram(n, i)
    lhs = flip(evaluate_word(parse_word("e U2 U1", 3)).diagram)
    rhs = evaluate_word(parse_word("U1 U2 e", 3)).diagram
    assert lhs == rhs
    for d in all_diagrams(3):
        assert flip(flip(d)) == d


def _mirror_through_make_diagram(d):
    m = 2 * d.n + 1
    return make_diagram(d.n, [(m - i, m - j) for i, j in d.pairs],
                        [(m - i, m - j) for i, j in d.blobs])


def test_flip_equals_the_validated_mirror():
    # flip builds its result unchecked; make_diagram validates and
    # normalizes the same mirrored arcs
    for n in range(0, 8):
        for d in all_diagrams(n):
            assert flip(d) == _mirror_through_make_diagram(d), d
    rng = random.Random("flip")
    for n in range(8, 11):
        for _ in range(300):
            d = _random_diagram(n, rng)
            assert flip(d) == _mirror_through_make_diagram(d), d


def test_enumeration_counts():
    assert len(all_diagrams(1)) == 2
    assert len(all_diagrams(2)) == 6
    assert len(all_diagrams(3)) == 20
    assert len(all_diagrams(4)) == 70
    for n in range(0, 9):
        assert len(all_diagrams(n)) == comb(2 * n, n)


def test_enumeration_distinct_and_valid():
    for n in range(0, 9):
        ds = all_diagrams(n)
        assert len(set(ds)) == len(ds)
        for d in ds:
            validate(d)
        assert list(ds) == sorted(ds, key=lambda d: (d.pairs, tuple(sorted(d.blobs))))


def _monomials(n):
    out = {}
    loop, g, de = RingElem.loop(), RingElem.gamma(), RingElem.delta_e()
    for a in range(n + 2):
        for b in range(n + 2):
            for c in range(n + 2):
                out[loop ** a * g ** b * de ** c] = (a, b, c)
    return out


def test_closure_small_n_exhaustive():
    for n in range(0, 5):
        basis = set(all_diagrams(n))
        monos = _monomials(n)
        for d1 in basis:
            for d2 in basis:
                s = compose(d1, d2)
                validate(s.diagram)
                assert s.diagram in basis
                assert s.coeff in monos


def test_closure_n5_full_n6_sampled():
    basis5 = all_diagrams(5)
    known5 = set(basis5)
    monos = _monomials(5)
    for d1 in basis5:
        for d2 in basis5:
            s = compose(d1, d2)
            assert s.diagram in known5 or validate(s.diagram) is None
            assert s.coeff in monos
    rng = random.Random("closure-6")
    basis6 = all_diagrams(6)
    idx = set(range(len(basis6)))
    monos6 = _monomials(6)
    for _ in range(20_000):
        d1 = basis6[rng.randrange(len(basis6))]
        d2 = basis6[rng.randrange(len(basis6))]
        s = compose(d1, d2)
        validate(s.diagram)
        assert s.coeff in monos6


def test_associativity_random_triples():
    rng = random.Random("assoc")
    for n in range(1, 7):
        basis = all_diagrams(n)
        for _ in range(300):
            a, b, c = (basis[rng.randrange(len(basis))] for _ in range(3))
            left = compose_scaled(ScaledDiagram(RingElem.one(), a), compose(b, c))
            right = compose_scaled(compose(a, b), ScaledDiagram(RingElem.one(), c))
            assert left == right


def test_json_forms():
    d = make_diagram(3, [(1, 6), (2, 5), (3, 4)], blobs=[(1, 6)])
    data = diagram_to_dict(d)
    assert data == {"n": 3, "pairs": [[1, 6], [2, 5], [3, 4]], "blobs": [[1, 6]]}
    assert diagram_from_dict(json.loads(json.dumps(data))) == d
    s = ScaledDiagram(RingElem.gamma(), d)
    assert scaled_to_dict(s)["coeff"] == "g"
