import random

import pytest

import blobalg.presentation as presentation
from blobalg.diagrams import (
    BlobDiagram,
    ScaledDiagram,
    all_diagrams,
    compose,
    compose_scaled,
    diagram_from_dict,
    diagram_to_dict,
    e_diagram,
    flip,
    generator_diagram,
    identity_diagram,
    u_diagram,
)
from blobalg.presentation import (
    check_defining_relations,
    check_reduction_stability,
    check_run_identities,
    evaluate_from,
    evaluate_word,
    is_reduced,
    phi_equal,
)
from blobalg.ring import RingElem, monomial
from blobalg.towers import DiagramSpace, diagram_space, regular_basis
from blobalg.words import Word, gen_e, gen_u, opposite, parse_word, unit

from redux_reference import reference_reduction_stability
from test_compose_oracle import _random_diagram, reference_compose


def test_evaluation_examples():
    s = evaluate_word(parse_word("U1 e U1", 2))
    assert s.coeff == RingElem.gamma()
    assert s.diagram == evaluate_word(parse_word("U1", 2)).diagram

    s = evaluate_word(parse_word("e U1 e U2 U1 U3", 4))
    assert s.coeff.is_one()

    s = evaluate_word(unit(3))
    assert s.coeff.is_one() and s.diagram == identity_diagram(3)


def test_homomorphism_on_random_pairs():
    rng = random.Random("hom")
    for n in range(1, 7):
        for _ in range(150):
            u = Word(n, tuple(rng.randrange(0, n) for _ in range(rng.randrange(0, 7))))
            v = Word(n, tuple(rng.randrange(0, n) for _ in range(rng.randrange(0, 7))))
            assert evaluate_word(u * v) == compose_scaled(evaluate_word(u), evaluate_word(v))


def test_opposite_matches_flip():
    for n in range(1, 6):
        for w in regular_basis(n):
            s = evaluate_word(w)
            so = evaluate_word(opposite(w))
            assert so.coeff == s.coeff
            assert so.diagram == flip(s.diagram)


def test_opposite_of_blob_cap():
    w = parse_word("U1 e U2 U1", 3)
    so = evaluate_word(opposite(w))
    s = evaluate_word(w)
    assert so.diagram == flip(s.diagram) and so.coeff == s.coeff


def test_reduction_proxy():
    assert is_reduced(parse_word("U1 U2 U1", 3))
    assert not is_reduced(parse_word("U1 U1", 2))
    assert not is_reduced(parse_word("U1 e U1", 2))


def test_unit_scalar_words_reach_every_diagram():
    # breadth-first search over words, extending only unit-scalar products:
    # a non-unit scalar can never cancel later, so those branches are dead
    for n in range(1, 5):
        target = set(all_diagrams(n))
        gens = [evaluate_word(g).diagram for g in
                [gen_e(n)] + [gen_u(n, i) for i in range(1, n)]]
        frontier = {identity_diagram(n)}
        found = set(frontier)
        depth = 0
        while frontier and found != target:
            depth += 1
            nxt = set()
            for d in frontier:
                for g in gens:
                    prod = compose(d, g)
                    if prod.coeff.is_one() and prod.diagram not in found:
                        nxt.add(prod.diagram)
            found |= nxt
            frontier = nxt
            assert depth <= 2 * n * n, "bound blown without reaching every diagram"
        assert found == target


def test_defining_relations_to_n8():
    for n in range(1, 9):
        rep = check_defining_relations(n)
        assert rep.passed, [c.instance for c in rep.checks if not c.passed]


def test_run_identities_to_n8():
    for n in range(2, 9):
        rep = check_run_identities(n)
        assert rep.passed, [c.instance for c in rep.checks if not c.passed]


def test_cap_extension_identities_up_to_index_8():
    from blobalg.words import blob_cap_word, cap_word, descending_run

    n = 10
    for i in range(0, 9, 2):
        lhs = cap_word(0, i).with_n(n) * descending_run(i + 1, 1, n)
        rhs = cap_word(0, i + 2).with_n(n)
        assert phi_equal(lhs, rhs), i
    for i in range(1, 9, 2):
        lhs = blob_cap_word(1, i).with_n(n) * descending_run(i + 1, 1, n)
        rhs = gen_u(n, i + 1) * blob_cap_word(1, i + 2).with_n(n)
        assert phi_equal(lhs, rhs), i


def test_two_run_third_form_needs_k_at_least_3():
    # at k = 2 the third expression is genuinely different
    n = 4
    lhs = parse_word("U1 U2 U1", n)
    rhs = parse_word("U1 U3", n)
    assert not phi_equal(lhs, rhs)


def test_reduction_stability():
    for n in range(3, 6):
        rep = check_reduction_stability(n)
        assert rep.passed, [c.instance for c in rep.checks if not c.passed]


def test_report_shape():
    rep = check_defining_relations(3)
    data = rep.to_dict()
    assert set(data["checks"][0]) >= {"instance", "lhs", "rhs", "pass"}
    assert rep.to_json()


# -- the half tables behind evaluate_word -------------------------------------


def _fold(w, start=None):
    """The image of w folded from the identity (or from the scaled diagram
    `start`) with the reference composer, independent of evaluate_word and
    its tables."""
    got = start or ScaledDiagram(RingElem.one(), identity_diagram(w.n))
    for letter in w.letters:
        gen = e_diagram(w.n) if letter == 0 else u_diagram(w.n, letter)
        step = reference_compose(got.diagram, gen)
        got = ScaledDiagram(got.coeff * step.coeff, step.diagram)
    return got


@pytest.fixture
def cold_evaluate_word():
    """evaluate_word with an empty cache and table, before and after."""
    evaluate_word.cache_clear()
    presentation.reset_tables()
    yield evaluate_word
    evaluate_word.cache_clear()
    presentation.reset_tables()


def _filled(n):
    """(right entries, join entries) of strand count n filled so far."""
    tables = presentation._tables.get(n)
    if tables is None:
        return 0, 0
    return sum(entry is not None for entry in tables.right), len(tables.joins)


def test_reset_tables_empties_the_transition_table(cold_evaluate_word):
    for n in (2, 5):
        # U1 caps the identity's two leftmost through lines (a join), e
        # blobs the new bottom cap, and U1 closes it into a loop (g)
        cold_evaluate_word(Word(n, (1, 0, 1)))
        assert _filled(n) == (3, 1)
    assert cold_evaluate_word.cache_info().currsize == 2
    cold_evaluate_word.cache_clear()  # the word cache only
    assert cold_evaluate_word.cache_info().currsize == 0
    assert [_filled(n) for n in (2, 5)] == [(3, 1), (3, 1)]
    # two tops (identity, U1) and three bottoms: U1 e U1 = g U1
    tables = [presentation._tables[n] for n in (2, 5)]
    assert [(len(t.tops), len(t.bottoms)) for t in tables] == [(2, 3), (2, 3)]
    presentation.reset_tables()
    assert presentation._tables == {}


def test_tables_hold_exactly_the_basis(cold_evaluate_word):
    for n in range(1, 7):
        for w in regular_basis(n):
            cold_evaluate_word(w)
        tables = presentation._tables[n]
        ends = {d for d in tables.ends if isinstance(d, BlobDiagram)}
        assert ends == set(all_diagrams(n))
        assert len(tables.bottoms) == 2 ** n
        assert tables.diagram(0, 0) == identity_diagram(n)


def _split_rebuilt(n, diagrams):
    """Each diagram split into halves in fresh tables of n, then rebuilt
    from its halves alone."""
    tables = presentation._Halves(n)
    states = [tables.state(d) for d in diagrams]
    tables.ends.clear()  # forget the diagrams, keep the halves
    return tables, [tables.diagram(*state) for state in states]


def test_split_and_rebuild_give_back_the_diagram():
    rng = random.Random("halves")
    cases = [(n, list(all_diagrams(n))) for n in range(0, 8)]
    cases += [(n, [_random_diagram(n, rng) for _ in range(300)]) for n in range(8, 11)]
    for n, diagrams in cases:
        assert any(d.blobs for d in diagrams) or n == 0
        _, rebuilt = _split_rebuilt(n, diagrams)
        assert rebuilt == diagrams


def test_bottom_states_are_one_per_walk():
    # the bottom state of b_n's diagrams takes exactly 2^n values, |S_n|
    for n in range(0, 9):
        tables, _ = _split_rebuilt(n, all_diagrams(n))
        assert len(tables.bottoms) == 2 ** n
        assert len(tables.right) == n * 2 ** n


def _prefix_sharing_words(rng, n, count):
    """Random words, most of them an earlier word plus a short tail, or a
    prefix of an earlier word."""
    out = [Word(n, tuple(rng.randrange(n) for _ in range(rng.randrange(1, 6))))]
    while len(out) < count:
        base = rng.choice(out).letters
        roll = rng.random()
        if roll < 0.6:
            letters = base + tuple(rng.randrange(n) for _ in range(rng.randrange(1, 5)))
        elif roll < 0.8:
            letters = base[:rng.randrange(len(base) + 1)]
        else:
            letters = tuple(rng.randrange(n) for _ in range(rng.randrange(0, 12)))
        out.append(Word(n, letters))
    return out


def test_prefix_reuse_matches_reference_fold(cold_evaluate_word):
    rng = random.Random("prefix")
    for n in range(1, 11):
        words = _prefix_sharing_words(rng, n, 60)
        rng.shuffle(words)
        for w in words:
            assert cold_evaluate_word(w) == _fold(w), w


def test_empty_and_one_letter_words(cold_evaluate_word):
    for n in range(0, 8):
        assert cold_evaluate_word(unit(n)) == ScaledDiagram(RingElem.one(), identity_diagram(n))
        for letter in range(n):
            w = Word(n, (letter,))
            assert cold_evaluate_word(w) == _fold(w)
            assert cold_evaluate_word(w * w) == _fold(w * w)


def test_compose_runs_once_per_new_table_entry(cold_evaluate_word, monkeypatch):
    calls = []
    real = presentation.compose

    def counting(d1, d2):
        calls.append((d1, d2))
        return real(d1, d2)

    monkeypatch.setattr(presentation, "compose", counting)
    rng = random.Random("tail")
    for n in range(1, 9):
        words = _prefix_sharing_words(rng, n, 40)
        for w in words:
            # one letter at a time: a step composes once exactly when it
            # fills an entry (a right entry, a join entry or both)
            image = cold_evaluate_word(unit(n))
            for letter in w.letters:
                before = sum(_filled(n))
                del calls[:]
                image = evaluate_from(image, Word(n, (letter,)))
                assert len(calls) == (1 if sum(_filled(n)) > before else 0)
            assert image == _fold(w)
            # the whole word takes the same states, so it composes nothing
            del calls[:]
            assert cold_evaluate_word(w) == _fold(w)
            assert calls == []
        # rewalking every word, now out of the cache, composes nothing
        cold_evaluate_word.cache_clear()
        del calls[:]
        for w in words:
            assert cold_evaluate_word(w) == _fold(w)
        assert calls == []
        # on a cold start, a word composes at most once per entry it fills
        # and never the same product twice
        presentation.reset_tables()
        cold_evaluate_word.cache_clear()
        for w in words:
            before = sum(_filled(n))
            del calls[:]
            assert cold_evaluate_word(w) == _fold(w)
            assert len(calls) <= sum(_filled(n)) - before
            assert (len(calls) > 0) == (sum(_filled(n)) > before)
            assert len(set(calls)) == len(calls)
    # after a reset a one-letter word composes once (identity times the
    # letter) and, walked again out of the cache, nothing; the empty word
    # composes nothing at all
    for n in range(1, 9):
        for letter in range(n):
            w = Word(n, (letter,))
            cold_evaluate_word.cache_clear()
            presentation.reset_tables()
            del calls[:]
            assert cold_evaluate_word(unit(n)) == _fold(unit(n))
            assert calls == []
            assert cold_evaluate_word(w) == _fold(w)
            assert calls == [(identity_diagram(n), generator_diagram(n, letter))]
            cold_evaluate_word.cache_clear()
            assert cold_evaluate_word(w) == _fold(w)
            assert len(calls) == 1


def test_table_entries_equal_compose_on_every_diagram(cold_evaluate_word):
    for n in range(1, 7):
        # breadth-first over words from the empty one: each new diagram
        # gets one word, and every diagram reached is extended by every letter
        frontier = [unit(n)]
        seen = {cold_evaluate_word(unit(n)).diagram}
        while frontier:
            nxt = []
            for w in frontier:
                for letter in range(n):
                    longer = w * Word(n, (letter,))
                    d = cold_evaluate_word(longer).diagram
                    if d not in seen:
                        seen.add(d)
                        nxt.append(longer)
            frontier = nxt
        # every diagram is the image of a word, the identity of the empty one
        assert seen == set(all_diagrams(n))
        tables = presentation._tables[n]
        assert None not in tables.right and len(tables.right) == n * 2 ** n
        halves = (len(tables.tops), len(tables.bottoms))
        # every right entry, and every join entry it leads to, against
        # compose on the rebuilt diagram of every top it can meet
        joins_met = set()
        for t, top in enumerate(tables.tops):
            for s, bottom in enumerate(tables.bottoms):
                if len(top[2]) != len(bottom[2]):
                    continue
                d = tables.diagram(t, s)
                assert d in seen
                for letter in range(n):
                    nxt, code, join = tables.right[s * n + letter]
                    step = compose(d, generator_diagram(n, letter))
                    assert step.coeff == presentation._STEP_SCALARS[code]
                    t_step, s_step = tables.state(step.diagram)
                    assert s_step == nxt
                    if join:
                        if (t, join) in tables.joins:
                            joins_met.add((t, join))
                            assert t_step == tables.joins[t, join]
                    else:
                        assert t_step == t
        assert joins_met == set(tables.joins)
        assert (len(tables.tops), len(tables.bottoms)) == halves


def test_generator_steps_carry_one_of_four_scalars():
    # also: the action tables of diagram_space, whose left tables come
    # through flip, agree with compose on every basis diagram
    allowed = set(presentation._STEP_SCALARS)
    for n in range(1, 7):
        gens = [generator_diagram(n, letter) for letter in range(n)]
        space = diagram_space(n)
        seen = set()
        for d in all_diagrams(n):
            i = space.index_of(d)
            for letter, g in enumerate(gens):
                right, left = compose(d, g), compose(g, d)
                seen.add(right.coeff)
                seen.add(left.coeff)
                assert space.steps[1, letter, i] == space.index_of(right.diagram)
                assert space.steps[0, letter, i] == space.index_of(left.diagram)
        assert seen <= allowed, seen - allowed
        assert seen == allowed or n == 1


@pytest.mark.parametrize("n", [9, 10])
def test_action_tables_agree_with_compose_on_a_sample(n):
    # every diagram is checked up to n = 6; past that, seeded (side, letter,
    # index) triples of a space built here and not kept in the cache
    space = DiagramSpace(n)
    rng = random.Random(n)
    allowed = set(presentation._STEP_SCALARS)
    for _ in range(500):
        side, letter, i = rng.randrange(2), rng.randrange(n), rng.randrange(space.dim)
        d, g = space.diagram(i), generator_diagram(n, letter)
        step = compose(g, d) if side == 0 else compose(d, g)
        assert space.steps[side, letter, i] == space.index_of(step.diagram), (side, letter, i)
        assert step.coeff._exps is not None and step.coeff in allowed, (side, letter, i)


# -- the walk counts its steps; the scalar is one monomial --------------------


def _forbid_ring_products(monkeypatch):
    def forbidden(self, other):
        raise AssertionError("the table walk multiplied RingElems")

    monkeypatch.setattr(RingElem, "__mul__", forbidden)
    monkeypatch.setattr(RingElem, "__pow__", forbidden)


def _bfs_words(n):
    """Every word of a breadth-first search over words on n strands (each
    new diagram gets one word, extended by every letter), with its image
    folded by the reference composer."""
    frontier = [(w, _fold(w)) for w in (Word(n, (letter,)) for letter in range(n))]
    seen = {image.diagram for _, image in frontier}
    out = list(frontier)
    while frontier:
        nxt = []
        for w, image in frontier:
            for letter in range(n):
                step = Word(n, (letter,))
                longer = (w * step, _fold(step, image))
                out.append(longer)
                if longer[1].diagram not in seen:
                    seen.add(longer[1].diagram)
                    nxt.append(longer)
        frontier = nxt
    return out


def test_walk_images_need_no_ring_products(cold_evaluate_word, monkeypatch):
    rng = random.Random("monomial")
    cases = [case for n in range(1, 6) for case in _bfs_words(n)]
    for n in range(6, 10):
        cases += [(w, _fold(w)) for w in (_random_word(rng, n, 20) for _ in range(60))]
    # the products-n10 shape: random 24-letter words on 10 strands
    for _ in range(200):
        w = Word(10, tuple(rng.randrange(10) for _ in range(24)))
        cases.append((w, _fold(w)))
    assert any(len(image.coeff.terms) > 1 for _, image in cases)
    cold_evaluate_word.cache_clear()
    monomial.cache_clear()
    _forbid_ring_products(monkeypatch)
    for w, want in cases:
        assert cold_evaluate_word(w) == want, w
    assert presentation._STEP_SCALARS == (
        RingElem.one(), RingElem.loop(), RingElem.gamma(), RingElem.delta_e())


def test_evaluate_from_multiplies_at_most_once(cold_evaluate_word, monkeypatch):
    rng = random.Random("once")
    cases = []
    for n in range(1, 10):
        for _ in range(40):
            w, tail = _random_word(rng, n, 10), _random_word(rng, n, 8)
            image = _fold(w)
            # the scalar of the tail's steps alone, from the stem's diagram
            tail_scalar = _fold(tail, ScaledDiagram(RingElem.one(), image.diagram)).coeff
            cases.append((image, tail, _fold(tail, image), tail_scalar.is_one()))
    assert any(unit_tail for *_, unit_tail in cases)
    assert not all(unit_tail for *_, unit_tail in cases)
    calls = []
    real = RingElem.__mul__

    def counting(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(RingElem, "__mul__", counting)
    for image, tail, want, unit_tail in cases:
        del calls[:]
        assert evaluate_from(image, tail) == want, tail
        assert len(calls) == (0 if unit_tail else 1), tail


# -- walking a tail on from a word's image ------------------------------------


def _random_word(rng, n, most):
    """A word of at most `most` random letters (the empty word when n = 0)."""
    return Word(n, tuple(rng.randrange(n) for _ in range(rng.randrange(most + 1) if n else 0)))


def test_evaluate_from_equals_the_concatenated_word(cold_evaluate_word):
    rng = random.Random("continue")
    for n in range(0, 9):
        for _ in range(60):
            w, tail = _random_word(rng, n, 10), _random_word(rng, n, 8)
            got = evaluate_from(cold_evaluate_word(w), tail)
            assert got == cold_evaluate_word(w * tail) == _fold(w * tail), (w, tail)
        # an empty stem starts from the identity, id 0 of every table
        for tail in (unit(n), *(Word(n, (letter,)) for letter in range(n))):
            assert evaluate_from(cold_evaluate_word(unit(n)), tail) == _fold(tail)
        # an empty tail returns the image unchanged
        w = _random_word(rng, n, 10)
        assert evaluate_from(cold_evaluate_word(w), unit(n)) == cold_evaluate_word(w)


def test_evaluate_from_interns_a_diagram_the_table_lacks(cold_evaluate_word):
    rng = random.Random("intern")
    scalars = (RingElem.one(), RingElem.gamma(), RingElem.loop() * RingElem.delta_e())
    for n in range(1, 6):
        for d in all_diagrams(n):
            start = ScaledDiagram(rng.choice(scalars), d)
            tail = _random_word(rng, n, 6)
            assert evaluate_from(start, tail) == _fold(tail, start), (d, tail)
    # diagrams read from JSON, on more strands than all_diagrams reaches here
    for n in range(6, 11):
        for _ in range(20):
            d = diagram_from_dict(diagram_to_dict(_random_diagram(n, rng)))
            start = ScaledDiagram(rng.choice(scalars), d)
            tail = _random_word(rng, n, 8)
            ends = presentation._tables[n].ends if n in presentation._tables else {}
            fresh = d not in ends
            before = len(ends)
            assert evaluate_from(start, tail) == _fold(tail, start), (d, tail)
            assert cold_evaluate_word.cache_info().currsize == 0
            if tail.letters:
                tables = presentation._tables[n]
                assert tables.diagram(*tables.ends[d]) == d
                assert len(tables.ends) > before or not fresh


def test_evaluate_from_rejects_another_strand_count():
    with pytest.raises(ValueError, match="strand counts differ"):
        evaluate_from(evaluate_word(gen_u(3, 1)), gen_u(4, 1))


def test_reduction_stability_matches_the_concatenated_reference():
    for n in range(3, 9):
        assert check_reduction_stability(n).lines() == reference_reduction_stability(n).lines()


def _skipping_g_steps(real):
    """A walker that drops one step code: a letter whose step is g is not walked."""
    def walk(tables, t, s, letters):
        a = c = 0
        for letter in letters:
            nt, ns, da, db, dc = real(tables, t, s, (letter,))
            if not db:
                t, s, a, c = nt, ns, a + da, c + dc
        return t, s, a, 0, c
    return walk


def _forgetting_the_stem(tables, position, letters):
    """A position walk that drops the coefficient it starts from."""
    t, s, a, b, c = presentation._advance(tables, position[0], position[1], letters)
    return t, s, monomial(a, b, c)


@pytest.mark.parametrize("mutant", ["skips g steps", "forgets the stem"])
def test_reduction_stability_tells_a_broken_walk_from_the_reference(monkeypatch, mutant):
    # the reference and regular_basis are built first, with the real walk
    want = {n: reference_reduction_stability(n).lines() for n in range(3, 7)}
    if mutant == "skips g steps":
        monkeypatch.setattr(presentation, "_advance", _skipping_g_steps(presentation._advance))
    else:
        monkeypatch.setattr(presentation, "_walk_on", _forgetting_the_stem)
    assert any(check_reduction_stability(n).lines() != want[n] for n in range(3, 7))


def test_reduction_stability_caches_no_tail_images(cold_evaluate_word):
    # the claims are decided on walk positions, so neither the stems nor
    # w * tail enter the cache; what is left comes from building
    # regular_basis (118 words at n = 7)
    check_reduction_stability(7)
    assert cold_evaluate_word.cache_info().currsize < 200


def test_wide_words_allocate_linear_memory(cold_evaluate_word):
    # the shared arcs used to be a (2n+1)^2 grid built up front: 16 million
    # tuples at n = 2000, and an OOM kill at n = 100000
    import tracemalloc

    n = 2000
    tracemalloc.start()
    try:
        image = cold_evaluate_word(Word(n, (1,)))
        square = compose(image.diagram, image.diagram)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert image == ScaledDiagram(RingElem.one(), u_diagram(n, 1))
    assert square == ScaledDiagram(RingElem.loop(), u_diagram(n, 1))
    assert peak < 20 * 2**20, f"peak {peak / 2**20:.1f} MiB"
