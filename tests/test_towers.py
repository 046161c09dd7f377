import random
from dataclasses import replace
from math import comb

import numpy as np
import pytest

from blobalg.diagrams import compose_scaled
from blobalg.modlin import RowSpan, SpecPoint
from blobalg.presentation import evaluate_word
from blobalg.towers import (
    _closure,
    _conjugated_span,
    check_ideal_inclusions,
    check_quotient_dims,
    check_span_closure,
    check_standard_modules,
    check_tower,
    check_word_basis,
    commuting_subsets,
    default_points,
    diagram_space,
    ideal_span,
    matrices_satisfy_relations,
    standard_module,
    through_ideal,
)
from blobalg.walks import regular_basis, squared_basis, walk_words
from blobalg.words import (
    Word,
    ascending_run,
    blob_cap_word,
    cap_word,
    cap_word_right,
    gen_e,
    gen_u,
    opposite,
    parse_word,
    unit,
)

from span_reference import (
    dense,
    image_vectors,
    point_actions,
    reference_closure,
    reference_conjugated_span,
    reference_left_images,
    reference_relations_hold,
    reference_subalgebra_span,
    reference_standard_module,
    span_of,
    word_vectors,
)

POINTS = default_points(0)
# g and de vanish here, so many monomials specialize to zero
ZERO_POINT = SpecPoint(POINTS[0].prime, POINTS[0].q0, 0, 0)
# p = 1 mod 4 and q0^2 = -1 mod p, so [2] = q0 + 1/q0 vanishes here
_DRAWN = default_points(0, 1_073_741_833)[0]
DEGENERATE_POINT = SpecPoint(_DRAWN.prime, 357_924_867, _DRAWN.g0, _DRAWN.d0)


def brute_ideal_rank(n, word, point, two_sided=True):
    """Oracle: the rank of span{a * w * b} over all pairs of basis words."""
    space = diagram_space(n)
    mids = [compose_scaled(evaluate_word(a.with_n(n)), evaluate_word(word.with_n(n)))
            for a in regular_basis(n)]
    if two_sided:
        mids = [compose_scaled(mid, evaluate_word(b.with_n(n)))
                for mid in mids for b in regular_basis(n)]
    return span_of(image_vectors(space, mids, point), space.dim, point.prime).rank


def test_full_ideal_is_everything():
    for n in (2, 3):
        assert np.count_nonzero(ideal_span(n, unit(n), True)) == comb(2 * n, n)


def test_ideal_rank_against_brute_force():
    for n, m in [(2, 0), (2, 2), (3, 1), (3, 3), (4, 0), (4, 2)]:
        fast = np.count_nonzero(through_ideal(n, m))
        brute = brute_ideal_rank(n, cap_word(m, n), POINTS[0])
        assert fast == brute
    # one-sided: the blobbed left ideals that the standard modules quotient by
    for n, m in [(2, 2), (3, 1), (3, 3), (4, 2)]:
        word = blob_cap_word(m, n)
        fast = np.count_nonzero(ideal_span(n, word, False))
        assert fast == brute_ideal_rank(n, word, POINTS[0], two_sided=False)
        assert fast < np.count_nonzero(ideal_span(n, word, True))


def test_ideal_rank_small_values():
    # n=2: the 0-through ideal consists of the four cap-cup diagrams
    assert np.count_nonzero(through_ideal(2, 0)) == 4
    assert np.count_nonzero(through_ideal(2, 2)) == 6
    # filtration rank identity: sum of squared walk counts
    for n in range(2, 6):
        for m in range(n % 2, n + 1, 2):
            want = sum(comb(n, (n + m2) // 2) ** 2
                       for m2 in range(-m, m + 1) if (n - m2) % 2 == 0)
            assert np.count_nonzero(through_ideal(n, m)) == want


def test_ideal_rank_monotone():
    for n in range(2, 6):
        ranks = [np.count_nonzero(through_ideal(n, m)) for m in range(n % 2, n + 1, 2)]
        assert ranks == sorted(ranks)


def test_subspace_shape():
    sub = ideal_span(3, cap_word(1, 3), True)
    assert isinstance(sub, np.ndarray) and sub.dtype == bool and sub.shape == (comb(6, 3),)
    assert np.count_nonzero(sub) == 18


def test_regular_basis_n2_known_words():
    got = {str(w) for w in regular_basis(2)}
    assert got == {"1", "e", "U1", "e U1", "U1 e", "e U1 e"}


def test_regular_basis_counts():
    for n in range(1, 7):
        assert len(regular_basis(n)) == comb(2 * n, n)


def test_squared_basis_3_1_known_grid():
    sq = squared_basis(3, 1)
    words = tuple(sq.words)
    assert len(words) == 9
    expected = ["U1 e U2 U1", "e U1 e U2 U1", "e U2 U1",
             "U1 e U2 U1 e", "e U1 e U2 U1 e", "e U2 U1 e",
             "U1 e U2", "e U1 e U2", "e U2"]
    ours = [evaluate_word(w) for w in words]
    theirs = [evaluate_word(parse_word(t, 3)) for t in expected]
    assert all(s.coeff.is_one() for s in ours)
    assert all(s.coeff.is_one() for s in theirs)
    assert {s.diagram for s in ours} == {s.diagram for s in theirs}
    # grid layout: row r, column c holds prefix_c * middle * opposite(prefix_r)
    grid = sq.grid()
    for r, row in enumerate(grid):
        for c, w in enumerate(row):
            assert w == sq.prefixes[c] * sq.middle * opposite(sq.prefixes[r])


def test_squared_basis_cardinality():
    for n in range(1, 6):
        for m in range(-n, n + 1, 2):
            sq = squared_basis(n, m)
            words = tuple(sq.words)
            assert len(words) == len(sq.prefixes) ** 2
            images = [evaluate_word(w) for w in words]
            assert all(s.coeff.is_one() for s in images)
            assert len({s.diagram for s in images}) == len(words)


def test_standard_module_dims():
    assert standard_module(3, 1, POINTS[0]).dim == 3
    for n in range(1, 6):
        for m in range(-n, n + 1, 2):
            mod = standard_module(n, m, POINTS[0])
            assert mod.dim == comb(n, (n + m) // 2)


def test_standard_module_matrices_and_json():
    mod = standard_module(4, 0, POINTS[0])
    p = POINTS[0].prime
    u1, u2 = mod.actions[1], mod.actions[2]
    two = (POINTS[0].q0 + pow(POINTS[0].q0, -1, p)) % p
    from blobalg.modlin import mulmod
    assert (mulmod(u1, u1, p) == (two * u1) % p).all()
    assert (mulmod(mulmod(u1, u2, p), u1, p) == u1).all()
    data = mod.to_json_dict()
    assert data["n"] == 4 and data["m"] == 0
    assert len(data["basis"]) == mod.dim
    assert list(data["matrices"]) == ["U1", "U2", "U3", "e"]
    assert data["matrices"]["e"] == mod.actions[0].tolist()
    assert data["matrices"]["U3"] == mod.actions[3].tolist()


def test_standard_modules_match_dense_reference_build():
    # the module path works on (column, value) rows; the reference expands
    # every image into a dense vector and solves in general
    for n in range(1, 7):
        for m in range(-n, n + 1, 2):
            for pt in (*POINTS, DEGENERATE_POINT):
                mod = standard_module(n, m, pt)
                matrices, cyclic = reference_standard_module(n, m, pt)
                assert mod.actions.shape == (n, mod.dim, mod.dim), (n, m, pt)
                for x, mat in enumerate(matrices):
                    ours = mod.actions[x]
                    assert ours.shape == mat.shape and (ours == mat).all(), (n, m, pt, x)
                assert mod.cyclic.shape == cyclic.shape and (mod.cyclic == cyclic).all(), (n, m, pt)


def test_relations_fail_on_a_broken_matrix():
    p = POINTS[0].prime
    for n in (3, 4):
        for m in range(-n + 2, n - 1, 2):  # the weights with dimension >= 2
            mod = standard_module(n, m, POINTS[0])
            assert matrices_satisfy_relations(mod)
            scaled, swapped = mod.actions.copy(), mod.actions.copy()
            scaled[0] = 2 * scaled[0] % p
            swapped[1] = swapped[1][:, [1, 0, *range(2, mod.dim)]]
            assert not matrices_satisfy_relations(replace(mod, actions=scaled)), (n, m)
            assert not matrices_satisfy_relations(replace(mod, actions=swapped)), (n, m)


def _small_modules():
    return [standard_module(n, m, pt) for n in range(1, 7) for m in range(-n, n + 1, 2)
            for pt in (*POINTS, DEGENERATE_POINT)]


def _mutations(count, seed=26):
    """Modules of n <= 6 with one entry of one action matrix changed to
    another value in [0, p)."""
    rng = random.Random(seed)
    mods = _small_modules()
    for _ in range(count):
        mod = rng.choice(mods)
        actions = mod.actions.copy()
        x, i, j = rng.randrange(mod.n), rng.randrange(mod.dim), rng.randrange(mod.dim)
        actions[x, i, j] = (actions[x, i, j] + rng.randrange(1, mod.point.prime)) % mod.point.prime
        yield replace(mod, actions=actions)


def test_stacked_relations_match_the_per_relation_reference():
    for mod in _small_modules():
        assert matrices_satisfy_relations(mod) and reference_relations_hold(mod), (mod.n, mod.m)
    verdicts = []
    for mod in _mutations(200):
        verdicts.append(matrices_satisfy_relations(mod))
        assert verdicts[-1] == reference_relations_hold(mod), (mod.n, mod.m, mod.point)
    assert not all(verdicts)


@pytest.mark.parametrize("stack", [1, 64])
def test_chunked_relations_give_the_same_verdicts(monkeypatch, stack):
    # a bound of 1 puts each relation in its own chunk; 64 entries hold
    # several relations of a small module and one of a larger one
    import blobalg.towers as towers

    monkeypatch.setattr(towers, "_STACK", stack)
    for mod in _small_modules():
        assert matrices_satisfy_relations(mod), (mod.n, mod.m)
    for mod in _mutations(100):
        assert matrices_satisfy_relations(mod) == reference_relations_hold(mod), (mod.n, mod.m)


def test_standard_modules_make_one_product_per_depth(monkeypatch):
    import blobalg.towers as towers

    calls = []
    real = towers.mulmod
    monkeypatch.setattr(towers, "mulmod", lambda a, b, p: calls.append(a.shape) or real(a, b, p))
    assert check_standard_modules(6).passed
    # 7 weights at 3 points, and relation sides of length 2 and 3
    assert len(calls) == 42
    assert all(np.prod(shape) <= towers._STACK for shape in calls)


def test_check_suites_small_n():
    for n in (2, 3, 4):
        for fn in (check_ideal_inclusions, check_tower, check_quotient_dims,
                   check_span_closure, check_standard_modules, check_word_basis):
            rep = fn(n, POINTS)
            assert rep.passed, (rep.title, [c.instance for c in rep.checks if not c.passed])


def test_ideal_supports_match_through_line_filtration():
    # derived consistency: the ideal spans are coordinate subspaces whose
    # supports are pinned by through-line counts (and, for the blobbed
    # ideals, a blob on the westmost through line)
    from blobalg.diagrams import through_count
    from blobalg.towers import blob_ideal

    def leftmost_through_blobbed(d):
        through = [a for a in d.pairs if a[0] <= d.n < a[1]]
        return bool(through) and min(through) in d.blobs

    for n in (2, 3, 4, 5):
        space = diagram_space(n)
        basis = [space.diagram(i) for i in range(space.dim)]
        for m in range(n % 2, n + 1, 2):
            support = {basis[i] for i in np.flatnonzero(through_ideal(n, m))}
            assert support == {d for d in basis if through_count(d) <= m}
            if m > 0:
                support = {basis[i] for i in np.flatnonzero(blob_ideal(n, m))}
                assert support == {
                    d for d in basis
                    if through_count(d) < m
                    or (through_count(d) == m and leftmost_through_blobbed(d))
                }


def test_generic_closure_matches_coordinate_closure():
    # seed the rank-stabilizing reference with a sum of two basis images:
    # its closure must land inside the coordinate closure of the two unit
    # seeds while staying action-stable
    n, pt = 3, POINTS[0]
    space = diagram_space(n)
    v1, v2 = word_vectors(space, [parse_word("U1", n), parse_word("e", n)], pt)
    mixed = reference_closure(space, (v1 + v2)[None, :], pt, "LR")
    units = _closure(space, space.mask([int(np.argmax(v1)), int(np.argmax(v2))]), "LR")
    assert reference_closure(space, np.vstack([v1, v2]), pt, "LR").pivots == np.flatnonzero(units).tolist()
    assert not mixed.rows[:, ~units].any()
    assert 0 < mixed.rank <= np.count_nonzero(units)
    for tgt, scal in point_actions(space, pt).values():
        for row in mixed.rows:
            image = np.zeros(space.dim, dtype=np.int64)
            for d in range(space.dim):
                if row[d]:
                    image[tgt[d]] = (image[tgt[d]] + row[d] * scal[d]) % pt.prime
            assert mixed.contains(image)


def test_quotient_dimension_two_by_rank_difference():
    # n = 3: the full algebra has rank 20, the 1-through ideal 18
    full = comb(6, 3)
    assert full - np.count_nonzero(through_ideal(3, 1)) == 2


def test_points_recorded_in_reports():
    rep = check_tower(3, POINTS, seed=0)
    assert rep.meta["prime"] == POINTS[0].prime
    assert len(rep.meta["points"]) == 3
    assert all("fail prob" in c.note for c in rep.checks)


def test_standard_module_rejects_bad_weight():
    with pytest.raises(ValueError):
        standard_module(3, 0, POINTS[0])


def test_standard_module_rejects_dependent_walk_words(monkeypatch):
    # one absorb of the reduced walk-word rows decides independence: a
    # repeated word adds its column once, and a word inside the quotient
    # span, or one whose scalar vanishes at the point, adds none
    import blobalg.towers as towers

    real = towers._walk_words
    faults = []
    for n in (3, 4, 5, 6):
        for m in range(-n, n + 1, 2):
            words = real(n, m)
            faults.append((n, m, POINTS[0], words + words[:1]))
            if m >= 2:
                faults.append((n, m, POINTS[0], words + (cap_word(m - 2, n),)))
            elif m < 0:
                faults.append((n, m, POINTS[0], words + (blob_cap_word(-m, n),)))
    faults.append((3, 1, ZERO_POINT, real(3, 1) + (parse_word("e e", 3),)))  # de = 0
    for n, m, pt, words in faults:
        monkeypatch.setattr(towers, "_walk_words", lambda n_, m_, words=words: words)
        with pytest.raises(ValueError, match="rows are not independent"):
            standard_module(n, m, pt)


def test_decompose_closure_matches_explicit_products():
    # reference: b_{n-1} plus every product a * U_{n-1} * b of basis words
    for n in (2, 3, 4):
        space = diagram_space(n)
        lower = [w.with_n(n) for w in regular_basis(n - 1)]
        u_top = evaluate_word(gen_u(n, n - 1))
        mids = [compose_scaled(u_top, evaluate_word(b)) for b in lower]
        got = _closure(space, space.word_span([unit(n), gen_u(n, n - 1)]), "LR", n - 1)
        for pt in (POINTS[0], ZERO_POINT):
            vecs = np.vstack([word_vectors(space, lower, pt), image_vectors(
                space, [compose_scaled(evaluate_word(a), mid) for a in lower for mid in mids], pt)])
            want = span_of(vecs, space.dim, pt.prime)
            assert got[want.pivots].all()
            if pt is POINTS[0]:
                assert want.pivots == np.flatnonzero(got).tolist()
            if pt is ZERO_POINT and n > 2:
                assert not all(v.any() for v in vecs)  # some products vanish here


def test_conjugate_spans_match_per_point_products():
    vanished = 0
    for n in range(2, 6):
        space = diagram_space(n)
        conjugators = [gen_u(n, n - 1)] + [cap_word_right(m, n) for m in range(n % 2, n + 1, 2)]
        for w in conjugators:
            ew = evaluate_word(w)
            got = _conjugated_span(space, w, w)
            for pt in (POINTS[0], POINTS[1], ZERO_POINT):
                products = [compose_scaled(compose_scaled(ew, evaluate_word(b.with_n(n))), ew)
                            for b in regular_basis(n)]
                vecs = image_vectors(space, products, pt)
                want = span_of(vecs, space.dim, pt.prime)
                assert got[want.pivots].all(), (n, str(w), pt)
                if pt is not ZERO_POINT:
                    assert want.pivots == np.flatnonzero(got).tolist(), (n, str(w), pt)
                vanished += sum(not v.any() for v in vecs)
    assert vanished  # only ZERO_POINT can send a monomial to zero


def _conjugators(n):
    """Every word check_tower and check_quotient_dims conjugate b_n by."""
    return [gen_u(n, n - 1)] + [cap_word_right(m, n) for m in range(n % 2, n + 1, 2)]


def test_conjugated_closures_match_products_with_every_basis_word():
    for n in range(2, 8):
        space = diagram_space(n)
        for w in _conjugators(n):
            want = reference_conjugated_span(space, w, w)
            assert (_conjugated_span(space, w, w) == want).all(), (n, str(w))
    for n in range(2, 6):  # left and right in their own places
        space = diagram_space(n)
        for left in _conjugators(n):
            for right in _conjugators(n):
                want = reference_conjugated_span(space, left, right)
                assert (_conjugated_span(space, left, right) == want).all(), (n, str(left), str(right))


def test_right_closures_match_products_with_the_smaller_algebra():
    for n in range(3, 8):
        space = diagram_space(n)
        u_top = gen_u(n, n - 1)
        got = _closure(space, space.word_span([u_top]), "R", n - 2)
        assert (got == reference_subalgebra_span(space, u_top, n - 2)).all(), n
        for m in range(n % 2, n + 1, 2):
            er = cap_word_right(m, n)
            got = _closure(space, space.word_span([er]), "R", m)
            assert (got == reference_subalgebra_span(space, er, m)).all(), (n, m)


def test_tower_and_quotients_evaluate_no_basis_word(monkeypatch):
    import blobalg.towers as towers

    n = 6
    space = diagram_space(n)
    evaluated, products = [], []
    monkeypatch.setattr(towers, "squared_basis", lambda *a: pytest.fail("squared_basis called"))
    monkeypatch.setattr(towers, "evaluate_word", lambda w: evaluated.append(w) or evaluate_word(w))
    monkeypatch.setattr(towers, "compose_scaled",
                        lambda a, b: products.append(a) or compose_scaled(a, b))
    _conjugated_span.cache_clear()
    assert check_tower(n).passed and check_quotient_dims(n).passed
    ms = range(n % 2, n + 1, 2)
    ers = [cap_word_right(m, n) for m in ms]
    ideal_gens = [cap_word(m, n) for m in ms]  # through_ideal seeds
    assert set(evaluated) <= {unit(n), gen_u(n, n - 1), *ers, *(gen_e(n) * er for er in ers),
                              *ideal_gens}
    # one product per diagram of each distinct left * b_n closure, and
    # none where the right factor is the unit (Er_n is the empty word)
    assert len(products) == sum(np.count_nonzero(_closure(space, space.word_span([w]), "R"))
                                for w in set(_conjugators(n)) if w.letters)
    assert cap_word_right(n, n) == unit(n)


def test_word_basis_check_holds_one_squared_basis_at_a_time(monkeypatch):
    # each weight's squared basis is built once, read, and dropped: none
    # outlives the check
    import gc
    import weakref

    import blobalg.towers as towers

    n, refs = 6, []

    def recording(k, m):
        basis = squared_basis(k, m)
        refs.append(weakref.ref(basis))
        return basis

    monkeypatch.setattr(towers, "squared_basis", recording)
    assert check_word_basis(n).passed
    gc.collect()
    assert len(refs) == n + 1 and all(ref() is None for ref in refs)


def test_a_squared_basis_keeps_its_prefixes_and_a_module_one_action_block():
    # the words are built as they are read, every read starts over, and the
    # relation check reads the module's action stack without writing it
    from dataclasses import fields

    from blobalg.walks import SquaredBasis

    assert [f.name for f in fields(SquaredBasis)] == ["n", "m", "prefixes", "middle"]
    sq = squared_basis(5, 1)
    first = tuple(sq.words)
    assert first == tuple(sq.words) and len(first) == len(sq.prefixes) ** 2
    assert [w for row in sq.grid() for w in row] == list(first)
    mod = standard_module(5, 1, POINTS[0])
    assert mod.actions.shape == (5, mod.dim, mod.dim) and mod.actions.dtype == np.int64
    before = mod.actions.copy()
    assert matrices_satisfy_relations(mod)
    assert (mod.actions == before).all()


def test_the_word_basis_check_holds_less_than_one_squared_basis():
    # past what the space, the diagram list and the layer ideals already
    # hold, the check's peak is below one weight's words held at once
    import tracemalloc

    from blobalg.diagrams import all_diagrams
    from blobalg.reports import streaming
    from blobalg.towers import blob_ideal

    n = 9  # the largest squared basis has weight 1: 126 prefixes, 15,876 words
    diagram_space(n), all_diagrams(n)
    for m in range(-n, n + 1, 2):
        blob_ideal(n, m) if m > 0 else through_ideal(n, -m)
    squared_basis(n, 1)  # fills the walk-word caches the traced build reads
    tracemalloc.start()
    try:
        held = list(squared_basis(n, 1).words)
        words = tracemalloc.get_traced_memory()[0]
        del held
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        with streaming(lambda line: None):
            assert check_word_basis(n).passed
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < words, f"check peak {peak / 2**20:.1f} MiB, one squared basis {words / 2**20:.1f} MiB"


@pytest.mark.parametrize("clash", ["across weights m and -m", "within one weight"])
def test_a_shared_image_fails_distinct_and_onto(monkeypatch, capsys, clash):
    # the distinct count is the union of the per-weight masks, so a word
    # landing on another's index is caught whether the two share a weight
    # or not
    import blobalg.towers as towers
    from blobalg.cli import main

    n, real = 4, towers.DiagramSpace.image
    word = tuple(squared_basis(n, 2).words)[0]
    other = tuple(squared_basis(n, -2 if clash == "across weights m and -m" else 2).words)[1]
    target = real(diagram_space(n), other)
    assert real(diagram_space(n), word) != target
    monkeypatch.setattr(towers.DiagramSpace, "image",
                        lambda space, w: target if w == word else real(space, w))
    failed = {c.instance for c in check_word_basis(n).checks if not c.passed}
    assert {"distinct", "onto"} <= failed and "count" not in failed
    assert main(["verify", "--suite", "bases", "--n", str(n)]) == 1
    lines = capsys.readouterr().out.splitlines()
    size = comb(2 * n, n)
    assert f"[FAIL] bases(n={n})/distinct: {size - 1} == {size}" in lines
    assert f"[FAIL] bases(n={n})/onto: {size - 1} distinct images == all {size} diagrams" in lines


def test_left_images_match_evaluated_generator_products():
    for n in range(1, 8):
        space = diagram_space(n)
        for m in range(-n, n + 1, 2):
            words = walk_words(n, m)
            got = space.left_images(space.word_span(words))
            assert (got == reference_left_images(space, words)).all(), (n, m)


def test_word_images_come_off_the_tables_as_evaluate_word_gives_them():
    # (basis index, scalar) of every regular-basis word to n = 8, and of
    # seeded words of any scalar at n = 10, against the word's diagram image
    def want(space, w):
        image = evaluate_word(w)
        return space.index_of(image.diagram), image.coeff

    for n in range(0, 9):
        space = diagram_space(n)
        for w in regular_basis(n):
            assert space.image(w) == want(space, w), w
    rng = random.Random(10)
    space = diagram_space(10)
    words = [parse_word("e e U1 e U1 U1", 10)]  # scalar de g [2]
    words += [Word(10, tuple(rng.randrange(10) for _ in range(rng.randrange(40))))
              for _ in range(2000)]
    assert any(not space.image(w)[1].is_one() for w in words)
    for w in words:
        assert space.image(w) == want(space, w), w


def test_span_closure_evaluates_only_walk_words_and_ideal_seeds(monkeypatch):
    import blobalg.towers as towers

    n = 6
    evaluated = []
    real = towers.DiagramSpace.image
    monkeypatch.setattr(towers.DiagramSpace, "image",
                        lambda space, w: evaluated.append(w) or real(space, w))
    monkeypatch.setattr(towers, "evaluate_word", lambda w: pytest.fail("evaluate_word called"))
    ideal_span.cache_clear()
    assert check_span_closure(n).passed
    walk = {w for m in range(-n, n + 1, 2) for w in walk_words(n, m)}
    ms = range(n % 2, n + 1, 2)
    seeds = {cap_word(m, n) for m in ms} | {blob_cap_word(m, n) for m in ms if m}
    assert evaluated and set(evaluated) <= walk | seeds


def test_word_span_matches_word_matrix():
    for n in (3, 4, 5):
        space = diagram_space(n)
        words = [gen_u(n, n - 1) * w.with_n(n) for w in regular_basis(n - 2)]
        for m in range(n % 2, n + 1, 2):
            words += [cap_word_right(m, n) * w.with_n(n) for w in regular_basis(m)]
        words += [parse_word("e e", n), parse_word("U1 e U1", n)]  # scalars de and g
        got = space.word_span(words)
        for pt in (POINTS[0], ZERO_POINT):
            vecs = word_vectors(space, words, pt)
            want = span_of(vecs, space.dim, pt.prime)
            assert got[want.pivots].all()
            if pt is POINTS[0]:
                assert want.pivots == np.flatnonzero(got).tolist()
        assert not vecs.any(axis=1).all()  # ZERO_POINT sends some images to zero


def test_coordinate_rowspan_absorb_and_reduce():
    p = POINTS[0].prime
    span = RowSpan.coordinate(p, np.array([False, True, False, True, False]))
    ref = span_of(dense([[3, 1], [1, 1]], 5), 5, p)
    assert np.flatnonzero(span.mask).tolist() == ref.pivots == [1, 3]
    assert vars(span).keys() == {"p", "mask"}  # no dense rows kept
    rows = np.array([[3, 7], [0, 2], [2, 0], [4, p], [2, -2 * p]])  # the last three are zero
    added = span.absorb(rows)
    assert np.flatnonzero(span.mask).tolist() == [0, 1, 3]
    assert added.dtype == np.int64 and added.tolist() == [0]
    assert ref.absorb(dense(rows, 5)).tolist() == [[1, 0, 0, 0, 0]]
    queries = np.array([[0, 5], [1, 1], [2, 2], [3, 7], [4, 9], [4, p + 9], [2, -1]])
    got = span.reduce(queries)
    assert got.tolist() == [[0, 0], [1, 0], [2, 2], [3, 0], [4, 9], [4, 9], [2, p - 1]]
    assert (dense(got, 5) == ref.reduce(dense(queries, 5))).all()
    assert span.reduce(np.array([4, p + 9])).tolist() == [4, 9]
    assert span.absorb(np.array([4, 9])).tolist() == [4]
    assert np.flatnonzero(span.mask).tolist() == [0, 1, 3, 4]


def test_bfs_closure_matches_reference_closure():
    # every unit seed, one- and two-sided, at the points where g and de or
    # [2] vanish and some action edges drop out; the per-point closure can
    # only be smaller than the generic one.  A [2] edge closes a loop
    # against a cup of the diagram and leaves it unchanged, so at
    # DEGENERATE_POINT only self-loops drop out and nothing shrinks
    shrunk = set()
    for n in range(1, 5):
        space = diagram_space(n)
        for sides in ("L", "LR"):
            for d in range(space.dim):
                got = _closure(space, space.mask([d]), sides)
                seed = np.zeros((1, space.dim), dtype=np.int64)
                seed[0, d] = 1
                for pt in (POINTS[0], ZERO_POINT, DEGENERATE_POINT):
                    want = reference_closure(space, seed, pt, sides)
                    assert got[want.pivots].all(), (n, d, sides, pt)
                    if want.rank < np.count_nonzero(got):
                        shrunk.add(pt)
    assert shrunk == {ZERO_POINT}
    vanishing = [(tgt, scal == 0) for tgt, scal in point_actions(space, DEGENERATE_POINT).values()]
    assert any(zero.any() for _, zero in vanishing)
    assert all((tgt[zero] == np.flatnonzero(zero)).all() for tgt, zero in vanishing)


def test_span_checks_pass_where_scalars_vanish():
    # the point-free span decisions and the per-point module matrices agree
    # with the generic algebra where [2] vanishes and where g and de do
    p, q0 = DEGENERATE_POINT.prime, DEGENERATE_POINT.q0
    assert p % 4 == 1 and q0 * q0 % p == p - 1 and (q0 + pow(q0, -1, p)) % p == 0
    for pt in (DEGENERATE_POINT, ZERO_POINT):
        for n in (3, 4, 5):
            for fn in (check_ideal_inclusions, check_tower, check_quotient_dims,
                       check_span_closure, check_standard_modules, check_word_basis):
                rep = fn(n, [pt])
                assert rep.passed, (pt, rep.title, [c.instance for c in rep.checks if not c.passed])


# -- the basis as half-table states --------------------------------------------


def test_walk_reaches_every_diagram_once():
    from blobalg.diagrams import all_diagrams, flip

    for n in range(0, 9):
        space = diagram_space(n)
        basis = [space.diagram(i) for i in range(space.dim)]
        assert space.dim == len(space.tops) == len(space.bottoms) == comb(2 * n, n)
        assert len(set(zip(space.tops, space.bottoms))) == space.dim
        # the walk's table is the one map from a state to its index
        assert np.count_nonzero(space._where >= 0) == space.dim
        assert (space._where[space.tops, space.bottoms] == np.arange(space.dim)).all()
        assert set(basis) == set(all_diagrams(n))
        assert all(space.index_of(d) == i for i, d in enumerate(basis))
        # the flip permutation, computed on halves, is flip on every element
        assert all(basis[space.flip[i]] == flip(d) for i, d in enumerate(basis))


def _closures_made(monkeypatch, n, checks):
    """(seeds, sides, k, result) of every `_closure` call the checks make
    at n, with the span caches emptied first."""
    import blobalg.towers as towers

    calls, real = [], towers._closure

    def recording(space, seeds, sides, k=None):
        got = real(space, seeds, sides, k)
        calls.append((seeds.copy(), sides, k, got))
        return got

    monkeypatch.setattr(towers, "_closure", recording)
    ideal_span.cache_clear()
    _conjugated_span.cache_clear()
    for check in checks:
        assert check(n).passed
    monkeypatch.undo()
    ideal_span.cache_clear()
    _conjugated_span.cache_clear()
    return calls


def test_sweep_closures_match_the_diagram_bfs(monkeypatch):
    # every ideal, tower and quotient span the checks close, against the
    # search over the action tables one basis index at a time
    from span_reference import bfs_closure

    made = 0
    for n in range(1, 9):
        space = diagram_space(n)
        checks = [check_ideal_inclusions, check_span_closure, check_word_basis]
        if n >= 2:
            checks += [check_tower, check_quotient_dims]
        calls = _closures_made(monkeypatch, n, checks)
        assert {sides for _, sides, _, _ in calls} == ({"LR", "L", "R"} if n >= 2 else {"LR", "L"})
        # and the ideal of every commuting product, which
        # check_ideal_inclusions decides without closing it
        for subset in commuting_subsets(n):
            w = Word(n, subset)
            calls.append((space.word_span([w]), "LR", None, ideal_span(n, w, True)))
        for seeds, sides, k, got in calls:
            want = bfs_closure(space, seeds, sides, k)
            assert (got == want).all(), (n, np.flatnonzero(seeds), sides, k)
        made += len(calls)
    assert made > 200


def test_a_cached_ideal_cannot_be_written_in_place():
    span = through_ideal(4, 2)
    assert not span.flags.writeable
    with pytest.raises(ValueError):
        span[0] = not span[0]
    assert np.count_nonzero(through_ideal(4, 2)) == 68


def test_no_letters_close_to_the_seeds():
    space = diagram_space(5)
    seeds = space.word_span([gen_u(5, 4), cap_word_right(1, 5)])
    for sides in ("L", "R", "LR"):
        assert (_closure(space, seeds, sides, 0) == seeds).all()
        assert not _closure(space, space.mask(()), sides).any()


def test_a_space_keeps_one_action_table():
    # the right table and the flip permutation; no left table is stored
    space = diagram_space(8)
    kept = sum(a.size for name, a in vars(space).items()
               if isinstance(a, np.ndarray) and name != "_where")
    assert kept <= (space.n + 2) * space.dim
    assert not hasattr(space, "steps")


@pytest.mark.parametrize("n", range(1, 9))
def test_a_left_closure_is_the_flipped_right_closure(n):
    # flip fixes every generator and reverses products, so it carries the
    # left closure of a mask to the right closure of the flipped mask
    space, rng = diagram_space(n), random.Random(n)
    for k in (None, n - 1):
        for size in (1, 2, 5):
            seeds = space.mask(rng.sample(range(space.dim), min(size, space.dim)))
            want = _closure(space, seeds[space.flip], "R", k)[space.flip]
            assert (_closure(space, seeds, "L", k) == want).all(), (n, k, np.flatnonzero(seeds))


@pytest.fixture
def cold_spaces():
    """Empty word tables and every cache built from them, before and after;
    the fixture's value empties them again."""
    import blobalg.presentation as presentation
    import blobalg.towers as towers

    def clear():
        presentation.reset_tables()
        for cached in (evaluate_word, diagram_space, ideal_span, _conjugated_span,
                       towers._module_images):
            cached.cache_clear()

    clear()
    yield clear
    clear()


def _verify(*argv):
    import contextlib
    import io

    from blobalg.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(["verify", *argv])
    return rc, out.getvalue()


def test_a_wrong_join_entry_fails_a_report(cold_spaces):
    # the walk then reaches fewer than C(2n, n) states, which the tower's
    # decomposition must not take for all of b_n; a walk word that no longer
    # factors fails the word basis check, naming its walk
    import blobalg.presentation as presentation

    suites = ("ideals", "tower", "bases", "all")
    want = {suite: _verify("--suite", suite, "--n", "6") for suite in suites}
    assert all(rc == 0 for rc, _ in want.values())
    cold_spaces()
    tables = presentation._table(6)
    presentation.walk_basis(tables)  # fills every join entry
    right = tables.joins[0, 1]  # U1 caps the identity's two leftmost lines
    through = len(tables.tops[right][2])
    tables.joins[0, 1] = next(t for t, top in enumerate(tables.tops)
                              if t != right and len(top[2]) == through)
    assert diagram_space(6).dim < comb(12, 6)
    for suite in suites:
        rc, out = _verify("--suite", suite, "--n", "6")
        assert rc == 1 and out != want[suite][1], suite
        assert "[FAIL] " in out and out.endswith("passed=false\n"), suite
        if suite in ("bases", "all"):
            assert "/factor: walk words as prefix * tail" in out, suite
            assert "(factorization failed for walk 0,-1,0,-1,-2,-3,-2)" in out, suite


def test_a_swapped_flip_pair_fails_a_report(cold_spaces, monkeypatch):
    import blobalg.presentation as presentation

    # the swapped states lie in one two-sided ideal layer, which bases'
    # filtration reads, so bases passes; span-closure's left closures see
    # the swap, in ideals and so in all
    suites = ("ideals", "all")
    want = {suite: _verify("--suite", suite, "--n", "6") for suite in suites}
    assert all(rc == 0 for rc, _ in want.values())
    real = presentation._Halves.flips

    def swapped(self):
        top, bottom = real(self)
        a, b = [s for s, half in enumerate(self.bottoms) if len(half[2]) == 2 and not half[3]][:2]
        top[a], top[b] = top[b], top[a]
        return top, bottom

    monkeypatch.setattr(presentation._Halves, "flips", swapped)
    for suite in suites:
        cold_spaces()
        rc, out = _verify("--suite", suite, "--n", "6")
        assert rc == 1 and out != want[suite][1], suite
        assert "[FAIL] " in out and out.endswith("passed=false\n"), suite


# -- ideal inclusions as lookups in the target ideals ------------------------------


def _witness(n, subset):
    """x W op(x) for W the product of the commuting U_i, i in subset, where
    x = x_k ... x_1 and x_j = U_{2j-1} ... U_{i_j - 1} carries the j-th cap
    down to U_{2j-1}."""
    runs = [ascending_run(2 * j - 1, i - 1, n) for j, i in enumerate(subset, 1)]
    x = Word(n, sum((run.letters for run in reversed(runs)), ()))
    return x * Word(n, subset) * opposite(x)


def test_the_witness_of_every_commuting_product_is_its_cap_word():
    for n in range(1, 13):
        for subset in commuting_subsets(n):
            got = evaluate_word(_witness(n, subset))
            assert got == evaluate_word(cap_word(n - 2 * len(subset), n)), (n, subset)
            assert got.coeff.is_one(), (n, subset)


def test_ideal_lookups_give_the_whole_closure_verdicts():
    # each claim against the comparison of whole ideals, each closed one
    # basis index at a time
    from span_reference import bfs_closure

    for n in range(1, 10):
        space = diagram_space(n)
        closed = {}

        def ideal(w):
            i = space.image(w)[0]
            if i not in closed:
                closed[i] = bfs_closure(space, space.mask([i]), "LR")
            return closed[i]

        want = {}
        for subset in commuting_subsets(n):
            label = "*".join(f"U{i}" for i in subset) or "1"
            m = n - 2 * len(subset)
            want[f"generates W={label}"] = (ideal(Word(n, subset)) == ideal(cap_word(m, n))).all()
        for m in range(n % 2, n - 1, 2):
            want[f"nesting m={m}"] = (ideal(cap_word(m, n)) <= ideal(cap_word(m + 2, n))).all()
        for m in range(n % 2 or 2, n + 1, 2):
            want[f"blob-inside m={m}"] = (ideal(blob_cap_word(m, n)) <= ideal(cap_word(m, n))).all()
        for m in range(n % 2, n - 1, 2):
            want[f"g-step m={m}"] = (ideal(cap_word(m, n)) <= ideal(blob_cap_word(m + 2, n))).all()
        got = check_ideal_inclusions(n).checks
        assert [c.instance for c in got] == list(want)
        assert [c.passed for c in got] == [bool(ok) for ok in want.values()], n


def test_ideal_inclusions_close_only_their_target_ideals(monkeypatch):
    for n in range(1, 10):
        space = diagram_space(n)
        targets = [cap_word(m, n) for m in range(n % 2, n + 1, 2)]
        targets += [blob_cap_word(m, n) for m in range(n % 2 or 2, n + 1, 2)]
        seeds = [[space.image(w)[0]] for w in targets]
        calls = _closures_made(monkeypatch, n, [check_ideal_inclusions])
        assert 0 < len(calls) <= n + 1
        for seed, sides, k, _ in calls:
            assert sides == "LR" and k is None and np.flatnonzero(seed).tolist() in seeds, n


def test_a_misplaced_witness_fails_its_generates_line(monkeypatch):
    import blobalg.towers as towers

    n, subset = 6, (2, 4)
    witness, real = _witness(n, subset), towers.DiagramSpace.image

    def misplaced(space, w):
        i, scalar = real(space, w)
        return ((i + 1) % space.dim if w == witness else i), scalar

    monkeypatch.setattr(towers.DiagramSpace, "image", misplaced)
    rep = check_ideal_inclusions(n)
    assert [c.instance for c in rep.checks if not c.passed] == ["generates W=U2*U4"]
    rc, out = _verify("--suite", "ideals", "--n", str(n))
    failed = [line for line in out.splitlines() if line.startswith("[FAIL] ")]
    assert rc == 1 and len(failed) == 1
    assert failed[0].startswith("[FAIL] ideals(n=6)/generates W=U2*U4: ")
