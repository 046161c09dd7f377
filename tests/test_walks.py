import warnings
from math import comb

import pytest

import blobalg.diamond as diamond
import blobalg.walks as walks
from blobalg.diamond import check_diamond_walks
from blobalg.presentation import evaluate_word, is_reduced, phi_equal
from blobalg.towers import default_points, standard_module
from blobalg.walks import (
    Walk,
    all_walks,
    check_diamond_moves,
    check_walk_suite,
    edge_word,
    factor_walk_words,
    parse_walk,
    path_word,
    tail_word,
    walk_words,
)
from blobalg.words import Word, blob_cap_word, cap_word, parse_word, unit


def test_walk_validation():
    with pytest.raises(ValueError):
        Walk((1, 2))
    with pytest.raises(ValueError):
        Walk((0, 2))
    assert parse_walk("0,-1,0,1").sigma == (0, -1, 0, 1)
    assert parse_walk("0, +1 ,0,-1").sigma == (0, 1, 0, -1)  # ASCII signs and spaces


@pytest.mark.parametrize("sigma, message", [
    ((0, 1.0, 0.2), "weight 1.0 is not an integer"),
    ((0, True), "weight True is not an integer"),
    ((0.0, 1), "weight 0.0 is not an integer"),
    (("0", "1"), "weight '0' is not an integer"),
])
def test_non_int_weights_are_rejected(sigma, message):
    # they used to be truncated: Walk((0, 1.0, 0.2)) printed 0,1,0
    with pytest.raises(ValueError) as info:
        Walk(sigma)
    assert str(info.value) == message
    assert Walk([0, 1, 0]).sigma == (0, 1, 0)


@pytest.mark.parametrize("text, token", [
    ("0,,1", ""),
    ("0,1.0", "1.0"),
    ("0,x", "x"),
    ("0,\u0661", "\u0661"),
    ("0,\u00b9", "\u00b9"),
])
def test_parse_walk_names_the_bad_weight(text, token):
    with pytest.raises(ValueError) as info:
        parse_walk(text)
    assert str(info.value) == f"weight {token!r} is not an integer in walk {text!r}"


def test_counts():
    for n in range(0, 13):
        assert len(all_walks(n)) == 2 ** n
        for m in range(-n, n + 1, 2):
            assert len(all_walks(n, m)) == comb(n, (n + m) // 2)
    assert len(all_walks(3, 1)) == 3


def test_unreachable_weight_raises_without_warning():
    point = default_points(0)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would fail the test
        for build in (lambda: all_walks(3, 0), lambda: walk_words(3, 0),
                      lambda: standard_module(3, 0, point)):
            with pytest.raises(ValueError, match="no walks of length 3 reach weight 0"):
                build()


def test_negative_length_rejected():
    with pytest.raises(ValueError):
        all_walks(-1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the length is rejected before the weight
        with pytest.raises(ValueError):
            all_walks(-2, 0)


def test_lexicographic_order():
    sigmas = [w.sigma for w in all_walks(3)]
    assert sigmas == sorted(sigmas)


def test_edge_words():
    assert str(edge_word(((2, 0), (3, 1)))) == "e U2 U1"
    assert str(edge_word(((1, -1), (2, 0)))) == "U1"
    assert str(edge_word(((0, 0), (1, -1)))) == "1"
    assert str(edge_word(((3, 2), (4, 3)))) == "1"
    assert str(edge_word(((3, -2), (4, -3)))) == "1"
    assert str(edge_word(((4, 0), (5, 1)))) == "e U4 U2 U3 U1"
    # variant truncates the descending run
    assert str(edge_word(((3, 1), (4, 0)), variant=True)) == "U3"
    assert str(edge_word(((3, 1), (4, 0)), variant=False)) == "U3 U2 U1"
    with pytest.raises(ValueError):
        edge_word(((2, 0), (4, 1)))


def test_path_words_examples():
    assert str(path_word(parse_walk("0,-1,0,1"))) == "U1 e U2 U1"
    assert str(path_word(parse_walk("0,1,2,1"))) == "e U2 U1"
    # all-descending path gives the empty word
    assert str(path_word(parse_walk("0,-1,-2,-3"))) == "1"
    # the zig-zag to weight 0 lands on the cap word (in the algebra)
    for n in (2, 4, 6):
        sigma = tuple((0, -1)[i % 2] for i in range(n + 1))
        assert phi_equal(path_word(Walk(sigma)), cap_word(0, n))
    # continuing up by one step gives the blobbed cap word
    for n in (3, 5):
        sigma = tuple((0, -1)[i % 2] for i in range(n)) + (1,)
        assert phi_equal(path_word(Walk(sigma)), blob_cap_word(1, n))


def test_a_long_walk_word_copies_each_letter_a_bounded_number_of_times(monkeypatch):
    # the 0,1,0,1,... walk of length 1,000 has a word of 500k letters;
    # joining each edge word onto the prefix copies 167M of them
    copied = []
    real = Word.__mul__

    def counting(u, v):
        copied.append(len(u) + len(v))
        return real(u, v)

    walks._path_word.cache_clear()
    monkeypatch.setattr(Word, "__mul__", counting)
    walk = Walk(tuple(i % 2 for i in range(1001)))
    w = path_word(walk)
    assert len(w) == 500_000
    assert sum(copied) < 2 * len(w)
    monkeypatch.undo()
    walks._path_word.cache_clear()
    # the same letters as the product of the edge words, one at a time
    short = Walk(tuple(i % 2 for i in range(41)))
    want = unit(40)
    for i, (a, b) in enumerate(zip(short.sigma, short.sigma[1:])):
        want = want * edge_word(((i, a), (i + 1, b)), n=40)
    assert path_word(short) == want


def test_word_set_examples():
    got = walk_words(3, 1)
    expected = [parse_word(t, 3) for t in
             ["U1 e U2 U1", "e U1 e U2 U1", "U2 U1 e U2 U1"]]
    assert len(got) == len(expected)
    for w, ref in zip(sorted(got, key=lambda w: str(evaluate_word(w).diagram)),
                      sorted(expected, key=lambda w: str(evaluate_word(w).diagram))):
        assert phi_equal(w, ref)

    got = walk_words(2, 0)
    refs = [parse_word("U1", 2), parse_word("e U1", 2)]
    assert {evaluate_word(w).diagram for w in got} == {evaluate_word(r).diagram for r in refs}
    assert all(evaluate_word(w).coeff.is_one() for w in got)

    for n in range(0, 7):
        assert walk_words(n, -n) == [unit(n)]


def test_factorizations():
    assert factor_walk_words(3, -3) == [(unit(3), unit(3))]
    pairs = factor_walk_words(3, 1)
    assert pairs[0] == (unit(3), blob_cap_word(1, 3))
    assert {str(p) for p, _ in pairs} == {"1", "e", "U2"}
    for prefix, tail in factor_walk_words(4, 0):
        assert tail == cap_word(0, 4)
        assert evaluate_word(prefix).coeff.is_one()


def test_factorizations_verify_everywhere():
    for n in range(0, 8):
        for m in range(-n, n + 1, 2):
            for (prefix, tail), p in zip(factor_walk_words(n, m), all_walks(n, m)):
                assert phi_equal(prefix * tail, path_word(p))
                assert is_reduced(prefix)
                assert tail == tail_word(m, n)


def test_walk_words_reduced_and_variant_agrees():
    for n in range(0, 7):
        for p in all_walks(n):
            std = path_word(p)
            var = path_word(p, variant=True)
            assert is_reduced(std)
            assert len(var.letters) <= len(std.letters)
            assert phi_equal(std, var)


def test_walk_suite_report():
    for n in (2, 3, 4):
        rep = check_walk_suite(n)
        assert rep.passed, [c.instance for c in rep.checks if not c.passed]


def test_diamond_moves():
    for n in range(2, 7):
        rep = check_diamond_moves(n)
        assert rep.passed, [c.instance for c in rep.checks if not c.passed]
    # the ridge family includes the worked example U2 (U1 e U2 U1) = e U2 U1
    rep = check_diamond_moves(3)
    assert any("zigzag" in c.instance for c in rep.checks)


def _count_calls(monkeypatch, module, name):
    """Wrap module.name so that each call is recorded; returns the record."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("n", range(0, 9))
def test_checks_enumerate_once_and_build_each_walk_once(monkeypatch, n):
    enumerated = _count_calls(monkeypatch, walks, "all_walks")
    check_walk_suite(n)
    assert enumerated == [(n,)]

    enumerated.clear()
    words = _count_calls(monkeypatch, walks, "path_word")
    check_diamond_moves(n)
    assert enumerated == [(n,)]
    assert len(words) == 2 ** n

    enumerated = _count_calls(monkeypatch, diamond, "all_walks")
    images = _count_calls(monkeypatch, diamond, "to_diamond")
    grids = _count_calls(monkeypatch, diamond, "all_diamond_walks")
    check_diamond_walks(n)
    assert enumerated == [(n,)]
    assert len(images) == 2 ** n
    assert grids == [(n,)]


def _fresh_path_word(p, variant):
    """The walk word of p built afresh, from uncached edge words."""
    n = p.length
    w = unit(n)
    for i in range(n):
        edge = ((i, p.sigma[i]), (i + 1, p.sigma[i + 1]))
        w = w * edge_word.__wrapped__(edge, variant=variant, n=n)
    return w


def test_cached_walk_words_equal_fresh_ones():
    for n in range(0, 9):
        for p in all_walks(n):
            for variant in (False, True):
                fresh = _fresh_path_word(p, variant)
                assert path_word(p, variant) == path_word(p, variant=variant) == fresh, (p, variant)
            assert path_word(p) is path_word(p, variant=False)  # one cache entry per variant
