import random
import re
import sys
import time
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blobalg.ring import RingElem, _strip_spaces, monomial, parse_scalar

Q = RingElem.q_power
ONE = RingElem.one()
ZERO = RingElem.zero()
G = RingElem.gamma()
DE = RingElem.delta_e()
LOOP = RingElem.loop()


def test_additive_inverse():
    assert Q(1) + (-Q(1)) == ZERO
    assert not (Q(1) + (-Q(1)))


def test_loop_scalar_is_q_plus_qinv():
    assert Q(1) + Q(-1) == LOOP


def test_doubling():
    assert G + G == RingElem({(0, 1, 0): 2})


def test_q_inverse():
    assert Q(1) * Q(-1) == ONE
    assert (Q(1) * Q(-1)).is_one()


def test_loop_squared():
    assert LOOP * LOOP == Q(2) + RingElem.integer(2) + Q(-2)


def test_gamma_times_loop():
    assert G * LOOP == G * Q(1) + G * Q(-1)


def test_negative_g_exponent_rejected():
    with pytest.raises(ValueError):
        RingElem({(0, -1, 0): 1})


def _random_elem(rng):
    terms = {}
    for _ in range(rng.randrange(0, 4)):
        mono = (rng.randrange(-3, 4), rng.randrange(0, 3), rng.randrange(0, 3))
        terms[mono] = rng.randrange(-5, 6)
    return RingElem(terms)


def test_ring_axioms_bulk():
    # associativity and distributivity on >= 10^4 random triples
    rng = random.Random("ring-axioms")
    for _ in range(10_000):
        a, b, c = (_random_elem(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_pow_matches_repeated_mul():
    rng = random.Random("ring-pow")
    for _ in range(200):
        a = _random_elem(rng)
        k = rng.randrange(0, 5)
        by_hand = ONE
        for _ in range(k):
            by_hand = by_hand * a
        assert a ** k == by_hand


def test_specialize_examples():
    p = 1_000_003
    assert LOOP.specialize(1, 7, 7, p) == 2
    assert G.specialize(5, 5, 9, p) == 5
    # q^2 at q=3 mod 7: plain modular arithmetic gives 9 mod 7 = 2
    assert Q(2).specialize(3, 1, 1, 7) == (3 * 3) % 7 == 2


def test_specialize_rejects_zero_q():
    with pytest.raises(ValueError):
        LOOP.specialize(0, 1, 1, 101)
    with pytest.raises(ValueError):
        LOOP.specialize(202, 1, 1, 101)


def test_specialize_is_ring_homomorphism():
    rng = random.Random("ring-hom")
    p = 2_147_483_647
    for _ in range(500):
        a, b = _random_elem(rng), _random_elem(rng)
        q0 = rng.randrange(1, p)
        g0 = rng.randrange(0, p)
        d0 = rng.randrange(0, p)
        sa = a.specialize(q0, g0, d0, p)
        sb = b.specialize(q0, g0, d0, p)
        assert (a * b).specialize(q0, g0, d0, p) == (sa * sb) % p
        assert (a + b).specialize(q0, g0, d0, p) == (sa + sb) % p


def test_canonical_string_forms():
    assert str(LOOP) == "q^-1 + q"
    assert str(G * Q(2)) == "g*q^2"
    assert str(DE) == "de"
    assert str(ZERO) == "0"
    assert str(RingElem.integer(-2) * Q(1) + ONE) == "1 - 2*q"


def test_parse_roundtrip():
    rng = random.Random("ring-parse")
    for _ in range(300):
        a = _random_elem(rng)
        assert parse_scalar(str(a)) == a
    assert parse_scalar("g*q^0") == G
    assert parse_scalar("3*de^2") == RingElem.integer(3) * DE * DE


def test_equal_elements_have_identical_term_maps():
    a = Q(1) + G - Q(1)
    assert a.terms == G.terms
    assert hash(a) == hash(G)


@pytest.mark.parametrize("text, want", [
    ("q^+1", "q"),
    ("q^ -1", "q^-1"),
    ("de^+2", "de^2"),
    ("g^-0", "1"),
    ("- q", "-q"),
    ("-2*q+1", "1 - 2*q"),
    ("2*3", "6"),
    ("q - q", "0"),
    ("-0", "0"),
    ("q^ 1", "q"),
    ("q ^1", "q"),
    ("q ^ -1", "q^-1"),
    ("de ^2", "de^2"),
    # other spellings of monomial(1, 0, 0)
    ("q + q^-1", "q^-1 + q"),
    (" q^-1 + q ", "q^-1 + q"),
    ("q ^ -1 + q", "q^-1 + q"),
    ("q^-1+q", "q^-1 + q"),
    ("q^-1 + 1*q", "q^-1 + q"),
])
def test_parse_lenient_forms(text, want):
    assert str(parse_scalar(text)) == want


def test_space_inside_a_factor_is_rejected():
    with pytest.raises(ValueError):
        parse_scalar("2 q")


@pytest.mark.parametrize("terms, message", [
    ({(0, 0, 0): 2.7}, "coefficient 2.7 is not an integer"),
    ({(0, 0, 0): True}, "coefficient True is not an integer"),
    ({(0, 0, 0): "2"}, "coefficient '2' is not an integer"),
    ({(0.5, 0, 0): 1}, "exponents (0.5, 0, 0) are not integers"),
    ({(0, True, 0): 1}, "exponents (0, True, 0) are not integers"),
    ({(0, 0, 1.0): 1}, "exponents (0, 0, 1.0) are not integers"),
])
def test_non_int_coefficients_and_exponents_are_rejected(terms, message):
    # they used to be truncated: RingElem({(0, 0, 0): 2.7}) printed 2
    with pytest.raises(ValueError) as info:
        RingElem(terms)
    assert str(info.value) == message


@pytest.mark.parametrize("text, message", [
    ("q^", "q exponent '' is not an integer in scalar 'q^'"),
    ("q^1.5", "q exponent '1.5' is not an integer in scalar 'q^1.5'"),
    ("2*g^x + 1", "g exponent 'x' is not an integer in scalar '2*g^x + 1'"),
    ("de^", "de exponent '' is not an integer in scalar 'de^'"),
    ("\u00b2", "unknown symbol '\u00b2' in scalar '\u00b2'"),
])
def test_malformed_exponents_are_named(text, message):
    with pytest.raises(ValueError) as info:
        parse_scalar(text)
    assert str(info.value) == message


def test_monomial_equals_the_product_of_its_factors():
    for a in range(6):
        for b in range(6):
            for c in range(6):
                assert monomial(a, b, c) == LOOP ** a * G ** b * DE ** c, (a, b, c)
    assert monomial(0, 0, 0) is monomial(0, 0, 0)  # cached: one object per triple


def _untagged(m):
    """The same value as m, built from its terms, so products of it take
    the general path."""
    return RingElem(m.terms)


def test_tagged_products_match_the_general_product():
    triples = [(a, b, c) for a in range(6) for b in range(6) for c in range(6)]
    pairs = [(monomial(*t), _untagged(monomial(*t))) for t in triples]
    for x, (mx, gx) in zip(triples, pairs):
        for y, (my, gy) in zip(triples, pairs):
            fast, slow = mx * my, gx * gy
            assert fast == slow and str(fast) == str(slow) and hash(fast) == hash(slow), (x, y)


def test_tagged_times_untagged_is_the_general_product():
    rng = random.Random("tagged-mixed")
    for _ in range(300):
        m = monomial(rng.randrange(5), rng.randrange(4), rng.randrange(4))
        other = _random_elem(rng)
        for prod, want in ((m * other, _untagged(m) * other), (other * m, other * _untagged(m))):
            assert prod == want and str(prod) == str(want) and hash(prod) == hash(want)


def test_tagged_values_round_trip_through_text():
    for a in range(5):
        for b in range(4):
            for c in range(4):
                m = monomial(a, b, c)
                back = parse_scalar(str(m))
                assert back == m and hash(back) == hash(m) and str(back) == str(m)


def test_products_survive_clearing_the_monomial_cache():
    rng = random.Random("tagged-clear")
    held = [monomial(rng.randrange(4), rng.randrange(3), rng.randrange(3)) for _ in range(40)]
    for i, (x, y) in enumerate(zip(held, held[1:])):
        if i % 7 == 3:
            monomial.cache_clear()
        assert x * y == _untagged(x) * _untagged(y)
        assert (x * y) * y == _untagged(x) * _untagged(y) * _untagged(y)


def test_monomial_rejects_negative_exponents():
    # a negative count would tag the zero element with exponents that add
    for triple in ((-1, 0, 0), (0, -1, 0), (0, 0, -2)):
        with pytest.raises(ValueError):
            monomial(*triple)


@pytest.fixture
def products(monkeypatch):
    """Counts of the products made while the test runs: "lookup" when both
    sides record their exponents, "general" otherwise."""
    seen = {"lookup": 0, "general": 0}
    mul = RingElem.__mul__

    def counted(self, other):
        if isinstance(other, RingElem):
            seen["lookup" if self._exps is not None and other._exps is not None else "general"] += 1
        return mul(self, other)

    monkeypatch.setattr(RingElem, "__mul__", counted)
    return seen


def test_named_constants_are_recorded_monomials(products):
    for elem, exps in ((ONE, (0, 0, 0)), (LOOP, (1, 0, 0)), (G, (0, 1, 0)), (DE, (0, 0, 1))):
        assert elem._exps == exps and elem == _untagged(monomial(*exps))
    assert LOOP ** 3 * G * DE ** 2 == monomial(3, 1, 2)
    assert products["general"] == 0 and products["lookup"] > 0


def test_canonical_monomial_text_parses_to_the_recorded_monomial(products):
    triples = [(a, b, c) for a in range(6) for b in range(6) for c in range(6)]
    for a, b, c in triples:
        back = parse_scalar(str(monomial(a, b, c)))
        assert back._exps == (a, b, c) and back == monomial(a, b, c)
        for x, y, z in triples[::7]:
            assert back * monomial(x, y, z) == monomial(a + x, b + y, c + z)
    assert products["general"] == 0 and products["lookup"] == len(triples) * len(triples[::7])


@pytest.mark.parametrize("text, want", [
    ("q^-1 + 3*q", Q(-1) + RingElem.integer(3) * Q(1)),
    ("q^-2 + 2 + q^2 + 1", Q(-2) + RingElem.integer(3) + Q(2)),
    ("q^-1", Q(-1)),
    ("-q^-1 - q", -LOOP),
    ("-g", -G),
    ("q^-2 + 3 + q^2", Q(-2) + RingElem.integer(3) + Q(2)),
])
def test_near_misses_take_the_general_path(text, want):
    back = parse_scalar(text)
    assert back._exps is None
    assert back == want and str(back) == str(want)


def test_monomial_is_never_built_beyond_the_text(monkeypatch):
    from blobalg import ring

    built = []

    def counted(a, b, c):
        built.append(a)
        return monomial(a, b, c)

    monkeypatch.setattr(ring, "monomial", counted)
    big = 1_000_000
    for text, want in (("q^-1000000", Q(-big)),
                       ("q^-1000000 + q^1000000", Q(-big) + Q(big)),
                       ("g*q^-1000000 + g*q^1000000", G * (Q(-big) + Q(big))),
                       # a + 1 terms, but far shorter than monomial(a, 0, 0)'s text
                       ("q^-15000" + " + q" * 15000, Q(-15000) + RingElem.integer(15000) * Q(1))):
        assert parse_scalar(text) == want
        assert all(a <= text.count(" + ") + 1 and a * a <= 8 * len(text) for a in built), \
            (text[:20], built)


def test_an_unprintable_monomial_falls_through_to_the_general_parse():
    # the text passes both size gates, so monomial(2200, 0, 0) is built; its
    # middle binomial has 661 digits, past the lowered int-to-str limit, and
    # its text, printed in pieces, is not this one
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no int-to-str digit limit on this interpreter")
    text = "q^-2200" + " + q" * 2200 + "*1" * 302_500
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        back = parse_scalar(text)
    finally:
        sys.set_int_max_str_digits(limit)
    assert back._exps is None and back == Q(-2200) + RingElem.integer(2200) * Q(1)


def test_tower_and_defining_relations_make_no_general_product(products):
    from blobalg.presentation import check_defining_relations, evaluate_word
    from blobalg.towers import _conjugated_span, check_tower

    evaluate_word.cache_clear()
    _conjugated_span.cache_clear()
    for n in range(1, 8):
        assert check_defining_relations(n).passed
        assert n < 2 or check_tower(n).passed
    assert products["general"] == 0 and products["lookup"] > 0


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.text(alphabet=" \t\n\u00a0^qg+-12", max_size=40))
def test_caret_spacing_matches_the_regex_it_replaces(text):
    assert _strip_spaces(text) == re.sub(r"\s*\^\s*", "^", text.strip())


def test_caret_spacing_drops_a_run_between_two_carets():
    # an anchored regex, (?<!\s)\s*\^\s*, would leave "a^^ b"
    assert _strip_spaces(" a^ ^ b ") == "a^^b"


@pytest.mark.parametrize("text, want", [
    ("q +" + " " * 200_000 + "q", RingElem.integer(2) * Q(1)),
    ("q" + " " * 200_000 + "^" + " " * 200_000 + "-1", Q(-1)),
])
def test_a_long_whitespace_run_parses_in_linear_time(text, want):
    start = time.perf_counter()
    got = parse_scalar(text)
    assert time.perf_counter() - start < 1
    assert got == want


def test_monomial_coefficients_are_the_binomials():
    for a in (0, 1, 2, 7, 60, 301):
        assert dict(monomial(a, 1, 0)._terms) == {(a - 2 * k, 1, 0): comb(a, k) for k in range(a + 1)}


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit")
@pytest.mark.parametrize("limit", [640, 4300])
def test_a_coefficient_past_the_digit_limit_prints_in_pieces(limit):
    # zeros at the split point, all nines, and many pieces
    values = [10 ** limit, 10 ** (limit + 1) + 1, 10 ** (3 * limit) - 1, 7 ** 40_000,
              12345 * 10 ** (2 * limit) + 678]
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want = [str(v) for v in values]
    finally:
        sys.set_int_max_str_digits(old)
    sys.set_int_max_str_digits(limit)
    try:
        for v, digits in zip(values, want):
            assert str(RingElem({(0, 0, 0): -v, (1, 0, 0): v})) == f"-{digits} + {digits}*q"
        assert sys.get_int_max_str_digits() == limit
    finally:
        sys.set_int_max_str_digits(old)
