import random

import pytest

from blobalg.words import (
    Word,
    ascending_run,
    blob_cap_word,
    cap_word,
    cap_word_right,
    concat,
    descending_run,
    gen_e,
    gen_u,
    opposite,
    parse_word,
    skip_run,
    unit,
)


def test_concat_identity():
    w = parse_word("U1 e U2", 3)
    assert concat(unit(3), w) == w
    assert concat(w, unit(3)) == w


def test_concat_basic():
    assert str(gen_u(3, 1) * gen_u(3, 2)) == "U1 U2"
    assert str(gen_e(2) * gen_e(2)) == "e e"  # no reduction at the word level


def test_concat_rejects_mixed_n():
    with pytest.raises(ValueError, match=r"^strand counts differ: 3 vs 4$"):
        concat(gen_u(3, 1), gen_u(4, 1))


def test_concat_equals_the_validated_word():
    rng = random.Random("words-concat")
    for _ in range(300):
        n = rng.randrange(0, 7)
        u, v = (Word(n, tuple(rng.randrange(n) for _ in range(rng.randrange(6) if n else 0)))
                for _ in range(2))
        w = u * v
        want = Word(n, u.letters + v.letters)
        assert w == want and hash(w) == hash(want) and str(w) == str(want)
        assert type(w.letters) is tuple and w.n == n


def test_opposite_reverses():
    w = parse_word("U1 e U2 U1", 3)
    assert str(opposite(w)) == "U1 U2 e U1"


def test_opposite_involution():
    rng = random.Random("words-op")
    for _ in range(300):
        n = rng.randrange(1, 6)
        letters = tuple(rng.randrange(0, n) for _ in range(rng.randrange(0, 8)))
        w = Word(n, letters)
        assert opposite(opposite(w)) == w


def test_descending_run():
    assert str(descending_run(3, 1, 5)) == "U3 U2 U1"
    assert str(descending_run(1, 3, 5)) == "1"
    assert str(descending_run(2, 2, 5)) == "U2"


def test_skip_run():
    assert str(skip_run(3, 1, 5)) == "U3 U1"
    assert str(skip_run(2, 1, 5)) == "1"
    assert str(skip_run(1, 1, 5)) == "U1"


def test_ascending_run():
    assert str(ascending_run(2, 4, 5)) == "U2 U3 U4"
    assert str(ascending_run(4, 2, 5)) == "1"


def test_cap_words():
    assert str(cap_word(0, 4)) == "U1 U3"
    assert str(cap_word(4, 4)) == "1"
    assert str(cap_word_right(1, 3)) == "U2"
    assert str(cap_word_right(3, 3)) == "1"
    assert str(blob_cap_word(1, 3)) == "U1 e U2 U1"
    assert str(blob_cap_word(2, 2)) == "e"


def test_cap_word_parity_checked():
    with pytest.raises(ValueError):
        cap_word(1, 4)
    with pytest.raises(ValueError):
        blob_cap_word(0, 4)
    with pytest.raises(ValueError):
        blob_cap_word(-2, 4)


def test_cap_word_stable_under_growing_n():
    # the same letters describe the m and (m+1, n+1) cap words
    for n in range(2, 9):
        for m in range(n % 2, n - 1, 2):
            assert cap_word(m + 1, n + 1).letters == cap_word(m, n).letters


def test_parse_and_str():
    assert parse_word("1", 4) == unit(4)
    assert parse_word("U0 U1", 3) == Word(3, (0, 1))  # U0 is an alias for e
    assert str(Word(3, (0, 1))) == "e U1"
    with pytest.raises(ValueError):
        parse_word("U9", 3)
    with pytest.raises(ValueError):
        parse_word("x", 3)


@pytest.mark.parametrize("token", ["U\u00b2", "U\u0663", "U1\u0663"])
def test_letter_index_is_ascii_digits(token):
    # str.isdigit and int() also take digits of other scripts: int("²")
    # raises its own unnamed error, and int("٣") is 3
    with pytest.raises(ValueError) as info:
        parse_word(f"e {token} U1", 4)
    assert str(info.value) == f"bad word token {token!r}"
    assert parse_word("U3 U03", 4) == Word(4, (3, 3))


def test_letter_validation():
    with pytest.raises(ValueError):
        Word(3, (3,))
    with pytest.raises(ValueError):
        Word(0, (0,))
    Word(1, (0,))  # e exists from one strand up


@pytest.mark.parametrize("n, letters, message", [
    (3, (1, -1), "U-1 out of range for n=3"),
    (3, (0, 3, 1), "U3 out of range for n=3"),
    (0, (0,), "e needs at least one strand"),
    (0, (1,), "U1 out of range for n=0"),
    (4, (2, 5, -2), "U5 out of range for n=4"),
])
def test_letter_errors_name_the_first_bad_letter(n, letters, message):
    with pytest.raises(ValueError) as info:
        Word(n, letters)
    assert str(info.value) == message


def test_letters_are_stored_as_an_int_tuple():
    w = Word(4, [1, 3, 2])
    assert w.letters == (1, 3, 2) and type(w.letters) is tuple
    assert w.with_n(5).letters == (1, 3, 2)


@pytest.mark.parametrize("n, letters, message", [
    (3, (1.5,), "letter 1.5 is not an integer"),
    (3, (True, 2.9), "letter True is not an integer"),
    (3, (1, 2.9), "letter 2.9 is not an integer"),
    (3, ("2",), "letter '2' is not an integer"),
    (4, [True, 3.0, "2"], "letter True is not an integer"),
    (2.5, (1,), "strand count 2.5 is not an integer"),
    (True, (0,), "strand count True is not an integer"),
    ("3", (), "strand count '3' is not an integer"),
])
def test_non_int_strand_counts_and_letters_are_rejected(n, letters, message):
    # they used to be truncated: Word(3, (1.5,)) printed U1
    with pytest.raises(ValueError) as info:
        Word(n, letters)
    assert str(info.value) == message


def _reference_parse_word(text, n):
    """parse_word as it read every token, before canonical tokens were
    looked up: the reference for words and error messages."""
    tokens = text.split()
    if tokens == ["1"] or not tokens:
        return Word(n)
    letters = []
    for tok in tokens:
        if tok == "e":
            letters.append(0)
        elif tok.startswith("U") and tok[1:].isascii() and tok[1:].isdigit():
            letters.append(int(tok[1:]))
        else:
            raise ValueError(f"bad word token {tok!r}")
    return Word(n, tuple(letters))


def _outcome(parse, text, n):
    try:
        return parse(text, n)
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_parse_word_matches_the_reference_on_random_texts():
    rng = random.Random("parse-word")
    for n in range(1, 13):
        for _ in range(50):
            text = " ".join("e" if x == 0 and rng.random() < 0.8 else f"U{x}"
                            for x in (rng.randrange(n) for _ in range(24)))
            assert parse_word(text, n) == _reference_parse_word(text, n), (n, text)


@pytest.mark.parametrize("token", ["U0", "U01", "U10", "U²", "u1", "E", "U-1", "e", "U9"])
def test_parse_word_tokens_match_the_reference(token):
    for text in (token, f"U3 {token} e"):
        want = _outcome(_reference_parse_word, text, 10)
        assert _outcome(parse_word, text, 10) == want, text


@pytest.mark.parametrize("n", [True, 2.0, "3", -1, 0])
def test_parse_word_strand_count_errors_match_the_reference(n):
    for text in ("e", "U1", "1"):
        assert _outcome(parse_word, text, n) == _outcome(_reference_parse_word, text, n), (n, text)
