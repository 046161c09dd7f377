import pytest

from blobalg.diamond import (
    DiamondWalk,
    all_diamond_walks,
    check_diamond_walks,
    check_envelope_words,
    diamond_from_dict,
    diamond_to_dict,
    diamond_walk,
    envelope_word,
    expected_lowest,
    heights_leq,
    to_diamond,
    weight_of_diamond,
)
from blobalg.presentation import phi_equal
from blobalg.walks import all_walks, parse_walk, path_word


def test_parse_rules():
    assert str(to_diamond(parse_walk("0,1,0"))) == "SS"
    assert str(to_diamond(parse_walk("0,-1,-2"))) == "NN"
    assert str(to_diamond(parse_walk("0,-1,0,1"))) == "NSS"


def test_start_height_accounting():
    t = diamond_walk("NSS")
    assert t.start_height == 2 * 3 - 2 * 1
    assert t.heights() == (4, 5, 4, 3)
    assert t.heights()[-1] == t.n
    with pytest.raises(ValueError):
        DiamondWalk(("N", "X"))


def test_negative_length_rejected():
    with pytest.raises(ValueError):
        all_diamond_walks(-1)


def test_bijection_to_n10():
    for n in range(0, 11):
        walks = all_walks(n)
        images = {to_diamond(p) for p in walks}
        assert len(images) == len(walks) == 2 ** n
        assert images == set(all_diamond_walks(n))


def test_lowest_point_characterization():
    for n in range(1, 9):
        for m in range(-n, n + 1, 2):
            lows = {to_diamond(p).lowest for p in all_walks(n, m)}
            assert lows == {expected_lowest(n, m)}
            fibre = {t for t in all_diamond_walks(n) if t.lowest == expected_lowest(n, m)}
            assert fibre == {to_diamond(p) for p in all_walks(n, m)}


def test_signed_lowest_points_differ_by_one():
    assert expected_lowest(4, 2) - expected_lowest(4, -2) == 1
    assert {to_diamond(p).lowest for p in all_walks(4, 2)} == {3}
    assert {to_diamond(p).lowest for p in all_walks(4, -2)} == {2}


def test_weight_recovery():
    for n in range(0, 9):
        for m in range(-n, n + 1, 2):
            for p in all_walks(n, m):
                assert weight_of_diamond(to_diamond(p)) == m


def test_poset():
    for t in all_diamond_walks(4):
        assert heights_leq(t, t)
    top = diamond_walk("S" * 4)
    for t in all_diamond_walks(4):
        assert heights_leq(t, top)
    fibre6 = [t for t in all_diamond_walks(6) if t.lowest == expected_lowest(6, 0)]
    assert any(
        not heights_leq(a, b) and not heights_leq(b, a)
        for i, a in enumerate(fibre6) for b in fibre6[i + 1:]
    )
    with pytest.raises(ValueError):
        heights_leq(diamond_walk("S"), diamond_walk("SS"))


def test_envelope_figure_captions():
    assert str(envelope_word(diamond_walk("SSSS"))) == "e U1 e U2 U1 U3"
    assert str(envelope_word(diamond_walk("SSSSSS"))) == "e U1 e U2 U1 U3 e U2 U4 U1 U3 U5"


def test_envelope_minimal_walk_is_unit():
    for n in range(0, 7):
        assert str(envelope_word(diamond_walk("N" * n))) == "1"


def test_envelope_equals_walk_word_in_algebra():
    for n in range(0, 7):
        for p in all_walks(n):
            got = envelope_word(to_diamond(p))
            assert phi_equal(got, path_word(p)), p


def test_json_roundtrip():
    t = diamond_walk("NSS")
    data = diamond_to_dict(t)
    assert data == {"steps": "NSS", "start_height": 4}
    assert diamond_from_dict(data) == t
    with pytest.raises(ValueError):
        diamond_from_dict({"steps": "NSS", "start_height": 0})


@pytest.mark.parametrize("height", [2.9, 2.0, "2", True, None, [2]])
def test_start_height_must_be_an_int(height):
    # int() would truncate 2.9 to the derived height 2, and read "2" as 2
    assert diamond_from_dict({"steps": "NS", "start_height": 2}).start_height == 2
    with pytest.raises(ValueError) as info:
        diamond_from_dict({"steps": "NS", "start_height": height})
    assert str(info.value) == f"start_height {height!r} is not an integer"


def test_a_long_start_height_is_named_by_its_start():
    with pytest.raises(ValueError) as info:
        diamond_from_dict({"steps": "NS", "start_height": "7" * (1 << 20)})
    assert str(info.value) == "start_height '77777777777777777777777... (1048578 characters) is not an integer"


@pytest.mark.parametrize("steps, message", [
    (5, "steps 5 is not a string"),
    (None, "steps None is not a string"),
    (["N", "S"], "steps ['N', 'S'] is not a string"),
    (list(range(1 << 18)),
     f"steps [0, 1, 2, 3, 4, 5, 6, 7,... ({len(repr(list(range(1 << 18))))} characters) is not a string"),
])
def test_steps_that_are_not_a_string_are_refused(steps, message):
    with pytest.raises(ValueError) as info:
        diamond_from_dict({"steps": steps, "start_height": 2})
    assert str(info.value) == message


def test_check_reports():
    for n in range(0, 9):
        rep = check_diamond_walks(n)
        assert rep.passed, [c.instance for c in rep.checks if not c.passed]
    for n in range(0, 7):
        rep = check_envelope_words(n)
        assert rep.passed, [c.instance for c in rep.checks if not c.passed]
        assert rep.meta["letter_equal_standard"] >= 1 or n >= 4
