"""Property tests of the composition kernel on random words and diagrams.

Random words on up to 10 strands stand in for random diagrams: every basis
diagram is the image of a word, and no basis enumeration is needed at
n = 10.  Runs are derandomized, so a failure reproduces on every run.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from blobalg.diagrams import ScaledDiagram, compose, compose_scaled, flip, identity_diagram
from blobalg.presentation import evaluate_word
from blobalg.ring import RingElem
from blobalg.words import Word

from test_compose_oracle import compose_by_union_find, reference_compose

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def words(n, max_len=16):
    return st.lists(st.integers(0, n - 1), max_size=max_len).map(lambda ls: Word(n, tuple(ls)))


strand_counts = st.integers(1, 10)


@st.composite
def word_pairs(draw):
    n = draw(strand_counts)
    return draw(words(n)), draw(words(n))


@st.composite
def diagram_tuples(draw, k):
    n = draw(strand_counts)
    return tuple(evaluate_word(draw(words(n))).diagram for _ in range(k))


def _unscaled(d):
    return ScaledDiagram(RingElem.one(), d)


@PROPERTY
@given(word_pairs())
def test_evaluate_word_is_multiplicative(pair):
    u, v = pair
    assert evaluate_word(u * v) == compose_scaled(evaluate_word(u), evaluate_word(v))


@PROPERTY
@given(word_pairs())
def test_evaluate_word_matches_reference_composers(pair):
    w = pair[0] * pair[1]
    for composer in (reference_compose, compose_by_union_find):
        got = _unscaled(identity_diagram(w.n))
        for letter in w.letters:
            gen = evaluate_word(Word(w.n, (letter,))).diagram
            step = composer(got.diagram, gen)
            got = ScaledDiagram(got.coeff * step.coeff, step.diagram)
        assert got == evaluate_word(w)


@PROPERTY
@given(diagram_tuples(3))
def test_compose_is_associative(triple):
    a, b, c = triple
    left = compose_scaled(_unscaled(a), compose(b, c))
    right = compose_scaled(compose(a, b), _unscaled(c))
    assert left == right


@PROPERTY
@given(diagram_tuples(2))
def test_flip_is_an_anti_automorphism(pair):
    a, b = pair
    forward = compose(a, b)
    backward = compose(flip(b), flip(a))
    assert backward.coeff == forward.coeff
    assert backward.diagram == flip(forward.diagram)
