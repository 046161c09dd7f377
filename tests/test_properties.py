"""Property tests of the composition kernel and the coordinate span layer.

Random words on up to 10 strands stand in for random diagrams: every basis
diagram is the image of a word, and no basis enumeration is needed at
n = 10.  Random batches of (column, value) rows (zero values and repeated
columns included) check `RowSpan` and `CoordSolver` against the dense
references in `span_reference`, fed the dense expansion of the same rows;
`CoordSolver` gets independent rows, as `standard_module` passes it only
rows one absorb has shown independent.  Runs are derandomized,
so a failure reproduces on every run.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from blobalg.diagrams import ScaledDiagram, compose, compose_scaled, flip, identity_diagram
from blobalg.modlin import DEFAULT_PRIME, CoordSolver, RowSpan
from blobalg import presentation
from blobalg.presentation import evaluate_word
from blobalg.ring import RingElem
from blobalg.words import Word

from span_reference import ReferenceSolver, ReferenceSpan, dense
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


def _fold(w, composer=reference_compose):
    """The image of w folded letter by letter from the identity."""
    got = _unscaled(identity_diagram(w.n))
    for letter in w.letters:
        gen = evaluate_word(Word(w.n, (letter,))).diagram
        step = composer(got.diagram, gen)
        got = ScaledDiagram(got.coeff * step.coeff, step.diagram)
    return got


@PROPERTY
@given(word_pairs())
def test_evaluate_word_matches_reference_composers(pair):
    w = pair[0] * pair[1]
    for composer in (reference_compose, compose_by_union_find):
        assert _fold(w, composer) == evaluate_word(w)


@st.composite
def word_batches(draw):
    n = draw(strand_counts)
    return draw(st.lists(words(n, max_len=24), min_size=1, max_size=8))


@PROPERTY
@given(word_batches())
def test_table_walk_matches_reference_fold(batch):
    # a cold table for the first word; later words walk entries it filled
    presentation.reset_tables()
    for w in batch:
        evaluate_word.cache_clear()  # the word cache only: walk the table
        assert evaluate_word(w) == _fold(w)
    evaluate_word.cache_clear()
    presentation.reset_tables()


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


# -- coordinate spans against the dense reference ------------------------------

# a small prime makes scalars that vanish mod p common
primes = st.sampled_from([7, DEFAULT_PRIME])


def _rows(pairs):
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


@st.composite
def monomial_batches(draw, count=3):
    """(dim, p, batches): each batch a k x 2 array of (column, value)
    rows, values unreduced mod p and zero rows included."""
    dim = draw(st.integers(1, 8))
    p = draw(primes)
    values = st.just(0) | st.integers(-2 * p, 2 * p)
    batches = [_rows(draw(st.lists(st.tuples(st.integers(0, dim - 1), values), max_size=10)))
               for _ in range(count)]
    return dim, p, batches


def _leading_columns(rows):
    return [int(np.nonzero(row)[0][0]) for row in rows]


@PROPERTY
@given(monomial_batches())
def test_rowspan_matches_dense_reference(case):
    dim, p, (first, second, queries) = case
    ours, ref = RowSpan(dim, p), ReferenceSpan(dim, p)
    assert ours.absorb(first).tolist() == _leading_columns(ref.absorb(dense(first, dim)))
    assert np.flatnonzero(ours.mask).tolist() == ref.pivots
    assert (dense(ours.reduce(queries), dim) == ref.reduce(dense(queries, dim))).all()
    for row in queries:
        assert (dense(ours.reduce(row), dim) == ref.reduce(dense(row, dim))).all()
    assert ours.absorb(second).tolist() == _leading_columns(ref.absorb(dense(second, dim)))
    assert np.flatnonzero(ours.mask).tolist() == ref.pivots
    assert (dense(ours.reduce(queries), dim) == ref.reduce(dense(queries, dim))).all()


@st.composite
def monomial_bases(draw):
    """(dim, p, rows, in_span, outside): one or more independent (column,
    value) rows on distinct columns, a batch of target rows in their span
    (zero values on any column included) and one target outside it (None
    when the rows cover every column)."""
    dim = draw(st.integers(1, 8))
    p = draw(primes)
    cols = draw(st.lists(st.integers(0, dim - 1), unique=True, min_size=1, max_size=dim))
    rows = _rows([(c, draw(st.integers(1, p - 1)) + p * draw(st.integers(-2, 2))) for c in cols])
    targets = st.tuples(st.sampled_from(cols), st.integers(-2 * p, 2 * p)) | st.tuples(
        st.integers(0, dim - 1), st.sampled_from([0, p, -p]))
    in_span = _rows(draw(st.lists(targets, max_size=6)))
    free = [c for c in range(dim) if c not in cols]
    outside = None
    if free:
        outside = _rows([(draw(st.sampled_from(free)), draw(st.integers(1, p - 1)))])[0]
    return dim, p, rows, in_span, outside


@PROPERTY
@given(monomial_bases())
def test_coord_solver_matches_reference_solve(case):
    dim, p, rows, in_span, outside = case
    ours, ref = CoordSolver(rows, p), ReferenceSolver(dense(rows, dim), p)
    got = ours.express(in_span)
    assert got is not None and got.shape == (len(rows), len(in_span))
    for j, target in enumerate(in_span):
        want = ref.express(dense(target, dim))
        assert (got[:, j] == want).all()
        assert (ours.express(target[None]) == want[:, None]).all()
        assert (got[:, j] @ (dense(rows, dim) % p) % p == dense(target, dim) % p).all()
    if outside is not None:
        assert ours.express(outside[None]) is None and ref.express(dense(outside, dim)) is None
        assert ours.express(np.vstack([in_span, outside])) is None
