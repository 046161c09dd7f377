import numpy as np
import pytest

from blobalg.modlin import DEFAULT_PRIME, check_prime, mulmod


def _primes_to(limit):
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\0\0"
    for i in range(2, int(limit ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, limit + 1, i)))
    return [i for i in range(limit + 1) if sieve[i]]


SMALL_PRIMES = _primes_to(46_341)  # 46341^2 > 2^31


def is_prime_by_trial_division(p):
    return all(p % d for d in SMALL_PRIMES if d * d <= p)


@pytest.mark.parametrize("lo, hi", [((1 << 30) + 1, (1 << 30) + 4001),
                                    ((1 << 31) - 4001, (1 << 31) - 1)])
def test_check_prime_matches_trial_division(lo, hi):
    primes = 0
    for p in range(lo, hi + 1, 2):
        if is_prime_by_trial_division(p):
            primes += 1
            assert check_prime(p) == p
        else:
            with pytest.raises(ValueError, match=f"^{p} is not prime$"):
                check_prime(p)
    assert primes > 100


def _strong_probable_prime(p, a):
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, p)
    return x == 1 or any(pow(x, 1 << r, p) == p - 1 for r in range(s))


def test_a_strong_pseudoprime_to_bases_2_3_5_is_rejected():
    p = 1_157_839_381
    assert p == 24_061 * 48_121
    assert all(_strong_probable_prime(p, a) for a in (2, 3, 5))
    with pytest.raises(ValueError, match=f"^{p} is not prime$"):
        check_prime(p)


def test_check_prime_keeps_its_range_and_rejects_even_numbers():
    assert check_prime(DEFAULT_PRIME) == DEFAULT_PRIME
    assert check_prime(1_073_741_833) == 1_073_741_833
    for p in (1 << 30, 1 << 31, 3, 2, -7):
        with pytest.raises(ValueError, match="^prime must lie strictly between 2\\^30 and 2\\^31$"):
            check_prime(p)
    with pytest.raises(ValueError, match=f"^{(1 << 30) + 2} is not prime$"):
        check_prime((1 << 30) + 2)


@pytest.mark.parametrize("p", [DEFAULT_PRIME, 1_073_741_833])
@pytest.mark.parametrize("shape", [(7,), (1, 1), (9, 9), (3, 20, 20), (2, 40, 64)])
def test_mulmod_matches_exact_integer_products(p, shape):
    rng = np.random.default_rng(shape[-1])
    k = shape[-1]
    a = rng.integers(0, p, size=shape, dtype=np.int64)
    b = rng.integers(0, p, size=(*shape[:-2], k, k) if len(shape) > 1 else (k, k), dtype=np.int64)
    a.flat[::5] = p - 1  # the largest entries, where a bound would overflow first
    b.flat[::3] = p - 1
    want = (a.astype(object) @ b.astype(object)) % p
    got = mulmod(a, b, p)
    assert got.dtype == np.int64 and got.shape == want.shape
    assert (got == want.astype(np.int64)).all()


def test_mulmod_is_exact_where_every_entry_is_largest():
    # (p - 1)^2 * k = k mod p, with every partial sum at its largest
    p, k = DEFAULT_PRIME, 1000
    full = np.full((2, k, k), p - 1, dtype=np.int64)
    assert (mulmod(full, full, p) == k).all()


def test_coordinate_pivots_are_sorted_python_ints_from_sets_and_arrays():
    from blobalg.modlin import RowSpan

    indices = frozenset({9, 2, 31_751, 4, 700})
    spans = [RowSpan.coordinate(31_752, DEFAULT_PRIME, source)
             for source in (indices, set(indices), sorted(indices) * 2,
                            np.array(sorted(indices, reverse=True) * 2, dtype=np.int64),
                            np.array(sorted(indices), dtype=np.int32))]
    for span in spans:
        assert span.pivots == [2, 4, 9, 700, 31_751]
        assert all(type(i) is int for i in span.pivots)
    # absorb compares the pivots with tolist() values of its rows
    added = spans[3].absorb(np.array([[700, 1], [5, 3]], dtype=np.int64))
    assert added.tolist() == [5] and spans[3].pivots == [2, 4, 5, 9, 700, 31_751]
