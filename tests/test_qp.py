"""Core p-adic arithmetic: valuation, norm, fractional part, cosets."""

import random
from fractions import Fraction as Fr

import pytest
from hypothesis import given
from hypothesis import strategies as st

from padicfourier import (
    INFINITE_VALUATION,
    Prime,
    TestFunction,
    enumerate_cosets,
    enumerate_sphere_cosets,
    fractional_part,
    norm,
    valuation,
)
from padicfourier.errors import BadWindow, NonPadicDenominator
from padicfourier import qp


def random_rational(rng, p):
    num = rng.randint(-400, 400)
    den = rng.randint(1, 400)
    return Fr(num, den) * Fr(p) ** rng.randint(-4, 4)


def test_valuation_examples():
    assert valuation(Fr(3, 2), Prime(2)) == -1
    assert valuation(0, Prime(7)) == INFINITE_VALUATION
    assert valuation(12, Prime(3)) == 1


def naive_valuation(n, p):
    # one factor p per division, the reference for qp._split_power
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@given(
    st.sampled_from([2, 3, 5, 7]),
    st.integers(-5000, 5000),
    st.integers(1, 10**12),
    st.integers(1, 10**12),
    st.booleans(),
)
def test_valuation_by_squaring_matches_the_naive_loop(p, v, num, den, negative):
    # cofactors may hold factors of p themselves; the reduced fraction has
    # the valuation the naive loop finds on its numerator and denominator
    x = Fr(-num if negative else num, den) * Fr(p) ** v
    want = naive_valuation(x.numerator, p) - naive_valuation(x.denominator, p)
    assert valuation(x, Prime(p)) == want
    for n in (x.numerator, x.denominator):
        k = naive_valuation(n, p)
        assert qp._split_power(n, p) == (k, n // p**k)
    u = num * p + 1  # coprime to p
    assert qp._split_power(u * p ** abs(v), p) == (abs(v), u)



def naive_unit_residue(x, p, k):
    # strip p one factor at a time from either side, then reduce mod p^k
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
    while den % p == 0:
        den //= p
    return num * pow(den, -1, p**k) % p**k


@given(
    st.sampled_from([2, 3, 5, 7]),
    st.integers(-5000, 5000),
    st.integers(1, 10**12),
    st.integers(1, 10**12),
    st.booleans(),
    st.integers(0, 6),
)
def test_split_matches_valuation_and_the_naive_unit_residue(p, v, num, den, negative, k):
    x = Fr(-num if negative else num, den) * Fr(p) ** v
    M, u = qp.split(x, Prime(p), k)
    assert M == -valuation(x, Prime(p))
    assert u == naive_unit_residue(x, p, k)


def test_split_rejects_zero():
    with pytest.raises(ZeroDivisionError):
        qp.split(Fr(0), Prime(3), 2)

def test_norm_examples():
    assert norm(Fr(3, 2), Prime(2)) == 2
    assert norm(0, Prime(5)) == 0
    assert norm(9, Prime(3)) == Fr(1, 9)


def test_fractional_part_examples():
    assert fractional_part(Fr(3, 2), Prime(2)) == Fr(1, 2)
    assert fractional_part(7, Prime(3)) == 0
    assert fractional_part(Fr(7, 9), Prime(3)) == Fr(7, 9)


def test_fractional_part_rejects_non_p_denominator():
    with pytest.raises(NonPadicDenominator):
        fractional_part(Fr(1, 6), Prime(2))


def test_prime_validation():
    Prime(2)
    Prime(97)
    for bad in (1, 0, -3, 4, 9, 91):
        with pytest.raises(ValueError):
            Prime(bad)


def test_strong_triangle_inequality():
    rng = random.Random(1)
    for p in (2, 3, 5):
        prime = Prime(p)
        for _ in range(300):
            x, y = random_rational(rng, p), random_rational(rng, p)
            nx, ny, nxy = norm(x, prime), norm(y, prime), norm(x + y, prime)
            assert nxy <= max(nx, ny)
            if nx != ny:
                assert nxy == max(nx, ny)


def test_norm_stabilization():
    # |x + p^n|_p = |x|_p as soon as p^-n < |x|_p
    rng = random.Random(2)
    for p in (2, 5):
        prime = Prime(p)
        for _ in range(50):
            x = random_rational(rng, p)
            if x == 0:
                continue
            nx = norm(x, prime)
            for n in range(-6, 12):
                if Fr(p) ** (-n) < nx:
                    assert norm(x + Fr(p) ** n, prime) == nx


def test_fractional_part_iff_nonnegative_valuation():
    rng = random.Random(3)
    prime = Prime(3)
    for _ in range(200):
        x = Fr(rng.randint(-500, 500), 3 ** rng.randint(0, 5))
        v = valuation(x, prime)
        assert (fractional_part(x, prime) == 0) == (
            v is INFINITE_VALUATION or v >= 0
        )


def test_fractional_part_integer_shift_invariance():
    rng = random.Random(4)
    prime = Prime(5)
    for _ in range(200):
        x = Fr(rng.randint(-500, 500), 5 ** rng.randint(0, 4))
        z = Fr(rng.randint(-60, 60)) * Fr(5) ** rng.randint(0, 3)
        assert fractional_part(x + z, prime) == fractional_part(x, prime)


def test_enumerate_cosets_examples():
    assert enumerate_cosets(Prime(2), 1, 0) == [0, Fr(1, 2)]
    assert enumerate_cosets(Prime(3), 0, 0) == [0]
    # digits at positions -1 and 0: p^(N-l) = 4 representatives
    assert enumerate_cosets(Prime(2), 1, -1) == [0, Fr(1, 2), 1, Fr(3, 2)]


def test_enumerate_cosets_zero_first_and_count():
    for p, N, l in ((2, 2, -1), (3, 1, -2), (5, 0, -2)):
        reps = enumerate_cosets(Prime(p), N, l)
        assert len(reps) == p ** (N - l)
        assert reps[0] == 0
        assert len(set(reps)) == len(reps)


def test_enumerate_cosets_bad_window():
    with pytest.raises(BadWindow):
        enumerate_cosets(Prime(2), 0, 1)


def test_enumerate_sphere_cosets_examples():
    assert enumerate_sphere_cosets(Prime(3), 0, -1) == [1, 2]
    assert enumerate_sphere_cosets(Prime(2), 1, 0) == [Fr(1, 2)]
    with pytest.raises(BadWindow):
        enumerate_sphere_cosets(Prime(2), 0, 0)


def test_sphere_cosets_norm_and_count():
    for p, gamma, l in ((2, 1, -2), (3, -1, -3), (5, 2, 0)):
        prime = Prime(p)
        reps = enumerate_sphere_cosets(prime, gamma, l)
        assert len(reps) == (p - 1) * p ** (gamma - l - 1)
        for r in reps:
            assert norm(r, prime) == Fr(p) ** gamma


def test_measure_additivity():
    # coset measures recover ball and sphere Haar measures exactly
    for p, N, l in ((2, 2, -1), (3, 1, -1), (5, 1, -1)):
        prime = Prime(p)
        total = sum(Fr(p) ** l for _ in enumerate_cosets(prime, N, l))
        assert total == Fr(p) ** N
        total = sum(Fr(p) ** l for _ in enumerate_sphere_cosets(prime, N, l))
        assert total == Fr(p) ** N * (1 - Fr(1, p))


def test_sphere_cosets_partition_ball_difference():
    prime = Prime(3)
    ball = set(enumerate_cosets(prime, 1, -1))
    inner = set(enumerate_cosets(prime, 0, -1))
    sphere = set(enumerate_sphere_cosets(prime, 1, -1))
    assert ball == inner | sphere
    assert not (inner & sphere)


def test_at_locates_coset_representatives():
    # values[i] = i, so phi(x) is the index of x's coset in the enumeration
    rng = random.Random(5)
    for p, N, l in ((2, 2, -2), (3, 1, -1)):
        prime = Prime(p)
        phi = TestFunction(prime, N, l, range(p ** (N - l)))
        for i, r in enumerate(enumerate_cosets(prime, N, l)):
            assert phi.at(r) == i
            # any member of the coset maps to the same index
            shift = Fr(rng.randint(-20, 20)) * Fr(p) ** rng.randint(-l, -l + 3)
            assert phi.at(r + shift) == i
        assert phi.at(Fr(1, p ** (N + 1))) == 0  # outside B_N


def test_at_accepts_coprime_denominators():
    prime = Prime(3)
    # 1/2 = 2 mod 3, so 1/2 sits in the coset of 2 inside B_0/B_-1
    reps = enumerate_cosets(prime, 0, -1)
    phi = TestFunction(prime, 0, -1, range(3))
    assert reps[int(phi.at(Fr(1, 2)).real)] == 2


def test_word_caches_are_bounded():
    for cache in (qp._coset_words, qp._sphere_words):
        bound = cache.cache_parameters()["maxsize"]
        assert bound is not None
        for p in range(2, bound + 12):
            cache(p, 1)
        assert cache.cache_info().currsize <= bound
