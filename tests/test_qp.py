"""Core p-adic arithmetic: valuation, split, fractional part, cosets."""

import math
import random
import time
from fractions import Fraction as Fr

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from padicfourier import (
    INFINITE_VALUATION,
    Prime,
    TestFunction,
    enumerate_cosets,
    fractional_part,
    valuation,
)
from padicfourier.errors import BadWindow, NonPadicDenominator, NumericOverflow
from padicfourier import qp

from conftest import sphere_cosets


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

def test_split_reads_a_float_as_its_fraction():
    assert qp.split(0.75, Prime(2), 3) == (2, 3)  # 3/4 = 3 * 2^-2
    assert qp.split(-1.5, Prime(3), 2) == (-1, 4)  # -1/2 * 3, -1/2 = 4 mod 9


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


def test_prime_check_is_miller_rabin_and_bounded():
    # trial division to sqrt(p) took 0.9 s at p = 1e14 + 31 and would take
    # some 1.5e9 divisions at 2^61 - 1
    start = time.perf_counter()
    for p in (100000000000031, 2**61 - 1, 2**31 - 1, 16777259):
        Prime(p)
    for bad in (
        561,  # Carmichael
        (2**31 - 1) ** 2,
        3825123056546413051,  # strong pseudoprime to the first 11 prime bases
        318665857834031151167461,  # ... and to the first 12
        3317044064679887385961981,  # the bound: strong to the first 13
        2**89 - 1,  # prime, past the bound
    ):
        with pytest.raises(ValueError):
            Prime(bad)
    assert time.perf_counter() - start < 1.0
    small = [p for p in range(2, 3000) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    accepted = []
    for n in range(-2, 3000):
        try:
            Prime(n)
            accepted.append(n)
        except ValueError:
            pass
    assert accepted == small


def test_sizes_are_decided_by_the_exponent_first():
    # p^e with e in the millions takes seconds to build: these decide
    # without building it
    start = time.perf_counter()
    with pytest.raises(NumericOverflow, match="3\\^20000000 is not a finite float"):
        qp.p_power(3, 2 * 10**7)
    assert qp.p_power(3, -2 * 10**7) == 0.0
    with pytest.raises(BadWindow, match="coset enumeration too large: 3\\^100000000 words"):
        qp.check_word_count(3, 10**8)
    assert time.perf_counter() - start < 1.0
    # at the edges of the float range p_power keeps the quotient's bits
    for p in (2, 3, 7, 1000003):
        for e in range(-1200, 1200, 7):
            try:
                want = float(Fr(p) ** e)
            except OverflowError:
                with pytest.raises(NumericOverflow):
                    qp.p_power(p, e)
                continue
            assert qp.p_power(p, e) == want, (p, e)
    qp.check_word_count(2, 24)
    with pytest.raises(BadWindow):
        qp.check_word_count(2, 25)


def test_strong_triangle_inequality():
    rng = random.Random(1)
    for p in (2, 3, 5):
        prime = Prime(p)
        for _ in range(300):
            x, y = random_rational(rng, p), random_rational(rng, p)
            # |x + y|_p <= max(|x|_p, |y|_p), with equality when they differ
            vx, vy, vxy = (valuation(z, prime) for z in (x, y, x + y))
            assert vxy >= min(vx, vy)
            if vx != vy:
                assert vxy == min(vx, vy)


def test_norm_stabilization():
    # |x + p^n|_p = |x|_p as soon as p^-n < |x|_p
    rng = random.Random(2)
    for p in (2, 5):
        prime = Prime(p)
        for _ in range(50):
            x = random_rational(rng, p)
            if x == 0:
                continue
            vx = valuation(x, prime)
            for n in range(-6, 12):
                if n > vx:  # p^-n < |x|_p
                    assert valuation(x + Fr(p) ** n, prime) == vx


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


def test_sphere_cosets_norm_and_count():
    for p, gamma, l in ((2, 1, -2), (3, -1, -3), (5, 2, 0)):
        prime = Prime(p)
        reps = sphere_cosets(prime, gamma, l)
        assert len(reps) == (p - 1) * p ** (gamma - l - 1)
        for r in reps:
            assert qp.split(r, prime, 0)[0] == gamma  # |r|_p = p^gamma


def test_measure_additivity():
    # coset measures recover ball and sphere Haar measures exactly
    for p, N, l in ((2, 2, -1), (3, 1, -1), (5, 1, -1)):
        prime = Prime(p)
        total = sum(Fr(p) ** l for _ in enumerate_cosets(prime, N, l))
        assert total == Fr(p) ** N
        total = sum(Fr(p) ** l for _ in sphere_cosets(prime, N, l))
        assert total == Fr(p) ** N * (1 - Fr(1, p))


def test_sphere_cosets_partition_ball_difference():
    prime = Prime(3)
    ball = set(enumerate_cosets(prime, 1, -1))
    inner = set(enumerate_cosets(prime, 0, -1))
    sphere = set(sphere_cosets(prime, 1, -1))
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
    cache = qp._sphere_words
    bound = cache.cache_parameters()["maxsize"]
    assert bound is not None
    for p in range(2, bound + 12):
        cache(p, 1)
    assert cache.cache_info().currsize <= bound


def test_sphere_words_are_the_ascending_unit_words():
    for p in (2, 3, 5, 7):
        for n in range(1, 5):
            words = np.arange(p**n)
            assert qp._sphere_words(p, n).tolist() == words[words % p != 0].tolist()
