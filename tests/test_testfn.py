"""Test functions: construction, Fourier transform, convolution, dilation."""

import random
import time
from fractions import Fraction as Fr

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicfourier import (
    PiAlphaLog,
    Prime,
    TestFunction,
    chi,
    convolve,
    delta_indicator,
    dilate,
    enumerate_cosets,
    fourier,
    random_testfn,
    trivial_character,
    verify_stabilization,
)
from padicfourier.distributions import _AnnulusProduct
from padicfourier.errors import BadWindow, ZeroArgument

P2, P3, P5 = Prime(2), Prime(3), Prime(5)


def assert_equal_fn(a, b, tol=1e-12):
    assert (a.N, a.l) == (b.N, b.l)
    assert np.allclose(a.values, b.values, atol=tol)


def test_delta_indicator_examples():
    d = delta_indicator(P2, 0)
    assert (d.N, d.l) == (0, 0) and d.values.tolist() == [1]
    assert delta_indicator(P3, 2).at(9) == 1
    # Delta_{-1} at p = 2: membership is |x|_2 <= 1/2
    dm1 = delta_indicator(P2, -1)
    assert dm1.at(2) == 1
    assert dm1.at(Fr(1, 2)) == 0 and dm1.at(1) == 0
    assert dm1.at(0) == 1


def test_at_examples():
    d0 = delta_indicator(P2, 0)
    assert d0.at(5) == 1
    assert d0.at(Fr(1, 2)) == 0
    phi = random_testfn(P3, 1, -1, seed=1)
    x = Fr(2, 3)
    assert phi.at(x + 9) == phi.at(x)  # same coset of B_{-1}


def test_constancy_on_declared_cosets():
    rng = random.Random(21)
    phi = random_testfn(P2, 2, -1, seed=3)
    for _ in range(100):
        x = Fr(rng.randint(-40, 40), 2 ** rng.randint(0, 2))
        shift = Fr(rng.randint(-10, 10)) * Fr(2) ** rng.randint(1, 4)
        assert phi.at(x + shift) == phi.at(x)  # |shift| <= 2^-1 = p^l


def test_window_validation():
    with pytest.raises(BadWindow):
        TestFunction(P2, 0, 1, [1, 1])
    with pytest.raises(BadWindow, match="need p\\^\\(N-l\\) = 2\\^1 coset values, got 1"):
        TestFunction(P2, 1, 0, [1])  # wrong length
    # 3^(10^7) takes seconds to build; the count is decided from bit lengths
    start = time.perf_counter()
    with pytest.raises(BadWindow, match="need p\\^\\(N-l\\) = 3\\^10000000 coset values, got 3"):
        TestFunction(P3, 10**7, 0, [1, 2, 3])
    assert time.perf_counter() - start < 1.0


def test_fourier_of_unit_ball_is_self_dual():
    assert_equal_fn(fourier(delta_indicator(P2, 0)), delta_indicator(P2, 0))


def test_fourier_of_scaled_balls():
    # F[Delta_l] = p^l Delta_{-l}
    for p, l in ((2, 1), (3, -2), (5, 1)):
        prime = Prime(p)
        F = fourier(delta_indicator(prime, l))
        want = delta_indicator(prime, -l)
        assert (F.N, F.l) == (want.N, want.l)
        assert np.allclose(F.values, float(Fr(p) ** l) * want.values)


def test_fourier_window_swap():
    for p, N, l in ((2, 2, -1), (3, 1, -2), (5, 1, 0)):
        F = fourier(random_testfn(Prime(p), N, l, seed=9))
        assert (F.N, F.l) == (-l, -N)


def test_fourier_support_outside_window():
    phi = random_testfn(P3, 1, -1, seed=2)
    F = fourier(phi)
    # vanishes for |xi| > p^{-l} = 3
    assert F.at(Fr(1, 9)) == 0
    assert F.at(Fr(2, 27)) == 0


def test_fourier_involution():
    for p, N, l, seed in ((2, 2, -1, 4), (3, 1, -1, 5), (5, 1, 0, 6)):
        prime = Prime(p)
        phi = random_testfn(prime, N, l, seed=seed)
        FF = fourier(fourier(phi))
        assert (FF.N, FF.l) == (phi.N, phi.l)
        for c in enumerate_cosets(prime, N, l):
            assert abs(FF.at(c) - phi.at(-c)) < 1e-12


def test_plancherel():
    for p, N, l, seed in ((2, 2, -2, 7), (3, 1, -1, 8)):
        prime = Prime(p)
        phi = random_testfn(prime, N, l, seed=seed)
        F = fourier(phi)
        lhs = float(np.sum(np.abs(phi.values) ** 2)) * float(Fr(p) ** l)
        rhs = float(np.sum(np.abs(F.values) ** 2)) * float(Fr(p) ** (-N))
        assert abs(lhs - rhs) < 1e-10 * lhs


def test_convolution_examples():
    d0 = delta_indicator(P2, 0)
    assert_equal_fn(convolve(d0, d0), d0)
    phi = random_testfn(P2, 1, 0, seed=10)
    zero = TestFunction(P2, 1, 0, np.zeros(2))
    assert np.allclose(convolve(phi, zero).values, 0)
    with pytest.raises(BadWindow, match="different primes"):
        convolve(d0, delta_indicator(P3, 0))


def test_convolution_theorem():
    rng = random.Random(22)
    a = random_testfn(P3, 1, -1, seed=11)
    b = random_testfn(P3, 1, 0, seed=12)  # level gap 1
    c = random_testfn(P3, 0, -3, seed=16)  # level gap 2 to a, 3 to b
    # both operand orders: convolve must not depend on which is finer
    for phi, psi in ((a, b), (b, a), (a, c), (c, a), (b, c)):
        conv = convolve(phi, psi)
        assert (conv.N, conv.l) == (max(phi.N, psi.N), max(phi.l, psi.l))
        F_conv = fourier(conv)
        F_phi, F_psi = fourier(phi), fourier(psi)
        for _ in range(20):
            xi = Fr(rng.randint(-30, 30), 3 ** rng.randint(0, 2))
            want = F_phi.at(xi) * F_psi.at(xi)
            assert abs(F_conv.at(xi) - want) < 1e-11


def test_convolve_with_wide_ball_smooths():
    # phi * Delta_k for k >= N integrates phi over B_k-cosets
    phi = random_testfn(P2, 0, -1, seed=13)
    smooth = convolve(phi, delta_indicator(P2, 1))
    F = fourier(smooth)
    want = fourier(phi)
    for xi in (0, Fr(1, 2), 1):
        assert abs(F.at(xi) - want.at(xi) * fourier(delta_indicator(P2, 1)).at(xi)) < 1e-12


def test_dilate_examples():
    d0 = delta_indicator(P2, 0)
    assert_equal_fn(dilate(d0, Fr(1, 2)), delta_indicator(P2, 1))  # |t| = 2
    phi = random_testfn(P3, 1, -1, seed=14)
    assert_equal_fn(dilate(phi, 1), phi)
    assert_equal_fn(dilate(dilate(phi, Fr(3, 2)), Fr(2, 3)), phi)
    with pytest.raises(ZeroArgument):
        dilate(phi, 0)


def test_dilate_pointwise():
    phi = random_testfn(P3, 1, -1, seed=15)
    # a pure power of p, then units that are not 1, with |t| = 3, 27, 1
    for t in (Fr(1, 3), Fr(2, 3), Fr(5, 27), Fr(4)):
        d = dilate(phi, t)
        for x in (0, 1, Fr(1, 3), Fr(5, 9), 3, Fr(2, 27), Fr(7, 81)):
            assert abs(d.at(x) - phi.at(x / t)) < 1e-14


def test_fourier_beyond_4096_cosets():
    # 2^13 cosets: a DFT of that length is one np.fft call
    phi = random_testfn(P2, 5, -8, seed=17)
    F = fourier(phi)
    assert (F.N, F.l) == (8, -5)
    reps = enumerate_cosets(P2, phi.N, phi.l)
    bound = 1e-12 * float(Fr(2) ** phi.l) * float(np.sum(np.abs(phi.values)))
    for j in (0, 1, 3, 4095, 8191):
        xi = Fr(j, 2**8)
        direct = sum(
            complex(v) * chi(xi * c, P2).to_complex() for c, v in zip(reps, phi.values)
        ) * float(Fr(2) ** phi.l)
        assert abs(F.at(xi) - direct) <= bound


@pytest.mark.parametrize("p, n", [
    (2, 12), (2, 13), (3, 8), (3, 9), (5, 6), (5, 7), (7, 5), (7, 6), (11, 4), (11, 5),
])
def test_partial_transform_reads_the_full_table(monkeypatch, p, n):
    # A = B at even n, A = p B at odd n; word 0, the last word and repeats
    from padicfourier import testfn

    h, norm = annulus(random_testfn(Prime(p), 1, 1 - n, seed=p * 100 + n))
    size = p**n
    words = np.array([0, size - 1, 1, size // 2, 1, 0, size // p, 7, size - 1])
    want = fourier(h).values[words]
    bound = 2 * n * np.finfo(float).eps * norm

    def unreachable(phi):
        raise AssertionError("a few-word read of a wide table ran the full FFT")

    monkeypatch.setattr(testfn, "fourier", unreachable)
    got = testfn.fourier_at(h, words)
    assert got.shape == words.shape
    assert np.abs(got - want).max() <= bound
    assert got[4] == got[2] and got[5] == got[0] and got[8] == got[1]


def test_partial_transform_only_for_few_words_of_wide_tables(monkeypatch):
    from padicfourier import testfn

    def full(phi):
        raise AssertionError("full")

    wide = random_testfn(P3, 1, -8, seed=18)  # 3^9 words
    h, norm = annulus(wide)
    size = len(wide.values)
    twelve = np.arange(12) * 1640 + 5
    want = fourier(h).values[twelve]
    monkeypatch.setattr(testfn, "fourier", full)
    bound = 2 * 9 * np.finfo(float).eps * norm
    assert np.abs(testfn.fourier_at(h, twelve) - want).max() <= bound
    # as many distinct words as p^n has bits, a 1024-row sweep, and any
    # table under the floor, even read at one word, take the full FFT
    with pytest.raises(AssertionError, match="full"):
        testfn.fourier_at(h, np.arange(size.bit_length()))
    f = PiAlphaLog(1.3, trivial_character(P3), 0)
    with pytest.raises(AssertionError, match="full"):
        verify_stabilization(f, wide, -wide.l - 255, -wide.l, 4, strict=False)
    for p, n in ((3, 7), (2, 11), (5, 5), (11, 3)):
        narrow, _ = annulus(random_testfn(Prime(p), 0, -n, seed=19))
        assert p ** (narrow.N - narrow.l) < testfn.PARTIAL_FLOOR
        with pytest.raises(AssertionError, match="full"):
            testfn.fourier_at(narrow, [1])
    # one digit of 4099 >= 4096 words: B = 1 would make the partial
    # transform a direct DFT of A x K roots, slower than the FFT
    one_digit, _ = annulus(random_testfn(Prime(4099), 0, -1, seed=20))
    with pytest.raises(AssertionError, match="full"):
        testfn.fourier_at(one_digit, [1])


def test_partial_transform_gives_the_same_bits_cold_and_warm(monkeypatch):
    # the roots and h's column index are kept across calls: a warm read
    # hits them and gives the cold read's bits, within the l1 bound of the
    # FFT.  A pi_1 of rank 2 (the cubic character mod 9) gives h more
    # exception columns
    from padicfourier import NormedMultChar, singular_fourier, testfn
    from padicfourier.singular import SingularIntegralRequest

    eps = np.finfo(float).eps
    words = np.array([1, 5, 7, 2, 1, 4000, 0, 81])
    reads = []
    for p, n in ((3, 8), (2, 12)):
        h, norm = annulus(random_testfn(Prime(p), 1, 1 - n, seed=n))
        reads.append((lambda h=h: testfn.fourier_at(h, words), 2 * n * eps * norm))
    cubic = NormedMultChar(
        P3, 2, {1: Fr(0), 2: Fr(2, 3), 4: Fr(1, 3), 5: Fr(1, 3), 7: Fr(2, 3), 8: Fr(0)}
    )
    f = PiAlphaLog(0.7 - 0.4j, cubic, 1)
    phi = random_testfn(P3, 1, -6, seed=9)  # h has 3^(N - l + 1) = 3^8 words
    h = _AnnulusProduct(f, phi, cubic, phi.l)
    assert h.N - h.l == 8
    ts = tuple(Fr(u, 3**M) for M in (7, 5, 3) for u in (1, 2, 4, 7))
    req = SingularIntegralRequest(f, phi, ts)
    bound = 2 * 8 * eps * float(np.abs(h.values).sum())
    reads.append((lambda: np.array(singular_fourier(req)), bound))

    def full(phi):
        raise AssertionError("a few-word read of a wide table ran the full FFT")

    for read, bound in reads:
        monkeypatch.setattr(testfn, "PARTIAL_FLOOR", 10**9)
        want = read()  # the whole FFT
        monkeypatch.undo()
        monkeypatch.setattr(testfn, "fourier", full)
        testfn._kept.cache_clear()
        cold = read()
        assert testfn._kept.cache_info().misses == 2  # roots, and h's index
        warm = read()
        assert testfn._kept.cache_info().hits == 2
        assert warm.tobytes() == cold.tobytes()
        assert np.abs(warm - want).max() <= bound + eps * np.abs(want).max()
        monkeypatch.undo()


def test_kept_set_up_is_read_only_and_bounded():
    from padicfourier import testfn
    from padicfourier.distributions import _column_index

    testfn._kept.cache_clear()
    h, _ = annulus(random_testfn(P3, 1, -7, seed=21))  # 3^8 words
    for w in range(70):
        # each read keeps its words' roots; the first also h's column index
        testfn.fourier_at(h, [w, w + 1])
        info = testfn._kept.cache_info()
        assert info.currsize == min(w + 2, info.maxsize) <= 64
    h, _ = annulus(random_testfn(P3, 1, -8, seed=22))  # h.values: h.columns(4)
    assert h.N - h.l == 9
    hits = testfn._kept.cache_info().hits
    fine, coarse = testfn._kept(testfn._roots, 3, 8, (69, 70))
    v, unit = testfn._kept(_column_index, 3, 9, 1, 4)  # e = 4: 2 x 3^5 entries
    assert testfn._kept.cache_info().hits == hits + 2
    for kept in (fine, coarse, v, unit):
        with pytest.raises(ValueError, match="read-only"):
            kept[0] = 0
    # over 2^14 entries: h's column index at s = 0 (2 x 3^9 entries) and the
    # roots of 17 words of a 2^18-word table ((512 + 512) 17 entries) are
    # built per call and not kept; that table's column index at s = 9
    # (2 x 2^9 entries) is kept once, by h.values, and then hit twice
    testfn._kept.cache_clear()
    h.columns(0)
    wide, norm = annulus(random_testfn(P2, 1, -17, seed=23))
    words = np.arange(17) * 15000 + 3
    got = testfn.fourier_at(wide, words)
    testfn._kept(_column_index, 2, 18, 1, 9)
    assert testfn._kept.cache_info()[:2] == (2, 1)  # hits, misses
    bound = 2 * 18 * np.finfo(float).eps * norm
    assert np.abs(got - fourier(wide).values[words]).max() <= bound


def annulus(phi):
    """The annulus product h of phi split at l, f = |x|^0.3 and trivial
    pi_1: a table of phi's width in the layout fourier_at reads, and
    sum |h|, which carries the cell measure (h's measure is 1)."""
    trivial = trivial_character(phi.prime)
    h = _AnnulusProduct(PiAlphaLog(1.3, trivial, 0), phi, trivial, phi.l)
    return h, float(np.abs(h.values).sum())


def l1_norm(phi):
    """p^l * sum |values|, a bound on every value of F[phi]."""
    return float(Fr(phi.prime.p) ** phi.l) * float(np.sum(np.abs(phi.values)))


@settings(max_examples=100, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5]),
    data=st.data(),
    seed=st.integers(0, 2**16),
)
def test_transform_laws(p, data, seed):
    prime = Prime(p)
    N = data.draw(st.integers(-3, 3))
    l = N - data.draw(st.integers(0, 6))
    gap = data.draw(st.integers(-2, 2))
    psi_N = data.draw(st.integers(l + gap, l + gap + 3))
    phi = random_testfn(prime, N, l, seed=seed)
    psi = random_testfn(prime, psi_N, l + gap, seed=seed + 1)

    # F[phi * psi] = F[phi] F[psi], on the words of F[phi * psi]'s window
    F_conv = fourier(convolve(phi, psi))
    words = np.arange(len(F_conv.values))
    want = fourier(phi).sample(words, F_conv.N) * fourier(psi).sample(words, F_conv.N)
    tol = 1e-12 * l1_norm(phi) * l1_norm(psi)
    assert np.allclose(F_conv.values, want, rtol=0, atol=tol)

    # F[F[phi]](x) = phi(-x)
    FF = fourier(fourier(phi))
    assert (FF.N, FF.l) == (phi.N, phi.l)
    words = np.arange(len(phi.values))
    assert np.allclose(
        FF.values, phi.sample(-words, N), rtol=0, atol=1e-12 * l1_norm(fourier(phi))
    )

    # dilation by t and by 1/t: a word permutation and its inverse
    factor = data.draw(st.sampled_from([1, -1, 2, Fr(1, 2), Fr(-7, 4), Fr(8, 11)]))
    t = factor * Fr(p) ** data.draw(st.integers(-3, 3))
    back = dilate(dilate(phi, t), 1 / t)
    assert (back.N, back.l) == (phi.N, phi.l)
    assert np.array_equal(back.values, phi.values)


def test_random_testfn_reproducible_and_seed_sensitive():
    a = random_testfn(P2, 1, -1, seed=1)
    b = random_testfn(P2, 1, -1, seed=1)
    c = random_testfn(P2, 1, -1, seed=2)
    assert np.array_equal(a.values, b.values)
    assert not np.allclose(a.values, c.values)
    assert np.all(np.abs(a.values) <= 1)
    assert a.at(0) == a.values[0]


def test_random_testfn_window_validation():
    with pytest.raises(BadWindow):
        random_testfn(P2, 0, 1, seed=1)
    start = time.perf_counter()  # the cap is checked before any value is drawn
    with pytest.raises(BadWindow, match="coset enumeration too large: 3\\^10000000 words"):
        random_testfn(P3, 10**7, 0, seed=1)
    assert time.perf_counter() - start < 1.0

