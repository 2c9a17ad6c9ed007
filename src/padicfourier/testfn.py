"""The test-function space D^l_N(Q_p).

A TestFunction is locally constant with support in the ball B_N and
declared parameter of constancy l <= N: it is determined by one complex
value per coset of B_l inside B_N (p^{N-l} values, canonical digit order,
zero coset first, so phi(0) is always values[0]).

The Fourier transform F[phi](xi) = integral of chi_p(xi x) phi(x) dx is
computed exactly as a finite character sum: for |xi|_p <= p^{-l},
F[phi](xi) = p^l * sum_c phi(c) chi_p(xi c), and F maps D^l_N onto
D^{-N}_{-l} (support and constancy swap with a sign).  On the canonical
coset words (``TestFunction.sample``) this is a DFT of length p^{N-l},
done by ``np.fft`` at any width; convolution is cyclic on Z/p^{N-l}.
The singular integral is one such transform too: its sphere part is
F[h] of the annulus product h in ``distributions``, and it vanishes for
|xi|_p > p^{-l} because F[h] lives in D^{-N}_{-l}.
"""

from __future__ import annotations

import numpy as np

from . import qp
from .errors import BadWindow, ZeroArgument
from .qp import Prime, Rational


class TestFunction:
    """Element of D^l_N(Q_p) given by values on the canonical cosets.

    l is the declared constancy parameter; the representation is not
    required to be minimal (the true parameter may be larger).
    """

    __test__ = False  # keep pytest from collecting the class by name

    def __init__(self, prime: Prime, N: int, l: int, values):
        if l > N:
            raise BadWindow(f"constancy l = {l} exceeds support N = {N}")
        vals = np.asarray(values, dtype=np.complex128).reshape(-1)
        expected = prime.p ** (N - l)
        if vals.shape[0] != expected:
            raise BadWindow(
                f"need p^(N-l) = {expected} coset values, got {vals.shape[0]}"
            )
        self.prime = prime
        self.N = int(N)
        self.l = int(l)
        self.values = vals

    @property
    def at_zero(self) -> complex:
        return complex(self.values[0])

    def at(self, x: Rational) -> complex:
        """phi(x): 0 outside B_N, else the stored value of x's coset."""
        if x == 0:
            return self.at_zero
        M, u = qp.split(x, self.prime, self.N - self.l)  # x = u p^-M
        return 0j if M > self.N else complex(self.sample(u, M))

    def sample(self, words, level: int) -> np.ndarray:
        """phi at x = w p^{-level} for integer words w; 0 outside B_N."""
        words = np.asarray(words, dtype=np.int64)
        p = self.prime.p
        if level <= self.l:
            return np.full(words.shape, self.values[0])  # all of B_l is one coset
        if level > self.N:  # only multiples of p^(level-N) lie in B_N
            q = p ** (level - self.N)
            vals = np.zeros(words.shape, dtype=np.complex128)
            inside = words % q == 0
            vals[inside] = self.sample(words[inside] // q, self.N)
            return vals
        # only the digits above p^l select a coset
        return self.values[(words % p ** (level - self.l)) * p ** (self.N - level)]

    def window(self) -> tuple[int, int]:
        return (self.N, self.l)

    def __repr__(self):
        return (
            f"TestFunction(p={self.prime.p}, N={self.N}, l={self.l}, "
            f"{len(self.values)} cosets)"
        )


def delta_indicator(prime: Prime, k: int) -> TestFunction:
    """Delta_k, the indicator of the ball B_k; an element of D^k_k."""
    return TestFunction(prime, k, k, [1.0])


def fourier(phi: TestFunction) -> TestFunction:
    """Exact Fourier transform; maps D^l_N onto D^{-N}_{-l}.  Words j, c
    meet in chi_p(xi_j x_c) = e^{2 pi i jc / p^{N-l}}: an unscaled ifft."""
    scale = qp.p_power(phi.prime.p, phi.l)
    vals = scale * np.fft.ifft(phi.values, norm="forward")
    return TestFunction(phi.prime, -phi.l, -phi.N, vals)


def convolve(phi: TestFunction, psi: TestFunction) -> TestFunction:
    """(phi * psi)(x) = integral of phi(y) psi(x - y) dy, exactly; the
    result lies in D^{max(l)}_{max(N)}.  A cyclic convolution of both
    operands sampled on B_N / B_l = Z/p^{N-l} (max N, min l)."""
    if phi.prime != psi.prime:
        raise BadWindow("convolution operands live over different primes")
    p, N, l = phi.prime.p, max(phi.N, psi.N), min(phi.l, psi.l)
    words = qp._coset_words(p, N - l)
    spectrum = np.fft.fft(phi.sample(words, N)) * np.fft.fft(psi.sample(words, N))
    vals = qp.p_power(p, l) * np.fft.ifft(spectrum)
    coarse = max(phi.l, psi.l)
    return TestFunction(phi.prime, N, coarse, vals[: p ** (N - coarse)])


def dilate(phi: TestFunction, t: Rational) -> TestFunction:
    """x |-> phi(x/t); for t = u p^{-a}, u a unit, the result lies in
    D^{l+a}_{N+a} and its word w is phi's word w u^{-1}."""
    if t == 0:
        raise ZeroArgument("cannot dilate by t = 0")
    a, u = qp.split(t, phi.prime, phi.N - phi.l)
    mod = len(phi.values)
    vals = phi.sample(np.arange(mod) * pow(u, -1, mod) % mod, phi.N)
    return TestFunction(phi.prime, phi.N + a, phi.l + a, vals)


def random_testfn(prime: Prime, N: int, l: int, seed: int) -> TestFunction:
    """Reproducible pseudorandom member of D^l_N with values in the unit disc."""
    if l > N:
        raise BadWindow(f"constancy l = {l} exceeds support N = {N}")
    rng = np.random.default_rng(seed)
    n = prime.p ** (N - l)
    radius = np.sqrt(rng.uniform(size=n))
    angle = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return TestFunction(prime, N, l, radius * np.exp(1j * angle))
