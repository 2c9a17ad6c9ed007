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
``fourier_at`` reads the transform at a few words only: on a wide table
a two-factor partial transform (one matrix product) stands in for the
whole FFT.  The singular integral is such a transform too: its sphere
part is F[h] of the annulus product h = f phi off B_l in
``distributions`` (J and <f, phi> both split at phi's l), read at the
words of the points at or inside the cutoff, and it vanishes for
|xi|_p > p^{-l} because F[h] lives in D^{-N}_{-l}.  The partial transform
reads h in its columns layout, rows of phi's own table times a factor per
column, with h's sphere factors folded in; the whole FFT reads the table
laid out from the same columns.  Its roots and h's column index are kept
(``_kept``).
"""

from __future__ import annotations

from functools import lru_cache

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
        # p^(N-l) >= 2^(N-l): a count of fewer bits is sized without p^(N-l)
        n = N - l
        if n > vals.shape[0].bit_length() or prime.p**n != vals.shape[0]:
            raise BadWindow(
                f"need p^(N-l) = {prime.p}^{n} coset values, got {vals.shape[0]}"
            )
        self.prime = prime
        self.N = int(N)
        self.l = int(l)
        self.values = vals

    @property
    def measure(self) -> float:
        """p^l, a coset's Haar measure, by which ``fourier`` scales its sums."""
        return qp.p_power(self.prime.p, self.l)

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

    def __repr__(self):
        return (
            f"TestFunction(p={self.prime.p}, N={self.N}, l={self.l}, "
            f"{len(self.values)} cosets)"
        )


def delta_indicator(prime: Prime, k: int) -> TestFunction:
    """Delta_k, the indicator of the ball B_k; an element of D^k_k."""
    return TestFunction(prime, k, k, [1.0])


@np.errstate(over="ignore", invalid="ignore")
def fourier(phi: TestFunction) -> TestFunction:
    """Exact Fourier transform; maps D^l_N onto D^{-N}_{-l}.  Words j, c
    meet in chi_p(xi_j x_c) = e^{2 pi i jc / p^{N-l}}: an unscaled ifft.
    NumericOverflow when a value is not a finite float."""
    vals = phi.measure * np.fft.ifft(phi.values, norm="forward")
    qp.check_finite(vals, "a Fourier transform value")
    return TestFunction(phi.prime, -phi.l, -phi.N, vals)


#: tables narrower than this take the whole FFT even for one word: there the
#: FFT costs about what a cold set-up does; it stays, as moving it moves bits
PARTIAL_FLOOR = 4096


def fourier_at(h, words) -> np.ndarray:
    """fourier(h).values[words], up to rounding, for table words
    0 <= j < p^n (n = N - l).  K distinct words of a table of at least
    PARTIAL_FLOOR words, K below the bit length of p^n, are read off a
    two-factor partial transform: with w = a B + b, B = p^(n//2),
    A = p^n / B, H the values as an A x B matrix and
    R_j[b] = e^(2 pi i j b / p^n),
    F[j] = sum_a e^(2 pi i j a / A) (H @ R_j)[a],
    unscaled, as h's values carry the cell measure (its ``measure`` is 1),
    one product of p^n K multiply-adds, below the FFT's p^n log2(p^n).  It
    takes B K roots of order p^n and A of order A, each from its exact
    integer angle, kept by (p, n, words) when B K + A K <= 2^14; a one-digit
    table (B = 1) takes the FFT.  h is the annulus product of
    ``distributions``, whose ``columns(n//2)`` gives H: rows whose count
    divides A (H's row a is row a mod that count) times a factor per
    column, and the exception columns' entries apart, so that
    H @ R_j = rows @ (factor R_j) + exceptions @ R_j[exception columns].
    Any other read transforms the whole table (``fourier``) and gathers
    from it."""
    words = np.asarray(words, dtype=np.int64)
    p, n = h.prime.p, h.N - h.l
    size = p**n
    if size >= PARTIAL_FLOOR and n >= 2:
        # a Python set sorts a few words faster than np.unique does
        listed = words.ravel().tolist()
        distinct = tuple(sorted(set(listed)))
        if len(distinct) < size.bit_length():
            index = {w: i for i, w in enumerate(distinct)}
            inverse = np.array([index[w] for w in listed], dtype=np.intp).reshape(words.shape)
            A = size // p ** (n // 2)
            rows, scale, cols, extra = h.columns(n // 2)
            fine, coarse = _set_up(_roots, (A + size // A) * len(distinct), p, n, distinct)
            head = rows @ (scale[:, None] * fine)
            if len(head) < A:
                head = np.tile(head, (A // len(head), 1))
            head += extra @ fine[cols]
            vals = np.einsum("ak,ak->k", head, coarse)
            return vals[inverse]
    return fourier(h).values[words]


def _roots(p: int, n: int, words: tuple) -> tuple[np.ndarray, np.ndarray]:
    # fourier_at's B x K fine roots and A x K coarse roots at the K words
    size, A = p**n, p ** (n - n // 2)
    fine = _cis(_outer_mod(size // A, words, size), size)
    return fine, _cis(np.arange(A), A)[_outer_mod(A, words, A)]


def _set_up(build, entries: int, *key) -> tuple[np.ndarray, ...]:
    # build(*key), kept when its arrays hold at most 2^14 entries (64: 16 MiB)
    return _kept(build, *key) if entries <= 2**14 else build(*key)


@lru_cache(maxsize=64)
def _kept(build, *key) -> tuple[np.ndarray, ...]:
    arrays = build(*key)
    for a in arrays:
        a.flags.writeable = False  # every call that hits shares them
    return arrays


def _outer_mod(count: int, words, mod: int) -> np.ndarray:
    """i w mod mod for i < count, one row per i; numpy floor-divides by a
    scalar with a multiply and a shift, where % divides per entry."""
    k = np.multiply.outer(np.arange(count), words)
    k -= k // mod * mod
    return k


def _cis(k: np.ndarray, m: int) -> np.ndarray:
    """e^(2 pi i k / m) for integers 0 <= k < m."""
    return np.exp((2j * np.pi / m) * k)


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
    qp.check_word_count(prime.p, N - l)  # before any value is drawn
    rng = np.random.default_rng(seed)
    n = prime.p ** (N - l)
    radius = np.sqrt(rng.uniform(size=n))
    angle = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return TestFunction(prime, N, l, radius * np.exp(1j * angle))
