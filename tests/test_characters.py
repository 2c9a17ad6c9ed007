"""Additive and multiplicative characters; exact sphere integrals."""

import itertools
import random
from fractions import Fraction as Fr

import pytest

from padicfourier import (
    Prime,
    RootOfUnity,
    chi,
    enumerate_sphere_cosets,
    eval_pi1,
    make_character,
    quadratic_character,
    table_character,
    trivial_character,
)
from padicfourier.characters import (
    ball_chi_integral,
    sphere_char_chi_integral,
    sphere_chi_integral,
)
from padicfourier.errors import (
    BadTable,
    NonPadicDenominator,
    NotMultiplicative,
    RankNotMinimal,
    ZeroArgument,
)

P2, P3, P5 = Prime(2), Prime(3), Prime(5)


def cubic_mod9():
    return table_character(
        P3, 2, {1: Fr(0), 2: Fr(2, 3), 4: Fr(1, 3), 5: Fr(1, 3), 7: Fr(2, 3), 8: Fr(0)}
    )


def test_root_of_unity_algebra():
    a = RootOfUnity(Fr(1, 3))
    b = RootOfUnity(Fr(5, 6))
    assert (a * b).angle == Fr(1, 6)
    assert (a * a.inverse()).angle == 0
    assert abs(abs(a.to_complex()) - 1) < 1e-15
    assert (a**3).angle == 0


def test_chi_examples():
    assert chi(Fr(1, 2), P2).angle == Fr(1, 2)
    assert chi(5, P3).angle == 0
    assert chi(Fr(1, 3), P3).angle == Fr(1, 3)
    with pytest.raises(NonPadicDenominator):
        chi(Fr(1, 2), P3)


def test_chi_is_additive_and_trivial_on_integers():
    rng = random.Random(7)
    for _ in range(100):
        x = Fr(rng.randint(-99, 99), 2 ** rng.randint(0, 5))
        y = Fr(rng.randint(-99, 99), 2 ** rng.randint(0, 5))
        assert chi(x + y, P2).angle == (chi(x, P2) * chi(y, P2)).angle
    # constant on cosets of B_0
    assert chi(Fr(3, 8) + 5, P2).angle == chi(Fr(3, 8), P2).angle


def test_make_character_kinds():
    triv = make_character(P3, {"kind": "trivial"})
    assert triv.k0 == 0 and triv.is_trivial()
    quad = make_character(P3, {"kind": "quadratic"})
    assert quad.k0 == 1
    assert quad.unit_values[1].angle == 0 and quad.unit_values[2].angle == Fr(1, 2)
    tab = make_character(
        P2, {"kind": "table", "modulus_exponent": 2, "values": {1: Fr(0), 3: Fr(1, 2)}}
    )
    assert tab.k0 == 2


def test_quadratic_mod5_is_legendre():
    quad = quadratic_character(P5)
    squares = {1, 4}
    for u in range(1, 5):
        want = Fr(0) if u in squares else Fr(1, 2)
        assert quad.unit_values[u].angle == want


def test_table_character_validation_errors():
    with pytest.raises(BadTable):
        table_character(P3, 1, {1: Fr(0)})  # missing unit 2
    with pytest.raises(NotMultiplicative):
        table_character(P5, 1, {1: Fr(0), 2: Fr(1, 2), 3: Fr(1, 2), 4: Fr(1, 2)})
    with pytest.raises(RankNotMinimal):
        # trivial on 1 + 3Z: factors through mod 3, so rank 2 is not minimal
        table_character(
            P3, 2, {1: Fr(0), 2: Fr(1, 2), 4: Fr(0), 5: Fr(1, 2), 7: Fr(0), 8: Fr(1, 2)}
        )
    with pytest.raises(BadTable):
        table_character(P3, 1, {1: Fr(1, 2), 2: Fr(0)})  # pi_1(1) != 1
    with pytest.raises(RankNotMinimal):
        # trivial on all of (Z/9)^*, so on 1 + 3Z as well
        table_character(P3, 2, {u: Fr(0) for u in (1, 2, 4, 5, 7, 8)})


def balanced_image_size(angles):
    """Number of distinct angles if they form a full cyclic group mu_d hit
    with uniform multiplicity, else 0 (the per-subgroup check the
    constructor made before it relied on the group law alone)."""
    distinct = sorted(set(angles))
    d = len(distinct)
    if distinct != [Fr(k, d) for k in range(d)]:
        return 0
    if len({angles.count(a) for a in distinct}) != 1:
        return 0
    return d


def reference_accepts(p, k0, angles):
    """The former construction check: multiplicative, and on every
    1 + p^j Z with j < k0 the values cover some mu_d, d >= 2, uniformly."""
    mod = p**k0
    for u, v in itertools.product(angles, repeat=2):
        if (angles[u * v % mod] - angles[u] - angles[v]) % 1:
            return False
    for j in range(k0):
        sub = [a % 1 for u, a in angles.items() if (u - 1) % p**j == 0]
        if balanced_image_size(sub) < 2:
            return False
    return True


def all_character_tables(p, k0):
    """Every character of (Z/p^k0)^* as a table of angles, with the
    generator whose angle a perturbation moves: pi_1(g^j) = a j / phi for
    a generator g (p odd), and the group <-1> x <5> for p = 2."""
    mod = p**k0
    if p == 2:
        n = 2 ** (k0 - 2)
        for b, a in itertools.product(range(2), range(n)):
            yield 5 % mod if n > 1 else mod - 1, {
                (-1) ** e * 5**j % mod: Fr(b * e, 2) + Fr(a * j, n)
                for e in range(2)
                for j in range(n)
            }
        return
    order = mod - mod // p
    g = next(
        g for g in range(2, mod)
        if len({pow(g, j, mod) for j in range(order)}) == order
    )
    for a in range(order):
        yield g, {pow(g, j, mod): Fr(a * j, order) for j in range(order)}


def test_group_law_and_rank_accept_what_the_subgroup_check_accepted():
    cases = [(p, k0) for p in (3, 5, 7) for k0 in (1, 2)]
    cases += [(3, 3), (2, 2), (2, 3), (2, 4)]
    accepted = 0
    for p, k0 in cases:
        for g, angles in all_character_tables(p, k0):
            perturbed = {**angles, g: angles[g] + Fr(1, 3)}  # breaks pi_1(g^2)
            for table in (angles, perturbed):
                if reference_accepts(p, k0, table):
                    chr_ = table_character(Prime(p), k0, table)
                    assert chr_.k0 == k0
                    accepted += 1
                else:
                    with pytest.raises((NotMultiplicative, RankNotMinimal)):
                        table_character(Prime(p), k0, table)
    # exactly the primitive characters: phi(p^k0) - phi(p^(k0-1)) per odd
    # case (1+4, 3+16, 5+36, 12) and 2^(k0-2) per p = 2 case (1+2+4)
    assert accepted == 84


def test_rank_examples():
    assert trivial_character(P3).k0 == 0
    assert quadratic_character(P5).k0 == 1
    assert cubic_mod9().k0 == 2
    # nontrivial on 1 + 3Z as required by minimality
    assert cubic_mod9().unit_values[4].angle == Fr(1, 3)


def test_eval_pi1_examples():
    quad3 = quadratic_character(P3)
    assert eval_pi1(quad3, 2 * 3**5).to_complex().real == pytest.approx(-1)
    assert eval_pi1(trivial_character(P2), Fr(7, 8)).angle == 0
    assert eval_pi1(quad3, Fr(1, 3)).angle == 0
    with pytest.raises(ZeroArgument):
        eval_pi1(quad3, 0)


def test_eval_pi1_depends_only_on_unit_part():
    quad3 = quadratic_character(P3)
    for x in (Fr(2), Fr(2, 9), Fr(2 * 81), Fr(10, 3)):
        assert eval_pi1(quad3, x).angle == eval_pi1(quad3, x / 9).angle


def test_pi1_locally_constant_within_sphere():
    # constant on {|x - a| <= p^(gamma - k0)} inside each sphere
    chr_ = cubic_mod9()
    a = Fr(2) * Fr(3) ** (-2)  # |a| = 9, gamma = 2
    base = eval_pi1(chr_, a).angle
    for shift in (Fr(1), Fr(2), Fr(-4)):  # |shift| <= 1 = p^(gamma-k0)
        assert eval_pi1(chr_, a + shift).angle == base


def test_sphere_orthogonality_of_ramified_characters():
    # Haar-weighted sums of pi_1 over a sphere vanish for every k0 >= 1
    for chr_ in (quadratic_character(P3), quadratic_character(P5), cubic_mod9()):
        p = chr_.prime.p
        for gamma in (-1, 0, 2):
            level = gamma - chr_.k0 - 1
            total = sum(
                eval_pi1(chr_, c).to_complex() * float(Fr(p) ** level)
                for c in enumerate_sphere_cosets(chr_.prime, gamma, level)
            )
            assert abs(total) < 1e-12


def brute_sphere_integral(chr_, gamma, t, depth=2):
    """Independent oracle: refine far beyond constancy and sum pointwise."""
    prime = chr_.prime
    level = gamma - max(chr_.k0, 1) - depth
    if t != 0:
        from padicfourier import valuation

        level = min(level, valuation(t, prime) - depth)
    total = 0j
    for c in enumerate_sphere_cosets(prime, gamma, level):
        total += (
            eval_pi1(chr_, c).to_complex()
            * chi(c * t, prime).to_complex()
            * float(Fr(prime.p) ** level)
        )
    return total


def test_ball_and_sphere_chi_integrals():
    for p, lam in ((2, 0), (3, -1), (5, 1)):
        prime = Prime(p)
        for M in range(-3, 4):
            t = Fr(2 if p != 2 else 1) * Fr(p) ** (-M)
            want = Fr(p) ** lam if M <= -lam else Fr(0)
            assert ball_chi_integral(prime, lam, t) == want
    # sphere integral against the pointwise oracle
    for gamma in (-1, 0, 1, 2):
        for M in range(-2, 4):
            t = Fr(1) * Fr(3) ** (-M)
            exact = sphere_chi_integral(P3, gamma, t)
            brute = brute_sphere_integral(trivial_character(P3), gamma, t)
            assert abs(complex(exact) - brute) < 1e-12


def test_sphere_char_chi_integral_matches_brute_force():
    for chr_ in (quadratic_character(P3), cubic_mod9(), quadratic_character(P5)):
        p, k0 = chr_.prime.p, chr_.k0
        for gamma in range(-1, k0 + 2):
            # resonance sits at M = k0 - gamma; probe around it and at chi == 1
            for M in (k0 - gamma - 1, k0 - gamma, k0 - gamma + 1, -gamma):
                for u in (1, p + 1):
                    t = Fr(u) * Fr(p) ** (-M)
                    exact = sphere_char_chi_integral(chr_, gamma, t)
                    brute = brute_sphere_integral(chr_, gamma, t, depth=1)
                    assert abs(exact - brute) < 1e-11, (chr_, gamma, M, u)
                    if gamma + M != k0:
                        assert exact == 0  # exact zero off resonance


def test_gauss_sum_modulus():
    # on the resonant sphere the integral is a primitive Gauss sum:
    # |integral over S_k0 at t = 1| = p^{k0/2}
    for chr_ in (quadratic_character(P3), quadratic_character(P5), cubic_mod9()):
        g = sphere_char_chi_integral(chr_, chr_.k0, 1)
        assert abs(abs(g) - chr_.prime.p ** (chr_.k0 / 2)) < 1e-12
