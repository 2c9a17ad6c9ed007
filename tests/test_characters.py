"""Additive and multiplicative characters; Gauss sums and sphere integrals."""

import cmath
import itertools
import random
import time
from fractions import Fraction as Fr

import pytest

from padicfourier import (
    NormedMultChar,
    PiAlphaLog,
    Prime,
    RootOfUnity,
    chi,
    eval_pi1,
    make_character,
    quadratic_character,
    trivial_character,
)
from padicfourier.characters import gauss_sum
from padicfourier.errors import (
    BadTable,
    BadWindow,
    NonPadicDenominator,
    NotMultiplicative,
    RankNotMinimal,
    ZeroArgument,
)

from conftest import brute_sphere_integral, sphere_cosets

P2, P3, P5 = Prime(2), Prime(3), Prime(5)

CUBIC_MOD9 = {1: Fr(0), 2: Fr(2, 3), 4: Fr(1, 3), 5: Fr(1, 3), 7: Fr(2, 3), 8: Fr(0)}


def cubic_mod9():
    return NormedMultChar(P3, 2, CUBIC_MOD9)


def test_root_of_unity_algebra():
    # products of roots of unity are sums of their angles, reduced mod 1
    a, b = Fr(1, 3), Fr(5, 6)
    assert RootOfUnity(a + b).angle == Fr(1, 6)
    assert RootOfUnity(a - a).angle == 0
    assert RootOfUnity(3 * a).angle == 0 and RootOfUnity(-a).angle == Fr(2, 3)
    assert abs(abs(RootOfUnity(a).to_complex()) - 1) < 1e-15
    assert RootOfUnity(1).to_complex() == 1 + 0j


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
        assert chi(x + y, P2).angle == RootOfUnity(chi(x, P2).angle + chi(y, P2).angle).angle
    # constant on cosets of B_0
    assert chi(Fr(3, 8) + 5, P2).angle == chi(Fr(3, 8), P2).angle


def test_make_character_kinds():
    triv = make_character(P3, {"kind": "trivial"})
    assert triv.k0 == 0 and triv.is_trivial()
    quad = make_character(P3, {"kind": "quadratic"})
    assert quad.k0 == 1
    assert quad == NormedMultChar(P3, 1, {1: Fr(0), 2: Fr(1, 2)})
    tab = make_character(
        P2, {"kind": "table", "modulus_exponent": 2, "values": {1: Fr(0), 3: Fr(1, 2)}}
    )
    assert tab.k0 == 2


def test_equal_characters_hash_equal():
    # a character is hashed by its key, so equal ones built apart (and the
    # frozen PiAlphaLog built on them) are one dict key
    a, b = quadratic_character(P3), make_character(P3, {"kind": "quadratic"})
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b, trivial_character(P3), cubic_mod9()}) == 3
    f, g = PiAlphaLog(1.5, a, 2), PiAlphaLog(1.5, b, 2)
    assert f == g and hash(f) == hash(g) and {f: 1}[g] == 1


def test_quadratic_character_needs_an_odd_prime():
    with pytest.raises(BadTable, match="quadratic character requires an odd prime"):
        quadratic_character(P2)


def test_quadratic_mod5_is_legendre():
    squares = {1, 4}
    want = {u: Fr(0) if u in squares else Fr(1, 2) for u in range(1, 5)}
    assert quadratic_character(P5) == NormedMultChar(P5, 1, want)


def test_quadratic_character_counts_its_units_before_listing(monkeypatch):
    # p = 16777259 has p - 1 > 2^24 units: the cap fires before any unit
    # is listed (a listing calls range)
    from padicfourier import characters

    prime = Prime(16777259)

    def listing(*args):
        raise AssertionError("a unit was listed")

    monkeypatch.setattr(characters, "range", listing, raising=False)
    with pytest.raises(BadWindow, match="too large: 16777259\\^1 words"):
        quadratic_character(prime)


def test_table_character_validation_errors():
    with pytest.raises(BadTable):
        NormedMultChar(P3, 1, {1: Fr(0)})  # missing unit 2
    with pytest.raises(NotMultiplicative):
        NormedMultChar(P5, 1, {1: Fr(0), 2: Fr(1, 2), 3: Fr(1, 2), 4: Fr(1, 2)})
    with pytest.raises(RankNotMinimal):
        # trivial on 1 + 3Z: factors through mod 3, so rank 2 is not minimal
        NormedMultChar(
            P3, 2, {1: Fr(0), 2: Fr(1, 2), 4: Fr(0), 5: Fr(1, 2), 7: Fr(0), 8: Fr(1, 2)}
        )
    with pytest.raises(BadTable):
        NormedMultChar(P3, 1, {1: Fr(1, 2), 2: Fr(0)})  # pi_1(1) != 1
    with pytest.raises(RankNotMinimal):
        # trivial on all of (Z/9)^*, so on 1 + 3Z as well
        NormedMultChar(P3, 2, {u: Fr(0) for u in (1, 2, 4, 5, 7, 8)})


@pytest.mark.parametrize(
    "args, error, message",
    [
        ((P3, 1, {1: Fr(0)}), BadTable, "table keys must be exactly the units mod 3^1"),
        ((P3, 1, {1: Fr(1, 2), 2: Fr(0)}), BadTable, "pi_1(1) must equal 1"),
        (
            (P5, 1, {1: Fr(0), 2: Fr(1, 2), 3: Fr(1, 2), 4: Fr(1, 2)}),
            NotMultiplicative,
            "pi_1(2*2) != pi_1(2)*pi_1(2) mod 5",
        ),
        (
            (P5, 1, {1: Fr(0), 2: Fr(1, 4), 3: Fr(3, 4), 4: Fr(1, 3)}),
            NotMultiplicative,
            "pi_1(2*2) != pi_1(2)*pi_1(2) mod 5",
        ),
        (
            (P3, 2, {1: Fr(0), 2: Fr(1, 3), 4: Fr(2, 3), 5: Fr(1, 2), 7: Fr(0), 8: Fr(0)}),
            NotMultiplicative,
            "pi_1(2*5) != pi_1(2)*pi_1(5) mod 9",
        ),
        (
            (P3, 2, {1: Fr(0), 2: Fr(1, 2), 4: Fr(0), 5: Fr(1, 2), 7: Fr(0), 8: Fr(1, 2)}),
            RankNotMinimal,
            "character is trivial on 1 + 3^1 Z: rank < 2",
        ),
        ((P3, -1, {}), BadTable, "negative rank -1"),
        ((P3, 0, {1: Fr(0)}), BadTable, "trivial character must have an empty table"),
    ],
)
def test_table_validation_messages(args, error, message):
    # the checks run on integer angle numerators; the first failing pair
    # and the wording are pinned
    with pytest.raises(error) as exc:
        NormedMultChar(*args)
    assert str(exc.value) == message


def primitive_angles(p, k0, a=1):
    """pi_1(g^j) = e^(2 pi i a j / phi(p^k0)) for a generator g of
    (Z/p^k0)^*, as angles in [0, 1)."""
    mod = p**k0
    order = mod - mod // p
    g = next(
        g for g in range(2, mod)
        if g % p and len({pow(g, j, mod) for j in range(order)}) == order
    )
    return {pow(g, j, mod): Fr(a * j % order, order) for j in range(order)}


def legendre_angles(p):
    squares = {u * u % p for u in range(1, p)}
    return {u: Fr(0 if u in squares else 1, 2) for u in range(1, p)}


#: (prime, k0, angles): trivial, quadratic, cubic mod 9, rank 2 at p = 2
#: and p = 5, rank 3 at p = 3
TABLES = (
    [(P3, 0, {})]
    + [(Prime(p), 1, legendre_angles(p)) for p in (3, 5, 7)]
    + [
        (P3, 2, CUBIC_MOD9),
        (P3, 2, primitive_angles(3, 2)),
        (P2, 2, {1: Fr(0), 3: Fr(1, 2)}),
        (P5, 2, primitive_angles(5, 2, a=3)),
        (P3, 3, primitive_angles(3, 3)),
    ]
)


def bits(z):
    return z.real.hex(), z.imag.hex()


def test_character_table_bits_are_pinned():
    # pi_1(u) is e^(2 pi i q) at the angle q of the table, and pi_1(u^-1)
    # is e^(2 pi i ((-q) mod 1)): the bits the theorem's pi_1^-1(t) twist
    # has always had, which a conjugate of pi_1(u) does not keep
    conjugates_differ = False
    for prime, k0, angles in TABLES:
        chr_ = NormedMultChar(prime, k0, angles)
        mod = prime.p ** max(k0, 1)
        for u in (u for u in range(1, mod) if u % prime.p):
            q = angles.get(u, Fr(0))
            assert bits(eval_pi1(chr_, u)) == bits(cmath.exp(2j * cmath.pi * float(q)))
            inverse = cmath.exp(2j * cmath.pi * float(-q % 1)) if q else 1 + 0j
            assert bits(eval_pi1(chr_, pow(u, -1, mod))) == bits(inverse), (chr_, u)
            conjugates_differ |= bits(inverse) != bits(eval_pi1(chr_, u).conjugate())
    assert conjugates_differ


def test_gauss_sum_keeps_the_root_of_unity_bits():
    for prime, k0, angles in TABLES[1:]:
        chr_ = NormedMultChar(prime, k0, angles)
        mod = prime.p**k0
        for w in range(mod):
            got = gauss_sum(chr_, w)
            want = 0j  # one RootOfUnity per unit, in unit order
            for u in sorted(angles):
                want += RootOfUnity(angles[u] + Fr(u * w % mod, mod)).to_complex()
            assert bits(got) == bits(want), (chr_, w)


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
                    chr_ = NormedMultChar(Prime(p), k0, table)
                    assert chr_.k0 == k0
                    accepted += 1
                else:
                    with pytest.raises((NotMultiplicative, RankNotMinimal)):
                        NormedMultChar(Prime(p), k0, table)
    # exactly the primitive characters: phi(p^k0) - phi(p^(k0-1)) per odd
    # case (1+4, 3+16, 5+36, 12) and 2^(k0-2) per p = 2 case (1+2+4)
    assert accepted == 84


def first_failing_pair(p, k0, angles):
    """The group-law check as a double loop over every pair of units: the
    message for the first pair that breaks it, or None."""
    mod = p**k0
    for u, v in itertools.product(sorted(angles), repeat=2):
        if (angles[u] + angles[v] - angles[u * v % mod]) % 1:
            return f"pi_1({u}*{v}) != pi_1({u})*pi_1({v}) mod {mod}"
    return None


def test_group_law_names_the_double_loops_first_failing_pair():
    # the law is checked on (unit, generator) pairs, and a table that
    # breaks it is named by the first failing pair of the full double loop
    rng = random.Random(86)
    cases = [(p, k0) for p in (3, 5, 7) for k0 in (1, 2, 3)] + [(2, 2), (2, 3)]
    for p, k0 in cases:
        tables = [angles for _, angles in all_character_tables(p, k0)]
        for angles in rng.sample(tables, min(4, len(tables))):
            u = rng.choice([u for u in angles if u != 1])
            # 2 * shift is not an integer either, so even u = u^-1 breaks
            perturbed = {**angles, u: angles[u] + Fr(rng.randint(1, 4), 5)}
            message = first_failing_pair(p, k0, perturbed)
            assert message is not None
            with pytest.raises(NotMultiplicative) as exc:
                NormedMultChar(Prime(p), k0, perturbed)
            assert str(exc.value) == message, (p, k0, u)


def test_group_law_check_scales_to_a_deep_table():
    # 4374 units at p = 3, k0 = 8: about 9 * 10^3 (unit, generator) pairs,
    # where every pair of units would be 1.9 * 10^7
    angles = primitive_angles(3, 8)
    start = time.perf_counter()
    chr_ = NormedMultChar(P3, 8, angles)
    assert chr_.k0 == 8 and time.perf_counter() - start < 1.0


def test_rank_examples():
    assert trivial_character(P3).k0 == 0
    assert quadratic_character(P5).k0 == 1
    assert cubic_mod9().k0 == 2
    # nontrivial on 1 + 3Z as required by minimality
    assert eval_pi1(cubic_mod9(), 4) == RootOfUnity(Fr(1, 3)).to_complex()


def test_eval_pi1_examples():
    quad3 = quadratic_character(P3)
    assert eval_pi1(quad3, 2 * 3**5).real == pytest.approx(-1)
    assert eval_pi1(trivial_character(P2), Fr(7, 8)) == 1 + 0j
    assert eval_pi1(quad3, Fr(1, 3)) == 1 + 0j
    with pytest.raises(ZeroArgument):
        eval_pi1(quad3, 0)


def test_eval_pi1_depends_only_on_unit_part():
    quad3 = quadratic_character(P3)
    for x in (Fr(2), Fr(2, 9), Fr(2 * 81), Fr(10, 3)):
        assert eval_pi1(quad3, x) == eval_pi1(quad3, x / 9)


def test_pi1_locally_constant_within_sphere():
    # constant on {|x - a| <= p^(gamma - k0)} inside each sphere
    chr_ = cubic_mod9()
    a = Fr(2) * Fr(3) ** (-2)  # |a| = 9, gamma = 2
    base = eval_pi1(chr_, a)
    for shift in (Fr(1), Fr(2), Fr(-4)):  # |shift| <= 1 = p^(gamma-k0)
        assert eval_pi1(chr_, a + shift) == base


def test_sphere_orthogonality_of_ramified_characters():
    # Haar-weighted sums of pi_1 over a sphere vanish for every k0 >= 1
    for chr_ in (quadratic_character(P3), quadratic_character(P5), cubic_mod9()):
        p = chr_.prime.p
        for gamma in (-1, 0, 2):
            level = gamma - chr_.k0 - 1
            total = sum(
                eval_pi1(chr_, c) * float(Fr(p) ** level)
                for c in sphere_cosets(chr_.prime, gamma, level)
            )
            assert abs(total) < 1e-12


def test_ball_and_sphere_chi_integrals():
    # the trivial pi_1 integrates chi_p(xt) over S_gamma to the full measure
    # while chi_p == 1 (t = 0 too), to -p^(gamma-1) one norm further and to
    # 0 beyond
    cases = [(2, 0, 1, range(-3, 4)), (3, -1, 2, range(-3, 4)), (5, 1, 2, range(-3, 4))]
    cases += [(3, gamma, 1, range(-2, 4)) for gamma in (-1, 0, 1, 2)]
    for p, gamma, u, norms in cases:
        trivial = trivial_character(Prime(p))
        full = Fr(p) ** gamma - Fr(p) ** (gamma - 1)
        assert abs(complex(full) - brute_sphere_integral(trivial, gamma, 0)) < 1e-12
        for M in norms:
            want = 0
            if M <= -gamma:
                want = full
            elif M == 1 - gamma:
                want = -(Fr(p) ** (gamma - 1))
            brute = brute_sphere_integral(trivial, gamma, Fr(u) * Fr(p) ** -M)
            assert abs(complex(want) - brute) < 1e-12, (p, gamma, M)


def test_sphere_char_chi_integral_matches_brute_force():
    # a ramified pi_1 integrates to a Gauss sum at the resonance
    # gamma + M = k0 and to zero everywhere else, at t = 0 too
    for chr_ in (quadratic_character(P3), cubic_mod9(), quadratic_character(P5)):
        p, k0 = chr_.prime.p, chr_.k0
        for gamma in range(-1, k0 + 2):
            for M in (k0 - gamma - 1, k0 - gamma, k0 - gamma + 1, -gamma):
                for u in (1, p + 1):
                    brute = brute_sphere_integral(chr_, gamma, Fr(u) * Fr(p) ** -M, depth=1)
                    want = 0j
                    if gamma + M == k0:
                        want = gauss_sum(chr_, u % p**k0) * float(Fr(p) ** (gamma - k0))
                    assert abs(want - brute) < 1e-11, (chr_, gamma, M, u)
            assert abs(brute_sphere_integral(chr_, gamma, 0, depth=1)) < 1e-11


def test_gauss_sum_modulus():
    # on the resonant sphere the integral is a primitive Gauss sum:
    # |integral over S_k0 at t = 1| = p^{k0/2}
    for chr_ in (quadratic_character(P3), quadratic_character(P5), cubic_mod9()):
        g = gauss_sum(chr_, 1)
        assert abs(abs(g) - chr_.prime.p ** (chr_.k0 / 2)) < 1e-12
