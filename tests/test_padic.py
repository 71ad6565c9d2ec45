import math
import random
import time
from fractions import Fraction

import pytest

from ethroot import gfpoly, padic
from ethroot.counters import record
from ethroot.crtroot import eth_root_double_crt
from ethroot.errors import (
    DenominatorClash,
    NotAnEthPower,
    NotApplicable,
    RootSeedMissing,
    SeedInvalid,
    VerificationFailed,
)
from ethroot.fq import factor_mod_p
from ethroot.numfield import FactoredElement, NumberField, PrimeIdealRep
from ethroot.padic import (
    GAMMA,
    PadicContext,
    _round_div,
    _symmetric,
    babai_nearest_plane,
    build_ideal_lattice,
    eth_root_padic,
    eth_root_padic_reconstruct,
    find_inert_prime,
    gram_schmidt,
    hensel_factor_lift,
    hensel_lift,
    is_inert,
    lll_reduce,
    precision_estimate,
)
from ethroot.primes import is_prime, multiplicative_order
from ethroot.strategy import RootRequest, eth_root, pick_reconstruct_ideal
from helpers import hnf


def factored(K, pairs):
    return FactoredElement(K, pairs)


# -- inert precision and prime selection ------------------------------------


def test_inert_precision_small():
    # the inert ideal of Q(i) at 7: f_deg = n = 2
    a = precision_estimate(2, 2, 7, 10)
    assert a == 2 and 7 ** a == 49 > 2 * 10


def test_inert_precision_minimal_power_of_two():
    B = 3 ** 40
    for n in (1, 2, 3):
        a = precision_estimate(n, n, 3, B)
        assert a & (a - 1) == 0
        assert 3 ** a > 2 * B
        assert 3 ** (a // 2) <= 2 * B


def test_inert_route_rejects_p_dividing_e():
    K = NumberField.cyclotomic(4)
    assert is_inert(K, 3)
    with pytest.raises(ValueError, match="p divides e"):
        eth_root_padic(factored(K, [(K.gen, 1)]), 9, K, 3)


def test_is_inert_examples():
    Ki = NumberField.cyclotomic(4)
    assert is_inert(Ki, 7)  # x^2 + 1 irreducible mod 7
    assert not is_inert(Ki, 5)  # splits
    assert not is_inert(Ki, 2)  # ramified
    K9 = NumberField.cyclotomic(9)
    assert is_inert(K9, 2)  # 2 has order 6 = phi(9) mod 9
    Kg = NumberField([2, 0, 1])  # x^2 + 2
    assert is_inert(Kg, 5)
    assert not is_inert(Kg, 11)


@pytest.mark.parametrize("f", [[-1, -1, 0, 1], [-8, -2, -1, 1], [1, 0, -10, 0, 1],
                               [-1, -1, 0, 0, 0, 0, 1]],
                         ids=["x^3-x-1", "dedekind", "x^4-10x^2+1", "x^6-x-1"])
def test_is_inert_matches_factoring_on_generic_fields(f):
    # inert iff f mod p is irreducible, ramified p and index divisors included
    K = NumberField(f)
    for p in [p for p in range(2, 400) if is_prime(p)] + [2 ** 61 - 1]:
        fp = gfpoly.from_int_poly(f, p)
        assert is_inert(K, p) == (gfpoly.factor(fp, p) == [(fp, 1)]), p
    assert not is_inert(K, 1) and not is_inert(K, 91)


def test_find_inert_prime_cyclotomic():
    Ki = NumberField.cyclotomic(4)
    p = find_inert_prime(Ki, 3, seed=1)
    assert p is not None and p % 4 == 3 and p.bit_length() == 16
    K9 = NumberField.cyclotomic(9)
    p9 = find_inert_prime(K9, 3, seed=1)
    assert p9 is not None and multiplicative_order(p9 % 9, 9) == 6


def test_find_inert_prime_none_for_noncyclic(monkeypatch):
    assert find_inert_prime(NumberField.cyclotomic(8), 3) is None
    assert find_inert_prime(NumberField.cyclotomic(15), 7) is None
    # same field without the conductor tag: budget has to discover it
    Kg = NumberField([1, 0, 0, 0, 1])
    monkeypatch.setattr(padic, "INERT_BUDGET", 50)
    assert find_inert_prime(Kg, 3) is None


def test_find_inert_prime_avoid_and_determinism():
    Ki = NumberField.cyclotomic(4)
    p1 = find_inert_prime(Ki, 3, seed=9)
    assert p1 == find_inert_prime(Ki, 3, seed=9)
    p2 = find_inert_prime(Ki, 3, seed=9, avoid=(p1,))
    assert p2 is not None and p2 != p1


def test_find_inert_prime_stops_when_the_budget_exceeds_the_primes(monkeypatch):
    # Q(sqrt 2 + sqrt 3) has Galois group C2 x C2, so no prime is inert; a
    # budget above the 3,030 primes of 16 bits must still end the search
    K = NumberField([1, 0, -10, 0, 1])
    monkeypatch.setattr(padic, "INERT_BUDGET", 5000)
    assert find_inert_prime(K, 3) is None
    monkeypatch.undo()
    y = factored(K, [(K.element([1, 1, 0, 0]), 3)])
    with pytest.raises(NotApplicable):
        eth_root(RootRequest(K, 3, y, method="padic"))


# -- Hensel lifting -----------------------------------------------------------


def test_hensel_lift_fixed_point():
    ctx = PadicContext(7, 3, (1, 0, 1))  # 7^8 > 2 * 10^6
    assert hensel_lift([1], [1], 3, ctx) == [1]


def test_hensel_lift_builds_one_ring_per_step(monkeypatch):
    # the context builds one packed ring per precision, the residue field
    # included, and every lift on it shares them: a step's update and its
    # convergence check run in one ring
    builds = []

    class Counted(gfpoly._Packed):
        __slots__ = ()

        def __init__(self, mod, p):
            builds.append(p)
            super().__init__(mod, p)

    monkeypatch.setattr(gfpoly, "_Packed", Counted)
    ctx = PadicContext(7, 3, (1, 0, 1))
    field, M = ctx.rings[0], 7 ** 8
    with record() as counts:
        lifts = []
        for x0 in ([2, 1], [3, 5]):
            a_poly = field.inverse(field.power(x0, 3))
            lifts.append((x0, a_poly, hensel_lift(a_poly, x0, 3, ctx)))
    assert builds == [7, 7 ** 2, 7 ** 4, 7 ** 8]
    assert counts["padic"] == {"lift_steps": 6, "lift_checks": 6}
    ring = gfpoly._Packed([1, 0, 1], M)
    for x0, a_poly, x in lifts:
        assert ring.mul(a_poly, ring.power(x, 3)) == [1]
        assert gfpoly.from_int_poly(x, 7) == x0


def test_hensel_lift_seed_invalid():
    ctx = PadicContext(7, 2, (1, 0, 1))
    with pytest.raises(SeedInvalid):
        hensel_lift([3], [1], 3, ctx)


def test_hensel_lift_convergence_checked_every_step():
    # y = -2 + 2i, e = 3: the root lifts to 7^a, a = 2^kappa with kappa >= 1
    K = NumberField.cyclotomic(4)
    with record() as counts:
        x = eth_root_padic(factored(K, [(K.element([-2, 2]), 1)]), 3, K, 7)
    assert x == K.element([1, 1])  # (1+i)^3 = -2+2i
    assert counts["padic"]["lift_checks"] >= counts["padic"]["lift_steps"] > 0


def test_eth_root_padic_trivial_and_errors():
    K = NumberField.cyclotomic(4)
    assert eth_root_padic(factored(K, []), 3, K, 7) == K.one
    with pytest.raises(ValueError):
        eth_root_padic(factored(K, [(K.gen, 1)]), 3, K, 5)  # 5 splits
    with pytest.raises(ValueError):
        eth_root_padic(factored(K, [(K.gen, -1)]), 3, K, 7)


def test_eth_root_padic_round_trip_unique_root():
    rng = random.Random(11)
    for m in (4, 5):
        K = NumberField.cyclotomic(m)
        p = find_inert_prime(K, 3, seed=3)
        for _ in range(3):
            x = K.random_element(rng, bits=40)
            if x == K.zero:
                continue
            root = eth_root_padic(factored(K, [(x, 3)]), 3, K, p, seed=5)
            assert root == x  # zeta_3 not in K: the root is unique


def test_eth_root_padic_round_trip_unity_ambiguity():
    # zeta_3 lies in Q(zeta_9): the returned root may be twisted by it
    K = NumberField.cyclotomic(9)
    p = find_inert_prime(K, 3, seed=4)
    rng = random.Random(13)
    x = K.random_element(rng, bits=30)
    y = factored(K, [(x, 3)])
    root = eth_root_padic(y, 3, K, p, seed=6)
    assert root ** 3 == y.value()
    ratio = root / x
    assert ratio ** 3 == K.one


def _planted(K, e, seed):
    rng = random.Random(f"twist-pin:{K.conductor}:{e}:{seed}")
    x = K.element([rng.randrange(-50, 50) for _ in range(K.n)])
    return factored(K, [(x ** e, 1)])


# On fields holding mu_3 the residue field has several e-th roots, and the
# draws of fq._nonresidue (the seed root) and padic._element_of_order (the
# twists) decide which global root comes back. The values are pinned.
TWIST_PINS = {
    (9, "padic"): [(0, -31, -3, -6, 10, -28), (25, -18, 6, 48, -39, -35),
                   (-64, -6, 62, -15, -32, 27), (9, 13, 26, 31, 46, 60)],
    (9, "reconstruct"): [(6, -10, 28, 6, -41, 25), (25, -18, 6, 48, -39, -35),
                         (49, -26, -35, 64, 6, -62), (9, 13, 26, 31, 46, 60)],
    (12, "reconstruct"): [(0, -24, 7, 29), (27, 22, 40, -19), (10, 5, -48, 13),
                          (41, 26, -37, 15)],
}


@pytest.mark.parametrize("m,method", sorted(TWIST_PINS))
def test_twist_order_pins_the_returned_root(m, method):
    K = NumberField.cyclotomic(m)
    got = [eth_root(RootRequest(K, 3, _planted(K, 3, s), method=method,
                                seed=s)).root.num for s in range(4)]
    assert got == TWIST_PINS[m, method]


@pytest.mark.parametrize("q,pins", [
    # (root, failed twists) at seeds 0-3; 9 | q^d - 1 but Q(zeta_12) holds
    # only mu_3, so six of the nine local roots are no global root
    (37, [((-40, 8, -17, -42), 0), ((9, -37, 28, 35), 1),
          ((25, 33, -33, -82), 0), ((-20, -28, 10, 44), 1)]),
    (17, [((-40, 8, -17, -42), 2), ((-37, 2, 9, -37), 0),
          ((8, 49, 25, 33), 0), ((-20, -28, 10, 44), 0)]),
])
def test_twist_order_pins_ninth_roots_on_zeta12(q, pins):
    K = NumberField.cyclotomic(12)
    pil = K.prime_ideals(q)[0]
    got = []
    for s in range(4):
        with record() as counts:
            x = eth_root_padic_reconstruct(_planted(K, 9, s), 9, K, pil, seed=s)
        got.append((x.num, counts["padic"].get("twists", 0)))
    assert got == pins


def test_eth_root_padic_multi_term_rational():
    K = NumberField.cyclotomic(5)
    rng = random.Random(17)
    x = K.random_element(rng, bits=30)
    u = x * K.element([3], 7)
    v = (x * x) * K.element([7], 3)
    y = factored(K, [(u, 1), (v, 1)])  # u v = x^3
    p = find_inert_prime(K, 3, seed=2, avoid=(21,))
    assert eth_root_padic(y, 3, K, p, seed=1) == x


def test_eth_root_padic_denominator_clash():
    K = NumberField.cyclotomic(4)
    y = factored(K, [(K.element([1, 2], 7), 3)])
    with pytest.raises(DenominatorClash):
        eth_root_padic(y, 3, K, 7)


def test_eth_root_padic_local_obstruction():
    # 2 is not a cube in F_49, so the seed root does not exist
    K = NumberField.cyclotomic(4)
    with pytest.raises(RootSeedMissing):
        eth_root_padic(factored(K, [(K.element([2]), 1)]), 3, K, 7)
    # and a non-unit above p is caught up front
    with pytest.raises(RootSeedMissing):
        eth_root_padic(factored(K, [(K.element([7]), 1)]), 3, K, 7)


def test_eth_root_padic_global_non_power():
    # (1+i)^3 (1+7i) is a cube residue mod 7 but not a cube in Q(i)
    K = NumberField.cyclotomic(4)
    u = (K.element([1, 1]) ** 3) * K.element([1, 7])
    with record() as counts, pytest.raises(VerificationFailed):
        eth_root_padic(factored(K, [(u, 1)]), 3, K, 7)
    # p^a > 2B already holds on the inert route, so no precision is retried
    assert counts["padic"].get("doublings", 0) == 0


def test_convergence_check_raises_verification_failed():
    # a * x^e - 1 = 2 * 1 - 1 != 0 in Z[x]/(25, x^2 + 1)
    with pytest.raises(VerificationFailed, match="at modulus 25"):
        padic._check_converged([1], 25)


def test_failed_convergence_check_falls_through_in_auto(monkeypatch):
    # a broken Newton check is a backend failure, not a crash of the dispatcher
    check = padic._check_converged

    def skewed(t, M):
        check(gfpoly.add(t, [1], M), M)

    monkeypatch.setattr(padic, "_check_converged", skewed)
    K = NumberField.cyclotomic(9)
    x = K.random_element(random.Random(9), bits=40)  # past one 16-bit prime
    with pytest.raises(NotAnEthPower, match="padic: VerificationFailed: Newton"):
        eth_root(RootRequest(K, 3, factored(K, [(x ** 3, 1)])))


def test_eth_root_padic_agrees_with_double_crt():
    K = NumberField.cyclotomic(5)
    rng = random.Random(23)
    x = K.random_element(rng, bits=35)
    y = factored(K, [(x, 3)])
    p = find_inert_prime(K, 3, seed=8)
    assert eth_root_padic(y, 3, K, p, seed=1) == eth_root_double_crt(y, 3, K, seed=1)


# -- precision estimate -------------------------------------------------------


def test_precision_estimate_substitution():
    n, f_deg, p, B = 8, 2, 13, 1 << 50
    a = precision_estimate(n, f_deg, p, B)
    rhs = (n / (f_deg * math.log(p))) * (
        math.log(2 * B) + (n * (n - 1) / 4 - 1) * math.log(GAMMA)
    )
    assert a & (a - 1) == 0  # power of two
    assert a > rhs
    assert a == 1 or a // 2 <= rhs


def test_precision_estimate_monotone():
    a1 = precision_estimate(8, 2, 13, 1 << 50)
    a2 = precision_estimate(8, 2, 13, 1 << 200)
    assert a2 >= a1
    # inert case: the whole field is one completion, so less precision works
    assert precision_estimate(4, 4, 13, 1 << 50) <= precision_estimate(4, 1, 13, 1 << 50)


def test_inert_precision_exceeds_twice_the_bound():
    # symmetric lifts mod p^a are unique only when p^a > 2B; the lattice
    # term of the estimate is negative for n <= 2 and must not undercut that
    assert 7 ** precision_estimate(2, 2, 7, 1201) > 2 * 1201
    for n, p in ((1, 3), (2, 7), (2, 65519), (4, 5), (6, 2), (6, 65497)):
        for k in (1, 2, 3, 5, 8, 13):
            edge = p ** k // 2
            for B in (edge - 1, edge, edge + 1, edge + 2):
                if B >= 1:
                    assert p ** precision_estimate(n, n, p, B) > 2 * B


def test_precision_estimate_rejects_tiny_bound():
    with pytest.raises(ValueError):
        precision_estimate(4, 2, 13, 0)


# -- factor lifting and the ideal lattice ------------------------------------


def _quartic_factor_mod_13():
    K = NumberField.cyclotomic(8)
    fac = factor_mod_p(list(K.f), 13, seed=1)
    assert sorted(len(g) - 1 for g, _ in fac) == [2, 2]
    return K, fac[0][0]


def test_hensel_factor_lift_invariants():
    K, g = _quartic_factor_mod_13()
    ga = hensel_factor_lift(g, list(K.f), 13, 8)
    assert ga[-1] == 1 and len(ga) == len(g)
    assert gfpoly.from_int_poly(ga, 13) == gfpoly.trim(list(g))
    M = 13 ** 8
    assert gfpoly.rem([c % M for c in K.f], ga, M) == []
    assert hensel_factor_lift(g, list(K.f), 13, 1) == gfpoly.trim(list(g))


def test_hensel_factor_lift_rejects_non_factor():
    K = NumberField.cyclotomic(8)
    with pytest.raises(ValueError):
        hensel_factor_lift([1, 0, 1], list(K.f), 13, 4)  # x^2+1 does not divide


def test_ideal_lattice_membership_and_det():
    K, g = _quartic_factor_mod_13()
    pil = PrimeIdealRep(13, tuple(g), 2)
    a = 4
    ga = hensel_factor_lift(g, list(K.f), 13, a)
    basis = build_ideal_lattice(pil, a, K, ga)
    M = 13 ** a
    det = 1
    for i, row in enumerate(basis):
        det *= row[i]
        assert all(c == 0 for c in row[i + 1:])  # lower triangular
        assert gfpoly.rem(gfpoly.trim([c % M for c in row]), ga, M) == []
    assert det == 13 ** (a * pil.f_deg)
    # p^a e_i for i < f, then x^j g_a: diagonal f times p^a, then ones
    assert [basis[i][i] for i in range(K.n)] == [M, M, 1, 1]


@pytest.mark.parametrize("m, q, a", [(8, 13, 3), (16, 17, 2), (32, 31, 2)])
def test_ideal_lattice_spans_the_ideal_generators(m, q, a):
    # same Hermite form as p^a I plus the rows of g_a(alpha) alpha^j, the
    # generating set of (p^a, g_a(alpha)) taken through K's arithmetic
    K = NumberField.cyclotomic(m)
    pa = q ** a
    for pil in K.prime_ideals(q)[:2]:
        ga = hensel_factor_lift(list(pil.g), list(K.f), q, a)
        gens = [[pa if i == j else 0 for i in range(K.n)] for j in range(K.n)]
        gel = K.element(ga)
        gens += [list((gel * K.gen ** j).num) for j in range(K.n - pil.f_deg)]
        assert hnf(build_ideal_lattice(pil, a, K, ga), K.n) == hnf(gens, K.n)


def test_ideal_lattice_inert_degenerates_to_scalar():
    K = NumberField.cyclotomic(4)
    pil = PrimeIdealRep(7, tuple(int(c) for c in K.f), 2)
    assert build_ideal_lattice(pil, 3, K, list(K.f)) == [[343, 0], [0, 343]]


def test_inert_lattice_rounding_is_nearest_plane():
    # pil^a = p^a Z^n for the inert ideal: symmetric rounding mod p^a is
    # exactly the nearest-plane residual in the LLL-reduced ideal lattice
    rng = random.Random(53)
    for m in (3, 4, 7, 9):
        K = NumberField.cyclotomic(m)
        p = find_inert_prime(K, 5, seed=m)
        pil = PrimeIdealRep(p, tuple(gfpoly.from_int_poly(list(K.f), p)), K.n)
        for a in (1, 2):
            M = p ** a
            red = lll_reduce(build_ideal_lattice(pil, a, K, list(K.f)))
            for _ in range(4):
                target = [rng.randrange(-M * M, M * M) for _ in range(K.n)]
                w = babai_nearest_plane(red, target)
                assert [t - wi for t, wi in zip(target, w)] == [
                    _symmetric(t, M) for t in target]


# -- LLL and Babai ------------------------------------------------------------


def _gso(rows):
    n = len(rows)
    bs, norms, mus = [], [], []
    for i in range(n):
        v = [Fraction(c) for c in rows[i]]
        mrow = []
        for j in range(i):
            mu = sum(Fraction(a) * c for a, c in zip(rows[i], bs[j])) / norms[j]
            mrow.append(mu)
            v = [x - mu * y for x, y in zip(v, bs[j])]
        bs.append(v)
        norms.append(sum(x * x for x in v))
        mus.append(mrow)
    return bs, norms, mus


def _babai_fractions(rows, target):
    # reference: nearest plane over a Fraction Gram-Schmidt of the rows
    bs, norms, _ = _gso(rows)
    res = [Fraction(c) for c in target]
    for i in range(len(rows) - 1, -1, -1):
        c = round(sum(a * b for a, b in zip(res, bs[i])) / norms[i])
        res = [x - c * y for x, y in zip(res, rows[i])]
    return [int(t - r) for t, r in zip(target, res)]


def test_round_div_is_round_half_to_even():
    for b in (1, 2, 3, 4, 7, 10):
        for a in range(-25, 26):
            assert _round_div(a, b) == round(Fraction(a, b))


def test_lll_hands_over_its_gram_schmidt():
    rng = random.Random(61)
    for n in (2, 3, 5, 8):
        for _ in range(4):
            rows = [[rng.randrange(-40, 41) for _ in range(n)] for _ in range(n)]
            for i in range(n):
                rows[i][i] += 300
            gs = lll_reduce(rows)
            assert gs == gram_schmidt(gs.basis)
            bs, norms, mus = _gso(gs.basis)
            for i in range(n):
                assert Fraction(gs.d[i + 1], gs.d[i]) == norms[i]
                for j in range(i):
                    assert Fraction(gs.lam[i][j], gs.d[j + 1]) == mus[i][j]


@pytest.mark.parametrize("m, q", [(8, 13), (8, 17), (16, 7), (16, 17)])
def test_integral_walk_matches_fraction_walk_on_ideal_lattices(m, q):
    K = NumberField.cyclotomic(m)
    rng = random.Random(m * 100 + q)
    for pil in K.prime_ideals(q)[:2]:
        for a in (1, 2, 4):
            ga = hensel_factor_lift(list(pil.g), list(K.f), q, a)
            gs = lll_reduce(build_ideal_lattice(pil, a, K, ga))
            M = q ** a
            for _ in range(5):
                target = [rng.randrange(-M * M, M * M) for _ in range(K.n)]
                assert babai_nearest_plane(gs, target) == _babai_fractions(gs.basis, target)


def test_integral_walk_matches_fraction_walk_on_raw_basis():
    rng = random.Random(67)
    for n in (2, 4, 6):
        rows = [[rng.randrange(-1000, 1001) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            rows[i][i] += 5000
        gs = gram_schmidt(rows)
        for _ in range(10):
            target = [rng.randrange(-10 ** 6, 10 ** 6) for _ in range(n)]
            assert babai_nearest_plane(gs, target) == _babai_fractions(rows, target)


def test_integral_walk_rounds_ties_to_even():
    rows = [[2, 0], [0, 2]]
    # mu = 3/2 rounds to 2 and mu = 1/2 to 0, as round(Fraction) does
    assert _babai_fractions(rows, [1, 3]) == [0, 4]
    assert babai_nearest_plane(gram_schmidt(rows), [1, 3]) == [0, 4]
    rows = [[2, 0], [1, 2]]
    for target in ([1, 3], [3, 1], [-1, -3], [5, 2], [0, 1]):
        assert babai_nearest_plane(gram_schmidt(rows), target) == \
            _babai_fractions(rows, target)


def test_gram_schmidt_rejects_dependent_rows():
    with pytest.raises(ValueError):
        gram_schmidt([[1, 2], [2, 4]])


def test_lll_identity_fixed():
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert lll_reduce(eye).basis == eye


def test_lll_skew_basis():
    red = lll_reduce([[1, 0], [1000, 1]]).basis
    assert max(abs(c) for row in red for c in row) <= 1
    assert hnf(red, 2) == [[1, 0], [0, 1]]  # same lattice


def test_lll_conditions_and_lattice_equality():
    rng = random.Random(31)
    for _ in range(5):
        rows = [[rng.randrange(-50, 51) for _ in range(4)] for _ in range(4)]
        for i in range(4):
            rows[i][i] += 500  # keep it nonsingular
        red = lll_reduce(rows).basis
        assert hnf(red, 4) == hnf(rows, 4)
        bs, norms, mus = _gso(red)
        for i in range(4):
            for j in range(i):
                assert abs(mus[i][j]) <= Fraction(1, 2)
        for k in range(1, 4):
            assert norms[k] >= (Fraction(99, 100) - mus[k][k - 1] ** 2) * norms[k - 1]


def test_babai_scalar_lattice():
    basis = [[5, 0], [0, 5]]
    assert babai_nearest_plane(gram_schmidt(basis), [7, -8]) == [5, -10]


def test_babai_membership_and_quality():
    gs = lll_reduce([[13, 4], [7, 11]])
    basis = gs.basis
    target = [29, -23]
    w = babai_nearest_plane(gs, target)
    assert hnf(basis + [w], 2) == hnf(basis, 2)  # w is in the lattice
    best = min(
        sum((t - (i * basis[0][k] + j * basis[1][k])) ** 2 for k, t in enumerate(target))
        for i in range(-40, 41)
        for j in range(-40, 41)
    )
    got = sum((t - c) ** 2 for t, c in zip(target, w))
    assert got <= 2 * best  # nearest-plane is within the usual approximation slack


# -- reconstruction -----------------------------------------------------------


def test_reconstruct_round_trip_zeta8():
    K, g = _quartic_factor_mod_13()
    pil = PrimeIdealRep(13, tuple(g), 2)
    rng = random.Random(41)
    for _ in range(3):
        x = K.random_element(rng, bits=30)
        if x == K.zero:
            continue
        y = factored(K, [(x, 3)])
        assert eth_root_padic_reconstruct(y, 3, K, pil, seed=7) == x


def test_reconstruct_trivial():
    K = NumberField.cyclotomic(8)
    pil = PrimeIdealRep(13, tuple(factor_mod_p(list(K.f), 13, seed=1)[0][0]), 2)
    assert eth_root_padic_reconstruct(factored(K, []), 3, K, pil) == K.one


def test_reconstruct_inert_pil_matches_padic():
    K = NumberField.cyclotomic(4)
    pil = PrimeIdealRep(7, tuple(int(c) for c in K.f), 2)
    rng = random.Random(43)
    x = K.random_element(rng, bits=25)
    y = factored(K, [(x, 3)])
    assert eth_root_padic_reconstruct(y, 3, K, pil, seed=3) == eth_root_padic(
        y, 3, K, 7, seed=3
    )


def test_reconstruct_local_obstruction():
    K, g = _quartic_factor_mod_13()
    pil = PrimeIdealRep(13, tuple(g), 2)
    with pytest.raises(RootSeedMissing):
        eth_root_padic_reconstruct(factored(K, [(K.element([2]), 1)]), 3, K, pil)


def test_reconstruct_global_non_power_certified_without_doubling():
    K, g = _quartic_factor_mod_13()
    pil = PrimeIdealRep(13, tuple(g), 2)
    with record() as counts, pytest.raises(VerificationFailed, match=r"^certified: .* 13\^4,"):
        eth_root_padic_reconstruct(factored(K, [(K.element([14]), 1)]), 3, K, pil)
    # Babai's box test holds at the first precision: nothing to double
    assert counts["padic"].get("doublings", 0) == 0


def test_reconstruct_doubles_until_the_box_test_holds(monkeypatch):
    # at p^1 the ideal lattice is too small for nearest plane to be exact, so
    # a non-power doubles, and is certified once the box test holds
    K, g = _quartic_factor_mod_13()
    pil = PrimeIdealRep(13, tuple(g), 2)
    monkeypatch.setattr(padic, "precision_estimate", lambda *args: 1)
    with record() as counts, pytest.raises(VerificationFailed, match="^certified: "):
        eth_root_padic_reconstruct(factored(K, [(K.element([14]), 1)]), 3, K, pil)
    assert counts["padic"]["doublings"] > 0
    # a planted cube at the same start still comes back
    x = K.element([5, -3, 2, 7])
    assert eth_root_padic_reconstruct(factored(K, [(x ** 3, 1)]), 3, K, pil) == x


def test_reconstruct_cut_twists_are_not_certified(monkeypatch):
    # Q(zeta_9) holds the cube roots of 1, so the residue field gives three
    # local roots; with no twist budget only the first is tried, and the
    # failure must not claim that y is no cube
    K = NumberField.cyclotomic(9)
    pil = pick_reconstruct_ideal(K, 3)
    assert (pil.p ** pil.f_deg - 1) % 3 == 0
    monkeypatch.setattr(padic, "TWIST_BUDGET", 0)
    y = factored(K, [(K.element([2]), 1), (K.element([3, 1, 4, 1, 5, 9]), 3)])
    with pytest.raises(VerificationFailed) as info:
        eth_root_padic_reconstruct(y, 3, K, pil)
    assert "certified" not in str(info.value)
    monkeypatch.undo()
    with pytest.raises(VerificationFailed, match="^certified: "):
        eth_root_padic_reconstruct(y, 3, K, pil)


def test_reconstruct_non_power_on_zeta35_stops_under_auto():
    # padic declines (no inert prime), couveignes and the n = 24 lattice
    # backend both fail; every failure is final at its first precision
    K = NumberField.cyclotomic(35)
    rng = random.Random(35)
    x = K.element([rng.randrange(-(1 << 10), 1 << 10) for _ in range(K.n)])
    y = factored(K, [(x, 5), (K.element([1, 8]), 1)])
    t0 = time.perf_counter()
    # the outer record sees the counts of the eth_root call that raises
    with record() as counts, pytest.raises(
            NotAnEthPower, match="reconstruct: VerificationFailed: certified: "):
        eth_root(RootRequest(K, 5, y))
    assert time.perf_counter() - t0 < 60
    assert counts["padic"]["twists"] > 0
    assert counts["padic"].get("doublings", 0) == 0


def test_reconstruct_rational_denominators():
    K, g = _quartic_factor_mod_13()
    pil = PrimeIdealRep(13, tuple(g), 2)
    rng = random.Random(47)
    x = K.random_element(rng, bits=20)
    u = x * K.element([3], 5)
    v = (x * x) * K.element([5], 3)
    y = factored(K, [(u, 1), (v, 1)])
    assert eth_root_padic_reconstruct(y, 3, K, pil, seed=9) == x
