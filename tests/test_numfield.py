import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ethroot import gfpoly
from ethroot.errors import (
    BadConductor,
    BoundViolation,
    DenominatorClash,
    IncompleteCover,
    NotInSubfield,
    ZeroInput,
)
from ethroot.numfield import (
    FactoredElement,
    NumberField,
    PrimeIdealRep,
    SubfieldEmbedding,
    coeff_bound_root,
    crt_ideals,
    crt_integers_symmetric,
    cyclotomic_poly,
    multi_reduce,
    normalize_exponents,
    relative_norm,
    root_of_unity,
)
from ethroot.couveignes import make_couveignes_prime
from ethroot.fq import factor_mod_p
from ethroot.primes import factorize, is_prime
from helpers import fold_mod_p, from_subfield, random_prime, reduce_mod_ideal


# -- cyclotomic polynomials ------------------------------------------------------


def test_cyclotomic_known_values():
    assert cyclotomic_poly(1) == [-1, 1]
    assert cyclotomic_poly(4) == [1, 0, 1]
    assert cyclotomic_poly(5) == [1, 1, 1, 1, 1]
    assert cyclotomic_poly(15) == [1, -1, 0, 1, -1, 1, 0, -1, 1]


def test_cyclotomic_product_identity():
    # prod_{d | m} Phi_d = x^m - 1
    for m in range(1, 31):
        prod = [1]
        for d in range(1, m + 1):
            if m % d:
                continue
            phi = cyclotomic_poly(d)
            new = [0] * (len(prod) + len(phi) - 1)
            for i, a in enumerate(prod):
                for j, b in enumerate(phi):
                    new[i + j] += a * b
            prod = new
        expect = [-1] + [0] * (m - 1) + [1]
        assert prod == expect


def test_non_squarefree_f_rejected():
    for f in ([0, 0, 1], [1, 2, 1], [1, 0, 2, 0, 1]):  # x^2, (x+1)^2, (x^2+1)^2
        with pytest.raises(ValueError):
            NumberField(f)


def test_bad_conductors():
    with pytest.raises(BadConductor):
        NumberField.cyclotomic(2)
    with pytest.raises(BadConductor):
        NumberField.cyclotomic(6)


# -- field arithmetic -------------------------------------------------------------


def test_gaussian_arithmetic():
    K = NumberField.cyclotomic(4)
    i = K.gen
    one = K.one
    assert (one + i) * (one - i) == K.element([2])
    assert i * i == K.element([-1])
    assert (one + i) ** 2 == i * K.element([2])


def test_inverse_round_trip():
    rng = random.Random(5)
    for m in (4, 5, 7, 16):
        K = NumberField.cyclotomic(m)
        for _ in range(20):
            x = K.random_element(rng, bits=12, den=7)
            if x == K.zero:
                continue
            assert x * x.inverse() == K.one
            assert x / x == K.one


def test_element_den_normalization():
    K = NumberField.cyclotomic(4)
    a = K.element([2, 4], 6)
    assert a == K.element([1, 2], 3)
    assert a.den == 3
    b = K.element([0, -3], -6)
    assert b.den == 2 and list(b.num) == [0, 1]


def test_pow_negative():
    K = NumberField.cyclotomic(5)
    x = K.element([1, 2, 0, 1], 3)
    assert x ** -2 == (x ** 2).inverse()
    assert x ** 0 == K.one


# -- embeddings and bounds ---------------------------------------------------------


def test_sigma_bound_gaussian():
    K = NumberField.cyclotomic(4)
    x = K.element([3, 4])
    # |3 + 4i| = 5 at both embeddings; the triangle inequality gives 3 + 4
    num, den = K.sigma_bound(x)
    assert Fraction(num, den) == 7
    assert abs(float(_sigma_norm_reference(K, x)) - 5.0) < 1e-6


def test_cinf_gaussian():
    K = NumberField.cyclotomic(4)
    c = float(K.cinf())
    # V = [[1, i], [1, -i]]: ||V^-1|| (largest row sum) = 1, and the dual
    # basis 1/2, -i/2 gives exactly 2 * 1/2 = 1
    assert 1.0 <= c <= 1.07


def test_coeff_bound_dominates_root_coeffs():
    rng = random.Random(17)
    cases = 0
    for m in (4, 5, 7, 8, 15, 16):
        K = NumberField.cyclotomic(m)
        for e in (3, 5, 7, 11):
            for _ in range(20):
                terms = []
                for _ in range(rng.randrange(1, 4)):
                    u = K.random_element(rng, bits=10)
                    if u == K.zero:
                        continue
                    terms.append((u, e))
                if not terms:
                    continue
                y = FactoredElement(K, terms)
                B = coeff_bound_root(y, e, K)
                # with every exponent equal to e the root is the plain product
                root = K.one
                for u, _ in terms:
                    root = root * u
                assert all(abs(c) <= B for c in root.num)
                cases += 1
    assert cases > 100


def _roots(K, prec=192):
    """The complex roots of f at `prec` bits: the reference for the exact bounds."""
    with mp.workprec(prec):
        if K.conductor:
            m = K.conductor
            return [mp.expjpi(mp.mpf(2 * t) / m) for t in range(1, m)
                    if math.gcd(t, m) == 1]
        return mp.polyroots([mp.mpf(c) for c in reversed(K.f)],
                            maxsteps=200, extraprec=prec)


def _cinf_reference(K, prec=192):
    """||V^-1||, V the embedding matrix: column j of V^-1 holds the power-basis
    coordinates of the Lagrange polynomial f(x) / ((x - r_j) f'(r_j)), and the
    norm is the largest row sum."""
    roots = _roots(K, prec)
    n = K.n
    with mp.workprec(prec):
        rows = []
        for r in roots:
            q = [mp.mpc(0)] * n  # f / (x - r) by synthetic division
            q[n - 1] = mp.mpf(1)
            for i in range(n - 1, 0, -1):
                q[i - 1] = K.f[i] + r * q[i]
            deriv = mp.mpc(0)
            for c in reversed(q):
                deriv = deriv * r + c  # q(r) = f'(r)
            rows.append([c / deriv for c in q])
        return max(sum(abs(row[i]) for row in rows) for i in range(n))


def _sigma_norm_reference(K, u, prec=192):
    """max_sigma |sigma(u)| by Horner at every complex embedding."""
    with mp.workprec(prec):
        best = mp.mpf(0)
        for r in _roots(K, prec):
            acc = mp.mpc(0)
            for c in reversed(u.num):
                acc = acc * r + c
            best = max(best, abs(acc) / u.den)
        return best


# cyclotomic good and bad conductors, then x^3 - x - 1 and x^5 - x - 1
BOUND_FIELDS = [NumberField.cyclotomic(m) for m in (3, 4, 5, 8, 9, 12, 15, 31)] + [
    NumberField([-1, -1, 0, 1]),
    NumberField([-1, -1, 0, 0, 0, 1]),
]


@pytest.mark.parametrize("K", BOUND_FIELDS, ids=repr)
def test_coeff_bound_property_planted_roots(K):
    rng = random.Random(f"bound:{K.f}")
    cinf = mp.mpf(K.cinf().numerator) / K.cinf().denominator
    R = max(abs(z) for z in _roots(K))
    # ||c||_1 <= n * cinf * ||Sigma||_inf, and R^i <= R^(n-1): the most the
    # integer per-term bound may lose against the embedding norm
    loss_bits = int(mp.ceil(mp.log(K.n * cinf * R ** (K.n - 1), 2))) + 1
    for _ in range(8):
        e = rng.choice((2, 3, 5, 7))
        terms, root = [], K.one
        while not terms:
            for _ in range(rng.randrange(1, 4)):
                u = K.random_element(rng, bits=rng.randrange(1, 40),
                                     den=rng.randrange(1, 50))
                if u.is_zero():
                    continue
                kind = rng.randrange(3)
                if kind == 0:  # u^a * u^(e-a), a in [0, e]
                    a = rng.randrange(e + 1)
                    terms += [(u, a), (u, e - a)]
                    root = root * u
                elif kind == 1:
                    terms.append((u ** e, 1))
                    root = root * u
                else:  # a zero exponent contributes nothing to the root
                    terms.append((u, 0))
        B = coeff_bound_root(FactoredElement(K, terms), e, K)
        assert B >= 1
        assert all(abs(c) <= B * root.den for c in root.num)
        ref = mp.mpf("1.1") * cinf
        live = 0
        for u, a in terms:
            if a:
                ref *= max(1, _sigma_norm_reference(K, u))
                live += 1
        assert B.bit_length() <= int(mp.ceil(ref)).bit_length() + live * loss_bits


CINF_FIELDS = BOUND_FIELDS + [NumberField.cyclotomic(m) for m in (35, 45, 113)] + [
    NumberField([2, 0, 1]),
]


@pytest.mark.parametrize("K", CINF_FIELDS, ids=repr)
def test_cinf_dominates_reference(K):
    # the exact cinf bounds ||V^-1|| (up to the reference's rounding) and
    # loses at most 8 bits against it
    ref = _cinf_reference(K)
    with mp.workprec(192):
        c = mp.mpf(K.cinf().numerator) / K.cinf().denominator
        assert ref * (1 - mp.mpf(2) ** -100) <= c <= ref * 2 ** 8


@pytest.mark.parametrize("K", [f for f in CINF_FIELDS if not f.conductor], ids=repr)
def test_radius_dominates_roots(K):
    t, s = K.radius_powers()
    for i, ti in enumerate(t):
        assert all(abs(z) ** i <= mp.mpf(ti) / 2 ** s for z in _roots(K))


def test_coeff_bound_rejects_bad_exponents():
    K = NumberField.cyclotomic(4)
    y = FactoredElement(K, [(K.gen + K.one, 7)])
    with pytest.raises(ValueError):
        coeff_bound_root(y, 5, K)


# -- factored elements -------------------------------------------------------------


def test_factored_value_and_pow():
    K = NumberField.cyclotomic(5)
    u = K.element([1, 1])
    v = K.element([2, 0, 1])
    y = FactoredElement(K, [(u, 2), (v, 1)])
    assert y.value() == u * u * v
    assert y.pow(2).value() == (u * u * v) ** 2
    assert y.mul(FactoredElement(K, [(u, 1)])).value() == u ** 3 * v


def test_factored_rejects_zero():
    K = NumberField.cyclotomic(5)
    with pytest.raises(ZeroInput):
        FactoredElement(K, [(K.zero, 2)])


def test_normalize_exponents_example():
    K = NumberField.cyclotomic(4)
    u = K.element([1, 1])
    v = K.element([3])
    y = FactoredElement(K, [(u, 7), (v, 3)])
    pre, res = normalize_exponents(y, 3)
    assert [(t, a) for t, a in pre.terms] == [(u, 2), (v, 1)]
    assert [(t, a) for t, a in res.terms] == [(u, 1)]


def test_normalize_negative_exponents():
    K = NumberField.cyclotomic(4)
    u = K.element([1, 1])
    y = FactoredElement(K, [(u, -4)])
    pre, res = normalize_exponents(y, 3)
    # -4 = 3*(-2) + 2
    assert [(t, a) for t, a in pre.terms] == [(u, -2)]
    assert [(t, a) for t, a in res.terms] == [(u, 2)]


# -- multi_reduce ------------------------------------------------------------------


def test_multi_reduce_matches_naive():
    rng = random.Random(23)
    K = NumberField.cyclotomic(7)
    us = [K.random_element(rng, bits=64, den=11) for _ in range(6)]
    moduli = [10007, 65537, 1000003]
    table = multi_reduce(us, moduli)
    for i, u in enumerate(us):
        for j, q in enumerate(moduli):
            assert table[i][j] == u.reduce_mod_prime(q)


def test_multi_reduce_denominator_clash():
    K = NumberField.cyclotomic(4)
    u = K.element([1, 1], 10007)
    with pytest.raises(DenominatorClash) as info:
        multi_reduce([u], [10007])
    assert info.value.p == 10007


# -- ideal CRT ---------------------------------------------------------------------


def test_crt_ideals_spec_example():
    K = NumberField.cyclotomic(4)
    # 5 splits: x^2 + 1 = (x - 2)(x - 3) mod 5
    p1 = PrimeIdealRep(5, (3, 1), 1)  # alpha = 2
    p2 = PrimeIdealRep(5, (2, 1), 1)  # alpha = 3
    z = crt_ideals([[3], [4]], [p1, p2], K)
    assert z == [1, 1]


def test_crt_ideals_round_trip():
    rng = random.Random(31)
    K = NumberField.cyclotomic(5)
    from ethroot.fq import factor_mod_p

    for q in (11, 31, 41):
        fac = factor_mod_p(K.f, q, seed=1)
        ideals = [PrimeIdealRep(q, tuple(g), len(g) - 1) for g, _ in fac]
        for _ in range(10):
            target = [rng.randrange(q) for _ in range(K.n)]
            residues = [reduce_mod_ideal(target, ideal) for ideal in ideals]
            z = crt_ideals(residues, ideals, K)
            assert z == target


@pytest.mark.parametrize("m", [3, 4, 5, 8, 9, 12, 15, 16, 31])
def test_split_prime_ideals_match_factor_mod_p(m):
    rng = random.Random(f"split:{m}")
    K = NumberField.cyclotomic(m)
    f = cyclotomic_poly(m)
    found = 0
    while found < 3:
        q = m * rng.randrange(1 << 20, 1 << 40) + 1
        if not is_prime(q):
            continue
        found += 1
        fac = factor_mod_p(f, q)
        assert all(len(g) == 2 and mult == 1 for g, mult in fac)
        want = tuple(PrimeIdealRep(q, tuple(g), 1) for g, _ in fac)
        assert K.prime_ideals(q) == want


PRIME_IDEAL_FIELDS = {
    **{f"Q(zeta_{m})": NumberField.cyclotomic(m) for m in (5, 7, 8, 12, 15)},
    "x^3 - x - 1": NumberField([-1, -1, 0, 1]),  # ramified at 23
    "x^2 + 2": NumberField([2, 0, 1]),  # ramified at 2
    "x^4 - 10x^2 + 1": NumberField([1, 0, -10, 0, 1]),  # ramified at 2, 3
}


@pytest.mark.parametrize("name", sorted(PRIME_IDEAL_FIELDS))
def test_prime_ideals_match_factor_mod_p(name):
    K = PRIME_IDEAL_FIELDS[name]
    kinds = set()
    for q in [q for q in range(2, 200) if is_prime(q)] + [2 ** 61 - 1]:
        fac = factor_mod_p(list(K.f), q)
        got = K.prime_ideals(q)
        if any(mult > 1 for _, mult in fac):
            assert got is None, q
            kinds.add("ramified")
            continue
        assert got == tuple(PrimeIdealRep(q, tuple(g), len(g) - 1) for g, _ in fac), q
        kinds.add("split" if all(i.f_deg == 1 for i in got) else "not split")
    assert kinds == {"ramified", "split", "not split"}


ORACLE_FIELDS = {
    **{f"Q(zeta_{m})": NumberField.cyclotomic(m)
       for m in (5, 7, 8, 9, 12, 15, 16, 20, 21, 35)},
    "x^3 - x - 1": NumberField([-1, -1, 0, 1]),
    "x^4 - 10x^2 + 1": NumberField([1, 0, -10, 0, 1]),
    # Dedekind's cubic: 2 divides the index, so f mod 2 = x^2 (x + 1) although
    # 2 is unramified
    "x^3 - x^2 - 2x - 8": NumberField([-8, -2, -1, 1]),
}
ORACLE_PRIMES = sorted(set(random.Random("oracle").sample(
    [q for q in range(1 << 13, 1 << 14) if is_prime(q)], 200)))


@pytest.mark.parametrize("name", sorted(ORACLE_FIELDS))
def test_prime_ideals_equal_the_factorization_oracle(name):
    K = ORACLE_FIELDS[name]
    disc = K.conductor or K.discriminant()
    for q in sorted({*ORACLE_PRIMES, 2, 3, 5, 7, 23, *factorize(abs(disc))}):
        fac = gfpoly.factor(gfpoly.from_int_poly(list(K.f), q), q)
        got = K.prime_ideals(q)
        if any(mult > 1 for _, mult in fac):
            assert got is None, q
        else:
            assert got == tuple(PrimeIdealRep(q, tuple(g), len(g) - 1)
                                for g, _ in fac), q


@pytest.mark.parametrize("name", sorted(ORACLE_FIELDS))
def test_residue_degrees_are_those_of_the_prime_ideals(name):
    # ramified primes included: both are None there
    K = ORACLE_FIELDS[name]
    disc = K.conductor or K.discriminant()
    for q in sorted({*(q for q in range(2, 200) if is_prime(q)), *factorize(abs(disc))}):
        ideals = K.prime_ideals(q)
        want = None if ideals is None else tuple(sorted({i.f_deg for i in ideals}))
        assert K.residue_degrees(q) == want, q


def _degree_one_roots_from_ideals(K, q):
    return tuple((-i.g[0]) % q for i in K.prime_ideals(q) or () if i.f_deg == 1)


@pytest.mark.parametrize("name", sorted(ORACLE_FIELDS))
def test_degree_one_roots_equal_the_prime_ideal_oracle(name):
    K = ORACLE_FIELDS[name]
    disc = K.conductor or K.discriminant()
    for q in sorted({*ORACLE_PRIMES, 2, 3, 5, 7, 23, *factorize(abs(disc))}):
        assert K.degree_one_roots(q) == _degree_one_roots_from_ideals(K, q), q


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.data())
def test_generic_degree_one_roots_at_large_primes(data):
    # f = prod (x - r_i) * h + q g over Z, h monic: f mod q has the planted
    # roots and whatever h adds, and q is unramified unless two roots meet
    bits = data.draw(st.sampled_from([29, 62]), label="bits")
    n = data.draw(st.integers(1, 8), label="n")
    k = data.draw(st.integers(0, n), label="planted")
    rng = random.Random(data.draw(st.integers(0, 1 << 32), label="seed"))
    q = random_prime(rng, bits)
    fq = [rng.randrange(q) for _ in range(n - k)] + [1]
    for _ in range(k):
        fq = gfpoly.mul(fq, [rng.randrange(q), 1], q)
    K = NumberField([c + q * rng.randrange(-9, 10) for c in fq[:-1]] + [1])
    got = K.degree_one_roots(q)
    assert got == _degree_one_roots_from_ideals(K, q)
    if K.discriminant() % q:
        assert len(got) >= k
        assert sorted(got) == gfpoly.roots(gfpoly.from_int_poly(list(K.f), q), q)


@pytest.mark.parametrize("f, disc", [
    ([-1, -1, 0, 1], -23), ([1, 0, 1], -4), ([2, 0, 1], -8), ([-2, 0, 0, 1], -108),
    ([1, 0, 0, 0, 1], 256), ([1, 0, -10, 0, 1], 147456), ([-8, -2, -1, 1], -2012),
    ([3, 1], 1),
])
def test_discriminant_known_values(f, disc):
    assert NumberField(f).discriminant() == disc


def test_prime_ideals_take_the_shortest_route(monkeypatch):
    """Generic fields skip the squarefree stage, cyclotomic fields never run
    distinct-degree splitting and never compute a discriminant, and an
    inert cyclotomic q is not factored at all."""
    def refuse(*args, **kwargs):
        raise AssertionError("took a stage the route does not need")

    monkeypatch.setattr(gfpoly, "squarefree_parts", refuse)
    K = NumberField([-1, -1, 0, 1])
    assert [i.f_deg for i in K.prime_ideals(13)] == [3]
    assert K.prime_ideals(23) is None
    monkeypatch.setattr(gfpoly, "_ddf", refuse)
    monkeypatch.setattr(NumberField, "discriminant", refuse)
    K35 = NumberField.cyclotomic(35)
    assert [i.f_deg for i in K35.prime_ideals(29)] == [2] * 12  # 29^2 = 1 mod 35
    monkeypatch.setattr(gfpoly, "_edf", refuse)
    K7 = NumberField.cyclotomic(7)
    assert K7.prime_ideals(3) == (PrimeIdealRep(3, tuple(gfpoly.from_int_poly(
        list(K7.f), 3)), 6),)


def test_prime_ideals_of_split_cyclotomic_primes_need_no_factoring(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("factored f mod q")

    monkeypatch.setattr(gfpoly, "factor", refuse)
    K = NumberField.cyclotomic(31)
    q = 31 * 2 ** 40 + 31 * 4 + 1
    q = next(t for t in range(q, q + 31 * 10 ** 4, 31) if is_prime(t))
    w = root_of_unity(q, 31)
    assert K.prime_ideals(q) == tuple(sorted(
        (PrimeIdealRep(q, (q - pow(w, t, q), 1), 1) for t in range(1, 31)),
        key=lambda i: i.g))
    assert K.prime_ideals(31) is None


def test_root_of_unity_rejects_non_split_primes():
    with pytest.raises(ValueError):
        root_of_unity(7, 4)  # 7 = 3 mod 4
    with pytest.raises(ValueError):
        root_of_unity(13, 5)  # 13 = 3 mod 5


def test_crt_ideals_incomplete():
    K = NumberField.cyclotomic(4)
    p1 = PrimeIdealRep(5, (3, 1), 1)
    with pytest.raises(IncompleteCover):
        crt_ideals([[3]], [p1], K)


# -- integer CRT -------------------------------------------------------------------


def test_crt_integers_round_trip():
    rng = random.Random(41)
    moduli = [10007, 10009, 10037, 10039]
    bound = 10 ** 6
    for _ in range(50):
        target = [rng.randrange(-bound, bound + 1) for _ in range(4)]
        vectors = [[t % q for t in target] for q in moduli]
        assert crt_integers_symmetric(vectors, moduli, bound) == target


def test_crt_integers_bound_violation():
    moduli = [10007, 10009]
    big = 10 ** 7  # representable in the product but above the bound
    vectors = [[big % q] for q in moduli]
    with pytest.raises(BoundViolation):
        crt_integers_symmetric(vectors, moduli, 10 ** 6)


def test_crt_integers_insufficient_moduli():
    with pytest.raises(ValueError):
        crt_integers_symmetric([[1]], [10007], 10 ** 10)


# -- subfield embeddings ------------------------------------------------------------


def test_embedding_round_trip():
    emb = SubfieldEmbedding.cyclotomic(NumberField.cyclotomic(15), 3)
    L = emb.L
    rng = random.Random(43)
    for _ in range(20):
        a = L.random_element(rng, bits=10, den=5)
        lifted = from_subfield(emb, a)
        assert emb.to_subfield(lifted) == a


def test_embedding_kept_per_field():
    K = NumberField.cyclotomic(15)
    emb = SubfieldEmbedding.cyclotomic(K, 3)
    assert SubfieldEmbedding.cyclotomic(K, 3) is emb
    assert SubfieldEmbedding.cyclotomic(K, 5) is not emb
    other = SubfieldEmbedding.cyclotomic(NumberField.cyclotomic(15), 3)
    assert other is not emb and other.orbit == emb.orbit


def test_embedding_detects_outside():
    emb = SubfieldEmbedding.cyclotomic(NumberField.cyclotomic(15), 3)
    K = emb.K
    with pytest.raises(NotInSubfield):
        emb.to_subfield(K.gen)


def _sigma(u, t):
    """u(alpha^t) by Horner over K, independent of the embedding's code."""
    K = u.field
    gen_t = K.gen ** t
    out, cur = K.zero, K.one
    for c in u.num:
        out = out + cur * c
        cur = cur * gen_t
    return out / K.element([u.den])


@pytest.mark.parametrize("m,m_sub", [(15, 3), (15, 5), (12, 3), (35, 5)])
def test_embedding_orbit_is_relative_galois_group(m, m_sub):
    emb = SubfieldEmbedding.cyclotomic(NumberField.cyclotomic(m), m_sub)
    K, L = emb.K, emb.L
    assert emb.degree * L.n == K.n and len(emb.orbit) == emb.degree
    # the alpha^t are distinct roots of f_K, so the sigma_t are distinct
    assert len({K.gen ** t for t in emb.orbit}) == emb.degree
    rng = random.Random(59)
    fixed = [from_subfield(emb, L.gen),
             from_subfield(emb, L.random_element(rng, bits=10, den=7))]
    for t in emb.orbit:
        for x in fixed:
            assert _sigma(x, t) == x


# -- relative norms ------------------------------------------------------------------


def test_relative_norm_of_fifth_root_is_one():
    # N over Q(zeta_15)/Q(zeta_3) of zeta_5 = zeta_15^3: conjugate exponents
    # sum to 1+2+3+4 = 10, and zeta_5^10 = 1
    emb = SubfieldEmbedding.cyclotomic(NumberField.cyclotomic(15), 3)
    K = emb.K
    y = FactoredElement(K, [(K.gen ** 3, 1)])
    n = relative_norm(y, emb)
    assert len(n.terms) == 1 and n.terms[0][1] == 1
    assert n.value() == emb.L.one


def test_relative_norm_scalar_and_exponents():
    emb = SubfieldEmbedding.cyclotomic(NumberField.cyclotomic(15), 3)
    K, L = emb.K, emb.L
    c = L.element([2, 5], 3)
    y = FactoredElement(K, [(from_subfield(emb, c), 1)])
    assert relative_norm(y, emb).value() == c ** 4
    u = K.element([1, 2, 0, 1])
    n1 = relative_norm(FactoredElement(K, [(u, 1)]), emb).value()
    n3 = relative_norm(FactoredElement(K, [(u, 3)]), emb).value()
    assert n3 == n1 ** 3


def test_relative_norm_commutes_with_reduction():
    # reducing the relative norm mod a prime of the subfield must match the
    # finite-field norm of the reduction mod the prime above it
    from ethroot.fq import factor_mod_p

    emb = SubfieldEmbedding.cyclotomic(NumberField.cyclotomic(15), 3)
    K = emb.K
    p = 7  # ord of 7 mod 15 is 4 = [K:L], ord mod 3 is 1
    gK = factor_mod_p(K.f, p, seed=0)[0][0]
    FK = gfpoly._Packed(gK, p)  # the residue field F_{7^4}
    zbar = FK.power([0, 1], 5)  # image of zeta_3 upstairs; lands in the prime field
    assert len(zbar) == 1
    c = zbar[0]
    rng = random.Random(53)
    for _ in range(10):
        u = K.random_element(rng, bits=8)
        if u == K.zero:
            continue
        n = relative_norm(FactoredElement(K, [(u, 1)]), emb).value()
        nc = 0
        for j, coef in enumerate(n.reduce_mod_prime(p)):
            nc = (nc + coef * pow(c, j, p)) % p
        xbar = gfpoly.rem(u.reduce_mod_prime(p), gK, p)
        nf = FK.power(xbar, (p ** 4 - 1) // (p - 1))
        assert len(nf) <= 1
        assert (nf or [0])[0] == nc


@pytest.mark.parametrize("m,m_sub", [(12, 3), (15, 5), (35, 5), (45, 9)])
def test_relative_norm_matches_finite_field_norms(m, m_sub):
    # at an admissible p every prime of L is inert in K, so the norm on each
    # residue field F_Q over F_q is the Frobenius product x^E, E = (Q-1)/(q-1):
    # N_{K/L}(y), pushed back to K, is y^E in Z[alpha]/p, the identity
    # couveignes_mod_p builds its roots on
    emb = SubfieldEmbedding.cyclotomic(NumberField.cyclotomic(m), m_sub)
    K, L = emb.K, emb.L
    for p in range(5, 2000):
        cp = make_couveignes_prime(K, emb, p) if m % p and is_prime(p) else None
        if cp is not None:
            break
    q = p ** cp.d
    E = (q ** emb.degree - 1) // (q - 1)
    rng = random.Random(61 * m + m_sub)
    for _ in range(4):
        terms = []
        for _ in range(3):
            den = rng.choice([1, 2, 3, 5, 7, 11])
            u = K.random_element(rng, bits=6, den=den)
            if den % p and not u.is_zero():
                terms.append((u, rng.randint(1, 3)))
        y = FactoredElement(K, terms)
        n = relative_norm(y, emb)
        assert n.field == L and [a for _, a in n.terms] == [a for _, a in y.terms]
        pushed = FactoredElement(K, [(from_subfield(emb, v), a) for v, a in n.terms])
        ring = gfpoly._Packed(gfpoly.from_int_poly(list(K.f), p), p)
        want = ring.power(fold_mod_p(y, p), E)
        assert fold_mod_p(pushed, p) == want


def test_relative_norm_conjugate_product():
    m, m_sub = 15, 3
    emb = SubfieldEmbedding.cyclotomic(NumberField.cyclotomic(m), m_sub)
    K, L = emb.K, emb.L
    rng = random.Random(47)
    for _ in range(10):
        u = K.random_element(rng, bits=8)
        if u == K.zero:
            continue
        y = FactoredElement(K, [(u, 1)])
        n = relative_norm(y, emb).value()
        # oracle: product over Galois conjugates fixing the subfield
        prod = K.one
        for t in range(m):
            if math.gcd(t, m) == 1 and t % m_sub == 1:
                prod = prod * _sigma(u, t)
        assert from_subfield(emb, n) == prod


def test_relative_norm_zero_rejected():
    emb = SubfieldEmbedding.cyclotomic(NumberField.cyclotomic(15), 3)
    K = emb.K
    y = FactoredElement(K, [(K.gen + K.one, 1), (K.gen, 1)])
    with pytest.raises(ZeroInput):
        FactoredElement(K, [(K.zero, 1)])
    n = relative_norm(y, emb)
    assert n.value() != emb.L.zero
