import random

import pytest

from ethroot import gfpoly, verify
from ethroot.numfield import FactoredElement, NumberField, PrimeIdealRep
from ethroot.primes import is_prime
from ethroot.verify import verify_root
from helpers import random_prime


def test_root_of_unity_against_empty_product():
    # x = zeta_15^5 is a nontrivial cube root of 1 = the empty product
    K = NumberField.cyclotomic(15)
    x = K.gen ** 5
    assert verify_root(x, FactoredElement(K, []), 3, K)
    assert not verify_root(K.gen, FactoredElement(K, []), 3, K)


def test_round_trip_and_near_miss():
    K = NumberField.cyclotomic(16)
    rng = random.Random(7)
    for _ in range(5):
        x = K.random_element(rng, bits=30)
        y = FactoredElement(K, [(x, 3)])
        assert verify_root(x, y, 3, K)
        assert not verify_root(x + K.one, y, 3, K)


def test_rational_denominators():
    K = NumberField.cyclotomic(5)
    x = K.element([3, 1, 0, 4], 7)
    y = FactoredElement(K, [(x, 5)])
    assert verify_root(x, y, 5, K)


def test_negative_exponents_fold():
    K = NumberField.cyclotomic(4)
    x = K.element([2, 1])
    y = FactoredElement(K, [(x * x, 3), (x, -3)])  # value (x^2/x)^3 = x^3
    assert verify_root(x, y, 3, K)
    assert not verify_root(x + K.one, y, 3, K)


def test_determinism():
    K = NumberField.cyclotomic(7)
    rng = random.Random(1)
    x = K.random_element(rng, bits=20)
    y = FactoredElement(K, [(x, 3)])
    assert verify_root(x, y, 3, K, seed=5) == verify_root(x, y, 3, K, seed=5)


def test_large_field_modular_only():
    # n = 12 > 8 forces the purely modular path
    K = NumberField.cyclotomic(13)
    rng = random.Random(2)
    x = K.random_element(rng, bits=25)
    y = FactoredElement(K, [(x, 3)])
    assert verify_root(x, y, 3, K)
    assert not verify_root(x * K.gen, y, 3, K)


# -- the exact check decides small inputs alone -------------------------------


@pytest.mark.parametrize("f", [None, [-1, -1, 0, 1]], ids=["Q(zeta_9)", "x^3-x-1"])
def test_exact_check_decides_without_drawing_a_prime(monkeypatch, f):
    def refuse(*args, **kwargs):
        raise AssertionError("an affordable input needs no prime")

    monkeypatch.setattr(verify, "prime_stream", refuse)
    K = NumberField.cyclotomic(9) if f is None else NumberField(f)
    rng = random.Random(f"exact:{f}")
    e = 3
    u = K.random_element(rng, bits=12)
    v = K.random_element(rng, bits=12, den=rng.randrange(2, 50))
    planted = [
        (u, [(u, e)]),
        (v, [(v, e)]),  # denominator
        (u * u, [(u, 2 * e)]),  # exponent above e
        (u * v, [(u * v * v, e), (v, -e)]),  # negative exponent
        (u / v, [(u, e), (v, -e)]),
        (K.one, []),
    ]
    if f is None:
        planted.append((u * K.gen ** 3, [(u, e)]))  # times a cube root of 1
    misses = [
        (u + K.one, [(u, e)]),
        (u * K.gen, [(u, e)]),
        (u * v, [(u, e), (v, e - 1)]),  # one exponent off by one
        (u / v, [(u, e), (v, 1 - e)]),
        (K.zero, [(u, e)]),
        (K.zero, []),
    ]
    for expected, cases in ((True, planted), (False, misses)):
        for x, terms in cases:
            y = FactoredElement(K, terms)
            assert verify._exact_affordable(x, y, e, K)
            assert verify_root(x, y, e, K) is expected


# -- split-prime trials on cyclotomic fields --------------------------------------

# good and bad (rad(e) | m) conductors, small and above the exact-check degree
SPLIT_CASES = [(7, 3), (16, 3), (11, 5), (9, 3), (15, 5), (21, 7)]


def _no_factoring(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("cyclotomic verification must not factor")

    monkeypatch.setattr(gfpoly, "factor", refuse)


@pytest.mark.parametrize("m,e", SPLIT_CASES)
def test_split_primes_accept_planted_roots_without_factoring(monkeypatch, m, e):
    _no_factoring(monkeypatch)

    def refuse(*args):
        raise AssertionError("Phi_m needs no squarefree test at q = 1 mod m")

    monkeypatch.setattr(gfpoly, "gcd", refuse)
    K = NumberField.cyclotomic(m)
    rng = random.Random(f"planted:{m}:{e}")
    u = K.random_element(rng, bits=20)
    v = K.random_element(rng, bits=20, den=rng.randrange(2, 50))
    planted = [
        (u, [(u, e)]),
        (v, [(v, e)]),  # denominator
        (u * u, [(u, 2 * e)]),  # exponent above e
        (u * v, [(u * v * v, e), (v, -e)]),  # negative exponent
        (u / v, [(u, e), (v, -e)]),
        (K.one, []),  # empty product
    ]
    if m % e == 0:
        # bad field: zeta_m^(m/e) is a nontrivial e-th root of unity
        planted.append((u * K.gen ** (m // e), [(u, e)]))
        planted.append((K.gen ** (m // e), []))
    for x, terms in planted:
        assert verify_root(x, FactoredElement(K, terms), e, K, seed=3)


@pytest.mark.parametrize("m,e", SPLIT_CASES)
def test_split_primes_reject_near_misses(monkeypatch, m, e):
    _no_factoring(monkeypatch)
    # only the modular trials decide: no exact expansion
    monkeypatch.setattr(verify, "_exact_affordable", lambda *args: False)
    K = NumberField.cyclotomic(m)
    rng = random.Random(f"near:{m}:{e}")
    x = K.random_element(rng, bits=20)
    w = K.random_element(rng, bits=20, den=7)
    k = 1  # zeta_m^(k e) != 1 for every case, m never divides e
    assert (K.gen ** (k * e)) != K.one
    misses = [
        (x + K.one, [(x, e)]),
        (x * K.gen ** k, [(x, e)]),
        (x * w, [(x, e), (w, e - 1)]),  # one exponent off by one
        (x / w, [(x, e), (w, 1 - e)]),
        (K.zero, [(x, e)]),
    ]
    for bad, terms in misses:
        assert not verify_root(bad, FactoredElement(K, terms), e, K, seed=3)
    assert verify_root(x * w, FactoredElement(K, [(x, e), (w, e)]), e, K, seed=3)


def test_generic_field_verifies_without_factoring(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a generic trial compares in Z[alpha]/q, unfactored")

    K = NumberField([-1, -1, 0, 1])  # x^3 - x - 1
    monkeypatch.setattr(K, "prime_ideals", refuse)
    monkeypatch.setattr(gfpoly, "split_squarefree", refuse)
    monkeypatch.setattr(gfpoly, "factor", refuse)
    monkeypatch.setattr(verify, "_exact_affordable", lambda *args: False)
    x = K.element([2, -1, 3], 5)
    assert verify_root(x, FactoredElement(K, [(x, 3)]), 3, K)
    assert not verify_root(x + K.one, FactoredElement(K, [(x, 3)]), 3, K)


@pytest.mark.parametrize("q", [5, 13, 17, 3, 7, 11])
def test_check_at_keeps_zero_and_pole_rules(q):
    # at q = 1 mod 4, i - r vanishes at one of the two degree-1 ideals above
    # q, checked by evaluation and in the ring; at q = 3 mod 4, q(1 + i)
    # vanishes at the one ideal, of degree 2, checked in the ring F_q[t]/(t^2 + 1)
    K = NumberField.cyclotomic(4)
    if q % 4 == 1:
        r = next(t for t in range(q) if t * t % q == q - 1)
        z = K.element([-r, 1])
        ideals = K.prime_ideals(q)
        assert {i.f_deg for i in ideals} == {1}
        roots = K.degree_one_roots(q)
        assert roots == tuple((-i.g[0]) % q for i in ideals)
    else:
        z = K.element([q, q])
        ideals = (PrimeIdealRep(q, (1, 0, 1), 2),)
        assert K.prime_ideals(q) == ideals
    w = K.element([1, 1])  # norm 2: a unit at every odd q
    cases = [
        (z, [(z, 3)], True),  # zero on both sides at one ideal
        (z * w, [(z, 3), (w, 3)], True),
        (z, [(z, -3)], False),  # pole of y where x vanishes
        (z, [(w, 3)], False),  # x vanishes, y does not
        (w, [(z, 3)], False),  # y vanishes, x does not
    ]
    for x, terms, want in cases:
        y = FactoredElement(K, terms)
        if q % 4 == 1:
            assert verify._check_at(x, y, 3, q, roots) is want
        assert verify._check_in_ring(x, y, 3, q, K) is want


def test_pole_fails_whatever_the_term_order():
    # z = i - r vanishes at (i - r) above 5; y = z^4 z^-1 v^3 equals x^3 as a
    # field element, but z^-1 is a pole mod that ideal
    K = NumberField.cyclotomic(4)
    q, r = 5, 2
    z, v = K.element([-r, 1]), K.element([1, 1])
    x = z * v
    for terms in ([(z, 4), (z, -1), (v, 3)], [(z, -1), (z, 4), (v, 3)]):
        y = FactoredElement(K, terms)
        assert verify._check_at(x, y, 3, q, K.degree_one_roots(q)) is False
        assert verify._check_in_ring(x, y, 3, q, K) is False


# -- the ring trial against a per-ideal reference ---------------------------------


def _per_ideal_check(x, y, e, q, K):
    # reference: compare in the residue field F_{q^d} of every ideal above q;
    # a vanishing factor with a negative exponent is a pole there
    for ideal in K.prime_ideals(q):
        g = list(ideal.g)
        field = gfpoly._Packed(g, q)
        xr = gfpoly.rem(x.reduce_mod_prime(q), g, q)
        urs = [(gfpoly.rem(u.reduce_mod_prime(q), g, q), a) for u, a in y.terms]
        if any(not ur and a < 0 for ur, a in urs):
            return False
        rhs = [1]
        for ur, a in urs:
            rhs = field.mul(rhs, field.power(field.inverse(ur) if a < 0 else ur, abs(a)))
        if field.power(xr, e) != rhs:
            return False
    return True


def _vanishes_mod(w, q, K):
    return any(not gfpoly.rem(w.reduce_mod_prime(q), list(i.g), q)
               for i in K.prime_ideals(q))


RING_FIELDS = {
    "x^3-x-1": [-1, -1, 0, 1],
    "x^4-10x^2+1": [1, 0, -10, 0, 1],
    "dedekind": [-8, -2, -1, 1],  # 2 divides the index of Z[alpha]
}


@pytest.mark.parametrize("name", sorted(RING_FIELDS))
def test_ring_trial_matches_per_ideal_reference(name):
    K = NumberField(RING_FIELDS[name])
    rng = random.Random(f"ring:{name}")
    qs = [q for q in range(5, 80) if is_prime(q) and K.discriminant() % q]
    qs += [random_prime(rng, 62) for _ in range(2)]
    # residue degrees 1 and 2 among the primes; the cubics mix them above one q
    degrees = {d for q in qs for d in (i.f_deg for i in K.prime_ideals(q))}
    assert {1, 2} <= degrees
    minus_one = K.element([-1])
    for q in qs:
        den = 7 if q != 7 else 11
        for e in (3, 5, 9):
            u = K.random_element(rng, bits=20)
            v = K.random_element(rng, bits=20, den=den)
            while _vanishes_mod(v, q, K):  # v^-1 in a planted root: no pole
                v = K.random_element(rng, bits=20, den=den)
            z = K.element(list(K.prime_ideals(q)[0].g))  # 0 at one ideal
            planted = [
                (u, [(u, e)]),
                (u / v, [(u, e), (v, -e)]),
                (u * v, [(u * v * v, e), (v, -e)]),
                (z * u, [(z, e), (u, e)]),  # zero on both sides
                (K.one, []),
            ]
            near = [
                (u + K.one, [(u, e)]),
                (u * minus_one, [(u, e)]),  # times a unit
                (u * K.gen, [(u, e)]),
                (u * v, [(u, e), (v, e - 1)]),  # one exponent off by one
                (u, [(z, e)]),  # y vanishes, x need not
                (z, [(u, e)]),
                (z, [(z, -e)]),  # pole where x vanishes
                (z * u, [(z, e + 1), (z, -1), (u, e)]),  # pole behind a zero
                (z * u, [(z, -1), (z, e + 1), (u, e)]),
            ]
            for x, terms, want in ([(x, t, True) for x, t in planted]
                                   + [(x, t, None) for x, t in near]):
                if any(w.den % q == 0 for w in [x] + [t for t, _ in terms]):
                    continue  # verify_root's avoid set keeps such q out
                y = FactoredElement(K, terms)
                got = verify._check_in_ring(x, y, e, q, K)
                assert got is _per_ideal_check(x, y, e, q, K)
                if want is not None:
                    assert got is want
                elif q.bit_length() > 32 or terms[0][1] < 0 or len(terms) == 3:
                    assert got is False  # a pole, or a near miss at a 62-bit q
