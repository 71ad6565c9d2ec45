import random

import pytest

from ethroot import gfpoly, verify
from ethroot.numfield import FactoredElement, NumberField, PrimeIdealRep
from ethroot.verify import verify_root


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


def test_generic_field_still_factors(monkeypatch):
    calls = []
    K = NumberField([-1, -1, 0, 1])  # x^3 - x - 1
    ideals_above = K.prime_ideals

    def counting(q):
        calls.append(q)
        return ideals_above(q)

    monkeypatch.setattr(K, "prime_ideals", counting)
    x = K.element([2, -1, 3], 5)
    assert verify_root(x, FactoredElement(K, [(x, 3)]), 3, K)
    assert len(calls) == 3  # one factorization per trial prime


@pytest.mark.parametrize("q", [5, 13, 17, 3, 7, 11])
def test_check_at_keeps_zero_and_pole_rules(q):
    # at q = 1 mod 4, i - r vanishes at one of the two degree-1 ideals above
    # q; at q = 3 mod 4, q(1 + i) vanishes at the one ideal, of degree 2
    K = NumberField.cyclotomic(4)
    if q % 4 == 1:
        r = next(t for t in range(q) if t * t % q == q - 1)
        z = K.element([-r, 1])
        ideals = K.prime_ideals(q)
        assert {i.f_deg for i in ideals} == {1}
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
        assert verify._check_at(x, y, 3, q, ideals) is want
