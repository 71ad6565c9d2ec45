"""Dispatch tests: routing, agreement between methods, error surface."""

import pytest

import ethroot
from ethroot.errors import (
    IncompatibleFields,
    NotAnEthPower,
    NotApplicable,
    SearchExhausted,
    Unsupported,
)
from ethroot.numfield import FactoredElement, NumberField, cyclotomic_poly
from ethroot.strategy import RECONSTRUCT_BUDGET, RootRequest, eth_root
from ethroot.verify import verify_root

K16 = NumberField.cyclotomic(16)
K9 = NumberField.cyclotomic(9)
K15 = NumberField.cyclotomic(15)


def planted(K, w, e, exp=1):
    return FactoredElement(K, [(w ** e, exp)])


def test_good_field_routes_to_double_crt():
    x = K16.element([1, 2, 0, -1, 0, 0, 3, 1])
    r = eth_root(RootRequest(K16, 3, planted(K16, x, 3)))
    assert r.method_used == "double_crt"
    assert r.root == x  # no cube roots of unity in K: the root is unique
    assert not r.prefactor.terms
    assert r.stats["failures"] == []


def test_bad_field_with_inert_prime_routes_to_padic():
    w = K9.element([2, -1, 0, 1, 0, 0])
    r = eth_root(RootRequest(K9, 3, planted(K9, w, 3)))
    assert r.method_used == "padic"
    assert r.root ** 3 == w ** 3


def test_tower_field_routes_to_couveignes():
    v = K15.element([1, 0, -1, 0, 0, 2, 0, 1])
    r = eth_root(RootRequest(K15, 3, planted(K15, v, 3)))
    assert r.method_used == "couveignes"
    assert r.root ** 3 == v ** 3
    # both earlier methods were inapplicable, not failed
    assert all("not applicable" in msg for msg in r.stats["failures"])


def test_generic_bad_field_routes_to_reconstruct():
    # same polynomial as K15 but no conductor: the tower is unavailable
    Kg = NumberField(cyclotomic_poly(15))
    x = Kg.element([1, 0, -1, 0, 0, 2, 0, 1])
    r = eth_root(RootRequest(Kg, 3, planted(Kg, x, 3)))
    assert r.method_used == "reconstruct"
    assert r.root ** 3 == x ** 3


def test_double_crt_and_reconstruct_agree_exactly():
    x = K16.element([0, 1, 1, 0, -2, 0, 0, 1])
    y = planted(K16, x, 3)
    ra = eth_root(RootRequest(K16, 3, y, method="double_crt"))
    rb = eth_root(RootRequest(K16, 3, y, method="reconstruct"))
    assert ra.method_used == "double_crt" and rb.method_used == "reconstruct"
    assert ra.root == rb.root == x


def test_double_crt_and_padic_agree_exactly():
    # e = 5 keeps Q(zeta_9) good, and both backends apply
    w = K9.element([1, -2, 0, 0, 1, 1])
    y = planted(K9, w, 5)
    ra = eth_root(RootRequest(K9, 5, y, method="double_crt"))
    rb = eth_root(RootRequest(K9, 5, y, method="padic"))
    assert ra.root == rb.root == w


def test_prefactor_carries_excess_exponent():
    w = K16.element([1, 0, 2, 0, 0, -1, 0, 0])
    y = FactoredElement(K16, [((w ** 3), 5)])
    r = eth_root(RootRequest(K16, 3, y))
    assert [a for _, a in r.prefactor.terms] == [1]
    assert r.root == w ** 5  # prefactor value folded into the root


def test_negative_exponent_normalizes():
    w = K9.element([1, 1, 0, 0, 0, 1])
    y = FactoredElement(K9, [((w ** 3), -2)])
    r = eth_root(RootRequest(K9, 3, y))
    # -2 = 3 * (-1) + 1: residual exponent 1, prefactor exponent -1
    assert [a for _, a in r.prefactor.terms] == [-1]
    assert r.root ** 3 == (w ** 3) ** -2


def test_exponent_divisible_by_e_roots_through_prefactor():
    x = K16.element([1, 1, 0, 0, 0, 0, 0, 1])
    r = eth_root(RootRequest(K16, 3, FactoredElement(K16, [(x, 3)])))
    assert r.root == x
    assert r.prefactor.terms == [(x, 1)]


def test_empty_product_roots_to_one():
    r = eth_root(RootRequest(K16, 3, FactoredElement(K16, [])))
    assert r.root == K16.one


def test_non_power_raises_not_an_eth_power():
    bad = FactoredElement(K16, [(K16.element([1, 1, 0, 0, 1, 0, 0, 2]), 1)])
    with pytest.raises(NotAnEthPower):
        eth_root(RootRequest(K16, 3, bad))


def test_explicit_method_propagates_not_applicable():
    y = planted(K16, K16.element([1, 1, 0, 0, 0, 0, 0, 0]), 3)
    with pytest.raises(NotApplicable):
        eth_root(RootRequest(K16, 3, y, method="couveignes"))


@pytest.mark.parametrize("e", [4, 6, 45])
def test_exponent_outside_scope_raises_unsupported(e):
    # even, not a prime power, odd but not a prime power
    y = planted(K16, K16.element([1, 1, 0, 0, 0, 0, 0, 0]), e)
    with pytest.raises(Unsupported):
        eth_root(RootRequest(K16, e, y))


def test_unknown_method_rejected():
    y = FactoredElement(K16, [])
    with pytest.raises(ValueError):
        eth_root(RootRequest(K16, 3, y, method="newton"))


def test_mismatched_field_rejected():
    y = planted(K9, K9.element([1, 1, 0, 0, 0, 0]), 3)
    with pytest.raises(IncompatibleFields):
        eth_root(RootRequest(K16, 3, y))


def test_same_seed_same_root():
    v = K15.element([1, 0, -1, 0, 0, 2, 0, 1])
    y = planted(K15, v, 3)
    ra = eth_root(RootRequest(K15, 3, y, seed=5))
    rb = eth_root(RootRequest(K15, 3, y, seed=5))
    assert ra.root == rb.root


def test_stats_report_time_and_counters():
    v = K15.element([1, 0, -1, 0, 0, 2, 0, 1])
    r = eth_root(RootRequest(K15, 3, planted(K15, v, 3)))
    assert r.stats["seconds"] > 0
    assert r.stats["counters"]["couveignes"]["norm_checks"] > 0


def test_verify_root_reexport():
    # the package re-exports the one verifier
    assert ethroot.verify_root is verify_root
    x = K16.element([1, 2, 0, -1, 0, 0, 3, 1])
    assert verify_root(x, planted(K16, x, 3), 3, K16)


def test_reconstruct_honours_the_search_budget(monkeypatch):
    factored = []

    def always_ramified(q):
        factored.append(q)
        return None  # every candidate refused

    monkeypatch.setattr(K16, "prime_ideals", always_ramified)
    y = planted(K16, K16.element([1, 1, 0, 0, 0, 0, 0, 0]), 3)
    with pytest.raises(SearchExhausted):
        eth_root(RootRequest(K16, 3, y, method="reconstruct"))
    assert 30 < len(factored) <= RECONSTRUCT_BUDGET


def _count_is_prime(monkeypatch, n):
    """Calls of primes.is_prime at n, through a counting wrapper."""
    import ethroot.primes as primes

    calls, real = [], primes.is_prime
    monkeypatch.setattr(primes, "is_prime",
                        lambda k: calls.append(k) or real(k))
    return lambda: calls.count(n)


def test_eth_root_tests_e_once(monkeypatch):
    # a 40-bit prime e, as in crt_large: double_crt after the strategy's check
    K31, e = NumberField.cyclotomic(31), 1099511627791
    x = K31.element(list(range(1, 31)))
    y = FactoredElement(K31, [(x, 5), (-x, e - 5)])  # x^e, as e - 5 is even
    count = _count_is_prime(monkeypatch, e)
    r = eth_root(RootRequest(K31, e, y))
    assert r.method_used == "double_crt" and r.root == x
    assert count() == 1
    # on a bad field auto passes the checked e through double_crt to padic
    count = _count_is_prime(monkeypatch, 3)
    w = K9.element([2, -1, 0, 1, 0, 0])
    r = eth_root(RootRequest(K9, 3, planted(K9, w, 3)))
    assert r.method_used == "padic" and r.root ** 3 == w ** 3
    assert count() == 1


def test_double_crt_called_directly_still_checks_e():
    from ethroot.crtroot import eth_root_double_crt

    y = planted(K16, K16.element([1, 1, 0, 0, 0, 0, 0, 0]), 3)
    for e in (45, 4):
        with pytest.raises(Unsupported):
            eth_root_double_crt(y, e, K16)
