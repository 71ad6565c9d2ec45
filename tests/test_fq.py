import random

import pytest

from ethroot import fq as fq_module
from ethroot import gfpoly
from ethroot.errors import (
    BudgetExceeded,
    NotAPower,
    NotInGroup,
    ZeroInput,
)
from ethroot.fq import (
    FqField,
    _nonresidue,
    factor_mod_p,
    fq_eth_root,
)
from ethroot.crtroot import eth_root_double_crt
from ethroot.numfield import FactoredElement, NumberField
from ethroot.primes import is_prime
from ethroot.verify import verify_root
from helpers import fq_dlog_order_e, random_irreducible


def make_field(p, d, seed=1):
    if d == 1:
        return FqField(p, [0, 1])
    rng = random.Random(seed)
    return FqField(p, random_irreducible(d, p, rng))


def prime_powers_upto(bound):
    out = []
    for p in range(3, bound + 1):
        if not is_prime(p):
            continue
        q, d = p, 1
        while q <= bound:
            out.append((p, d, q))
            q, d = q * p, d + 1
    return out


# -- factor_mod_p --------------------------------------------------------------


def test_factor_example_x2_plus_1_mod_5():
    fac = factor_mod_p([1, 0, 1], 5, seed=0)
    assert fac == [([2, 1], 1), ([3, 1], 1)]


def test_factor_multiplicity():
    # (x+1)^2 * (x^2+1) mod 3
    f = gfpoly.mul(gfpoly.mul([1, 1], [1, 1], 3), [1, 0, 1], 3)
    fac = factor_mod_p(f + [0], 3, seed=5) if f[-1] != 1 else factor_mod_p(f, 3, seed=5)
    assert ([1, 1], 2) in fac
    assert ([1, 0, 1], 1) in fac


def test_factor_deterministic_and_reconstructs():
    rng = random.Random(7)
    for _ in range(25):
        p = rng.choice([2, 3, 5, 13, 31])
        d = rng.randrange(1, 7)
        f = [rng.randrange(p) for _ in range(d)] + [1]
        fac1 = factor_mod_p(f, p, seed=42)
        fac2 = factor_mod_p(f, p, seed=42)
        assert fac1 == fac2
        prod = [1]
        for g, mult in fac1:
            assert gfpoly.is_irreducible(g, p)
            for _ in range(mult):
                prod = gfpoly.mul(prod, g, p)
        assert prod == gfpoly.from_int_poly(f, p)


def test_factor_requires_monic():
    with pytest.raises(ValueError):
        factor_mod_p([1, 2], 5)


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError):
        FqField(5, [4, 0, 1])  # x^2 - 1 = (x-1)(x+1)


def test_public_constructor_keeps_its_checks():
    with pytest.raises(ValueError, match="reducible"):
        FqField(7, [1, 0, 0, 1])  # x^3 + 1 has the root -1
    with pytest.raises(ValueError, match="not prime"):
        FqField(15, [2, 0, 1])
    with pytest.raises(ValueError, match="not prime"):
        FqField(2 ** 62, [0, 1])


# -- trusted residue fields -----------------------------------------------------


@pytest.mark.parametrize("K", [
    NumberField([-1, -1, 0, 1]), NumberField([1, 0, -10, 0, 1]),
    NumberField.cyclotomic(12), NumberField.cyclotomic(35),
], ids=repr)
def test_trusted_residue_fields_equal_checked_ones(K):
    for q in (5, 11, 13, 29, 31, 4099, 65521, 2 ** 61 - 1):
        for ideal in K.prime_ideals(q) or ():
            g = list(ideal.g)
            assert gfpoly.is_irreducible(g, q)
            trusted, checked = FqField.trusted(q, ideal.g), FqField(q, g)
            assert trusted == checked
            assert (trusted.p, trusted.d, trusted.q, trusted.modulus) == (
                checked.p, checked.d, checked.q, checked.modulus)
            x = trusted.element([3, 1])
            assert x ** (q + 2) == checked.element([3, 1]) ** (q + 2)


def test_residue_fields_of_prime_ideals_are_not_rechecked(monkeypatch):
    """double_crt and verify_root on a generic field build their residue
    fields from prime_ideals output with no primality or Rabin test."""
    def refuse(*args):
        raise AssertionError("re-checked a known residue field")

    monkeypatch.setattr(fq_module, "is_prime", refuse)
    monkeypatch.setattr(gfpoly, "is_irreducible", refuse)
    K = NumberField([-1, -1, 0, 1])
    x = K.element([5, -3, 2])
    y = FactoredElement(K, [(x, 3)])
    root = eth_root_double_crt(y, 3, K, seed=1)
    assert root == x
    assert verify_root(root, y, 3, K, seed=1)


# -- powers ---------------------------------------------------------------------


@pytest.mark.parametrize("p,d", [(5, 1), (7, 3), (101, 6), (2 ** 61 - 1, 4)])
def test_pow_matches_powmod_and_keeps_one_table(p, d):
    F = make_field(p, d, seed=d)
    rng = random.Random(p + d)
    for _ in range(10):
        x = F.random_element(rng)
        n = rng.choice([0, 1, 2, F.q - 1, F.q + 5, rng.randrange(1, 10 ** 30)])
        if not x.is_zero():
            want = gfpoly.powmod(x._poly(), n % (F.q - 1), F._mod_list, p)
            assert x ** n == F.element(want)
    F.gen ** 12345
    assert (F._packed is None) == (d == 1)
    table = F._packed
    F.gen ** 12345
    assert F._packed is table


# -- fq_eth_root ---------------------------------------------------------------


def test_root_spec_values():
    f7 = make_field(7, 1)
    assert fq_eth_root(f7.element(2), 5) == f7.element(4)
    f13 = make_field(13, 1)
    assert fq_eth_root(f13.element(8), 3) == f13.element(5)
    f19 = make_field(19, 1)
    r = fq_eth_root(f19.element(8), 3)
    assert r in {f19.element(2), f19.element(3), f19.element(14)}


def test_root_zero_input():
    f7 = make_field(7, 1)
    with pytest.raises(ZeroInput):
        fq_eth_root(f7.zero, 3)


@pytest.mark.parametrize("e", [3, 5, 7, 9])
def test_root_exhaustive_small(e):
    # brute-force oracle over every odd prime power q <= 50
    for p, d, q in prime_powers_upto(50):
        field = make_field(p, d)
        table = {}
        for x in field.elements():
            if x.is_zero():
                continue
            table.setdefault(x ** e, []).append(x)
        unique = len(table) == q - 1
        for y, roots in table.items():
            x = fq_eth_root(y, e)
            assert x ** e == y
            if unique:
                assert x == roots[0]
        if not unique:
            non_power = next(
                z for z in field.elements() if not z.is_zero() and z not in table
            )
            with pytest.raises(NotAPower):
                fq_eth_root(non_power, e)


def test_root_char2_field():
    field = make_field(2, 4, seed=3)  # F_16, 3 | q - 1
    for x in field.elements():
        if x.is_zero():
            continue
        y = x ** 3
        r = fq_eth_root(y, 3)
        assert r ** 3 == y


def test_dlog_spec_value():
    f31 = make_field(31, 1)
    assert fq_dlog_order_e(f31.element(16), f31.element(2), 5) == 4


def test_dlog_random_round_trip():
    rng = random.Random(3)
    f = make_field(1009, 1)  # 1009 - 1 = 16 * 63 = 2^4 * 3^2 * 7
    zeta = None
    for g in range(2, 1009):
        cand = f.element(g) ** ((1009 - 1) // 7)
        if cand != f.one:
            zeta = cand
            break
    for _ in range(25):
        j = rng.randrange(7)
        assert fq_dlog_order_e(zeta ** j, zeta, 7) == j


def test_dlog_not_in_group():
    f31 = make_field(31, 1)
    with pytest.raises(NotInGroup):
        fq_dlog_order_e(f31.element(3), f31.element(2), 5)  # 3^5 = 243 != 1


def test_dlog_budget():
    f31 = make_field(31, 1)
    with pytest.raises(BudgetExceeded):
        fq_dlog_order_e(f31.one, f31.element(2), 3 ** 26)


# -- non-residues ----------------------------------------------------------------


def full_power_nonresidue(field, ell):
    """The scan as it was: every candidate raised to (q-1)/l in F_q."""
    exp = (field.q - 1) // ell
    for idx in range(2, min(field.q, 32)):
        t = field.element_at(idx)
        if not t.is_zero() and t ** exp != field.one:
            return t
    rng = random.Random(field.q ^ ell)
    while True:
        t = field.random_element(rng)
        if not t.is_zero() and t ** exp != field.one:
            return t


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 31, 37, 41, 61, 1009])
def test_nonresidue_matches_full_power_scan(p):
    checked = 0
    for d in range(1, 7):
        field = make_field(p, d, seed=d)
        for ell in (3, 5, 7):
            if (field.q - 1) % ell:
                continue
            assert _nonresidue(field, ell) == full_power_nonresidue(field, ell)
            checked += 1
    assert checked >= 2
