import random

import pytest

from ethroot import gfpoly, padic
from ethroot.errors import (
    BudgetExceeded,
    EthrootError,
    NotAPower,
    NotInGroup,
    ZeroInput,
)
from ethroot.fq import _nonresidue, factor_mod_p, fq_eth_root
from ethroot.crtroot import eth_root_double_crt
from ethroot.numfield import FactoredElement, NumberField
from ethroot.primes import OddPrimePower, is_prime
from ethroot.verify import verify_root
from helpers import (
    amm_ell_root_by_full_powers,
    field_elements,
    fq_dlog_order_e,
    random_irreducible,
)


def make_field(p, d, seed=1):
    """The packed ring of a degree-d field over F_p."""
    if d == 1:
        return gfpoly._Packed([0, 1], p)
    rng = random.Random(seed)
    return gfpoly._Packed(random_irreducible(d, p, rng), p)


def random_residue(field, rng):
    p = field.p
    return gfpoly.trim([rng.randrange(p) for _ in range(gfpoly.deg(field.mod))])


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
            assert gfpoly._ddf(g, p) == [(g, len(g) - 1)]
            for _ in range(mult):
                prod = gfpoly.mul(prod, g, p)
        assert prod == gfpoly.from_int_poly(f, p)


def test_factor_requires_monic():
    with pytest.raises(ValueError):
        factor_mod_p([1, 2], 5)


# -- residue fields ---------------------------------------------------------------


def test_residue_fields_of_prime_ideals_are_not_rechecked(monkeypatch):
    """double_crt and verify_root on a generic field name no residue field:
    they neither split f mod q into irreducibles nor test one for
    irreducibility."""
    def refuse(*args, **kwargs):
        raise AssertionError("named a residue field")

    monkeypatch.setattr(gfpoly, "split_squarefree", refuse)
    monkeypatch.setattr(padic, "is_inert", refuse)
    K = NumberField([-1, -1, 0, 1])
    x = K.element([5, -3, 2])
    y = FactoredElement(K, [(x, 3)])
    root = eth_root_double_crt(y, 3, K, seed=1)
    assert root == x
    assert verify_root(root, y, 3, K, seed=1)


# -- powers ---------------------------------------------------------------------


@pytest.mark.parametrize("p,d", [(5, 1), (7, 3), (101, 6), (2 ** 61 - 1, 4)])
def test_pow_matches_powmod_and_keeps_one_table(p, d):
    # the field's ring keeps its Frobenius rows (d >= 3) across powers
    F = make_field(p, d, seed=d)
    F.keep_frobenius()
    table, q = F.frob, p ** d
    assert (table is None) == (d < 3)
    rng = random.Random(p + d)
    for _ in range(10):
        x = random_residue(F, rng)
        n = rng.choice([0, 1, 2, q - 1, q + 5, rng.randrange(1, 10 ** 30)])
        if x:
            want = gfpoly._Packed(F.mod, p).power(x, n % (q - 1))  # no rows kept
            assert F.power(x, n) == F.power(x, n % (q - 1)) == want
    assert F.frob is table


# -- fq_eth_root ---------------------------------------------------------------


def test_root_spec_values():
    f7 = make_field(7, 1)
    assert fq_eth_root([2], 5, f7) == [4]
    f13 = make_field(13, 1)
    assert fq_eth_root([8], 3, f13) == [5]
    f19 = make_field(19, 1)
    assert fq_eth_root([8], 3, f19) in ([2], [3], [14])


def test_root_zero_input():
    f7 = make_field(7, 1)
    with pytest.raises(ZeroInput):
        fq_eth_root([], 3, f7)


@pytest.mark.parametrize("e", [3, 5, 7, 9])
def test_root_exhaustive_small(e):
    # brute-force oracle over every odd prime power q <= 50
    for p, d, q in prime_powers_upto(50):
        field = make_field(p, d)
        units = list(field_elements(p, d))[1:]
        table = {}
        for x in units:
            table.setdefault(tuple(field.power(x, e)), []).append(x)
        unique = len(table) == q - 1
        for y, roots in table.items():
            x = fq_eth_root(list(y), e, field)
            assert tuple(field.power(x, e)) == y
            if unique:
                assert x == roots[0]
        if not unique:
            non_power = next(z for z in units if tuple(z) not in table)
            with pytest.raises(NotAPower):
                fq_eth_root(non_power, e, field)


def test_root_char2_field():
    field = make_field(2, 4, seed=3)  # F_16, 3 | q - 1
    for x in list(field_elements(2, 4))[1:]:
        y = field.power(x, 3)
        r = fq_eth_root(y, 3, field)
        assert field.power(r, 3) == y


def test_dlog_spec_value():
    f31 = make_field(31, 1)
    assert fq_dlog_order_e([16], [2], 5, f31) == 4


def test_dlog_random_round_trip():
    rng = random.Random(3)
    f = make_field(1009, 1)  # 1009 - 1 = 16 * 63 = 2^4 * 3^2 * 7
    zeta = None
    for g in range(2, 1009):
        cand = f.power([g], (1009 - 1) // 7)
        if cand != [1]:
            zeta = cand
            break
    for _ in range(25):
        j = rng.randrange(7)
        assert fq_dlog_order_e(f.power(zeta, j), zeta, 7, f) == j


def test_dlog_not_in_group():
    f31 = make_field(31, 1)
    with pytest.raises(NotInGroup):
        fq_dlog_order_e([3], [2], 5, f31)  # 3^5 = 243 != 1


def test_dlog_budget():
    f31 = make_field(31, 1)
    with pytest.raises(BudgetExceeded):
        fq_dlog_order_e([1], [2], 3 ** 26, f31)


# -- non-residues ----------------------------------------------------------------


def full_power_nonresidue(field, ell):
    """The scan as it was: every candidate raised to (q-1)/l in F_q."""
    p, d = field.p, gfpoly.deg(field.mod)
    q = p ** d
    exp = (q - 1) // ell
    for idx, t in enumerate(field_elements(p, d)):
        if idx >= min(q, 32):
            break
        if idx >= 2 and field.power(t, exp) != [1]:
            return t
    rng = random.Random(q ^ ell)
    while True:
        t = random_residue(field, rng)
        if t and field.power(t, exp) != [1]:
            return t


def split_q_minus_1(q, ell):
    """(s, v) with q - 1 = s l^v and s prime to l."""
    s, v = q - 1, 0
    while s % ell == 0:
        s //= ell
        v += 1
    return s, v


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 31, 37, 41, 61, 1009])
def test_nonresidue_matches_full_power_scan(p):
    # _nonresidue returns b = t^s for the non-residue t the full scan finds
    checked = 0
    for d in range(1, 7):
        field = make_field(p, d, seed=d)
        for ell in (3, 5, 7):
            if (p ** d - 1) % ell:
                continue
            s, v = split_q_minus_1(p ** d, ell)
            want = field.power(full_power_nonresidue(field, ell), s)
            assert _nonresidue(field, ell, s, v) == want
            checked += 1
    assert checked >= 2


def _root_or_error(root, y, e, field):
    try:
        return root(y, e, field)
    except EthrootError as exc:
        return type(exc)


def reference_eth_root(y, e, field):
    """fq_eth_root's AMM branch (v > k) as it ran with full-power searches."""
    ell, k = OddPrimePower(e).split
    x = gfpoly.rem(y, field.mod, field.p)
    for _ in range(k):
        x = amm_ell_root_by_full_powers(x, ell, field)
    return x


def test_amm_roots_match_the_full_power_reference():
    # random fields with d <= 6 and e = l^k with l^(k+1) | q - 1, so that
    # fq_eth_root takes k AMM steps: the same roots and the same errors, on
    # powers and on random elements, with and without l | (q-1)/(p-1) (where
    # no constant is a non-residue and the constant scan is skipped)
    rng = random.Random(2024)
    small = [p for p in range(3, 200) if is_prime(p)] + [1009, 65537, 2 ** 31 - 1]
    seen = {True: 0, False: 0}
    outcomes = set()
    while min(seen.values()) < 60:
        p, d = rng.choice(small), rng.randrange(1, 7)
        ell, k = rng.choice((3, 5, 7)), rng.randrange(1, 3)
        q = p ** d
        if (q - 1) % ell ** (k + 1):
            continue
        constants_skipped = (q - 1) // (p - 1) % ell == 0
        seen[constants_skipped] += 1
        field = make_field(p, d, seed=rng.randrange(1 << 30))
        e = ell ** k
        for planted in (True, False):
            y = random_residue(field, rng) or [1]
            if planted:
                y = field.power(y, e)
            got = _root_or_error(fq_eth_root, y, e, field)
            assert got == _root_or_error(reference_eth_root, y, e, field), (p, d, e, y)
            outcomes.add(got if isinstance(got, type) else "root")
    assert outcomes == {"root", NotAPower}
