"""Relative Couveignes method: admissible primes, norm anchoring, towers."""

import math
import random

import pytest

from ethroot import couveignes, gfpoly, padic, strategy
from ethroot.counters import record
from ethroot.couveignes import (
    CouveignesPrime,
    build_tower,
    couveignes_mod_p,
    eth_root_couveignes,
    make_couveignes_prime,
    select_couveignes_primes,
)
from ethroot.errors import (
    BoundViolation,
    NormMismatch,
    NotApplicable,
    SearchExhausted,
    VerificationFailed,
)
from ethroot.fq import factor_mod_p
from ethroot.numfield import (
    FactoredElement,
    NumberField,
    PrimeIdealRep,
    SubfieldEmbedding,
    crt_integers_symmetric,
    relative_norm,
)
from ethroot.padic import eth_root_padic, eth_root_padic_reconstruct, find_inert_prime
from ethroot.cli import _random_element
from ethroot.primes import derive_rng, multiplicative_order
from ethroot.strategy import RootRequest, eth_root

from helpers import fold_mod_p, from_subfield

K15 = NumberField.cyclotomic(15)
L3 = NumberField.cyclotomic(3)
EMB15 = SubfieldEmbedding.cyclotomic(K15, 3)

K35 = NumberField.cyclotomic(35)
L5 = NumberField.cyclotomic(5)
EMB35 = SubfieldEmbedding.cyclotomic(K35, 5)


def _padic_solver(L, e, seed):
    p = find_inert_prime(L, e, seed=seed)
    assert p is not None

    def solve(y_sub):
        return eth_root_padic(y_sub, e, L, p, seed=seed + 1)

    return solve


def test_make_couveignes_prime_admissible_7():
    # ord_15(7) = 4 = [K:L] * ord_3(7)
    assert make_couveignes_prime(K15, EMB15, 7) == CouveignesPrime(7, 1)


def test_make_couveignes_prime_rejects_wrong_order():
    # ord_15(2) = 4 but ord_3(2) = 2, so 4 != 4 * 2
    assert make_couveignes_prime(K15, EMB15, 2) is None


def test_make_couveignes_prime_rejects_ramified():
    assert make_couveignes_prime(K15, EMB15, 3) is None
    assert make_couveignes_prime(K15, EMB15, 5) is None


def test_select_primes_admissible_classes():
    with record() as counts:
        cps = select_couveignes_primes(K15, EMB15, 3, 10 ** 40, seed=1)
    prod = math.prod(cp.p for cp in cps)
    assert prod > 2 * 10 ** 40
    assert len({cp.p for cp in cps}) == len(cps)
    for cp in cps:
        assert cp.p % 15 in (7, 13)
        assert multiplicative_order(cp.p, 15) == 4 * multiplicative_order(cp.p, 3)
    assert counts["couveignes"]["primes"] == len(cps)


def test_select_primes_are_kept_table_primes():
    K = NumberField.cyclotomic(15)
    emb = SubfieldEmbedding.cyclotomic(K, 3)
    cps = select_couveignes_primes(K, emb, 3, 10 ** 40, seed=1)
    kept = {q for (M, bits, _), block in K.prime_blocks.items()
            if (M, bits) == (2, couveignes.CRT_BITS) for q in block[::2]}
    assert len(cps) > 1
    for cp in cps:
        assert cp.p % 2 and cp.p.bit_length() == couveignes.CRT_BITS and cp.p in kept
        assert make_couveignes_prime(K, emb, cp.p) == cp


def test_second_root_reads_the_kept_couveignes_primes(monkeypatch):
    K12 = NumberField.cyclotomic(12)
    degrees = []
    real = K12.residue_degrees

    def counted(q):
        degrees.append(q)
        return real(q)

    monkeypatch.setattr(K12, "residue_degrees", counted)
    x = K12.element([5, -2, 7, 3])
    req = RootRequest(K12, 3, FactoredElement(K12, [(x ** 3, 1)]), seed=2)
    first = eth_root(req)
    assert first.method_used == "couveignes" and first.root ** 3 == x ** 3
    assert degrees
    blocks = dict(K12.prime_blocks)
    degrees.clear()
    second = eth_root(req)
    # the same seed walks the same kept block, whose degrees are known
    assert degrees == [] and K12.prime_blocks == blocks
    assert (second.root, second.method_used) == (first.root, "couveignes")


# (m, seed) -> j with root = x zeta_3^j for `ethroot bench --suite
# couveignes-scaling` (e = 3, 20-bit x): any admissible CRT primes give the
# one vector within the bound, so the root depends on the norm roots alone
SCALING_PINS = {(15, 0): 0, (15, 1): 0, (15, 2): 1, (45, 0): 0, (45, 1): 1, (45, 2): 0}


@pytest.mark.parametrize("m", [15, 45])
def test_couveignes_scaling_roots_are_pinned(m):
    K = NumberField.cyclotomic(m)
    zeta3 = K.gen ** (m // 3)
    for seed in range(3):
        x = _random_element(K, 20, derive_rng(seed, f"bench-couveignes-scaling-{m}-3-20"))
        req = RootRequest(K, 3, FactoredElement(K, [(x ** 3, 1)]), "couveignes", seed)
        assert eth_root(req).root == x * zeta3 ** SCALING_PINS[m, seed]


def test_select_primes_gcd_precondition():
    # [K35:L5] = 6 shares the factor 3 with e = 3
    with pytest.raises(ValueError):
        select_couveignes_primes(K35, EMB35, 3, 100, seed=0)


def test_select_primes_search_exhausted(monkeypatch):
    # Gal(Q(zeta_24)/Q(zeta_3)) is Klein four: no prime is inert relative to L
    K24 = NumberField.cyclotomic(24)
    emb = SubfieldEmbedding.cyclotomic(K24, 3)
    monkeypatch.setattr(couveignes, "PRIME_BUDGET", 150)
    with pytest.raises(SearchExhausted):
        select_couveignes_primes(K24, emb, 5, 10 ** 6, seed=0)


def test_couveignes_mod_p_trivial():
    cp = make_couveignes_prime(K15, EMB15, 7)
    out = couveignes_mod_p(FactoredElement(K15, []), 3, EMB15, L3.one, cp)
    assert out == [1, 0, 0, 0, 0, 0, 0, 0]


def test_couveignes_mod_p_anchored_zeta5():
    # y = zeta_5 = zeta_15^3; anchoring to a = N(zeta_15) = zeta_3^2 singles
    # out the cube root zeta_15 itself at every admissible prime
    y = FactoredElement(K15, [(K15.gen, 3)])
    a = relative_norm(FactoredElement(K15, [(K15.gen, 1)]), EMB15).value()
    assert a == L3.element([-1, -1])
    residues = {}
    for p in (7, 13, 43):
        cp = make_couveignes_prime(K15, EMB15, p)
        assert cp is not None
        residues[p] = couveignes_mod_p(y, 3, EMB15, a, cp)
    for pair in ((7, 13), (7, 43), (13, 43)):
        coords = crt_integers_symmetric(
            [residues[pair[0]], residues[pair[1]]], list(pair), 5
        )
        assert K15.element(coords) == K15.gen


def test_couveignes_mod_p_root_with_anchored_norm():
    # in R = F_p[t]/(Phi_15 mod p) the residue x is an e-th root of y whose
    # Frobenius norm x^E, E = (p^4 - 1)/(p - 1), is the anchor a pushed to K
    rng = random.Random(19)
    w = K15.element([rng.randrange(-3, 4) for _ in range(8)], den=2)
    y = FactoredElement(K15, [(w, 3), (K15.gen, 3)])
    a = relative_norm(FactoredElement(K15, [(w * K15.gen, 1)]), EMB15).value()
    for p in (7, 13, 43):
        ring = gfpoly._Packed(gfpoly.from_int_poly(list(K15.f), p), p)
        cp = make_couveignes_prime(K15, EMB15, p)
        assert cp == CouveignesPrime(p, 1)
        xbar = gfpoly.trim(couveignes_mod_p(y, 3, EMB15, a, cp))
        E = (p ** 4 - 1) // (p - 1)
        assert ring.power(xbar, 3) == fold_mod_p(y, p)
        abar = gfpoly.trim(from_subfield(EMB15, a).reduce_mod_prime(p))
        assert ring.power(xbar, E) == abar


def test_couveignes_mod_p_factor_vanishing_at_one_ideal():
    # u = g(alpha) for one quartic factor g of Phi_15 mod 7 lies in exactly
    # one of the two primes above 7; u is still the root of u^3 anchored by
    # N(u), 0 at that prime and a unit at the other
    g = factor_mod_p(list(K15.f), 7)[0][0]
    assert len(g) == 5
    u = K15.element(g)
    a = relative_norm(FactoredElement(K15, [(u, 1)]), EMB15).value()
    cp = make_couveignes_prime(K15, EMB15, 7)
    out = couveignes_mod_p(FactoredElement(K15, [(u ** 3, 1)]), 3, EMB15, a, cp)
    assert out == u.reduce_mod_prime(7)


def test_couveignes_mod_p_norm_mismatch():
    y = FactoredElement(K15, [(K15.gen, 3)])
    bad = L3.element([1, 1])  # (1 + zeta_3)^3 = -1 is not N(y)
    cp = make_couveignes_prime(K15, EMB15, 7)
    with pytest.raises(NormMismatch):
        couveignes_mod_p(y, 3, EMB15, bad, cp)


def test_eth_root_couveignes_roundtrip():
    rng = random.Random(11)
    x = K15.element([rng.randrange(-2, 3) for _ in range(8)])
    y = FactoredElement(K15, [(x, 3)])
    solver = _padic_solver(L3, 3, seed=2)
    with record() as counts:
        root = eth_root_couveignes(y, 3, K15, EMB15, solver, seed=5)
    assert root ** 3 == x ** 3
    assert counts["couveignes"]["norm_checks"] > 0
    # deterministic for a fixed seed
    assert eth_root_couveignes(y, 3, K15, EMB15, solver, seed=5) == root


def test_eth_root_couveignes_empty():
    solver = _padic_solver(L3, 3, seed=2)
    assert eth_root_couveignes(FactoredElement(K15, []), 3, K15, EMB15, solver) == K15.one


def test_eth_root_couveignes_multiprime():
    # 30-bit coordinates force the CRT across several 62-bit primes
    rng = random.Random(23)
    x = K15.element([rng.getrandbits(30) - (1 << 29) for _ in range(8)])
    y = FactoredElement(K15, [(x, 3)])
    solver = _padic_solver(L3, 3, seed=2)
    root = eth_root_couveignes(y, 3, K15, EMB15, solver, seed=4)
    assert root ** 3 == x ** 3


def test_eth_root_couveignes_rational():
    rng = random.Random(31)
    x = K15.element([rng.randrange(-2, 3) for _ in range(8)], den=3) * 2
    y = FactoredElement(K15, [(x, 3)])
    solver = _padic_solver(L3, 3, seed=2)
    root = eth_root_couveignes(y, 3, K15, EMB15, solver, seed=8)
    assert root ** 3 == x ** 3


def test_eth_root_couveignes_zeta35():
    # e = 5 over L = Q(zeta_5), [K:L] = 6
    rng = random.Random(7)
    x = K35.element([rng.randrange(-1, 2) for _ in range(24)])
    y = FactoredElement(K35, [(x, 5)])
    solver = _padic_solver(L5, 5, seed=1)
    root = eth_root_couveignes(y, 5, K35, EMB35, solver, seed=9)
    assert root ** 5 == x ** 5


def test_eth_root_couveignes_preconditions():
    solver = _padic_solver(L3, 3, seed=2)
    y35 = FactoredElement(K35, [(K35.gen, 3)])
    with pytest.raises(ValueError):
        eth_root_couveignes(y35, 3, K35, EMB35, solver)  # gcd(6, 3) != 1
    y15 = FactoredElement(K15, [(K15.gen, 5)])
    with pytest.raises(ValueError):
        eth_root_couveignes(y15, 5, K15, EMB15, solver)  # zeta_5 not in Q(zeta_3)


def test_eth_root_couveignes_rejects_noncube():
    # u = sigma(w)/w has relative norm 1 but is not a cube; certify that via
    # a nontrivial cube character at a split prime before expecting failure
    u = (K15.one + K15.gen ** 7) / (K15.one + K15.gen)
    q = 31
    facts = factor_mod_p(list(K15.f), q)
    chars = []
    for gq, _ in facts:
        fld = gfpoly._Packed(gq, q)
        ubar = gfpoly.rem(fold_mod_p(FactoredElement(K15, [(u, 1)]), q), gq, q)
        chars.append(fld.power(ubar, (q ** gfpoly.deg(gq) - 1) // 3) != [1])
    assert any(chars)
    rng = random.Random(5)
    x = K15.element([rng.randrange(-2, 3) for _ in range(8)])
    y = FactoredElement(K15, [(x, 3), (u, 1)])
    solver = _padic_solver(L3, 3, seed=2)
    with pytest.raises((BoundViolation, VerificationFailed)):
        eth_root_couveignes(y, 3, K15, EMB15, solver, seed=7)


def test_agrees_with_reconstruct():
    # both bad-case methods must return a root of the same power
    rng = random.Random(17)
    x = K15.element([rng.randrange(-2, 3) for _ in range(8)])
    y = FactoredElement(K15, [(x, 3)])
    g2 = factor_mod_p(list(K15.f), 2)
    pil = PrimeIdealRep(2, tuple(g2[0][0]), len(g2[0][0]) - 1)
    r_lat = eth_root_padic_reconstruct(y, 3, K15, pil, seed=5)
    r_cv = eth_root_couveignes(y, 3, K15, EMB15, _padic_solver(L3, 3, seed=2), seed=6)
    assert r_lat ** 3 == r_cv ** 3 == x ** 3


def test_build_tower_examples():
    for K, chain in ((K15, [15, 3]), (NumberField.cyclotomic(45), [45, 9]),
                     (NumberField.cyclotomic(105), [105, 21])):
        levels = build_tower(K, 3)
        assert [f.conductor for f in levels] == chain
        assert levels[0] is K
        # each level below the top is the subfield its parent keeps
        for top, bot in zip(levels, levels[1:]):
            assert bot is SubfieldEmbedding.cyclotomic(top, bot.conductor).L


def test_build_tower_not_applicable():
    with pytest.raises(NotApplicable):
        build_tower(NumberField.cyclotomic(55), 5)  # [K:L] = 10 shares 5
    with pytest.raises(NotApplicable):
        build_tower(NumberField.cyclotomic(9), 3)  # no proper subfield keeps zeta_9


def test_build_tower_preconditions():
    with pytest.raises(ValueError):
        build_tower(NumberField([2, 0, 1]), 3)  # no conductor
    with pytest.raises(ValueError):
        build_tower(K15, 9)  # 9 does not divide 15


def test_tower_plan_invariants():
    from ethroot.primes import euler_phi

    for m, e in ((15, 3), (45, 3), (105, 3)):
        levels = build_tower(NumberField.cyclotomic(m), e)
        assert isinstance(levels, tuple)
        assert levels[0].conductor == m
        assert levels[-1].conductor % e == 0  # zeta_e in the base field
        for top, bot in zip(levels, levels[1:]):
            mt, mb = top.conductor, bot.conductor
            assert mt % mb == 0
            step = euler_phi(mt) // euler_phi(mb)
            assert math.gcd(step, e) == 1
            group = [t for t in range(1, mt)
                     if math.gcd(t, mt) == 1 and t % mb == 1]
            assert any(multiplicative_order(t, mt) == len(group) for t in group)


def test_tower_levels_compute_their_cinf_once(monkeypatch):
    # the base Q(zeta_3) is the one kept below K, not built again per root
    K12 = NumberField.cyclotomic(12)
    computed = []
    real = NumberField.cinf

    def counted(self):
        if self._cinf is None:
            computed.append(self.conductor)
        return real(self)

    monkeypatch.setattr(NumberField, "cinf", counted)
    for x in (K12.element([1, 2, 0, -1]), K12.element([3, 0, 1, 1])):
        r = eth_root(RootRequest(K12, 3, FactoredElement(K12, [(x ** 3, 1)]), "couveignes"))
        assert r.root ** 3 == x ** 3
    assert computed.count(3) == 1 and computed.count(12) == 1


def test_non_cyclic_tower_base_goes_to_reconstruct(monkeypatch):
    # (Z/21)* is not cyclic: find_inert_prime answers None before any draw,
    # and _base_root goes on to reconstruct
    L21 = NumberField.cyclotomic(21)
    draws, reconstructs = [], []
    real_stream, real_reconstruct = padic.prime_stream, strategy.run_reconstruct

    def stream(rng, bits, *args, **kwargs):
        draws.append(bits)
        return real_stream(rng, bits, *args, **kwargs)

    def reconstruct(*args):
        reconstructs.append(args[1])
        return real_reconstruct(*args)

    monkeypatch.setattr(padic, "prime_stream", stream)
    monkeypatch.setattr(strategy, "run_reconstruct", reconstruct)
    x = L21.element([1, -1, 0, 2])
    root = strategy._base_root(FactoredElement(L21, [(x ** 3, 1)]), L21, 3, 0)
    assert root ** 3 == x ** 3
    assert padic.INERT_BITS not in draws
    assert reconstructs == [L21]
