"""Character, kernel, and saturation pipeline tests."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ethroot import fq, gfpoly
from ethroot import saturation as sat
from ethroot.crtroot import good_prime_stream
from ethroot.errors import (
    BudgetExceeded,
    IncompatibleFields,
    NotInGroup,
    NotUnit,
    RamifiedE,
    SearchExhausted,
    Unsupported,
    ZeroInput,
)
from ethroot.fq import dlog_mod_p_base
from ethroot.numfield import NumberField, PrimeIdealRep
from ethroot.primes import is_prime
from ethroot.saturation import (
    CharacterPrime,
    GeneratingSet,
    build_character_matrix,
    chi,
    detect_eth_powers,
    kernel_mod_e,
    saturate,
    schirokauer_map,
    select_character_primes,
)
from helpers import character_primes_from_ideals, fq_dlog_order_e

Q = NumberField([0, 1])
K4 = NumberField.cyclotomic(4)
U4 = [K4.element([1, 1]), K4.element([3, 2])]  # norms 2 and 13

CP31 = CharacterPrime(PrimeIdealRep(31, (0, 1), 1), 2)  # 2^5 = 1 mod 31


def span_mod(gens, e, s):
    """All Z/e combinations of the given exponent vectors."""
    out = {tuple([0] * s)}
    for g in gens:
        out = {tuple((a + t * b) % e for a, b in zip(v, g))
               for v in out for t in range(e)}
    return out


# -- generating sets ----------------------------------------------------------


def test_generating_set_rejects_zero_basis():
    with pytest.raises(ZeroInput):
        GeneratingSet([K4.zero], [[1]])


def test_generating_set_rejects_ragged_rows():
    with pytest.raises(ValueError):
        GeneratingSet(U4, [[1, 2], [1]])
    with pytest.raises(ValueError):
        GeneratingSet(U4, [[1, 2]], valuations=[[1], [2]])
    with pytest.raises(ValueError):
        GeneratingSet([], [])


# -- chi ----------------------------------------------------------------------


def test_chi_frozen_example():
    # 3^6 = 16 = 2^4 mod 31
    assert chi(Q.element([3]), CP31, 5) == 4


def test_chi_trivial_values():
    assert chi(Q.element([1]), CP31, 5) == 0
    assert chi(Q.element([32]), CP31, 5) == 0  # 2^5


def test_chi_is_homomorphism():
    rng = random.Random(9)
    for _ in range(20):
        a, b = rng.randrange(1, 31), rng.randrange(1, 31)
        lhs = chi(Q.element([a * b]), CP31, 5)
        rhs = (chi(Q.element([a]), CP31, 5) + chi(Q.element([b]), CP31, 5)) % 5
        assert lhs == rhs


def test_chi_rejects_non_units():
    with pytest.raises(ValueError):
        chi(Q.element([31]), CP31, 5)
    with pytest.raises(ValueError):
        chi(Q.element([1], 31), CP31, 5)
    deg2 = CharacterPrime(PrimeIdealRep(31, (1, 0, 1), 2), 2)
    with pytest.raises(ValueError):
        chi(Q.element([3]), deg2, 5)


def test_chi_budget_and_group_checks():
    # q = 14 * 3^26 + 1 is prime and 3^14 has order 3^26 mod q, an order
    # above the 2^40 BSGS budget
    big = CharacterPrime(PrimeIdealRep(14 * 3 ** 26 + 1, (0, 1), 1), 3 ** 14)
    with pytest.raises(BudgetExceeded):
        chi(Q.element([3]), big, 3 ** 26)
    with pytest.raises(IncompatibleFields):
        chi(Q.element([3]), CP31, 3 ** 26)  # 2 has order 5, not 3^26
    with pytest.raises(IncompatibleFields):
        chi(Q.element([3]), CP31, 7)  # 7 does not divide 30: no order 7 mod 31
    ideal = CP31.Q_ideal
    with pytest.raises(IncompatibleFields):
        chi(Q.element([3]), CharacterPrime(ideal, 10), 5)  # 10^5 = 25 mod 31
    with pytest.raises(IncompatibleFields):
        chi(Q.element([3]), CharacterPrime(ideal, 1), 5)  # order 1, not 5


def test_chi_rejects_an_even_e():
    # even e is out of scope, as at eth_root
    cp = CharacterPrime(PrimeIdealRep(17, (0, 1), 1), 2)  # 2 has order 8 mod 17
    for e in (2, 8):
        with pytest.raises(Unsupported):
            chi(Q.element([3]), cp, e)


def test_dlog_mod_p_base_budget_and_group_checks():
    with pytest.raises(BudgetExceeded):
        dlog_mod_p_base(2, 3 ** 26, 31)  # above the 2^40 budget
    with pytest.raises(NotInGroup):
        dlog_mod_p_base(2, 5, 31)(3)  # 3^5 = 243 = 26 mod 31


@pytest.mark.parametrize("e, ell, digit", [
    (3 ** 5, 3, 3), (3 ** 5, 3, 9), (3 ** 5, 3, 27), (5 ** 3, 5, 5), (7 ** 2, 7, 7)])
def test_dlog_digits_give_every_log(monkeypatch, e, ell, digit):
    # DLOG_DIGIT below e: the log is read in base-D digits, D the largest
    # power of l up to DLOG_DIGIT, so 3^5 takes digits 9, 9, 3 at digit 9
    # and 27, 9 at digit 27
    q = next(q for q in itertools.count(2 * e + 1, 2 * e) if is_prime(q))
    z = next(z for z in (pow(g, (q - 1) // e, q) for g in itertools.count(2))
             if pow(z, e // ell, q) != 1)
    monkeypatch.setattr(fq, "DLOG_DIGIT", digit)
    log = dlog_mod_p_base(z, e, q)
    assert [log(pow(z, j, q)) for j in range(e)] == list(range(e))
    outside = next(t for t in range(2, q) if pow(t, e, q) != 1)
    with pytest.raises(NotInGroup):
        log(outside)


# e -> (prime q = 1 mod e, the prime dividing e)
CHAR_CASES = {3: (1000003, 3), 5: (1000081, 5), 25: (1000151, 5), 49: (1000679, 7)}


@settings(max_examples=60, derandomize=True, deadline=None)
@given(e=st.sampled_from(sorted(CHAR_CASES)), g=st.integers(2, 10 ** 6),
       a=st.integers(1, 10 ** 6), j=st.integers(0, 48))
def test_integer_character_log_matches_fq_dlog(e, g, a, j):
    q, ell = CHAR_CASES[e]
    z = pow(g, (q - 1) // e, q)
    if pow(z, e // ell, q) == 1:
        return  # z must have exact order e
    field = gfpoly._Packed([0, 1], q)
    t = pow(z, j, q)  # a random element of the order-e subgroup
    assert dlog_mod_p_base(z, e, q)(t) == fq_dlog_order_e([t], [z], e, field)
    cp = CharacterPrime(PrimeIdealRep(q, (0, 1), 1), z)
    want = fq_dlog_order_e([pow(a, (q - 1) // e, q)], [z], e, field)
    assert chi(Q.element([a]), cp, e) == want


# -- character prime selection --------------------------------------------------


def test_select_congruence_classes():
    cps = select_character_primes(K4, 5, 4, U4, seed=1)
    assert len(cps) == 4
    for cp in cps:
        assert cp.Q_ideal.p % 20 == 1  # lcm(e, m) = 20
        assert cp.Q_ideal.f_deg == 1
    # 41 = 2 * 20 + 1 is the classic small witness for this class
    assert 41 % 20 == 1


def test_select_rational_case():
    cps = select_character_primes(Q, 5, 2, [Q.element([2])], seed=2)
    assert all(cp.Q_ideal.p % 5 == 1 for cp in cps)
    assert 11 % 5 == 1


def test_select_tables_and_zeta_are_exact():
    cps = select_character_primes(K4, 5, 3, U4, seed=3)
    for cp in cps:
        q = cp.Q_ideal.p
        assert pow(cp.zeta, 5, q) == 1
        assert cp.zeta != 1
        for j, u in enumerate(U4):
            assert chi(u, cp, 5) == cp.table[j]


def test_select_avoids_basis_divisors():
    q0 = select_character_primes(K4, 5, 1, U4, seed=4)[0].Q_ideal.p
    tainted = U4 + [K4.element([q0])]
    cps = select_character_primes(K4, 5, 3, tainted, seed=4)
    assert all(cp.Q_ideal.p != q0 for cp in cps)


@pytest.mark.parametrize("m,e", [(4, 3), (4, 25), (16, 3), (16, 5)])
def test_cyclotomic_character_primes_match_split_prime_ideals(m, e):
    # the roots come from one w per prime; primes, order and chi tables are
    # those of the split ideals prime_ideals lists
    K = NumberField.cyclotomic(m)
    for seed in range(4):
        rng = random.Random(f"chars:{m}:{e}:{seed}")
        U = [K.random_element(rng, 12) for _ in range(3)]
        count = 2 * K.n + 3  # runs past one prime's ideals
        got = select_character_primes(K, e, count, U, seed=seed)
        assert got == character_primes_from_ideals(K, e, count, U, seed)


@pytest.mark.parametrize("f", [[-1, -1, 0, 1], [-1, -1, 0, 0, 1]], ids=["x^3-x-1", "x^4-x-1"])
@pytest.mark.parametrize("e", [3, 5, 9, 25])
def test_generic_character_primes_match_prime_ideals(f, e):
    # the roots come from gfpoly.roots; primes, order and chi tables are
    # those of the degree-1 ideals prime_ideals lists
    K = NumberField(f)
    for seed in range(4):
        rng = random.Random(f"chars:{f}:{e}:{seed}")
        U = [K.random_element(rng, 12) for _ in range(3)]
        count = 2 * K.n + 3
        got = select_character_primes(K, e, count, U, seed=seed)
        assert got == character_primes_from_ideals(K, e, count, U, seed)



def test_character_primes_depend_on_the_seed_alone():
    # whatever walks of other seeds, e or M (and the double CRT's) ran on
    # the field before, a call reads the same primes from its kept table
    def select(K, e, seed):
        U = [K.element([2, 1]), K.element([3, -1])]
        return select_character_primes(K, e, 2 * K.n + 3, U, seed=seed)

    for make in (lambda: NumberField([-1, -1, 0, 1]), lambda: NumberField.cyclotomic(16)):
        fresh = select(make(), 5, 3)
        K = make()
        for seed, e in itertools.product(range(5), (3, 7, 25)):
            select(K, e, seed)
            next(good_prime_stream(K, e, seed=seed))
        assert select(K, 5, 3) == fresh


def test_character_primes_of_a_large_e_fill_their_range():
    # Q(zeta_4), e = 3^25: M = 4e leaves about 2^12 values of t for 23
    # ideals, two per prime, and every seed's walk finds them. The logs are
    # read in base-3^12 digits, so a prime's table has 729 baby steps
    e = 3 ** 25
    for seed in range(4):
        cps = select_character_primes(K4, e, 23, U4, seed=seed)
        assert len(cps) == 23
        for cp in cps:
            q, z = cp.Q_ideal.p, cp.zeta
            r = (-cp.Q_ideal.g[0]) % q
            assert q % (4 * e) == 1
            assert pow(z, e, q) == 1 and pow(z, e // 3, q) != 1
            assert all(pow(z, t, q) == pow(sat._unit_residue(u, r, q), (q - 1) // e, q)
                       for u, t in zip(U4, cp.table))


def test_character_walk_wraps_past_the_end_of_its_range():
    # x^3 - x - 1, e = 2^31 - 1: 32 blocks of t, and seed 4 starts in the
    # last one, so the walk goes on from the range's first block
    K = NumberField([-1, -1, 0, 1])
    e = 2 ** 31 - 1
    U = [K.element([2, 1]), K.element([3, 2])]
    cps = select_character_primes(K, e, 23, U, seed=4)
    qs = [cp.Q_ideal.p for cp in cps]
    assert len(cps) == 23 and qs != sorted(qs)
    assert cps == character_primes_from_ideals(K, e, 23, U, 4)
    assert all(chi(u, cp, e) == cp.table[j] for cp in cps[:3] for j, u in enumerate(U))


def test_detect_planted_relation_at_a_31_bit_e():
    # e = 2^31 - 1 on x^3 - x - 1: the character primes lie above 40 bits
    K = NumberField([-1, -1, 0, 1])
    e = 2 ** 31 - 1
    G = GeneratingSet([K.element([2, 1]), K.element([3, 2])], [[e, 0], [0, 1]])
    for seed in (0, 4):
        assert [alpha for alpha, _ in detect_eth_powers(G, e, K, seed=seed)] == [(1, 0)]

def test_select_preconditions(monkeypatch):
    with pytest.raises(ValueError):
        select_character_primes(K4, 5, 0, U4)
    monkeypatch.setattr(sat, "SELECT_BUDGET", 0)
    with pytest.raises(SearchExhausted):
        select_character_primes(K4, 5, 1, U4)


# -- schirokauer map -------------------------------------------------------------


def test_schirokauer_frozen_example():
    # rho = 4, 2^4 = 16, (16 - 1) / 5 = 3
    assert schirokauer_map(Q.element([2]), 5, Q) == [3]


def test_schirokauer_prime_power_modulus():
    # rho = 3 * (3 - 1) = 6: 2^6 = 64 = 1 + 7 * 9 mod 81
    assert schirokauer_map(Q.element([2]), 9, Q) == [7]
    assert schirokauer_map(Q.element([512]), 9, Q) == [0]  # 2^9


def test_schirokauer_trivial_and_killed_powers():
    assert schirokauer_map(K4.one, 5, K4) == [0, 0]
    rng = random.Random(11)
    for _ in range(10):
        u = K4.element([rng.randrange(-9, 10), rng.randrange(-9, 10)])
        if u.is_zero():
            continue
        try:
            lam = schirokauer_map(u ** 5, 5, K4)
        except NotUnit:
            continue  # u happened to meet a prime above 5
        assert lam == [0, 0]


def test_schirokauer_is_homomorphism():
    u, v = U4
    a = schirokauer_map(u, 5, K4)
    b = schirokauer_map(v, 5, K4)
    ab = schirokauer_map(u * v, 5, K4)
    assert [(x + y) % 5 for x, y in zip(a, b)] == ab


def test_schirokauer_ramified_rejected():
    K9 = NumberField.cyclotomic(9)
    with pytest.raises(RamifiedE):
        schirokauer_map(K9.element([2, 0, 0, 0, 0, 0]), 3, K9)


def test_schirokauer_non_unit_rejected():
    with pytest.raises(NotUnit):
        schirokauer_map(Q.element([5]), 5, Q)
    with pytest.raises(NotUnit):
        schirokauer_map(Q.element([1], 5), 5, Q)


# -- matrix assembly --------------------------------------------------------------


def test_matrix_identity_rows_are_raw_values():
    cps = select_character_primes(K4, 5, 3, U4, seed=5)
    G = GeneratingSet(U4, [[1, 0], [0, 1]])
    mat = build_character_matrix(G, cps, 5)
    for j, cp in enumerate(cps):
        assert mat.M[0][j] == cp.table[0]
        assert mat.M[1][j] == cp.table[1]
        assert mat.column_tags[j][0] == "chi"


def test_matrix_power_row_vanishes():
    cps = select_character_primes(K4, 5, 4, U4, seed=6)
    G = GeneratingSet(U4, [[5, 0], [10, 5]])
    mat = build_character_matrix(G, cps + ["schirokauer"], 5)
    assert all(all(c == 0 for c in row) for row in mat.M)


def test_matrix_hand_checked_combination():
    cps = select_character_primes(K4, 5, 2, U4, seed=7)
    E = [[2, 1], [1, 3]]
    mat = build_character_matrix(GeneratingSet(U4, E), cps, 5)
    u1, u2 = U4
    for j, cp in enumerate(cps):
        assert mat.M[0][j] == chi(u1 ** 2 * u2, cp, 5)
        assert mat.M[1][j] == chi(u1 * u2 ** 3, cp, 5)


def test_matrix_valuation_columns():
    G = GeneratingSet(U4, [[1, 0], [0, 1]], valuations=[[7, -1], [3, 0]])
    mat = build_character_matrix(G, ["valuations"], 5)
    assert mat.M == [[2, 4], [3, 0]]
    assert mat.column_tags == [("val", 0), ("val", 1)]


def test_matrix_rejects_bad_columns():
    G = GeneratingSet(U4, [[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        build_character_matrix(G, ["valuations"], 5)
    with pytest.raises(ValueError):
        build_character_matrix(G, ["frobenius"], 5)


# -- kernels ------------------------------------------------------------------------


def test_kernel_frozen_examples():
    assert kernel_mod_e([[1]], 5) == []
    assert kernel_mod_e([[3]], 9) == [(3,)]
    assert sorted(kernel_mod_e([[0, 0], [0, 0]], 5)) == [(0, 1), (1, 0)]


def test_kernel_rejects_an_even_e():
    # even e is out of scope, as at eth_root
    for e in (2, 8):
        with pytest.raises(Unsupported):
            kernel_mod_e([[1]], e)


def test_kernel_matches_brute_force():
    rng = random.Random(13)
    for e in (3, 5, 9, 25):
        for _ in range(6):
            s, k = rng.randrange(1, 4), rng.randrange(1, 4)
            M = [[rng.randrange(e) for _ in range(k)] for _ in range(s)]
            gens = kernel_mod_e(M, e)
            for alpha in gens:
                assert all(
                    sum(alpha[i] * M[i][j] for i in range(s)) % e == 0
                    for j in range(k))
            brute = {
                alpha
                for alpha in _vectors(e, s)
                if all(sum(alpha[i] * M[i][j] for i in range(s)) % e == 0
                       for j in range(k))}
            assert span_mod(gens, e, s) == brute


def _vectors(e, s):
    out = [()]
    for _ in range(s):
        out = [v + (t,) for v in out for t in range(e)]
    return out


# -- detection and saturation ----------------------------------------------------


def test_detect_explicit_power():
    G = GeneratingSet(U4, [[5, 0], [1, 2]])
    dets = detect_eth_powers(G, 5, K4, seed=2)
    assert [a for a, _ in dets] == [(1, 0)]
    assert [ex for _, ex in dets[0][1].terms] == [5]


def test_detect_planted_relation():
    # alpha* = (1, 2): row1 + 2 * row2 = (5, 5)
    G = GeneratingSet(U4, [[1, 3], [2, 1]])
    dets = detect_eth_powers(G, 5, K4, seed=3)
    want = span_mod([(1, 2)], 5, 2)
    got = span_mod([a for a, _ in dets], 5, 2)
    assert got == want
    for _, y in dets:
        assert all(ex % 5 == 0 for _, ex in y.terms)


def test_detect_planted_relations_many_fields():
    cases = [(3, NumberField.cyclotomic(4), [1, 1], [3, 2]),
             (5, NumberField.cyclotomic(15), [1, 1, 0, 0, 0, 0, 0, 0],
              [2, 0, 1, 0, 0, 0, 0, 0]),
             (25, NumberField.cyclotomic(16), [1, 1, 0, 0, 0, 0, 0, 0],
              [2, 0, 1, 0, 0, 0, 0, 0])]
    for e, K, c1, c2 in cases:
        U = [K.element(c1), K.element(c2)]
        ell = 3 if e % 3 == 0 else 5
        for seed in range(8):
            rng = random.Random(1000 * e + seed)
            row2 = [rng.randrange(e), rng.randrange(1, e)]
            while row2[1] % ell == 0:  # unit pivot keeps the kernel rank 1
                row2[1] = rng.randrange(1, e)
            row1 = [(-2 * c) % e + e * rng.randrange(3) for c in row2]
            G = GeneratingSet(U, [row1, row2])
            dets = detect_eth_powers(G, e, K, seed=seed)
            got = span_mod([a for a, _ in dets], e, 2)
            assert got == span_mod([(1, 2)], e, 2), (e, K.conductor, seed)


def test_detect_no_relations_stays_empty():
    # E invertible mod 5 and U multiplicatively independent: no kernel
    for seed in range(50):
        rng = random.Random(seed)
        while True:
            E = [[rng.randrange(5) for _ in range(2)] for _ in range(2)]
            if (E[0][0] * E[1][1] - E[0][1] * E[1][0]) % 5:
                break
        G = GeneratingSet(U4, E)
        assert detect_eth_powers(G, 5, K4, seed=seed) == []


def test_detect_large_e_recipe(monkeypatch):
    # forcing the dlog cutoff exercises the schirokauer + valuation path
    monkeypatch.setattr(sat, "DLOG_BUDGET", 1)
    G = GeneratingSet(U4, [[5, 0], [1, 2]], valuations=[[0], [1]])
    dets = detect_eth_powers(G, 5, K4, seed=7)
    assert [a for a, _ in dets] == [(1, 0)]


def test_saturate_plants_and_recovers_root():
    g = K4.element([2, 1])
    G = GeneratingSet([g ** 3, U4[1]], [[1, 0], [0, 1]])
    sats = saturate(G, 3, K4, seed=5)
    assert len(sats) == 1
    alpha, res = sats[0]
    assert alpha == (1, 0)
    assert res.root == g
    assert res.method_used == "double_crt"


def test_saturate_redundant_kernel_gives_two_roots():
    G = GeneratingSet(U4, [[3, 0], [6, 3]])
    sats = saturate(G, 3, K4, seed=6)
    assert sorted(a for a, _ in sats) == [(0, 1), (1, 0)]
    for alpha, res in sats:
        want = U4[0] if alpha == (1, 0) else U4[0] ** 2 * U4[1]
        assert res.root == want


def test_saturate_empty_without_relations():
    G = GeneratingSet(U4, [[1, 2], [3, 2]])
    assert saturate(G, 5, K4, seed=8) == []
