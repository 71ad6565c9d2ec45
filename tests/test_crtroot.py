import itertools
import math
import random
import time

import pytest

from ethroot import cli, crtroot, gfpoly, numfield
from ethroot.crtroot import (
    GoodPrime,
    Rejection,
    check_good_prime,
    eth_root_double_crt,
    eth_root_mod_q,
    good_prime_stream,
    is_bad_field,
)
from ethroot.errors import NotApplicable, SearchExhausted, Unsupported, VerificationFailed
from ethroot.fq import factor_mod_p
from ethroot.numfield import FactoredElement, NumberField, multi_reduce
from ethroot.primes import derive_rng, factorize, is_prime
from ethroot.saturation import select_character_primes
from ethroot.strategy import RootRequest, eth_root
from helpers import eth_root_mod_q_by_ideals, random_prime, select_crt_primes


def factored(K, pairs):
    return FactoredElement(K, pairs)


# -- check_good_prime -----------------------------------------------------------


def test_check_good_prime_examples():
    K15 = NumberField.cyclotomic(15)
    gp = check_good_prime(2, K15, 7)
    assert gp == GoodPrime(2, (4,))  # two ideals of degree 4, F_16 each

    Ki = NumberField.cyclotomic(4)
    rej = check_good_prime(11, Ki, 3)  # 11 inert, 11^2 = 1 mod 3
    assert isinstance(rej, Rejection) and rej.kind == "root-of-unity"
    assert rej.degree == 2

    gp5 = check_good_prime(5, Ki, 3)
    assert isinstance(gp5, GoodPrime) and gp5.degrees == (1,) and gp5.w in (2, 3)
    assert Ki.degree_one_roots(5) == (3, 2)


def test_check_good_prime_ramified():
    K = NumberField.cyclotomic(15)
    assert check_good_prime(5, K, 7).kind == "ramified"
    assert check_good_prime(3, K, 7).kind == "ramified"


def test_check_good_prime_generic_field():
    K = NumberField([2, 0, 1])  # x^2 + 2, ramified at 2
    assert check_good_prime(2, K, 3).kind == "ramified"
    gp = check_good_prime(5, K, 3)  # x^2 + 2 irreducible mod 5, 25 = 1 mod 3
    assert isinstance(gp, Rejection)
    gp = check_good_prime(11, K, 3)  # 3^2 = 9 = -2, so split; 11 = 2 mod 3
    assert gp == GoodPrime(11, (1,))


ELL = {3: 3, 5: 5, 25: 5}  # e -> rad(e)


def reference_good_prime(q, K, e, fac):
    """The decision taken from a full factorization fac of f mod q: the
    factor degrees, ascending and distinct, of a good q."""
    ell = ELL[e]
    if any(mult > 1 for _, mult in fac):
        return Rejection("ramified")
    for g, _ in fac:
        if pow(q, len(g) - 1, ell) == 1:
            return Rejection("root-of-unity", len(g) - 1)
    return GoodPrime(q, tuple(sorted({len(g) - 1 for g, _ in fac})))


def test_check_good_prime_matches_full_factorization():
    rng = random.Random("good-prime-reference")
    fields = [NumberField([-1, -1, 0, 1]), NumberField([-1, -1, 0, 0, 0, 1]),
              NumberField([2, 0, 1])]
    for _ in range(200):
        q = random_prime(rng, 62)
        for K in fields:
            fac = factor_mod_p(list(K.f), q, seed=1)
            for e in (3, 5, 25):
                got = check_good_prime(q, K, e)
                want = reference_good_prime(q, K, e, fac)
                if isinstance(want, Rejection) and q % ELL[e] == 1:
                    # mu_l already in F_q: refused as degree 1 before factoring
                    want = Rejection("root-of-unity", 1)
                assert got == want, (q, K.f, e)


def test_check_good_prime_q_one_mod_l_needs_no_factoring(monkeypatch):
    K = NumberField([-1, -1, 0, 1])  # x^3 - x - 1, discriminant -23
    assert check_good_prime(23, K, 3).kind == "ramified"  # 23 = 2 mod 3

    def refuse(*args):
        raise AssertionError("f mod q factored")

    monkeypatch.setattr(K, "prime_ideals", refuse)
    monkeypatch.setattr(gfpoly, "_ddf", refuse)
    for q in (7, 13, 31, 2 ** 61 - 1):  # all 1 mod 3
        assert check_good_prime(q, K, 3) == Rejection("root-of-unity", 1)
        assert check_good_prime(q, K, 9) == Rejection("root-of-unity", 1)
    with pytest.raises(AssertionError):
        check_good_prime(11, K, 3)  # 11 = 2 mod 3 needs the residue degrees


def test_split_good_prime_is_q_and_w(monkeypatch):
    # q = 1 mod m on Q(zeta_m): good from _sees_mu(q, 1, e) alone, held as
    # (q, w); the roots of f mod q are those of its linear factors, in
    # factor_mod_p's order
    for m, e in ((4, 3), (9, 5), (20, 3), (31, 3)):
        K = NumberField.cyclotomic(m)
        monkeypatch.setattr(K, "prime_ideals", None)  # never called
        stream = good_prime_stream(K, e, seed=m)
        for gp in [next(stream) for _ in range(4)]:
            q, w = gp.q, gp.w
            assert gp.degrees == (1,)
            assert pow(w, m, q) == 1 and all(pow(w, m // p, q) != 1
                                             for p in factorize(m))
            fac = factor_mod_p(list(K.f), q, seed=1)
            want = reference_good_prime(q, K, e, fac)
            assert K.degree_one_roots(q) == tuple((-g[0]) % q for g, _ in fac)
            assert gp == want._replace(w=w)
    # a good prime that is not 1 mod m has the one degree ord_m(q), with no
    # ideal listed: 2 has order 5 mod 31, and 2^5 = 2 mod 3
    gp = check_good_prime(2, K, 3)
    assert gp == GoodPrime(2, (5,)) and gp.w == 0
    monkeypatch.undo()
    assert [i.f_deg for i in K.prime_ideals(2)] == [5] * 6


@pytest.mark.parametrize("f, degrees_at_13", [([-1, -1, 0, 1], (3,)),
                                               ([2, -1, 0, 0, 0, 0, 1], (1, 2, 3))])
def test_generic_double_crt_lists_no_prime_ideals(monkeypatch, f, degrees_at_13):
    # the degrees come from the distinct-degree split alone, and the local
    # roots from Z[alpha]/q: no ideal is listed and nothing is split further
    def refuse(*args):
        raise AssertionError("prime ideals listed")

    K = NumberField(f)
    x = K.element([5, -3, 2, 1], 7)
    y = factored(K, [(x * x, 2), (x, 1)])  # exponents that sum to e = 5
    monkeypatch.setattr(K, "prime_ideals", refuse)
    monkeypatch.setattr(gfpoly, "_edf", refuse)
    assert check_good_prime(13, K, 5) == GoodPrime(13, degrees_at_13)
    for e, seed in ((5, 0), (5, 1), (7, 2)):
        assert eth_root_double_crt(factored(K, [(x, e)]), e, K, seed=seed) == x
    assert eth_root_double_crt(y, 5, K) == x


def test_split_good_primes_factor_m_once(monkeypatch):
    import ethroot.numfield as nf

    calls = []
    monkeypatch.setattr(nf, "factorize", lambda n: calls.append(n) or factorize(n))
    K = NumberField.cyclotomic(21)
    primes = select_crt_primes(K, 5, 10 ** 200, seed=3)
    assert len(primes) > 20 and calls == [21]


# -- prime selection --------------------------------------------------------------


def test_select_primes_congruences():
    K = NumberField.cyclotomic(16)
    primes = select_crt_primes(K, 3, 10 ** 40, seed=7)
    prod = 1
    for gp in primes:
        assert gp.q % 16 == 1 and gp.q % 3 == 2
        assert gp.degrees == (1,) and len(K.degree_one_roots(gp.q)) == 8
        again = check_good_prime(gp.q, K, 3)
        assert isinstance(again, GoodPrime)
        prod *= gp.q
    assert prod > 2 * 10 ** 40


def test_select_primes_deterministic():
    K = NumberField.cyclotomic(5)
    a = select_crt_primes(K, 7, 10 ** 30, seed=3)
    b = select_crt_primes(K, 7, 10 ** 30, seed=3)
    assert [gp.q for gp in a] == [gp.q for gp in b]
    c = select_crt_primes(K, 7, 10 ** 30, seed=4)
    assert [gp.q for gp in a] != [gp.q for gp in c]


def test_select_primes_bad_field_exhausts(monkeypatch):
    K = NumberField.cyclotomic(9)
    monkeypatch.setattr(crtroot, "SEARCH_BUDGET", 400)
    with pytest.raises(SearchExhausted):
        select_crt_primes(K, 3, 100, seed=1)


def test_bad_cyclotomic_field_exhausts_at_once_with_no_table():
    # gcd(m, e) > 1: every split prime is 1 mod l, so nothing is walked
    for m, e in ((9, 3), (15, 25), (21, 7)):
        K = NumberField.cyclotomic(m)
        t0 = time.perf_counter()
        with pytest.raises(SearchExhausted):
            next(good_prime_stream(K, e))
        assert time.perf_counter() - t0 < 0.1
        assert K.prime_blocks == {}


# -- the kept table of split primes ------------------------------------------------


def primes_between(lo, hi):
    """Ascending primes in [lo, hi), by a segmented sieve of Eratosthenes."""
    r = math.isqrt(hi)
    small = bytearray([1]) * (r + 1)
    small[:2] = b"\0\0"
    for i in range(2, math.isqrt(r) + 1):
        if small[i]:
            small[i * i::i] = bytes(len(range(i * i, r + 1, i)))
    seg = bytearray([1]) * (hi - lo)
    for p in (i for i in range(r + 1) if small[i]):
        start = max(p * p, -(-lo // p) * p)
        seg[start - lo::p] = bytes(len(range(start, hi, p)))
    return [lo + i for i, v in enumerate(seg) if v and lo + i > 1]


def has_order(w, m, q):
    return pow(w, m, q) == 1 and all(pow(w, m // p, q) != 1 for p in factorize(m))


@pytest.mark.parametrize("m, e", [(4, 3), (9, 5), (16, 3), (31, 3), (113, 7)])
def test_walked_primes_are_a_scan_of_the_covered_range(m, e):
    K = NumberField.cyclotomic(m)
    for seed in (0, 5):
        plain = list(itertools.islice(good_prime_stream(K, e, seed=seed), 60))
        avoid = plain[3].q * plain[10].q
        walked = list(itertools.islice(
            good_prime_stream(K, e, seed=seed, avoid_divisors_of=(avoid,)), 60))
        lo, _ = numfield.t_range(crtroot.SPLIT_BITS, m)
        start = crtroot.derive_rng(seed, "crt-primes").randrange(numfield.SPLIT_STARTS)
        t_first, t_last = lo + start * numfield.SPLIT_BLOCK, walked[-1].q // m
        want = [q for q in primes_between(m * t_first + 1, m * t_last + 2)
                if q % m == 1 and q % e != 1 and avoid % q]
        assert [gp.q for gp in walked] == want
        assert all(has_order(gp.w, m, gp.q) for gp in walked)
    # the blocks a walk passes through are kept, ascending within each
    for (M, bits, b), block in K.prime_blocks.items():
        qs = block[::2]
        assert (M, bits) == (m, crtroot.SPLIT_BITS)
        assert qs == sorted(qs) and all((q - 1) // m - lo in
                                        range(b * numfield.SPLIT_BLOCK,
                                              (b + 1) * numfield.SPLIT_BLOCK)
                                        for q in qs)


def test_walked_primes_depend_on_the_seed_alone():
    # on Q(zeta_m) and on a generic field, whatever walks of other seeds, e
    # or M (the character primes') ran on the field before
    def walk(K, e, seed):
        return list(itertools.islice(good_prime_stream(K, e, seed=seed), 40))

    for make in (lambda: NumberField.cyclotomic(16), lambda: NumberField([-1, -1, 0, 1])):
        fresh = walk(make(), 5, 3)
        K = make()
        for seed, e in itertools.product(range(6), (3, 7, 25)):
            walk(K, e, seed)
            select_character_primes(K, e, 4, [K.element([2, 1])], seed=seed)
        assert walk(K, 5, 3) == fresh
    # generic: odd 62-bit table primes, each kept with its residue degrees
    assert all(gp.q % 2 and gp.q >> 61 == 1 and gp.degrees == K.residue_degrees(gp.q)
               for gp in fresh)


def test_split_root_runs_once_per_kept_prime(monkeypatch):
    K = NumberField.cyclotomic(20)
    calls = []
    split_root = K.split_root
    monkeypatch.setattr(K, "split_root", lambda q: calls.append(q) or split_root(q))
    for seed, e in itertools.product(range(4), (3, 7)):
        for gp in itertools.islice(good_prime_stream(K, e, seed=seed), 30):
            assert has_order(gp.w, 20, gp.q)
    # w is found once, for the kept primes a walk reached
    found = [block[i] for block in K.prime_blocks.values()
             for i in range(0, len(block), 2) if block[i + 1] is not None]
    assert sorted(calls) == sorted(found) and len(set(calls)) == len(calls)


def test_the_table_keeps_at_most_the_cap_and_walks_past_it(monkeypatch):
    # the cap counts the primes of every table of the field: the double
    # CRT's (M = m) and the character primes' (M = lcm(e, m))
    def walk(K, seed):
        return ([(gp.q, gp.w) for gp in itertools.islice(
            good_prime_stream(K, 3, seed=seed), 120)],
            select_character_primes(K, 5, 60, U, seed=seed))

    U = [NumberField.cyclotomic(16).element([2, 1])]
    want = [walk(NumberField.cyclotomic(16), seed) for seed in (1, 2)]
    monkeypatch.setattr(numfield, "SPLIT_CAP", 50)
    K = NumberField.cyclotomic(16)
    U = [K.element([2, 1])]
    assert [walk(K, seed) for seed in (1, 2)] == want
    assert [walk(K, seed) for seed in (1, 2)] == want
    kept = sum(len(block) for block in K.prime_blocks.values()) // 2
    assert 0 < kept <= 50
    assert {M for M, _, _ in K.prime_blocks} <= {16, 80}


def test_split_walk_budget_counts_walked_primes(monkeypatch):
    calls = _count_checks(monkeypatch)
    K = NumberField.cyclotomic(4)
    first = [gp.q for gp in itertools.islice(good_prime_stream(K, 3), 2)]
    calls.clear()
    monkeypatch.setattr(crtroot, "SEARCH_BUDGET", 12)
    stream = good_prime_stream(K, 3, avoid_divisors_of=(first[0] * first[1],))
    with pytest.raises(SearchExhausted):
        list(stream)
    # the two avoided primes count against the budget but are never checked
    assert len(calls) == 10 and not set(first) & set(calls)


def test_split_walk_ends_with_the_range(monkeypatch):
    monkeypatch.setattr(crtroot, "SPLIT_BITS", 12)
    K = NumberField.cyclotomic(16)
    stream = good_prime_stream(K, 3, seed=1)
    got = []
    with pytest.raises(SearchExhausted):
        for gp in stream:
            got.append(gp.q)
    lo, hi = numfield.t_range(12, 16)
    assert lo * 16 + 1 >= 2 ** 11 and (hi - 1) * 16 + 1 < 2 ** 12
    # one block covers the 12-bit range, so the walk is all of it
    assert got == [q for q in primes_between(2 ** 11, 2 ** 12)
                   if q % 16 == 1 and q % 3 != 1 and (q - 1) // 16 < hi]



def walk_to_the_end(walk) -> list:
    got = []
    with pytest.raises(SearchExhausted):
        for q, _ in walk:
            got.append(q)
    return got


class LastBlock:
    """An rng that starts every walk at the range's last block."""

    def randrange(self, n):
        return n - 1


@pytest.mark.parametrize("M", [2, 3, 10, 16])
def test_a_walk_passes_once_over_its_whole_range(M):
    # every walked q is prime and 1 mod M; the walk ascends from its start
    # block to the range's end, then from block 0 up to the start block
    K = NumberField([-1, -1, 0, 1])
    lo, hi = numfield.t_range(14, M)
    want = [q for q in primes_between(2 ** 13, 2 ** 14)
            if q % M == 1 and (q - 1) // M < hi]
    facts = []

    def block(q):
        return ((q - 1) // M - lo) // numfield.SPLIT_BLOCK

    for rng in (*(derive_rng(seed, "walk") for seed in range(3)), LastBlock()):
        got = walk_to_the_end(K.walk_primes(
            M, 14, lambda q: facts.append(q) or -q, rng, (), 10 ** 6))
        i = want.index(got[0])
        assert got == want[i:] + want[:i]
        assert i == 0 or block(want[i - 1]) < block(want[i])  # a block's first
    # the last walk started in the last block
    assert i > 0 and block(want[i]) == block(want[-1])
    # each kept prime's fact was computed once, by the walk that reached it first
    assert sorted(facts) == want


def test_is_bad_field(monkeypatch):
    assert is_bad_field(NumberField.cyclotomic(9), 3)
    assert is_bad_field(NumberField.cyclotomic(15), 25)  # zeta_5 in K
    assert not is_bad_field(NumberField.cyclotomic(15), 7)
    assert not is_bad_field(NumberField.cyclotomic(4), 3)
    # x^2 + 1 generic: mu_3 not in Q(i)
    monkeypatch.setattr(crtroot, "BAD_FIELD_CANDIDATES", 40)
    assert not is_bad_field(NumberField([1, 0, 1]), 3)


def test_is_bad_field_rejects_an_even_e():
    # even e is out of scope, as at eth_root: no verdict, on any field
    for K in (NumberField.cyclotomic(5), NumberField([1, 0, 1])):
        for e in (2, 8):
            with pytest.raises(Unsupported):
                is_bad_field(K, e)


def _count_checks(monkeypatch):
    calls = []

    def counted(q, K, e, *w):
        calls.append(q)
        return check_good_prime(q, K, e, *w)

    monkeypatch.setattr(crtroot, "check_good_prime", counted)
    return calls


def _count_degrees(monkeypatch, K):
    """The primes q whose residue degrees K computes from now on."""
    calls = []
    real = K.residue_degrees

    def counted(q):
        calls.append(q)
        return real(q)

    monkeypatch.setattr(K, "residue_degrees", counted)
    return calls


def test_good_generic_field_keeps_its_answer(monkeypatch):
    K = NumberField([-1, -1, 0, 1])
    degrees = _count_degrees(monkeypatch, K)
    assert not is_bad_field(K, 5)
    assert degrees
    blocks = set(K.prime_blocks)
    degrees.clear()
    # the same seed walks the same kept primes, for every power of 5: no
    # degrees computed again and no block scanned again
    for e in (5, 25):
        assert not is_bad_field(K, e)
    assert degrees == []
    assert set(K.prime_blocks) == blocks


def test_bad_field_verdict_and_double_crt_share_their_primes(monkeypatch):
    K = NumberField([-1, -1, 0, 1])
    x = K.element([3 ** 200, -1, 2])  # a root that takes several primes
    degrees = _count_degrees(monkeypatch, K)
    assert not is_bad_field(K, 5, seed=4)
    walked = list(degrees)
    used = []
    real = crtroot.eth_root_mod_q

    def recorded(terms, e, gp, K):
        used.append(gp.q)
        return real(terms, e, gp, K)

    monkeypatch.setattr(crtroot, "eth_root_mod_q", recorded)
    assert eth_root_double_crt(factored(K, [(x, 5)]), 5, K, seed=4) == x
    # the verdict stopped at the double CRT's first prime, and no walked
    # prime's degrees were computed twice
    assert used[0] == walked[-1] and len(used) > 1
    assert len(set(degrees)) == len(degrees) > len(walked)


def test_generic_bad_field_repeat_computes_no_degrees(monkeypatch):
    K = NumberField([1, 1, 1])  # Q(zeta_3) given by its polynomial: bad for 3
    x = K.element([2, -3])
    req = RootRequest(K, 3, factored(K, [(x ** 3, 1)]))
    degrees = _count_degrees(monkeypatch, K)
    first = eth_root(req)
    assert first.method_used == "padic" and first.root ** 3 == x ** 3
    assert len([q for q in degrees if q.bit_length() == crtroot.GENERIC_BITS]) == \
        crtroot.BAD_FIELD_CANDIDATES
    degrees.clear()
    second = eth_root(req)
    # the verdict walked its table primes again, on degrees kept on K;
    # only padic's one-shot inert search tests its 16-bit draws afresh
    assert [q for q in degrees if q.bit_length() == crtroot.GENERIC_BITS] == []
    assert (second.root, second.method_used) == (first.root, "padic")


def test_bad_generic_verdict_is_not_kept(monkeypatch):
    calls = _count_checks(monkeypatch)
    K = NumberField([1, 1, 1])  # Q(zeta_3) given by its polynomial: mu_3 in K
    monkeypatch.setattr(crtroot, "BAD_FIELD_CANDIDATES", 30)
    for _ in range(2):
        calls.clear()
        assert is_bad_field(K, 3)
        assert len(calls) == 30


def test_auto_root_checks_each_walked_prime_once(monkeypatch):
    # the generic verdict is the first primes of the double CRT's own walk,
    # not a walk of its own before it
    calls = _count_checks(monkeypatch)
    K = NumberField([-1, -1, 0, 1])
    x = K.element([3 ** 200, -1, 2])
    res = eth_root(RootRequest(K, 5, factored(K, [(x ** 5, 1)]), seed=4))
    assert (res.root, res.method_used) == (x, "double_crt")
    assert calls and len(calls) == len(set(calls))


def test_double_crt_takes_a_generic_bad_verdict_from_its_walk(monkeypatch):
    calls = _count_checks(monkeypatch)
    K = NumberField([1, 1, 1])  # Q(zeta_3) given by its polynomial: mu_3 in K
    monkeypatch.setattr(crtroot, "BAD_FIELD_CANDIDATES", 30)
    for y in (factored(K, [(K.element([2, -3]), 3)]), factored(K, [])):
        calls.clear()
        with pytest.raises(NotApplicable):
            eth_root_double_crt(y, 3, K)
        assert len(calls) == 30


def test_double_crt_refuses_a_bad_field_up_front():
    K = NumberField.cyclotomic(12)
    x = K.element([1, 2, 0, 1])
    with pytest.raises(NotApplicable):
        eth_root_double_crt(FactoredElement(K, [(x, 3)]), 3, K)
    t0 = time.perf_counter()
    row = cli._bench_one(("crt-scaling", "double_crt", 12, 3, 10, 3))
    assert row["verified"] == "false"
    assert time.perf_counter() - t0 < 1.0


# -- eth_root_mod_q ----------------------------------------------------------------


def test_root_mod_q_worked_example():
    K = NumberField.cyclotomic(4)
    gp = check_good_prime(5, K, 3)
    # (1 + i)^3 = -2 + 2i
    vec = [(-2) % 5, 2 % 5]
    z = eth_root_mod_q([(vec, 1)], 3, gp, K)
    assert z == [1, 1]


def test_root_mod_q_trivial_cases():
    K = NumberField.cyclotomic(4)
    gp = check_good_prime(5, K, 3)
    assert eth_root_mod_q([], 3, gp, K) == [1, 0]
    rng = random.Random(2)
    for _ in range(10):
        x = K.random_element(rng, bits=8)
        if x == K.zero:
            continue
        vec = x.reduce_mod_prime(5)
        assert eth_root_mod_q([(vec, 3)], 3, gp, K) == vec


def test_root_mod_q_inert_prime_path():
    # q = 2 in Q(zeta_15): two ideals of degree 4, residue fields F_16
    K = NumberField.cyclotomic(15)
    gp = check_good_prime(2, K, 7)
    rng = random.Random(9)
    for _ in range(5):
        x = K.random_element(rng, bits=6)
        vec = x.reduce_mod_prime(2)
        if all(c == 0 for c in vec):
            continue
        assert eth_root_mod_q([(vec, 7)], 7, gp, K) == vec


def test_root_mod_q_exponent_reduction_oracle():
    # folding with a mod (q^d - 1) must equal naive repeated multiplication
    K = NumberField.cyclotomic(5)
    gp = check_good_prime(3, K, 7)  # ord_5(3) = 4, one ideal F_81
    assert gp.degrees == (4,) and K.n == 4
    rng = random.Random(4)
    for _ in range(8):
        x = K.random_element(rng, bits=5)
        vec = x.reduce_mod_prime(3)
        if all(c == 0 for c in vec):
            continue
        a = rng.randrange(81, 2500)
        naive = eth_root_mod_q([(vec, 1)] * a, 7, gp, K)
        assert eth_root_mod_q([(vec, a)], 7, gp, K) == naive


# generic fields, then Q(zeta_m) at non-split q: (f or m, e, primes); the
# sextic x^6 - x + 2 has residue degrees 1, 2 and 3 at 7 and at 13
RING_ROOT_CASES = [
    ([-1, -1, 0, 1], 5, None),  # x^3 - x - 1
    ([-1, -1, 0, 0, 0, 1], 3, None),  # x^5 - x - 1
    ([2, 0, 1], 3, None),  # x^2 + 2
    ([2, -1, 0, 0, 0, 0, 1], 5, [7, 13]),
    (5, 7, [3]),  # inert: one ideal of degree 4
    (15, 7, [2]),  # two ideals of degree 4
]


@pytest.mark.parametrize("f, e, qs", RING_ROOT_CASES)
def test_ring_root_matches_the_per_ideal_root(f, e, qs):
    K = NumberField.cyclotomic(f) if isinstance(f, int) else NumberField(f)
    rng = random.Random(f"ring-root:{f}")
    if qs is None:
        # every degree pattern of the small good primes, then 62-bit ones
        qs = [q for q in range(2, 300) if is_prime(q)]
        qs += [random_prime(rng, 62) for _ in range(6)]
    checked = set()
    for q in qs:
        gp = check_good_prime(q, K, e)
        if not isinstance(gp, GoodPrime):
            continue
        checked.add(gp.degrees)
        top = q ** gp.degrees[-1] - 1
        b = [K.random_element(rng, bits=30).reduce_mod_prime(q) for _ in range(4)]
        # 0 at the first ideal above q, a unit at the others
        g = K.prime_ideals(q)[0].g
        z = K.element(list(g)).reduce_mod_prime(q)
        plain = [(b[0], 0), (b[1], -rng.randrange(1, 3 * e)), (b[2], top),
                 (b[3], top + rng.randrange(1, e))]
        for terms in ([], [(b[0], 0)], plain, plain + [(z, -2)],
                      plain + [(z, 1)], [(z, e)], [(b[1], 1), (z, -top)]):
            got = eth_root_mod_q(terms, e, gp, K)
            assert got == eth_root_mod_q_by_ideals(terms, e, q, K), (q, terms)
            if any(v is z for v, _ in terms):
                assert gfpoly.rem(gfpoly.trim(list(got)), list(g), q) == []
    assert checked


# -- eth_root_double_crt ------------------------------------------------------------


def test_double_crt_worked_example():
    K = NumberField.cyclotomic(4)
    y = factored(K, [(K.element([-2, 2]), 1)])
    x = eth_root_double_crt(y, 3, K)
    assert x == K.element([1, 1])


def test_double_crt_empty_input():
    K = NumberField.cyclotomic(4)
    assert eth_root_double_crt(factored(K, []), 3, K) == K.one


@pytest.mark.parametrize("m,e", [(4, 3), (5, 3), (7, 5), (8, 7),
                                 (15, 7), (16, 3)])
def test_double_crt_round_trip(m, e):
    K = NumberField.cyclotomic(m)
    rng = random.Random(100 * m + e)
    for trial in range(3):
        x = K.random_element(rng, bits=50)
        if x == K.zero:
            continue
        y = factored(K, [(x, e)])
        assert eth_root_double_crt(y, e, K, seed=trial) == x


def test_double_crt_multi_term_mixed_exponents():
    # no individual factor is a cube; only the product is
    K = NumberField.cyclotomic(5)
    rng = random.Random(77)
    for trial in range(3):
        x = K.random_element(rng, bits=25)
        if x == K.zero:
            continue
        y = factored(K, [(x ** 2, 1), (x, 1)])  # = x^3, exponents in [0, e)
        assert eth_root_double_crt(y, 3, K, seed=trial) == x


def test_double_crt_rational_factors():
    # denominators in the factored input; root itself is non-integral
    K = NumberField.cyclotomic(4)
    x = K.element([3, 5], 7)
    y = factored(K, [(x, 3)])
    assert eth_root_double_crt(y, 3, K) == x


def test_double_crt_rational_multi_term():
    K = NumberField.cyclotomic(7)
    rng = random.Random(31)
    x = K.random_element(rng, bits=15, den=6)
    s = K.random_element(rng, bits=10)
    u = x * s
    v = x ** 4 / s
    y = factored(K, [(u, 1), (v, 1)])  # u * v = x^5
    assert eth_root_double_crt(y, 5, K) == x


def test_double_crt_prime_power_e():
    K = NumberField.cyclotomic(4)
    rng = random.Random(8)
    x = K.random_element(rng, bits=20)
    y = factored(K, [(x, 9)])
    assert eth_root_double_crt(y, 9, K) == x


def test_double_crt_generic_field():
    # non-cyclotomic field goes through the generic per-prime path
    K = NumberField([2, 0, 1])  # x^2 + 2
    rng = random.Random(14)
    for trial in range(2):
        x = K.random_element(rng, bits=20)
        if x == K.zero:
            continue
        y = factored(K, [(x, 3)])
        assert eth_root_double_crt(y, 3, K, seed=trial) == x


# x^3 - x - 1, x^4 - 10x^2 + 1 and Q (n = 1): every one off the split kernel
GENERIC_FIELDS = [[-1, -1, 0, 1], [1, 0, -10, 0, 1], [-7, 1]]


@pytest.mark.parametrize("f", GENERIC_FIELDS)
def test_generic_double_crt_solves_only_at_cover_primes(monkeypatch, f):
    K = NumberField(f)
    calls = {"cover": [], "local": 0, "verify": 0}
    cover, local, verify = crtroot._cover, crtroot.eth_root_mod_q, crtroot.verify_root

    def counting_cover(stream, B):
        calls["cover"] = cover(stream, B)
        return calls["cover"]

    def counting_local(*args):
        calls["local"] += 1
        return local(*args)

    def counting_verify(*args, **kwargs):
        calls["verify"] += 1
        return verify(*args, **kwargs)

    monkeypatch.setattr(crtroot, "_cover", counting_cover)
    monkeypatch.setattr(crtroot, "eth_root_mod_q", counting_local)
    monkeypatch.setattr(crtroot, "verify_root", counting_verify)
    x = K.element([5, -3, 2, 1][: K.n], 7)
    y = factored(K, [(x * x, 3), (K.element([3, 1][: K.n]), 3)])
    root = eth_root_double_crt(y, 3, K, seed=4)
    assert root ** 3 == y.value()
    assert calls["local"] == len(calls["cover"]) > 0
    assert calls["verify"] == 1


@pytest.mark.parametrize("f", GENERIC_FIELDS)
def test_generic_double_crt_raises_when_verify_root_fails(monkeypatch, f):
    K = NumberField(f)
    monkeypatch.setattr(crtroot, "verify_root", lambda *args, **kwargs: False)
    x = K.element([5, -3, 2, 1][: K.n], 7)
    with pytest.raises(VerificationFailed, match="verify_root"):
        eth_root_double_crt(factored(K, [(x, 3)]), 3, K)


def test_split_kernel_path_keeps_its_spot_check_primes(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the kernel checks at three more primes in its grid")

    monkeypatch.setattr(crtroot, "verify_root", refuse)
    K = NumberField.cyclotomic(7)
    x = K.random_element(random.Random(8), bits=30)
    assert eth_root_double_crt(factored(K, [(x, 3)]), 3, K) == x


def test_double_crt_not_a_power_detected():
    K = NumberField.cyclotomic(4)
    rng = random.Random(55)
    x = K.random_element(rng, bits=40)
    y = factored(K, [(x, 3), (K.element([1, 1]), 1)])
    with pytest.raises(VerificationFailed):
        eth_root_double_crt(y, 3, K)


def test_split_kernel_matches_generic():
    K = NumberField.cyclotomic(16)
    rng = random.Random(21)
    bases = [K.random_element(rng, bits=25) for _ in range(3)]
    exps = [3, 6, 9]
    stream = good_prime_stream(K, 3, seed=2)
    primes = [next(stream) for _ in range(4)]
    from ethroot.splitkernel import split_roots_kernel

    kern = split_roots_kernel(bases, exps, primes, 3, K)
    table = multi_reduce(bases, [gp.q for gp in primes])
    for j, gp in enumerate(primes):
        ref = eth_root_mod_q([(table[i][j], exps[i]) for i in range(3)],
                             3, gp, K)
        assert kern[j] == ref


def test_split_kernel_zero_residue():
    # a base can vanish at one node: plant q | norm by using alpha - r mod q
    K = NumberField.cyclotomic(4)
    stream = good_prime_stream(K, 3, seed=12)
    gp = next(stream)
    r = K.degree_one_roots(gp.q)[0]
    base = K.element([-r, 1])  # vanishes at the node r
    from ethroot.splitkernel import split_roots_kernel

    kern = split_roots_kernel([base], [3], [gp], 3, K)
    table = multi_reduce([base], [gp.q])
    ref = eth_root_mod_q([(table[0][0], 3)], 3, gp, K)
    assert kern[0] == ref
