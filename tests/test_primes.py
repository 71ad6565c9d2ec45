"""primes.is_prime against trial division and past the Miller-Rabin bounds;
prime_stream, and the searches that draw from it."""

import itertools
import math
import random

import pytest

from ethroot import couveignes, crtroot, padic, primes, saturation, strategy, verify
from ethroot.errors import SearchExhausted, Unsupported
from ethroot.numfield import FactoredElement, NumberField, SubfieldEmbedding
from ethroot.strategy import RootRequest, eth_root
from helpers import random_prime

# smallest strong pseudoprimes to the first 12 and 13 prime bases
PSI_12 = 318665857834031151167461  # = 399165290221 * 798330580441
PSI_13 = 3317044064679887385961981


def trial_division_prime(n):
    return n > 1 and all(n % k for k in range(2, math.isqrt(n) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(10 ** 5) if primes.is_prime(n)] == [
        n for n in range(10 ** 5) if trial_division_prime(n)]


def strong_probable_prime(n, a):
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2 ** i, n) == n - 1 for i in range(1, r))


def bpsw(n):
    # Baillie-PSW: no counterexample is known, and none exists below 2^64
    return strong_probable_prime(n, 2) and primes._strong_lucas(n)


def test_baillie_psw_matches_trial_division():
    # the test is_prime runs above psi_13, checked where trial division reaches
    for n in range(55, 2 * 10 ** 4, 2):
        assert bpsw(n) == trial_division_prime(n), n


def test_strong_lucas_pseudoprimes():
    # the strong Lucas pseudoprimes below 2 * 10^4 with Selfridge's parameters
    found = [n for n in range(55, 2 * 10 ** 4, 2)
             if primes._strong_lucas(n) and not trial_division_prime(n)]
    assert found == [5459, 5777, 10877, 16109, 18971]


@pytest.mark.parametrize("n", [PSI_12, PSI_13, 2 ** 67 - 1, 399165290221 ** 2])
def test_is_prime_rejects_composites_past_the_bounds(n):
    assert not primes.is_prime(n)


@pytest.mark.parametrize("n", [2 ** 61 - 1, 2 ** 89 - 1, 2 ** 107 - 1, 2 ** 127 - 1,
                               399165290221, 798330580441])
def test_is_prime_accepts_primes(n):
    assert primes.is_prime(n)


def test_odd_prime_power_rejects_psi_12():
    assert primes.OddPrimePower((2 ** 89 - 1) ** 3).split == (2 ** 89 - 1, 3)
    with pytest.raises(Unsupported):
        primes.OddPrimePower(PSI_12)


def test_odd_prime_power_carries_its_split(monkeypatch):
    e = primes.OddPrimePower(3 ** 5)
    assert e == 243 and e.split == (3, 5) and type(e * 2 + 1) is int
    monkeypatch.setattr(primes, "is_prime", None)  # no test after the first
    assert primes.OddPrimePower(e) is e
    assert primes.OddPrimePower(e).split == (3, 5)
    monkeypatch.undo()
    for bad in (-27, 0, 1, 2, 8, 45, PSI_12):
        with pytest.raises(Unsupported):
            primes.OddPrimePower(bad)


def test_eth_root_rejects_psi_12_exponent():
    K = NumberField.cyclotomic(16)
    with pytest.raises(Unsupported):
        eth_root(RootRequest(K, PSI_12, FactoredElement(K, [])))


# psi_k (OEIS A014233): the least strong pseudoprime to the first k prime bases
PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
       341550071728321, 341550071728321, 3825123056546413051,
       3825123056546413051, 3825123056546413051, PSI_12, PSI_13)
FIRST_13 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def twelve_base_prime(n):
    # the test is_prime ran on every n below psi_12 before the tiers
    if n < 2:
        return False
    if any(n % p == 0 for p in FIRST_13):
        return n in FIRST_13
    return all(strong_probable_prime(n, a) for a in FIRST_13[:12])


@pytest.mark.parametrize("k", range(1, 14))
def test_is_prime_rejects_psi_k(k):
    n = PSI[k - 1]
    assert all(strong_probable_prime(n, a) for a in FIRST_13[:k])  # the table
    assert not primes.is_prime(n)


@pytest.mark.parametrize("bound", [PSI[3], PSI[6], PSI[8], PSI_12, PSI_13])
def test_is_prime_accepts_primes_on_both_sides_of_a_tier(bound):
    below = next(n for n in range(bound - 2, 0, -2) if bpsw(n))
    above = next(n for n in range(bound + 2, 2 * bound, 2) if bpsw(n))
    assert primes.is_prime(below) and primes.is_prime(above)


def test_is_prime_tiers_bound_psi_or_two_to_the_64():
    assert [b for b, _ in primes._MR_TIERS] == [PSI[3], PSI[6], 2 ** 64,
                                                 PSI_12, PSI_13]


def _bases_tried(monkeypatch, n):
    # is_prime's strong tests are its only calls of pow
    bases = []

    def recording_pow(a, d, mod):
        bases.append(a)
        return pow(a, d, mod)

    monkeypatch.setattr(primes, "pow", recording_pow, raising=False)
    assert primes.is_prime(n)
    monkeypatch.undo()
    return bases


def test_is_prime_takes_sinclairs_bases_from_psi_7_to_two_to_the_64(monkeypatch):
    sinclair = [2, 325, 9375, 28178, 450775, 9780504, 1795265022]
    below_psi_7 = next(n for n in range(PSI[6] - 2, 0, -2) if bpsw(n))
    assert _bases_tried(monkeypatch, below_psi_7) == list(FIRST_13[:7])
    for n in (next(n for n in range(PSI[6] + 2, 2 * PSI[6], 2) if bpsw(n)),
              2 ** 61 - 1, 2 ** 64 - 59):
        assert _bases_tried(monkeypatch, n) == sinclair
    assert _bases_tried(monkeypatch, 2 ** 64 + 13) == list(FIRST_13[:12])


def test_is_prime_just_below_and_above_two_to_the_64():
    # 2^64 - 59 and 2^64 + 13 are the primes nearest 2^64 on either side
    window = range(2 ** 64 - 64, 2 ** 64 + 64)
    found = [n for n in window if primes.is_prime(n)]
    assert found == [n for n in window if bpsw(n)]
    assert [n for n in found if 2 ** 64 - 60 < n < 2 ** 64 + 14] == [
        2 ** 64 - 59, 2 ** 64 + 13]


@pytest.mark.parametrize("bits", [29, 62])
def test_is_prime_agrees_with_twelve_bases(bits):
    rng = random.Random(f"mr-tiers:{bits}")
    for _ in range(20_000):
        n = rng.randrange(1 << (bits - 1), 1 << bits) | 1
        assert primes.is_prime(n) == twelve_base_prime(n), n


# -- the shared prime stream ------------------------------------------------------

DRAWS = 10 ** 4  # a budget far above the prime draws of any stream below


@pytest.mark.parametrize("bits,modulus", [(16, 1), (29, 31), (62, 12), (20, 7)])
def test_prime_stream_yields_distinct_primes_in_range(bits, modulus):
    stream = primes.prime_stream(random.Random(f"{bits}:{modulus}"), bits, modulus,
                                 budget=DRAWS)
    qs = list(itertools.islice(stream, 300))
    assert len(set(qs)) == len(qs)
    assert all(primes.is_prime(q) and (q - 1) % modulus == 0 for q in qs)
    assert all(1 << (bits - 1) <= q < 1 << bits for q in qs)


def test_prime_stream_never_repeats_when_the_range_runs_dry():
    eight_bit = [q for q in range(128, 256) if primes.is_prime(q)]
    stream = primes.prime_stream(random.Random(1), 8, budget=DRAWS)
    assert sorted(itertools.islice(stream, len(eight_bit))) == eight_bit


def test_prime_stream_skips_divisors_of_avoid():
    first = list(itertools.islice(
        primes.prime_stream(random.Random(2), 16, budget=DRAWS), 5))
    avoid = (first[0] * first[1], first[2], 0, 1)
    rest = list(itertools.islice(
        primes.prime_stream(random.Random(2), 16, avoid=avoid, budget=DRAWS), 10))
    assert rest[:2] == first[3:]
    assert not set(rest) & set(first[:3])


@pytest.mark.parametrize("budget", [0, 1, 50])
def test_prime_stream_gives_up_after_budget_prime_draws(monkeypatch, budget):
    drawn = []
    is_prime = primes.is_prime

    def counting(n):
        drawn.append(is_prime(n))
        return drawn[-1]

    monkeypatch.setattr(primes, "is_prime", counting)
    every_prime = math.prod(q for q in range(128, 256) if is_prime(q))
    stream = primes.prime_stream(random.Random(3), 8, avoid=(every_prime,),
                                 budget=budget)
    with pytest.raises(SearchExhausted):
        next(stream)
    assert sum(drawn) == budget  # repeats and skipped primes count


def test_prime_stream_needs_room_for_its_residue_class():
    with pytest.raises(ValueError):
        next(primes.prime_stream(random.Random(0), 8, modulus=1000, budget=DRAWS))
    with pytest.raises(ValueError):
        next(primes.prime_stream(random.Random(0), 1, budget=DRAWS))


def test_random_prime_values_are_pinned():
    rng = random.Random("pinned")
    assert [random_prime(rng, 62) for _ in range(3)] == [
        3072845651923664101, 4211105896630410727, 4554069632319163709]
    assert [random_prime(rng, 16) for _ in range(3)] == [56633, 58451, 49943]
    assert [random_prime(rng, 29) for _ in range(2)] == [383902661, 504510637]


# -- every prime search stops within its budget -------------------------------------

BUDGET = 40
GENERIC_F = [-1, -1, 0, 1]  # x^3 - x - 1
K15 = NumberField.cyclotomic(15)

# name -> (module and name of the search's budget constant, search on a
# generic field K, what it ends with when every prime is refused)
SEARCHES = {
    "good_prime_stream": (
        crtroot, "SEARCH_BUDGET",
        lambda K: next(crtroot.good_prime_stream(K, 5)), SearchExhausted),
    "is_bad_field": (
        crtroot, "BAD_FIELD_CANDIDATES", lambda K: crtroot.is_bad_field(K, 5), True),
    "verify_root": (
        verify, "_VERIFY_BUDGET",
        lambda K: verify.verify_root(
            K.element([2, -1, 3], 5),
            FactoredElement(K, [(K.element([2, -1, 3], 5), 3)]), 3, K),
        SearchExhausted),
    "find_inert_prime": (
        padic, "INERT_BUDGET", lambda K: padic.find_inert_prime(K, 3), None),
    "pick_reconstruct_ideal": (
        strategy, "RECONSTRUCT_BUDGET",
        lambda K: strategy.pick_reconstruct_ideal(K, 3), SearchExhausted),
    # PRIME_BUDGET counts the table primes walked on K15, each one refused
    # by make_couveignes_prime
    "select_couveignes_primes": (
        couveignes, "PRIME_BUDGET",
        lambda K: couveignes.select_couveignes_primes(
            K15, SubfieldEmbedding.cyclotomic(K15, 3), 3, 10 ** 30),
        SearchExhausted),
    "select_character_primes": (
        saturation, "SELECT_BUDGET",
        lambda K: saturation.select_character_primes(K, 3, 4, [K.element([2, 1])]),
        SearchExhausted),
}


@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_every_search_stops_within_its_budget(monkeypatch, name):
    module, constant, search, outcome = SEARCHES[name]
    monkeypatch.setattr(module, constant, BUDGET)
    # a fresh generic field: no primes or degrees kept on it by another test
    K_generic = NumberField(GENERIC_F)
    refused = []

    def refuse(*args):
        refused.append(args[-1])  # the prime

    class EveryPrimeDivides:
        # the discriminant verify_root's generic trials test q against
        def __mod__(self, q):
            refused.append(q)
            return 0

    # prime_ideals, is_inert and make_couveignes_prime refuse with None
    monkeypatch.setattr(padic, "is_inert", refuse)
    monkeypatch.setattr(couveignes, "make_couveignes_prime", refuse)
    for K in (K_generic, K15):
        monkeypatch.setattr(K, "prime_ideals", refuse)
    monkeypatch.setattr(K_generic, "discriminant", lambda: EveryPrimeDivides())
    # verify_root's small input would be decided exactly, before any draw
    monkeypatch.setattr(verify, "_exact_affordable", lambda *args: False)
    if outcome is SearchExhausted:
        with pytest.raises(SearchExhausted):
            search(K_generic)
    else:
        assert search(K_generic) == outcome
    assert 0 < len(refused) <= BUDGET
