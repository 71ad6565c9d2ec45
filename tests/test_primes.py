"""primes.is_prime against trial division and past the Miller-Rabin bounds."""

import math
import random

import pytest

from ethroot import primes
from ethroot.errors import Unsupported
from ethroot.numfield import FactoredElement, NumberField
from ethroot.strategy import RootRequest, eth_root

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


def test_prime_power_split_rejects_psi_12():
    assert primes.prime_power_split((2 ** 89 - 1) ** 3) == (2 ** 89 - 1, 3)
    with pytest.raises(Unsupported):
        primes.prime_power_split(PSI_12)


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


@pytest.mark.parametrize("bound", [b for b, _ in primes._MR_TIERS])
def test_is_prime_accepts_primes_on_both_sides_of_a_tier(bound):
    below = next(n for n in range(bound - 2, 0, -2) if bpsw(n))
    above = next(n for n in range(bound + 2, 2 * bound, 2) if bpsw(n))
    assert primes.is_prime(below) and primes.is_prime(above)


@pytest.mark.parametrize("bits", [29, 62])
def test_is_prime_agrees_with_twelve_bases(bits):
    rng = random.Random(f"mr-tiers:{bits}")
    for _ in range(20_000):
        n = rng.randrange(1 << (bits - 1), 1 << bits) | 1
        assert primes.is_prime(n) == twelve_base_prime(n), n
