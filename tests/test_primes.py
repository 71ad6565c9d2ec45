"""primes.is_prime against trial division and past the Miller-Rabin bounds."""

import math

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


def strong_probable_prime_base_2(n):
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(2, d, n)
    return x in (1, n - 1) or any(pow(x, 2 ** i, n) == n - 1 for i in range(1, r))


def test_baillie_psw_matches_trial_division():
    # the test is_prime runs above psi_13, checked where trial division reaches
    for n in range(55, 2 * 10 ** 4, 2):
        bpsw = strong_probable_prime_base_2(n) and primes._strong_lucas(n)
        assert bpsw == trial_division_prime(n), n


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
