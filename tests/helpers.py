"""Test-only helpers built on the library."""

from ethroot.crtroot import SEARCH_BUDGET, _cover, good_prime_stream


def select_crt_primes(K, e: int, B: int, seed: int = 0, avoid_divisors_of=(),
                      budget: int = SEARCH_BUDGET):
    """Good primes whose product exceeds 2B."""
    return _cover(good_prime_stream(K, e, seed, avoid_divisors_of, budget), B)
