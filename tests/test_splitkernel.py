"""The all-split kernel against the per-ideal F_q path, prime by prime."""

import random

import numpy as np
import pytest

from ethroot.crtroot import eth_root_mod_q, good_prime_stream
from ethroot.numfield import NumberField, multi_reduce
from ethroot.splitkernel import _multi_pow, split_roots_kernel

# conductor -> an exponent whose prime is coprime to it
CASES = {3: 5, 4: 3, 5: 3, 8: 3, 12: 5, 16: 3, 31: 3}


def _terms(K, gp, rng, k):
    """k bases with denominators and exponents 0, negative and >= q - 1; the
    last base vanishes at one node of gp."""
    bases, exps = [], []
    for i in range(k - 1):
        den = rng.choice([1, 1, 3, 35])
        bases.append(K.random_element(rng, bits=rng.choice([5, 40, 90]), den=den))
        exps.append(rng.choice([0, -rng.randrange(1, 10 ** 6), rng.randrange(1, 50),
                                gp.q - 1, 3 * gp.q + rng.randrange(10 ** 9)]))
    r = K.degree_one_roots(gp.q)[rng.randrange(K.n)]
    bases.append(K.element([-r, 1]))  # alpha - r vanishes at the node r
    exps.append(rng.choice([1, -2, gp.q - 1, 2 * gp.q]))
    return bases, exps


@pytest.mark.parametrize("m", sorted(CASES))
def test_kernel_matches_eth_root_mod_q(m):
    K, e = NumberField.cyclotomic(m), CASES[m]
    rng = random.Random(9000 + m)
    stream = good_prime_stream(K, e, seed=m, avoid_divisors_of=(3, 35))
    for k in range(1, 13):
        primes = [next(stream) for _ in range(3)]
        bases, exps = _terms(K, primes[0], rng, k)
        kern = split_roots_kernel(bases, exps, primes, e, K)
        table = multi_reduce(bases, [gp.q for gp in primes])
        for j, gp in enumerate(primes):
            ref = eth_root_mod_q([(table[i][j], exps[i]) for i in range(k)],
                                 e, gp, K)
            assert kern[j] == ref, (m, k, gp.q)


def test_kernel_runs_in_prime_blocks(monkeypatch):
    # more primes than one block holds give the same vectors
    import ethroot.splitkernel as sk

    K, e = NumberField.cyclotomic(16), 3
    rng = random.Random(4)
    stream = good_prime_stream(K, e, seed=4)
    primes = [next(stream) for _ in range(7)]
    bases, exps = _terms(K, primes[2], rng, 5)
    whole = split_roots_kernel(bases, exps, primes, e, K)
    monkeypatch.setattr(sk, "_GRID", 3 * K.n * K.n)
    assert split_roots_kernel(bases, exps, primes, e, K) == whole


def test_multi_pow_matches_pow():
    rng = random.Random(17)
    qs = np.array([(1 << 28) + 3, 1000003, 7, 536870909], dtype=np.int64)
    for k in (1, 2, 5):
        bases = np.array([[[rng.randrange(q) for _ in range(6)] for q in qs.tolist()]
                          for _ in range(k)], dtype=np.int64)
        exps = np.array([[rng.choice([0, 1, q - 2, rng.randrange(q)]) for q in qs.tolist()]
                         for _ in range(k)], dtype=np.int64)
        got = _multi_pow(bases, exps, qs[:, None])
        for j, q in enumerate(qs.tolist()):
            for t in range(6):
                want = 1
                for i in range(k):
                    want = want * pow(int(bases[i, j, t]), int(exps[i, j]), q) % q
                assert got[j, t] == want


@pytest.mark.parametrize("m", [9, 15, 20, 21])
@pytest.mark.parametrize("grid", [None, 1])
def test_kernel_gathers_units_that_are_not_a_range(m, grid, monkeypatch):
    # the units of Z/m skip more than 0, so the gathered Vandermonde columns
    # u_a * k mod m wrap and skip; grid=1 runs every prime in its own block
    import ethroot.splitkernel as sk

    if grid is not None:
        monkeypatch.setattr(sk, "_GRID", grid)
    K, e = NumberField.cyclotomic(m), {9: 5, 15: 7, 20: 3, 21: 5}[m]
    rng = random.Random(7100 + m)
    stream = good_prime_stream(K, e, seed=m, avoid_divisors_of=(3, 35))
    for k in (1, 3, 4, 5, 9):
        primes = [next(stream) for _ in range(4)]
        bases, exps = _terms(K, primes[1], rng, k)
        kern = split_roots_kernel(bases, exps, primes, e, K)
        table = multi_reduce(bases, [gp.q for gp in primes])
        for j, gp in enumerate(primes):
            ref = eth_root_mod_q([(table[i][j], exps[i]) for i in range(k)],
                                 e, gp, K)
            assert kern[j] == ref, (m, k, gp.q)


def _pow_reference(bases, exps, qs):
    k, J, T = bases.shape
    out = [[1] * T for _ in range(J)]
    for j, q in enumerate(qs.tolist()):
        for t in range(T):
            for i in range(k):
                out[j][t] = out[j][t] * pow(int(bases[i, j, t]), int(exps[i, j]), q) % q
    return out


@pytest.mark.parametrize("k", range(1, 10))
def test_multi_pow_across_groups_and_bit_lengths(k):
    # 1-9 bases straddle the groups of four; each prime's exponents have
    # their own bit lengths, from 0 up to that of q - 2
    rng = random.Random(f"multi-pow:{k}")
    qs = np.array([536870909, (1 << 28) + 3, 1000003, 65537, 7], dtype=np.int64)
    bases = np.array([[[rng.randrange(q) for _ in range(5)] for q in qs.tolist()]
                      for _ in range(k)], dtype=np.int64)
    exps = np.array([[rng.randrange(1 << rng.randrange(q.bit_length())) if i % 3
                      else q - 2 for q in qs.tolist()] for i in range(k)],
                    dtype=np.int64)
    exps[:, 2] = rng.randrange(2)  # one prime with exponents 0 and 1 only
    got = _multi_pow(bases, exps, qs[:, None])
    assert got.tolist() == _pow_reference(bases, exps, qs)
    zero = np.zeros_like(exps)
    assert (_multi_pow(bases, zero, qs[:, None]) == 1).all()


def test_multi_pow_all_zero_exponents():
    qs = np.array([11, 13], dtype=np.int64)
    bases = np.array([[[0, 5], [3, 0]]], dtype=np.int64)
    exps = np.zeros((1, 2), dtype=np.int64)
    assert _multi_pow(bases, exps, qs[:, None]).tolist() == [[1, 1], [1, 1]]
