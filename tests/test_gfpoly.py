"""gfpoly division, modular products and powers against schoolbook references."""

import random

import pytest

from ethroot import gfpoly


def ref_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def ref_mul(a, b, p):
    out = [0] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return ref_trim(out)


def ref_divmod(a, b, p):
    """Long division reducing every entry at every step."""
    r = [c % p for c in a]
    db = len(b) - 1
    q = [0] * max(0, len(a) - db)
    inv = pow(b[-1], -1, p)
    for i in range(len(r) - 1, db - 1, -1):
        f = r[i] * inv % p
        q[i - db] = f
        for j, y in enumerate(b):
            r[i - db + j] = (r[i - db + j] - f * y) % p
    return ref_trim(q), ref_trim(r)


def ref_powmod(a, n, mod, p):
    acc = ref_divmod([1], mod, p)[1]
    for _ in range(n):
        acc = ref_divmod(ref_mul(acc, a, p), mod, p)[1]
    return acc


def rand_poly(rng, d, p, monic=False):
    a = [rng.randrange(p) for _ in range(d)]
    return a + [1 if monic else rng.randrange(1, p)]


# (modulus, whether the divisor must be monic): 5^7 is a prime power, which
# padic divides by only with monic divisors
MODULI = [(2, False), (3, False), (65537, False), ((1 << 61) - 1, False),
          (5 ** 7, True)]


@pytest.mark.parametrize("p,monic", MODULI)
def test_divmod_matches_schoolbook(p, monic):
    rng = random.Random(f"divmod:{p}")
    for _ in range(60):
        b = rand_poly(rng, rng.randrange(0, 9), p, monic or rng.random() < 0.3)
        a = ref_trim([rng.randrange(p) for _ in range(rng.randrange(0, 20))])
        q, r = gfpoly.divmod_(a, b, p)
        assert (q, r) == ref_divmod(a, b, p)
        assert gfpoly.add(ref_mul(q, b, p), r, p) == [c % p for c in a]


@pytest.mark.parametrize("p,monic", MODULI)
def test_mulmod_powmod_match_schoolbook(p, monic):
    rng = random.Random(f"mulmod:{p}")
    for _ in range(20):
        d = rng.randrange(1, 8)
        mod = rand_poly(rng, d, p, monic or rng.random() < 0.5)
        a = ref_trim([rng.randrange(p) for _ in range(rng.randrange(0, 2 * d))])
        b = ref_trim([rng.randrange(p) for _ in range(rng.randrange(0, 2 * d))])
        assert gfpoly.mulmod(a, b, mod, p) == ref_divmod(ref_mul(a, b, p), mod, p)[1]
        n = rng.randrange(0, 12)
        assert gfpoly.powmod(a, n, mod, p) == ref_powmod(a, n, mod, p)
