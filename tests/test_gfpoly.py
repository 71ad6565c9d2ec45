"""gfpoly division, modular products and powers against schoolbook references."""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ethroot import gfpoly
from ethroot.numfield import cyclotomic_poly
from helpers import is_irreducible, random_irreducible


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
        ring = gfpoly._Packed(mod, p)
        a, b = ref_divmod(a, mod, p)[1], ref_divmod(b, mod, p)[1]  # reduced operands
        assert ring.mul(a, b) == ref_divmod(ref_mul(a, b, p), mod, p)[1]
        n = rng.randrange(0, 12)
        assert ring.power(a, n) == ref_powmod(a, n, mod, p)


# -- packed powers --------------------------------------------------------------

PRIMES = [2, 3, 65521, (1 << 61) - 1, (1 << 62) - 57]
# prime powers in padic's shape (M = l^kappa): monic divisors only
PRIME_POWERS = [5 ** 7, 3 ** 250]
PACKED = pytest.mark.parametrize("p", PRIMES + PRIME_POWERS, ids=[
    "2", "3", "65521", "2^61-1", "2^62-57", "5^7", "3^250"])


def ref_mulmod(a, b, mod, p):
    return ref_divmod(ref_mul(a, b, p), mod, p)[1]


def ref_square_multiply(a, n, mod, p):
    """Right-to-left square-and-multiply on the schoolbook references."""
    result = [1]
    a = ref_divmod(a, mod, p)[1]
    while n:
        if n & 1:
            result = ref_mulmod(result, a, mod, p)
        a = ref_mulmod(a, a, mod, p)
        n >>= 1
    return result


def modulus(rng, d, p):
    """A random divisor of degree d, monic for prime powers and otherwise
    monic about half the time."""
    return rand_poly(rng, d, p, monic=p not in PRIMES or rng.random() < 0.5)


def bases(rng, d, p):
    return [
        [],  # zero
        [rng.randrange(p) for _ in range(2 * d + 3)] + [1],  # longer than mod
        [p - 1] * d,  # largest reduced operand
        # near p - 1, but squares to pseudo-random high slots: with p just
        # below a power of two, its square's low slots come close to
        # (2d - 1)(p - 1)^2, the bound the slot width is chosen for
        [p - 1 - rng.randrange(1 + (p >> 20)) for _ in range(d)],
        ref_trim([rng.randrange(p) for _ in range(d)]),
    ]


@PACKED
def test_powmod_small_exponents_every_degree(p):
    rng = random.Random(f"powmod:small:{p}")
    for d in range(41):
        mod = modulus(rng, d, p)
        ring = gfpoly._Packed(mod, p)
        for a in bases(rng, d, p):
            reduced = ref_divmod(a, mod, p)[1]
            for n in (0, 1, 2, 3):
                assert ring.power(reduced, n) == ref_square_multiply(a, n, mod, p), (d, n)


@PACKED
def test_powmod_large_exponents(p):
    rng = random.Random(f"powmod:large:{p}")
    # reference cost grows with d^2 * bits(n); keep the list short at large d
    for d in (1, 2, 3, 4, 5, 6, 7, 8, 12, 36):
        mod = modulus(rng, d, p)
        exps = [rng.getrandbits(192) | 1 << 191]
        if d <= 8:
            exps.append(rng.getrandbits(rng.randrange(1, 192)))
            if p.bit_length() <= 64:
                exps.append(p)
        if d * p.bit_length() <= 192:
            exps.append(p ** d - 1)
        ring = gfpoly._Packed(mod, p)
        for n in exps:
            for a in bases(rng, d, p)[1:] if d <= 8 else bases(rng, d, p)[3:4]:
                reduced = ref_divmod(a, mod, p)[1]
                assert ring.power(reduced, n) == ref_square_multiply(a, n, mod, p), (d, n)


@pytest.mark.parametrize("p,d", [(65521, 36), ((1 << 61) - 1, 6), (3, 40)])
def test_powmod_multiplicative_group_order(p, d):
    # beyond the reference's reach: a^(p^d - 1) = 1 and a^(p^d) = a in F_{p^d}
    rng = random.Random(f"powmod:order:{p}:{d}")
    f = random_irreducible(d, p, rng)
    assert gfpoly.factor(f, p) == [(f, 1)]
    plain, frob = gfpoly._Packed(f, p), gfpoly._Packed(f, p)
    frob.keep_frobenius()
    for a in ([p - 1] * d, ref_trim([rng.randrange(p) for _ in range(d)])):
        for ring in (plain, frob):
            assert ring.power(a, p ** d - 1) == [1]
            assert ring.power(a, p ** d) == a


# -- powers over Frobenius images ------------------------------------------------

FROBENIUS_PRIMES = [3, 5, 65521, (1 << 62) - 57]
# conductors m with phi(m) from 2 to 8
CYCLOTOMIC = [3, 4, 5, 7, 8, 9, 12, 15, 16, 20, 24]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.data())
def test_frobenius_power_matches_square_and_multiply(data):
    p = data.draw(st.sampled_from(FROBENIUS_PRIMES), label="p")
    kind = data.draw(st.sampled_from(["irreducible", "reducible", "cyclotomic"]))
    rng = random.Random(data.draw(st.integers(0, 1 << 32), label="seed"))
    xp = None
    if kind == "cyclotomic":
        m = data.draw(st.sampled_from(CYCLOTOMIC), label="m")
        mod = gfpoly.from_int_poly(cyclotomic_poly(m), p)
        xp = gfpoly.rem([0] * (p % m) + [1], mod, p)  # t^p = t^(p mod m)
    else:
        d = data.draw(st.integers(2, 8), label="d")
        if kind == "irreducible":
            mod = random_irreducible(d, p, rng)
        else:
            k = rng.randrange(1, d)
            mod = gfpoly.mul(rand_poly(rng, k, p, monic=True),
                             rand_poly(rng, d - k, p, monic=True), p)
    d = len(mod) - 1
    a = data.draw(st.sampled_from([
        [], [rng.randrange(1, p)], ref_trim([rng.randrange(p) for _ in range(d)])]))
    top = p ** (2 * d)
    n = data.draw(st.one_of(
        st.integers(0, top),
        st.sampled_from([p * p - 1, p * p, p ** d - 1, p ** d, top])), label="n")
    plain = gfpoly._Packed(mod, p)
    frob = gfpoly._Packed(mod, p)
    frob.keep_frobenius()
    assert (frob.frob is None) == (d < 3)
    assert frob.power(a, n) == plain.power(a, n)
    if xp is not None:
        given_rows = gfpoly._Packed(mod, p)
        given_rows.keep_frobenius(xp)
        assert given_rows.frob == frob.frob
        assert given_rows.power(a, n) == plain.power(a, n)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.data())
def test_equal_degree_split_over_frobenius_images_matches_the_rowless_ring(data):
    # at d >= 3 _edf keeps the Frobenius rows of its ring; the factors, and
    # their order, are those of plain square-and-multiply
    p = data.draw(st.sampled_from([3, 5, 7, 31, 65521, (1 << 31) - 1]), label="p")
    d = data.draw(st.integers(3, 5), label="d")
    k = data.draw(st.integers(2, 4), label="factors")
    rng = random.Random(data.draw(st.integers(0, 1 << 32), label="seed"))
    factors = []
    while len(factors) < k:
        g = random_irreducible(d, p, rng)
        if g not in factors:
            factors.append(g)
    f = [1]
    for g in factors:
        f = gfpoly.mul(f, g, p)
    seed = rng.random()
    keep = gfpoly._Packed.keep_frobenius
    with mock.patch.object(gfpoly._Packed, "keep_frobenius", autospec=True,
                           side_effect=keep) as kept:
        got = gfpoly._edf(f, d, p, random.Random(seed))
    assert kept.called
    with mock.patch.object(gfpoly._Packed, "keep_frobenius", lambda self, xp=None: None):
        assert gfpoly._edf(f, d, p, random.Random(seed)) == got
    assert sorted(got) == sorted(factors)


# -- powers of t by shifts ------------------------------------------------------

# primes, one just below 2^62, and padic's p^a moduli
T_POWER_MODULI = [3, 5, 65521, (1 << 62) - 57, 5 ** 7, 7 ** 8, 3 ** 40]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.data())
def test_t_power_matches_square_and_multiply(data):
    p = data.draw(st.sampled_from(T_POWER_MODULI), label="p")
    d = data.draw(st.integers(2, 8), label="d")
    rng = random.Random(data.draw(st.integers(0, 1 << 32), label="seed"))
    mod = modulus(rng, d, p)
    n = data.draw(st.one_of(
        st.integers(0, p * p),
        st.sampled_from([0, 1, 2, 3, p - 1, p, p + 1, p * p])), label="n")
    assert gfpoly._Packed(mod, p).power([0, 1], n) == ref_square_multiply([0, 1], n, mod, p)


# -- roots and square roots ------------------------------------------------------

# 97 = 3 * 2^5 + 1 and 193 = 3 * 2^6 + 1 take several Tonelli-Shanks rounds
ROOT_PRIMES = [3, 5, 7, 11, 13, 17, 29, 97, 193]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.data())
def test_roots_match_brute_force(data):
    # f = (planted linear factors) * (a random monic cofactor), degree 1-8
    p = data.draw(st.sampled_from(ROOT_PRIMES), label="p")
    d = data.draw(st.integers(1, 8), label="d")
    planted = data.draw(st.lists(st.integers(0, p - 1), max_size=min(d, p), unique=True),
                        label="planted")
    rng = random.Random(data.draw(st.integers(0, 1 << 32), label="seed"))
    f = rand_poly(rng, d - len(planted), p, monic=True)
    for r in planted:
        f = gfpoly.mul(f, [-r % p, 1], p)
    assert gfpoly.roots(f, p) == [r for r in range(p) if gfpoly.evaluate(f, r, p) == 0]


def test_roots_fixed_cases():
    assert gfpoly.roots([0, 1], 7) == [0]
    assert gfpoly.roots([0, 0, 1], 7) == [0]  # a repeated root counts once
    assert gfpoly.roots([1, 0, 1], 7) == []  # t^2 + 1, 7 = 3 mod 4
    assert gfpoly.roots([1, 0, 1], 13) == [5, 8]
    assert gfpoly.roots([0, 12, 0, 1], 13) == [0, 1, 12]  # t^3 - t
    assert gfpoly.roots([1, 1, 1], 2) == []
    assert gfpoly.roots([0, 1, 1], 2) == [0, 1]


def test_random_splits_raise_on_a_broken_precondition():
    # an irreducible cubic handed to the split into linear factors, and an
    # irreducible quartic to the split into quadratics: no draw can split
    # them, so each split gives up after SPLIT_DRAWS draws
    cubic, quartic = [1, 1, 0, 1], [1, 1, 0, 0, 1]
    assert is_irreducible(cubic, 7) and is_irreducible(quartic, 7)
    with pytest.raises(ArithmeticError):
        gfpoly._linear_roots(cubic, 7)
    with pytest.raises(ArithmeticError):
        gfpoly._edf(quartic, 2, 7, random.Random(0))


@pytest.mark.parametrize("p,g", [(3, 2), (13, 2), (65537, 3), (998244353, 3),
                                 ((1 << 61) - 1, 37)])
def test_sqrt_mod(p, g):
    # g generates F_p*: g^2 has the largest 2-power order a square can have,
    # and g times a square is a non-residue
    rng = random.Random(f"sqrt:{p}")
    assert gfpoly.sqrt_mod(0, p) == 0
    assert gfpoly.sqrt_mod(p, p) == 0
    for a in [1, g, p - 1] + [rng.randrange(1, p) for _ in range(50)]:
        r = gfpoly.sqrt_mod(a * a, p)
        assert r * r % p == a * a % p
        with pytest.raises(ValueError):
            gfpoly.sqrt_mod(g * a * a, p)


# -- irreducibility -----------------------------------------------------------


def monic_polys(n, p):
    """Every monic polynomial of degree n over F_p."""
    for idx in range(p ** n):
        coeffs = []
        for _ in range(n):
            coeffs.append(idx % p)
            idx //= p
        yield coeffs + [1]


def trial_division_irreducible(f, p):
    n = len(f) - 1
    if n < 1:
        return False
    return not any(not ref_divmod(f, g, p)[1]
                   for d in range(1, n // 2 + 1) for g in monic_polys(d, p))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_is_irreducible_matches_trial_division(p):
    # the distinct-degree split of every monic f of degree below 5
    for n in range(5):
        for f in monic_polys(n, p):
            assert is_irreducible(f, p) == trial_division_irreducible(f, p), f


def test_is_irreducible_large_prime_products():
    p = (1 << 61) - 1
    rng = random.Random("irreducible:2^61-1")
    for _ in range(8):
        d1, d2 = rng.randrange(1, 4), rng.randrange(1, 4)
        g = random_irreducible(d1, p, rng)
        h = random_irreducible(d2, p, rng)
        # the factorization's EDF draws its own splits, not the DDF's steps
        assert gfpoly.factor(g, p) == [(g, 1)]
        assert gfpoly._ddf(h, p) == [(h, d2)]
        assert [d for _, d in gfpoly._ddf(gfpoly.mul(g, h, p), p)] == sorted({d1, d2})
    for _ in range(30):
        f = rand_poly(rng, rng.randrange(2, 7), p, monic=True)
        assert is_irreducible(f, p) == (gfpoly.factor(f, p) == [(f, 1)])


@pytest.mark.parametrize("p", [2, 101])
def test_is_irreducible_both_frobenius_steps(p):
    # the DDF's first step is a power of t; from degree 4 on, each later
    # step is a Frobenius image of the one before. Either way the answers
    # must match factor().
    rng = random.Random(f"irreducible:both:{p}")
    for n in range(2, 15):
        g = random_irreducible(n, p, rng)
        assert gfpoly.factor(g, p) == [(g, 1)]
        h = random_irreducible(rng.randrange(1, n), p, rng)
        assert not is_irreducible(gfpoly.mul(g, h, p), p)
        for _ in range(4):
            f = rand_poly(rng, n, p, monic=True)
            assert is_irreducible(f, p) == (gfpoly.factor(f, p) == [(f, 1)])
