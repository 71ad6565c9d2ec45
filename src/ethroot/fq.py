"""Finite fields F_q, q = p^d, as residues of one `gfpoly._Packed` ring.

An element of F_q = F_p[t]/(g), g monic irreducible of degree d, is its
reduced coefficient list (gfpoly's convention: trimmed, [] for zero), and the
ring `gfpoly._Packed(g, p)` multiplies, powers and inverts such lists. An
exponent that can pass q - 1 is taken mod q - 1 first. The e-th root
routine dispatches on v = v_l(q-1) for e = l^k: v = 0 gives the unique-root
exponent inverse, 0 < v <= k an exponent inverse in the prime-to-l part, and
v > k runs k successive l-th root extractions (Adleman-Manders-Miller /
Tonelli-Shanks style). That run needs b = t^s for an l-th non-residue t,
q - 1 = s l^v with s prime to l, and b^(l^(v-1)) != 1 is the test for t,
so each candidate costs one power in F_q. The constants, tested by integer
pows mod p, come first unless l | (q-1)/(p-1) makes them all l-th powers.
"""

from __future__ import annotations

import math
import random

from . import gfpoly
from .errors import BudgetExceeded, NotAPower, NotInGroup, ZeroInput
from .primes import OddPrimePower, modinv

DLOG_BUDGET = 1 << 40  # largest order a discrete log may take
DLOG_DIGIT = 1 << 20  # largest order one baby-step giant-step table covers


def factor_mod_p(f: list[int], p: int, seed: int = 0) -> list[tuple[list[int], int]]:
    """Factor a monic integer polynomial mod p into monic irreducibles.

    Deterministic for a given seed. Returns [(factor, multiplicity), ...]
    sorted by (degree, coefficients).
    """
    if not f or f[-1] != 1:
        raise ValueError("input polynomial must be monic")
    fp = gfpoly.from_int_poly(f, p)
    if gfpoly.deg(fp) != len(f) - 1:
        raise ValueError("degree dropped mod p")  # cannot happen for monic f
    return gfpoly.factor(fp, p, seed)


# -- e-th roots ---------------------------------------------------------------


def _nonresidue(ring, ell: int, s: int, v: int) -> list[int]:
    """b = t^s, of exact order l^v (q - 1 = s l^v, s prime to l), for the
    first l-th non-residue t among the constants, then small elements (idx
    read as base-p digits), then seeded draws of d coefficients.

    t is a non-residue exactly when b^(l^(v-1)) != 1. A constant c lies in
    F_p, so b = c^(s mod (p-1)) there; when l | (q-1)/(p-1) (l | p + 1 in
    F_{p^2}, say) every constant is an l-th power, and they are skipped.
    The small elements stop at index 31, so a field whose first elements
    are all l-th powers still reaches the draws.
    """
    p, d = ring.p, gfpoly.deg(ring.mod)
    q, top = p ** d, ell ** (v - 1)
    if (q - 1) // (p - 1) % ell:
        for c in range(2, min(p, 32)):
            if pow(b := pow(c, s % (p - 1), p), top, p) != 1:
                return [b]
    rng = random.Random(q ^ ell)
    idx = p
    while True:
        if idx < min(q, 32):
            t, rest = [], idx
            while rest:
                rest, c = divmod(rest, p)
                t.append(c)
            idx += 1
        else:
            t = gfpoly.trim([rng.randrange(p) for _ in range(d)])
        if t and ring.power(b := ring.power(t, s), top) != [1]:
            return b


def _bsgs(target: list[int], base: list[int], order: int, ring) -> int:
    """Discrete log of target in <base> of the given order, or NotInGroup;
    the baby steps are keyed on packed residues."""
    m = math.isqrt(order - 1) + 1
    reduce, step = ring.reduce, ring.pack(base)
    baby: dict[int, int] = {}
    cur = 1
    for j in range(m):
        baby.setdefault(cur, j)
        cur = reduce(cur * step)
    giant = ring.pack(ring.inverse(ring.power(base, m)))
    cur = ring.pack(target)
    for g in range(m + 1):
        if cur in baby:
            return (g * m + baby[cur]) % order
        cur = reduce(cur * giant)
    raise NotInGroup("element outside the cyclic group")


def dlog_mod_p_base(z: int, e: int, p: int):
    """t -> log_z t mod e in F_p*, z of exact order e = l^k, in base-D
    digits (Pohlig-Hellman 1978), D the largest power of l up to DLOG_DIGIT
    (l itself when l is larger; e when e is below it), each digit by integer
    baby-step giant-step in <z^(e/D)>, whose baby steps and giant step are
    taken once for every t. Raises BudgetExceeded for e above DLOG_BUDGET;
    each log raises NotInGroup for a t outside <z>."""
    if e > DLOG_BUDGET:
        raise BudgetExceeded(f"dlog order {e} above 2^40 budget")
    D = e
    if e > DLOG_DIGIT:
        ell, _ = OddPrimePower(e).split
        D = ell
        while D * ell <= DLOG_DIGIT:  # so D * ell divides e
            D *= ell
    m = math.isqrt(D - 1) + 1
    gamma = pow(z, e // D, p)
    baby: dict[int, int] = {}
    cur = 1
    for j in range(m):
        baby.setdefault(cur, j)
        cur = cur * gamma % p
    giant = pow(gamma, -m, p)

    def digit(h: int) -> int:
        # log_gamma h mod D
        for g in range(m + 1):
            if h in baby:
                return (g * m + baby[h]) % D
            h = h * giant % p
        raise NotInGroup("element outside the cyclic group")

    def log(t: int) -> int:
        if pow(t, e, p) != 1:
            raise NotInGroup("element is not in the order-e subgroup")
        if D == e:
            return digit(t % p)
        # x is log_z t mod `known`; the next digit b = min(D, e/known) is
        # the log of (t z^-x)^(e/(known b)), of order b, in <gamma^(D/b)>
        x, known = 0, 1
        while known < e:
            b = min(D, e // known)
            h = pow(t * pow(z, -x, p) % p, e // (known * b), p)
            x += digit(h) // (D // b) * known
            known *= b
        return x

    return log


def _amm_ell_root(y: list[int], ell: int, ring, s: int, v: int, b: list[int]) -> list[int]:
    """One l-th root of y in F_q, q - 1 = s l^v (s prime to l, v > 0), b of
    exact order l^v. With u = l^-1 mod s and w = (l u - 1) / s, x0 = y^u
    has x0^l = y (y^s)^w, so the target (y^s)^-w = y x0^-l, in
    mu_{l^(v-1)} iff y is an l-th power, needs no y^s. The root is x0 b^j,
    b^(l j) = target."""
    power, mul, inverse = ring.power, ring.mul, ring.inverse
    x0 = power(y, modinv(ell, s))
    target = mul(y, inverse(power(x0, ell)))
    if power(target, ell ** (v - 1)) != [1]:
        raise NotAPower("not an l-th power residue")
    # solve b^(ell*j) = target by lifting digits of j base ell
    gamma = power(b, ell ** (v - 1))  # order ell
    h = power(b, ell)
    j = 0
    for i in range(v - 1):
        c = power(mul(target, inverse(power(h, j))), ell ** (v - 2 - i))
        j += _bsgs(c, gamma, ell, ring) * ell ** i
    x = mul(x0, power(b, j))
    if power(x, ell) != y:
        raise NotAPower("root verification failed")
    return x


def fq_eth_root(y: list[int], e: int, ring) -> list[int]:
    """Some x with x^e = y in F_q = F_p[t]/(g), ring = gfpoly._Packed(g, p),
    for odd prime-power e. Raises NotAPower if none.

    y is a coefficient list, reduced here; x comes back reduced. In the
    unique-root case (gcd(e, q-1) = 1) the returned x is that root.
    """
    ell, k = OddPrimePower(e).split
    y = gfpoly.rem(y, ring.mod, ring.p)
    if not y:
        raise ZeroInput("e-th root of zero requested")
    qm1 = ring.p ** gfpoly.deg(ring.mod) - 1
    v = 0
    m = qm1
    while m % ell == 0:
        m //= ell
        v += 1
    if v == 0:
        return ring.power(y, modinv(e, qm1))
    if v <= k:
        x = ring.power(y, modinv(e, m))
        if ring.power(x, e % qm1) != y:
            raise NotAPower("not an e-th power")
        return x
    b = _nonresidue(ring, ell, m, v)
    x = y
    for _ in range(k):
        x = _amm_ell_root(x, ell, ring, m, v, b)
    return x
