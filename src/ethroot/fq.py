"""Finite fields F_q, q = p^d, as residues of one `gfpoly._Packed` ring.

An element of F_q = F_p[t]/(g), g monic irreducible of degree d, is its
reduced coefficient list (gfpoly's convention: trimmed, [] for zero), and the
ring `gfpoly._Packed(g, p)` multiplies, powers and inverts such lists. An
exponent that can pass q - 1 is taken mod q - 1 first. The e-th root
routine dispatches on v = v_l(q-1) for e = l^k: v = 0 gives the unique-root
exponent inverse, 0 < v <= k an exponent inverse in the prime-to-l part, and
v > k runs k successive l-th root extractions (Adleman-Manders-Miller /
Tonelli-Shanks style). The l-th non-residue that run needs is searched among
the constants first, and those lie in F_p, so each is tested with one
integer pow mod p instead of a power in F_q.
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


def _nonresidue(ring, ell: int) -> list[int]:
    """Deterministic l-th non-residue: small elements first, then seeded draws.

    The small-index prefix of the enumeration (idx read as base-p digits)
    starts with the constants c < p, which lie in F_p: there
    c^((q-1)/l) = c^(((q-1)/l) mod (p-1)), one integer pow. Constants can be
    universally l-th powers (e.g. l | p + 1 in F_{p^2}), so the scan must not
    stay sequential past a short prefix. A draw takes d coefficients.
    """
    p, d = ring.p, gfpoly.deg(ring.mod)
    q = p ** d
    exp = (q - 1) // ell
    exp_p = exp % (p - 1)
    for idx in range(2, min(q, 32)):
        if idx < p:
            if pow(idx, exp_p, p) != 1:
                return [idx]
            continue
        t, rest = [], idx
        while rest:
            rest, c = divmod(rest, p)
            t.append(c)
        if ring.power(t, exp) != [1]:
            return t
    rng = random.Random(q ^ ell)
    while True:
        t = gfpoly.trim([rng.randrange(p) for _ in range(d)])
        if t and ring.power(t, exp) != [1]:
            return t


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


def _amm_ell_root(y: list[int], ell: int, ring) -> list[int]:
    """One l-th root in F_q for prime l with l | q - 1; y must be an l-th power."""
    power, mul, inverse = ring.power, ring.mul, ring.inverse
    s = ring.p ** gfpoly.deg(ring.mod) - 1
    v = 0
    while s % ell == 0:
        s //= ell
        v += 1
    b = power(_nonresidue(ring, ell), s)  # exact order ell^v
    u = modinv(ell, s)
    w = (ell * u - 1) // s
    x0 = power(y, u)  # x0^ell = y * (y^s)^w
    target = inverse(power(power(y, s), w))  # must be in mu_{ell^(v-1)}
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
    x = y
    for _ in range(k):
        x = _amm_ell_root(x, ell, ring)
    return x
