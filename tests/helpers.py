"""Test-only helpers built on the library: code that only the tests call."""

import math
import random

from ethroot import gfpoly
from ethroot import saturation as sat
from ethroot.crtroot import _cover, good_prime_stream
from ethroot.errors import BudgetExceeded, IncompatibleFields, NotAPower, NotInGroup
from ethroot.fq import DLOG_BUDGET, _bsgs, dlog_mod_p_base, fq_eth_root
from ethroot.numfield import avoid_integers, crt_ideals
from ethroot.primes import OddPrimePower, derive_rng, modinv, prime_stream


def select_crt_primes(K, e: int, B: int, seed: int = 0, avoid_divisors_of=()):
    """Good primes whose product exceeds 2B."""
    return _cover(good_prime_stream(K, e, seed, avoid_divisors_of), B)


def eth_root_mod_q_by_ideals(terms, e: int, q: int, K) -> list[int]:
    """The unique e-th root mod q of prod base_i^{a_i}, ideal by ideal.

    A reference for crtroot.eth_root_mod_q at a good q: per prime ideal
    above q the product is folded in its residue field with exponents
    reduced mod q^d - 1 (0 when a base with a nonzero exponent vanishes
    there), the root is fq_eth_root's, and the residues are CRTed back
    mod (q, f).
    """
    ideals = K.prime_ideals(q)
    residues = []
    for ideal in ideals:
        g = list(ideal.g)
        field = gfpoly._Packed(g, q)
        acc = [1]
        for vec, a in terms:
            if a == 0:
                continue
            base = gfpoly.rem(gfpoly.trim(list(vec)), g, q)
            if not base:
                acc = None
                break
            r = a % (q ** ideal.f_deg - 1)
            if r:
                acc = field.mul(acc, field.power(base, r))
        residues.append([0] if acc is None else fq_eth_root(acc, e, field))
    return crt_ideals(residues, ideals, K)


def fq_dlog_order_e(z, zeta, e: int, field) -> int:
    """Discrete log of z in <zeta> where zeta has exact order e (BSGS), both
    reduced residues of the packed ring `field`.

    A reference for fq.dlog_mod_p_base, which takes the same logs on
    integers mod p.
    """
    if e > DLOG_BUDGET:
        raise BudgetExceeded(f"dlog order {e} above 2^40 budget")
    if not z or field.power(z, e) != [1]:
        raise NotInGroup("element is not in the order-e subgroup")
    return _bsgs(z, zeta, e, field)


def nonresidue_by_full_powers(ring, ell: int) -> list[int]:
    """The first l-th non-residue t of fq._nonresidue's order (constants,
    then base-p digits up to index 31, then draws seeded by q ^ l), each
    non-constant tested by a full power t^((q-1)/l) in F_q: the search as
    it ran before it returned b = t^s."""
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


def amm_ell_root_by_full_powers(y: list[int], ell: int, ring) -> list[int]:
    """One l-th root in F_q (l | q - 1, y an l-th power) as fq._amm_ell_root
    took it before its target came from x0: b from
    nonresidue_by_full_powers, and the target (y^s)^-w by two more powers.
    A reference for fq_eth_root's AMM branch."""
    power, mul, inverse = ring.power, ring.mul, ring.inverse
    s = ring.p ** gfpoly.deg(ring.mod) - 1
    v = 0
    while s % ell == 0:
        s //= ell
        v += 1
    b = power(nonresidue_by_full_powers(ring, ell), s)  # exact order ell^v
    u = modinv(ell, s)
    w = (ell * u - 1) // s
    x0 = power(y, u)  # x0^ell = y * (y^s)^w
    target = inverse(power(power(y, s), w))  # must be in mu_{ell^(v-1)}
    if power(target, ell ** (v - 1)) != [1]:
        raise NotAPower("not an l-th power residue")
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


def field_elements(p: int, d: int):
    """Every element of a degree-d field over F_p as a reduced coefficient
    list, index i read as its base-p digits: [] first."""
    for i in range(p ** d):
        digits = []
        while i:
            i, c = divmod(i, p)
            digits.append(c)
        yield digits


def character_primes_from_ideals(K, e: int, count: int, U, seed: int) -> list:
    """saturation.select_character_primes as read off the degree-1 ideals of
    K.prime_ideals(q), with one dlog_mod_p_base table per prime: a reference
    on any field.
    The q are those of the same walk of K's kept table; its kept facts are
    neither read nor written.
    """
    ell, M = OddPrimePower(e).split[0], math.lcm(e, K.conductor or 1)
    rng = derive_rng(seed, "characters")
    bits = max(sat.CHAR_BITS, M.bit_length() + 8 + count.bit_length())
    stream = (q for q, _ in K.walk_primes(M, bits, lambda q: None, rng,
                                          avoid_integers(U), sat.SELECT_BUDGET))
    out = []
    while len(out) < count:
        q = next(stream)
        ideals = [i for i in K.prime_ideals(q) or () if i.f_deg == 1]
        if not ideals:
            continue
        z = sat._order_e_element(q, e, ell, rng)
        log = dlog_mod_p_base(z, e, q)
        for ideal in ideals:
            if len(out) >= count:
                break
            r = (-ideal.g[0]) % q
            try:
                table = tuple(log(pow(sat._unit_residue(u, r, q), (q - 1) // e, q))
                              for u in U)
            except ValueError:
                continue
            out.append(sat.CharacterPrime(ideal, z, table))
    return out


def random_prime(rng, bits: int) -> int:
    """Random prime in [2^(bits-1), 2^bits)."""
    return next(prime_stream(rng, bits, budget=1))


def is_irreducible(f: list[int], p: int) -> bool:
    """Whether the reduced f is irreducible over F_p: squarefree, with one
    distinct-degree part, of degree deg f."""
    n = gfpoly.deg(f)
    if n < 1:
        return False
    f = gfpoly.monic(f, p)
    if gfpoly.deg(gfpoly.gcd(f, gfpoly.derivative(f, p), p)) > 0:
        return False
    return gfpoly._ddf(f, p) == [(f, n)]


def random_irreducible(d: int, p: int, rng) -> list[int]:
    """Random monic irreducible of degree d over F_p."""
    while True:
        f = [rng.randrange(p) for _ in range(d)] + [1]
        if is_irreducible(f, p):
            return f


def reduce_mod_ideal(coeffs_mod_p: list[int], ideal) -> list[int]:
    """Residue of a mod-p coordinate vector in F_p[x]/(g)."""
    return gfpoly.rem(gfpoly.trim(list(coeffs_mod_p)), list(ideal.g), ideal.p)


def fold_mod_p(y, p: int) -> list[int]:
    """The factored element y mod (p, f) in F_p[t]/(f mod p), trimmed."""
    ring = gfpoly._Packed(gfpoly.from_int_poly(list(y.field.f), p), p)
    out = [1]
    for u, a in y.terms:
        out = ring.mul(out, ring.power(u.reduce_mod_prime(p), a))
    return out


def from_subfield(emb, b):
    """Image of an L-element in K (substitute beta = alpha^(m/m'))."""
    if b.field != emb.L:
        raise IncompatibleFields("element not in L")
    return emb._power_map(b, emb.K.conductor // emb.L.conductor)


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b)."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def hnf(mat: list[list[int]], n: int) -> list[list[int]]:
    """Upper-triangular row Hermite form, positive diagonal, reduced above it.

    A reference for "same lattice": two full-rank generating sets span the
    same lattice exactly when their Hermite forms are equal.
    """
    rows = [list(r) for r in mat]
    basis = []
    for col in range(n):
        work = [r for r in rows if r[col] != 0]
        rest = [r for r in rows if r[col] == 0]
        if not work:
            raise ValueError("matrix rows do not span full rank")
        piv = work.pop()
        while work:
            r = work.pop()
            g, s, t = xgcd(piv[col], r[col])
            q1, q2 = piv[col] // g, r[col] // g
            comb = [s * x + t * y for x, y in zip(piv, r)]
            left = [q2 * x - q1 * y for x, y in zip(piv, r)]
            piv = comb
            if any(left):
                rest.append(left)
        if piv[col] < 0:
            piv = [-c for c in piv]
        basis.append(piv)
        rows = rest
    # entries above each pivot land in [0, pivot); increasing order keeps
    # earlier columns untouched (later pivot rows start with zeros)
    for i in range(n):
        for j in range(i):
            q = basis[j][i] // basis[i][i]
            if q:
                basis[j] = [x - q * y for x, y in zip(basis[j], basis[i])]
    return basis
