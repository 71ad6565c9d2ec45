"""Relative Couveignes e-th roots for the bad fields.

When every rational prime has residue fields containing zeta_e, the e local
candidates for a root residue cannot be told apart and plain CRT would have
to guess one of e^g combinations per prime. Working relative to a subfield L
with zeta_e in L and gcd([K:L], e) = 1 removes the guessing: the relative
norm of the root down to L picks, in each residue field, exactly one of the
e candidates, so residues computed at different primes all belong to the same
global root and a single symmetric CRT finishes the job.

The per-prime step needs every prime of L above p to stay inert in K/L; for
K = Q(zeta_m) over L = Q(zeta_{m'}) that reads ord_m(p) = r * d with
r = [K:L] and d = ord_{m'}(p). Then every residue field of K above p is
F_Q, Q = q^r, over the residue field F_q, q = p^d, of L below it, and the
relative norm there is the Frobenius product N(x) = x^E, E = (Q-1)/(q-1),
the same E at every prime above p. As q = 1 mod e, E = r mod e is a unit
mod e: with t = E^-1 mod e and s = (1 - tE)/e, so that se + tE = 1, a norm
root a (a^e = N(y)) gives x = y^s a^t, which satisfies x^e = y^(se) y^(Et)
= y and N(x) = y^(Es) a^(tE) = a^(es + tE) = a. That is the one local root
whose norm is a, on all residue fields at once: two powers in
R = Z[alpha]/p = F_p[t]/(Phi_m mod p), with no prime ideal named.
"""

import math
from dataclasses import dataclass

from . import gfpoly
from .counters import count
from .errors import IncompatibleFields, NormMismatch, NotApplicable, VerificationFailed
from .fq import factor_mod_p, fq_eth_root  # noqa: F401, wrapped at this module by layerbench
from .numfield import crt_ideals  # noqa: F401, wrapped at this module by layerbench
from .numfield import (
    FactoredElement,
    FieldElement,
    NumberField,
    SubfieldEmbedding,
    avoid_integers,
    clear_denominators,
    coeff_bound_root,
    crt_integers_symmetric,
    relative_norm,
)
from .primes import OddPrimePower, derive_rng, euler_phi, factorize, multiplicative_order
from .verify import verify_root

CRT_BITS = 62
PRIME_BUDGET = 4000  # table primes select_couveignes_primes walks


@dataclass(frozen=True)
class CouveignesPrime:
    """Admissible prime p and d = ord_{m'}(p), the residue degree of L at p."""

    p: int
    d: int


def make_couveignes_prime(K: NumberField, emb: SubfieldEmbedding, p: int, degrees=None):
    """CouveignesPrime for p, or None when p does not split the right way.

    p qualifies iff it is prime to m (so unramified in K and L) and
    D = ord_m(p) is [K:L] * ord_{m'}(p), i.e. every prime of L above p is
    inert in K/L. degrees is (D,), or () for p | m, as a walk keeps it
    (K.kept_degrees(p) when None). As ord_{m'}(p) divides D and the
    residue degree D / ord_{m'}(p) of K/L divides [K:L], that reads
    p^(D/[K:L]) = 1 mod m'.
    """
    if degrees is None:
        degrees = K.kept_degrees(p)
    if not degrees or degrees[0] % emb.degree:
        return None
    d = degrees[0] // emb.degree
    if pow(p, d, emb.L.conductor) != 1:
        return None
    return CouveignesPrime(p, d)


def select_couveignes_primes(K: NumberField, emb: SubfieldEmbedding, e: int,
                             B: int, seed: int = 0, avoid=()) -> list:
    """Distinct admissible primes with prod p > 2B.

    The candidates are the odd CRT_BITS-bit primes of K's kept table
    (K.walk_primes, M = 2) from a block the seed picks, kept with K's
    residue degrees, the fact a generic double CRT keeps there too: a field
    scans a block once and later roots read its primes.
    make_couveignes_prime tests each. Primes dividing m or an integer of
    avoid (denominators, numerator contents of the eventual reductions)
    are skipped. SearchExhausted after PRIME_BUDGET primes walked.
    """
    if math.gcd(emb.degree, e) != 1:
        raise ValueError("[K:L] must be prime to e")
    walk = K.walk_primes(2, CRT_BITS, K.kept_degrees, derive_rng(seed, "couveignes"),
                         (*avoid, K.conductor), PRIME_BUDGET)
    chosen: list[CouveignesPrime] = []
    product = 1
    while product <= 2 * B:
        cp = make_couveignes_prime(K, emb, *next(walk))
        if cp is not None:
            chosen.append(cp)
            product *= cp.p
    count("couveignes", "primes", len(chosen))
    return chosen


def couveignes_mod_p(y: FactoredElement, e: int, emb: SubfieldEmbedding,
                     a: FieldElement, cp: CouveignesPrime) -> list:
    """One consistent residue of y^{1/e} mod p, anchored by the norm root a.

    In R = F_p[t]/(Phi_m mod p): y is folded, a is pushed to K by
    alpha -> alpha^(m/m'), and x = y^s a^t with se + tE = 1 (module
    docstring) is returned as a coordinate vector. NormMismatch unless
    a^e = y^E in R. Both exponents are taken positive, s as its
    representative in [1, Q-1], so x is 0 wherever y is, its right residue
    there, and no inverse is needed. DenominatorClash when p divides a
    denominator.
    """
    K, p = emb.K, cp.p
    fbar = gfpoly.from_int_poly(list(K.f), p)
    R = gfpoly._Packed(fbar, p)
    R.keep_frobenius(gfpoly.rem([0] * (p % K.conductor) + [1], fbar, p))  # t^p
    ybar = [1]
    for u, exp in y.terms:
        ybar = R.mul(ybar, R.power(u.reduce_mod_prime(p), exp))
    step = K.conductor // emb.L.conductor
    pushed = [0] * (step * (emb.L.n - 1) + 1)
    for i, c in enumerate(a.reduce_mod_prime(p)):
        pushed[i * step] = c
    abar = gfpoly.rem(pushed, fbar, p)
    q = p ** cp.d
    Q = q ** emb.degree
    E = (Q - 1) // (q - 1)
    t = pow(E, -1, e)
    s = (1 - t * E) // e
    count("couveignes", "norm_checks")
    if R.power(abar, e) != R.power(ybar, E):
        raise NormMismatch(f"anchor is not an e-th root of the norm mod {p}")
    x = R.mul(R.power(ybar, (s - 1) % (Q - 1) + 1), R.power(abar, t))
    return x + [0] * (K.n - len(x))


def eth_root_couveignes(y: FactoredElement, e: int, K: NumberField,
                        emb: SubfieldEmbedding, norm_root_solver,
                        seed: int = 0) -> FieldElement:
    """e-th root of y by norm descent to L = emb.L.

    norm_root_solver(factored element over L) must return one e-th root in
    L; it runs exactly once, on the relative norm of y, and its choice of
    root decides which of the e conjugates x*zeta_e^j comes back. Callers
    therefore compare e-th powers, never roots.
    """
    e = OddPrimePower(e)
    if y.field != K or emb.K != K:
        raise IncompatibleFields("y and emb must both live over K")
    if math.gcd(emb.degree, e) != 1:
        raise ValueError("[K:L] must be prime to e")
    if emb.L.conductor % e != 0:
        raise ValueError("L does not contain the e-th roots of unity")
    terms = [(u, a) for u, a in y.terms if a != 0]
    if not terms:
        return K.one
    if any(a < 0 for _, a in terms):
        raise ValueError("exponents must lie in [0, e]")
    work, T = clear_denominators(FactoredElement(K, terms), e)
    B = coeff_bound_root(work, e, K)
    a = norm_root_solver(relative_norm(work, emb))
    if not isinstance(a, FieldElement) or a.field != emb.L:
        raise IncompatibleFields("norm root does not lie in L")
    avoid = avoid_integers([u for u, _ in work.terms] + [a])
    cps = select_couveignes_primes(K, emb, e, B, seed=seed, avoid=avoid)
    vectors = [couveignes_mod_p(work, e, emb, a, cp) for cp in cps]
    coords = crt_integers_symmetric(vectors, [cp.p for cp in cps], B)
    x = K.element(coords, T)
    if not verify_root(x, y, e, K, trials=2, seed=seed + 1):
        raise VerificationFailed("couveignes root failed the modular check")
    return x


# -- cyclotomic towers ----------------------------------------------------------


def _divisors(n: int) -> list:
    out = [1]
    for p, k in factorize(n).items():
        out = [d * p ** i for d in out for i in range(k + 1)]
    return sorted(out)


def _cyclic_rel_galois(m: int, msub: int) -> bool:
    """Whether {t in (Z/m)*: t = 1 mod msub} is cyclic."""
    group = [t for t in range(1, m) if math.gcd(t, m) == 1 and t % msub == 1]
    return any(multiplicative_order(t, m) == len(group) for t in group)


def _descend(m: int, e: int, l: int) -> int | None:
    """Smallest valid subconductor of m for exponent e = l^k, or None.

    Valid: proper divisor of m keeping the full l-part (so zeta_e survives
    and the step degree stays prime to l), relative degree prime to e, and
    cyclic relative Galois group.
    """
    lpart = 1
    mm = m
    while mm % l == 0:
        lpart *= l
        mm //= l
    phi_m = euler_phi(m)
    for msub in _divisors(m):
        if msub == m or msub < 3 or msub % 4 == 2 or msub % lpart != 0:
            continue
        if math.gcd(phi_m // euler_phi(msub), e) != 1:
            continue
        if not _cyclic_rel_galois(m, msub):
            continue
        return msub
    return None


def build_tower(K: NumberField, e: int) -> tuple:
    """Cyclotomic descent chain (K, ..., L_0) for the bad case e | m.

    Every step is cyclic of degree prime to e, and zeta_e lives in every
    level. Repeatedly drops to the smallest admissible subconductor m', and
    each level below K is SubfieldEmbedding.cyclotomic(level above, m').L,
    the one object kept for that field, so what it computes (its cinf, its
    primes) is paid once. NotApplicable when already the first step fails
    (the strategy then falls back to lattice reconstruction in K itself).
    """
    l, _ = OddPrimePower(e).split
    m = K.conductor
    if m is None:
        raise ValueError("tower construction needs a cyclotomic field")
    if m % e != 0:
        raise ValueError("tower construction expects the bad case e | m")
    levels = [K]
    while (msub := _descend(levels[-1].conductor, e, l)) is not None:
        levels.append(SubfieldEmbedding.cyclotomic(levels[-1], msub).L)
    if len(levels) == 1:
        raise NotApplicable(f"no admissible subfield below Q(zeta_{m}) for e = {e}")
    return tuple(levels)
