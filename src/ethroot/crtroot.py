"""Double-CRT e-th roots: the good-prime case.

A prime q is good for (K, e = l^k) when f mod q is squarefree and no residue
field F_{q^d} contains a primitive l-th root of unity, i.e. q^d != 1 mod l for
every factor degree d. Then raising to the e-th power is a bijection on every
residue field, the local root is unique and costs one exponentiation, and the
global root is assembled by CRT over ideals and over primes.
"""

import math
from dataclasses import dataclass

from . import gfpoly
from .errors import BoundViolation, SearchExhausted, VerificationFailed
from .fq import FqField, factor_mod_p, fq_eth_root
from .numfield import (
    FactoredElement,
    FieldElement,
    NumberField,
    PrimeIdealRep,
    clear_denominators,
    coeff_bound_root,
    crt_ideals,
    crt_integers_symmetric,
    multi_reduce,
    split_prime_ideals,
)
from .primes import (
    check_odd_prime_power,
    derive_rng,
    is_prime,
    multiplicative_order,
    prime_power_split,
    random_prime,
)

# candidate budget for prime selection before giving up
SEARCH_BUDGET = 10 ** 6

# split primes stay below 29 bits so the vectorized kernel can keep products
# of two residues inside int64; generic primes use most of the word
SPLIT_BITS = 29
GENERIC_BITS = 62

# running tallies, handy when tuning prime selection
stats = {"candidates": 0, "accepted": 0}


@dataclass(frozen=True)
class Rejection:
    """Why a candidate prime was refused."""

    kind: str  # "ramified" or "root-of-unity"
    degree: int = 0


@dataclass(frozen=True)
class GoodPrime:
    q: int
    ideals: tuple
    all_split: bool

    def split_roots(self) -> list[int]:
        """Roots r of the linear ideals (alpha - r); only when all_split."""
        if not self.all_split:
            raise ValueError(f"{self.q} is not totally split")
        return [(-g[0]) % self.q for g in (i.g for i in self.ideals)]


def _sees_mu(q: int, d: int, e: int) -> bool:
    """Whether F_{q^d} holds a primitive l-th root of 1, e = l^k."""
    return math.gcd(e, pow(q, d, e) - 1) > 1


def check_good_prime(q: int, K: NumberField, e: int):
    """GoodPrime if q is unramified and no residue field sees mu_l.

    Returns a Rejection (never raises) when q fails. For e = l^k a residue
    field F_{q^d} holds mu_l iff q^d = 1 mod l iff gcd(e, q^d - 1) > 1, which
    needs no factoring of e. An unramified q = 1 mod l is refused without
    factoring f: F_q, and so every residue field, already holds mu_l.
    Rejection.degree is then 1, the degree of F_q, not that of a residue
    field; otherwise it is the residue degree d that failed.
    """
    m = K.conductor
    if m is not None:
        if m % q == 0:
            return Rejection("ramified")
        d = 1 if q % m == 1 else multiplicative_order(q % m, m)
        if _sees_mu(q, d, e):
            return Rejection("root-of-unity", d)
        if d == 1:
            return GoodPrime(q, split_prime_ideals(q, m), True)
        fac = factor_mod_p(list(K.f), q, seed=1)
        ideals = tuple(PrimeIdealRep(q, tuple(g), len(g) - 1) for g, _ in fac)
        return GoodPrime(q, ideals, False)
    fbar = gfpoly.from_int_poly(list(K.f), q)
    if gfpoly.deg(gfpoly.gcd(fbar, gfpoly.derivative(fbar, q), q)) > 0:
        return Rejection("ramified")
    if _sees_mu(q, 1, e):
        return Rejection("root-of-unity", 1)
    fac = factor_mod_p(list(K.f), q, seed=1)
    for g, _ in fac:
        d = len(g) - 1
        if _sees_mu(q, d, e):
            return Rejection("root-of-unity", d)
    ideals = tuple(PrimeIdealRep(q, tuple(g), len(g) - 1) for g, _ in fac)
    all_split = all(i.f_deg == 1 for i in ideals)
    return GoodPrime(q, ideals, all_split)


def good_prime_stream(K: NumberField, e: int, seed: int = 0,
                      avoid_divisors_of=(), budget: int = SEARCH_BUDGET):
    """Yield distinct good primes, deterministic under seed.

    Cyclotomic K samples q = 1 mod m just under SPLIT_BITS (residue fields
    are all F_q, the kernel-friendly shape); other fields sample GENERIC_BITS
    primes. Raises SearchExhausted once the candidate budget runs out.
    """
    rng = derive_rng(seed, "crt-primes")
    m = K.conductor
    if m is not None:
        lo = ((1 << (SPLIT_BITS - 1)) - 1) // m + 1
        hi = ((1 << SPLIT_BITS) - 1) // m
    seen = set()
    tried = 0
    avoid = [d for d in avoid_divisors_of if d > 1]
    while tried < budget:
        tried += 1
        stats["candidates"] += 1
        if m is not None:
            q = rng.randrange(lo, hi) * m + 1
        else:
            q = rng.randrange(1 << (GENERIC_BITS - 1), 1 << GENERIC_BITS) | 1
        if not is_prime(q):
            continue
        if q in seen or any(d % q == 0 for d in avoid):
            continue
        gp = check_good_prime(q, K, e)
        if isinstance(gp, Rejection):
            continue
        seen.add(q)
        stats["accepted"] += 1
        yield gp
    raise SearchExhausted(f"no good prime after {budget} candidates")


def _cover(stream, B: int) -> list[GoodPrime]:
    """Primes from stream, in order, until their product exceeds 2B."""
    out, prod = [], 1
    while prod <= 2 * B:
        gp = next(stream)
        out.append(gp)
        prod *= gp.q
    return out


def select_crt_primes(K: NumberField, e: int, B: int, seed: int = 0,
                      avoid_divisors_of=(),
                      budget: int = SEARCH_BUDGET) -> list[GoodPrime]:
    """Good primes whose product exceeds 2B."""
    return _cover(good_prime_stream(K, e, seed, avoid_divisors_of, budget), B)


def eth_root_mod_q(terms, e: int, gp: GoodPrime, K: NumberField) -> list[int]:
    """Unique e-th root mod q of prod base_i^{a_i}, as a coordinate vector.

    terms: [(coordinate vector mod q, exponent)]. Per ideal the product is
    folded with exponents reduced mod q^d - 1, the unique root is one
    exponentiation, and the residues are CRTed back mod (q, f).
    """
    q = gp.q
    residues = []
    for ideal in gp.ideals:
        field = FqField(q, list(ideal.g))
        order = field.q - 1
        acc = field.one
        for vec, a in terms:
            if a == 0:
                continue
            base = field.element(gfpoly.rem(gfpoly.trim(list(vec)),
                                            list(ideal.g), q))
            if base.is_zero():
                # y has positive valuation here, so the root does too
                acc = None
                break
            r = a % order
            if r:
                acc = acc * base ** r
        if acc is None:
            residues.append([0])
        else:
            residues.append(list(fq_eth_root(acc, e).coeffs))
    return crt_ideals(residues, gp.ideals, K)


def eth_root_double_crt(y: FactoredElement, e: int, K: NumberField,
                        seed: int = 0) -> FieldElement:
    """x with x^e = y, via per-prime unique roots and integer CRT.

    Requires K good for e, y an e-th power with exponents in [0, e] (the
    strategy layer normalizes larger ones). A failed spot-check at fresh
    primes raises VerificationFailed.
    """
    check_odd_prime_power(e)
    terms = [(u, a) for u, a in y.terms if a != 0]
    if not terms:
        return K.one
    work, T = clear_denominators(FactoredElement(K, terms), e)
    B = coeff_bound_root(work, e, K)
    dens = sorted({u.den for u, _ in terms if u.den != 1})
    stream = good_prime_stream(K, e, seed=seed, avoid_divisors_of=dens)
    primes = _cover(stream, B)
    fresh = [next(stream) for _ in range(3)]
    allp = primes + fresh

    bases = [u for u, _ in work.terms]
    exps = [a for _, a in work.terms]
    kernel_ok = K.n > 1 and all(gp.all_split and gp.q < (1 << SPLIT_BITS)
                                for gp in allp)
    if kernel_ok:
        from .splitkernel import split_roots_kernel

        vectors = split_roots_kernel(bases, exps, allp, e, K)
    else:
        table = multi_reduce(bases, [gp.q for gp in allp])
        vectors = [
            eth_root_mod_q(
                [(table[i][j], exps[i]) for i in range(len(bases))], e, gp, K)
            for j, gp in enumerate(allp)
        ]

    try:
        coords = crt_integers_symmetric(vectors[: len(primes)],
                                        [gp.q for gp in primes], B)
    except BoundViolation as exc:
        raise VerificationFailed(
            "reconstructed coefficients exceed the root bound; "
            "input is likely not an e-th power") from exc
    for j, gp in enumerate(fresh):
        if [c % gp.q for c in coords] != vectors[len(primes) + j]:
            raise VerificationFailed(
                f"root mismatch at spot-check prime {gp.q}")
    x = K.element(coords, T)
    return x


def is_bad_field(K: NumberField, e: int, seed: int = 0,
                 candidates: int = 200) -> bool:
    """True when no good primes exist (or none found heuristically).

    Cyclotomic fields are decided exactly: bad iff rad(e) divides m, since
    that puts a primitive l-th root of unity in K and hence in every residue
    field. Generic fields fall back to scanning candidate primes.
    """
    l, _ = prime_power_split(e)
    if K.conductor is not None:
        return K.conductor % l == 0
    rng = derive_rng(seed, "badfield")
    for _ in range(candidates):
        q = random_prime(rng, GENERIC_BITS)
        if isinstance(check_good_prime(q, K, e), GoodPrime):
            return False
    return True
