"""Double-CRT e-th roots: the good-prime case.

A prime q is good for (K, e = l^k) when f mod q is squarefree and no residue
field F_{q^d} contains a primitive l-th root of unity, i.e. q^d != 1 mod l for
every residue degree d. Then raising to the e-th power is a bijection on
every residue field, so on Z[alpha]/q = F_q[t]/(f mod q), their product: the
local root is unique and costs one exponentiation there, with no prime ideal
named. The global root is assembled by CRT over the primes.

The candidates are walked on the field's kept table (NumberField.walk_primes)
with what decides them kept beside each prime: w on Q(zeta_m), the residue
degrees on a generic K. Repeated roots on one field, as saturation asks,
pay for a prime once.
"""

import math
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

from . import gfpoly
from .counters import count
from .errors import BoundViolation, NotApplicable, SearchExhausted, VerificationFailed
from .fq import factor_mod_p, fq_eth_root  # noqa: F401, wrapped at this module by layerbench
from .numfield import crt_ideals  # noqa: F401, wrapped at this module by layerbench
from .numfield import (
    FactoredElement,
    FieldElement,
    NumberField,
    avoid_integers,
    clear_denominators,
    coeff_bound_root,
    crt_integers_symmetric,
    multi_reduce,
)
from .primes import OddPrimePower, derive_rng
from .verify import verify_root

# table primes the double CRT walks before giving up
SEARCH_BUDGET = 10 ** 6
BAD_FIELD_CANDIDATES = 200  # table primes a generic K walks for a first good one

# split primes stay below 29 bits so the vectorized kernel can keep products
# of two residues inside int64; generic primes use most of the word
SPLIT_BITS = 29
GENERIC_BITS = 62


@dataclass(frozen=True)
class Rejection:
    """Why a candidate prime was refused."""

    kind: str  # "ramified" or "root-of-unity"
    degree: int = 0


class GoodPrime(NamedTuple):
    """A good prime q for (K, e) and its distinct residue degrees, ascending.

    On Q(zeta_m) a q = 1 mod m also holds w, a primitive m-th root of 1 mod
    q: the phi(m) roots of f mod q are the w^u, u a unit mod m. w is 0 for
    any other good prime.
    """

    q: int
    degrees: tuple
    w: int = 0


def _sees_mu(q: int, d: int, e: int) -> bool:
    """Whether F_{q^d} holds a primitive l-th root of 1, e = l^k."""
    return math.gcd(e, pow(q, d, e) - 1) > 1


def check_good_prime(q: int, K: NumberField, e: int, kept=None):
    """GoodPrime if q is unramified and no residue field sees mu_l.

    Returns a Rejection (never raises) when q fails. For e = l^k a residue
    field F_{q^d} holds mu_l iff q^d = 1 mod l iff gcd(e, q^d - 1) > 1, which
    needs no factoring of e. A q = 1 mod l is refused first, with no look at
    f mod q: F_q, and so every residue field, already holds mu_l.
    Rejection.degree is then 1, the degree of F_q, not that of a residue
    field. kept is what the caller's walk kept for q, or None. A q = 1 mod m
    on Q(zeta_m) is then good, since it splits totally; it is returned with
    w, the primitive m-th root of 1 mod q kept (K.split_root(q) when None).
    Otherwise the residue degrees are the kept ones or K.residue_degrees'
    (None or () means "ramified"), each is tested once, smallest first, and
    the Rejection names the d that failed.
    """
    if _sees_mu(q, 1, e):
        return Rejection("root-of-unity", 1)
    m = K.conductor
    if m is not None and q % m == 1:
        # every residue field is F_q
        return GoodPrime(q, (1,), kept or K.split_root(q))
    degrees = K.residue_degrees(q) if kept is None else kept
    if not degrees:
        return Rejection("ramified")
    for d in degrees:
        if _sees_mu(q, d, e):
            return Rejection("root-of-unity", d)
    return GoodPrime(q, degrees)


def good_prime_stream(K: NumberField, e: int, seed: int = 0,
                      avoid_divisors_of=()):
    """Yield distinct good primes, deterministic under seed.

    The candidates are consecutive primes of the field's kept table
    (K.walk_primes), from a start block the seed picks, so they depend on the
    seed alone, whatever ran on the field before. On Q(zeta_m) they are the
    split primes q = m t + 1 just under SPLIT_BITS (residue fields are all
    F_q, the kernel-friendly shape), each kept with its w; a field with
    gcd(m, e) > 1 has no good split prime and raises SearchExhausted at
    once. On other fields they are the odd GENERIC_BITS primes, each kept
    with its residue degrees (K.kept_degrees), so a prime is split into
    degrees once per field, whatever e asks; a field none of whose first
    BAD_FIELD_CANDIDATES is good raises SearchExhausted then. Primes
    dividing an integer of avoid_divisors_of are skipped. Raises
    SearchExhausted after SEARCH_BUDGET table primes walked.
    """
    rng = derive_rng(seed, "crt-primes")
    m = K.conductor
    if m is None:
        pairs = K.walk_primes(2, GENERIC_BITS, K.kept_degrees, rng,
                              avoid_divisors_of, SEARCH_BUDGET)
    elif math.gcd(m, e) > 1:
        raise SearchExhausted(f"gcd({m}, {e}) > 1: every split prime sees mu_l")
    else:
        pairs = K.walk_primes(m, SPLIT_BITS, K.split_root, rng, avoid_divisors_of,
                              SEARCH_BUDGET)
    found = False
    for walked, (q, kept) in enumerate(pairs, 1):
        count("crt", "candidates")
        gp = check_good_prime(q, K, e, kept)
        if isinstance(gp, GoodPrime):
            found = True
            count("crt", "accepted")
            yield gp
        elif not found and m is None and walked == BAD_FIELD_CANDIDATES:
            raise SearchExhausted(f"no good prime among {walked} table primes")


def _cover(stream, B: int) -> list[GoodPrime]:
    """Primes from stream, in order, until their product exceeds 2B."""
    out, prod = [], 1
    while prod <= 2 * B:
        gp = next(stream)
        out.append(gp)
        prod *= gp.q
    return out


def _positive(a: int, L: int) -> int:
    """The representative of a mod L in [1, L]."""
    return (a - 1) % L + 1


def eth_root_mod_q(terms, e: int, gp: GoodPrime, K: NumberField) -> list[int]:
    """Unique e-th root mod q of prod base_i^{a_i}, as a coordinate vector.

    terms: [(coordinate vector mod q, exponent)]. Everything happens in
    Z[alpha]/q = F_q[t]/(f mod q), the product of the residue fields
    F_{q^d}. With L = lcm(q^d - 1), a nonzero exponent a is used as its
    representative in [1, L]: that agrees with a on each residue field where
    the base is a unit, whatever the sign or size of a, and, being positive,
    keeps 0 where the base vanishes (there y, and so its root, is 0). The
    root is then one power, by e^-1 mod L, a bijection on every residue
    field since none sees mu_l.
    """
    q = gp.q
    L = math.lcm(*(q ** d - 1 for d in gp.degrees))
    ring = gfpoly._Packed(gfpoly.from_int_poly(list(K.f), q), q)
    acc = [1]
    for vec, a in terms:
        if a:
            acc = ring.mul(acc, ring.power(gfpoly.trim(list(vec)), _positive(a, L)))
    root = ring.power(acc, _positive(pow(e, -1, L), L))
    return root + [0] * (K.n - len(root))


def eth_root_double_crt(y: FactoredElement, e: int, K: NumberField,
                        seed: int = 0) -> FieldElement:
    """x with x^e = y, via per-prime unique roots and integer CRT.

    Requires K good for e, y an e-th power with exponents in [0, e] (the
    strategy layer normalizes larger ones). A bad K, by is_bad_field's
    verdict read off this call's own stream, raises NotApplicable up front,
    even for y = 1. A CRT output above the root bound raises
    VerificationFailed early; so does a root that fails its check. On the
    split kernel that check is three more good primes, which ride in the
    kernel's grid; elsewhere it is one verify_root, which needs no factoring.
    """
    e = OddPrimePower(e)
    terms = [(u, a) for u, a in y.terms if a != 0]
    avoid = avoid_integers([u for u, _ in terms])
    stream = good_prime_stream(K, e, seed=seed, avoid_divisors_of=avoid)
    try:
        first = next(stream)
    except SearchExhausted as exc:
        if K.conductor is not None and math.gcd(K.conductor, e) == 1:
            raise
        raise NotApplicable("every prime sees e-th roots of unity") from exc
    if not terms:
        return K.one
    work, T = clear_denominators(FactoredElement(K, terms), e)
    B = coeff_bound_root(work, e, K)
    primes = _cover(chain([first], stream), B)
    bases = [u for u, _ in work.terms]
    exps = [a for _, a in work.terms]
    # on Q(zeta_m) the stream yields only split primes below SPLIT_BITS
    kernel_ok = K.conductor is not None
    fresh = [next(stream) for _ in range(3)] if kernel_ok else []
    if kernel_ok:
        from .splitkernel import split_roots_kernel

        vectors = split_roots_kernel(bases, exps, primes + fresh, e, K)
    else:
        table = multi_reduce(bases, [gp.q for gp in primes])
        vectors = [
            eth_root_mod_q(
                [(table[i][j], exps[i]) for i in range(len(bases))], e, gp, K)
            for j, gp in enumerate(primes)
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
    if not kernel_ok and not verify_root(x, y, e, K, seed=seed):
        raise VerificationFailed("root fails verify_root")
    return x


def is_bad_field(K: NumberField, e: int, seed: int = 0) -> bool:
    """True when no good primes exist (or none found heuristically).

    For odd e = l^k. Cyclotomic fields are decided exactly: bad iff l | m,
    i.e. gcd(m, e) > 1, since that puts a primitive l-th root of unity in K
    and hence in every residue field. A generic field is bad when the
    double CRT's stream at seed finds no good prime among its first
    BAD_FIELD_CANDIDATES, the verdict the double CRT takes itself. A "bad"
    verdict is only heuristic.
    """
    e = OddPrimePower(e)
    if K.conductor is not None:
        return math.gcd(K.conductor, e) > 1
    try:
        next(good_prime_stream(K, e, seed=seed))
    except SearchExhausted:
        return True
    return False
