"""Relative Couveignes e-th roots for the bad fields.

When every rational prime has residue fields containing zeta_e, the e local
candidates for a root residue cannot be told apart and plain CRT would have
to guess one of e^g combinations per prime. Working relative to a subfield L
with zeta_e in L and gcd([K:L], e) = 1 removes the guessing: the relative
norm of the root down to L picks, in each residue field, exactly one of the
e candidates, so residues computed at different primes all belong to the same
global root and a single symmetric CRT finishes the job.

The per-prime step needs every prime of L above p to stay inert in K/L; for
K = Q(zeta_m) over L = Q(zeta_{m'}) that reads ord_m(p) = [K:L] * ord_{m'}(p).
"""

import math
from dataclasses import dataclass

from .counters import count
from .errors import (
    DenominatorClash,
    IncompatibleFields,
    NormMismatch,
    NotApplicable,
    VerificationFailed,
    ZeroInput,
)
from .fq import FqElement, FqField, fq_eth_root, fq_norm_to_subfield
from .fq import factor_mod_p  # noqa: F401, wrapped at this module by layerbench
from .numfield import (
    FactoredElement,
    FieldElement,
    NumberField,
    SubfieldEmbedding,
    avoid_integers,
    clear_denominators,
    coeff_bound_root,
    crt_ideals,
    crt_integers_symmetric,
    relative_norm,
)
from .primes import (
    check_odd_prime_power,
    derive_rng,
    euler_phi,
    factorize,
    is_cyclic_unit_group,
    modinv,
    multiplicative_order,
    prime_stream,
)
from .verify import verify_root

CRT_BITS = 62
PRIME_BUDGET = 4000


@dataclass(frozen=True)
class CouveignesPrime:
    """Prime p with the inert pairing of L-primes below K-primes above it.

    lower_ideals[i] lies under upper_ideals[i]; emb_images[i] holds the image
    of L's residue generator inside the residue field of upper_ideals[i] (a
    root of lower_ideals[i].g there), as a padded coefficient tuple.
    """

    p: int
    lower_ideals: tuple
    upper_ideals: tuple
    emb_images: tuple


@dataclass(frozen=True)
class TowerPlan:
    """Descent chain levels = (K, ..., L_0), top field first.

    Every step is cyclic of degree prime to e and zeta_e lives in every
    level; base_method says how the root in L_0 should be computed.
    """

    levels: tuple
    base_method: str  # "padic" | "reconstruct"


def _poly_at(poly, t: FqElement) -> FqElement:
    """Evaluate an integer (or residue) polynomial at t, Horner style."""
    out = t.field.zero
    for c in reversed(list(poly)):
        out = out * t + int(c)
    return out


def make_couveignes_prime(K: NumberField, emb: SubfieldEmbedding, p: int):
    """Pairing data for p, or None when p does not split the right way.

    Pairs each prime G of K above p with the prime g of L below it: the one
    whose polynomial has the image of L's generator as a root in the residue
    field of G. p qualifies iff it is unramified in both fields and
    deg G = deg g * [K:L] for every pair.
    """
    uppers_k = K.prime_ideals(p)
    lowers_l = emb.L.prime_ideals(p)
    if uppers_k is None or lowers_l is None:
        return None
    lowers, images = [], []
    for big in uppers_k:
        hbar = FqField.trusted(p, big.g).element(list(emb.h))
        low = next((g for g in lowers_l if _poly_at(g.g, hbar).is_zero()), None)
        if low is None or big.f_deg != low.f_deg * emb.degree:
            return None
        lowers.append(low)
        images.append(tuple(hbar.coeffs))
    if len(set(lowers)) != len(lowers_l):
        return None
    return CouveignesPrime(p, tuple(lowers), tuple(uppers_k), tuple(images))


def select_couveignes_primes(K: NumberField, emb: SubfieldEmbedding, e: int,
                             B: int, seed: int = 0, avoid=(),
                             budget: int = PRIME_BUDGET) -> list:
    """Distinct admissible primes with prod p > 2B, pairings precomputed.

    Candidates are CRT_BITS-bit primes prime to m and to avoid, which lists
    integers whose prime factors must be skipped (denominators, numerator
    contents of the eventual reductions). The order test
    ord_m(p) = [K:L] * ord_{m'}(p) prescreens before any factoring.
    SearchExhausted after `budget` prime draws.
    """
    if math.gcd(emb.degree, e) != 1:
        raise ValueError("[K:L] must be prime to e")
    rng = derive_rng(seed, "couveignes")
    mk, ml = emb.K.conductor, emb.L.conductor
    stream = prime_stream(rng, CRT_BITS, avoid=(*avoid, mk), budget=budget)
    chosen: list[CouveignesPrime] = []
    product = 1
    while product <= 2 * B:
        p = next(stream)
        if multiplicative_order(p, mk) != emb.degree * multiplicative_order(p, ml):
            continue
        cp = make_couveignes_prime(K, emb, p)
        if cp is None:
            continue
        chosen.append(cp)
        product *= p
    count("couveignes", "primes", len(chosen))
    return chosen


def _residue(u: FieldElement, field: FqField) -> FqElement:
    """u mod the ideal (p, g) behind field; DenominatorClash when p | den."""
    p = field.p
    if u.den % p == 0:
        raise DenominatorClash(p)
    out = field.element(list(u.num))
    if u.den != 1:
        out = out * modinv(u.den, p)
    return out


def _fold_residue(y: FactoredElement, field: FqField) -> FqElement:
    out = field.one
    for u, exp in y.terms:
        ubar = _residue(u, field)
        if ubar.is_zero():
            raise ZeroInput(f"factor vanishes mod {field.p}")
        out = out * ubar ** exp
    return out


def couveignes_mod_p(y: FactoredElement, e: int, emb: SubfieldEmbedding,
                     a: FieldElement, cp: CouveignesPrime) -> list:
    """One consistent residue of y^{1/e} mod p, anchored by the norm root a.

    Per pair: pick any e-th root of y in the upper residue field, then
    rescale by the root of unity that fixes its relative norm to a mod the
    lower ideal. z = (a mod lower)/N(x) satisfies z^e = 1 and
    x * z^{[K:L]^{-1} mod e} is the single local root whose norm matches a;
    the corrected residues are glued by the polynomial CRT.
    """
    K = emb.K
    p = cp.p
    kinv = modinv(emb.degree % e, e)
    residues = []
    for low, up, img in zip(cp.lower_ideals, cp.upper_ideals, cp.emb_images):
        big = FqField.trusted(p, up.g)
        sub = FqField.trusted(p, low.g)
        gen_img = FqElement(big, tuple(img))
        ybar = _fold_residue(y, big)
        xbar = fq_eth_root(ybar, e)
        abar = _residue(a, sub)
        if abar.is_zero():
            raise ZeroInput(f"norm anchor vanishes mod {p}")
        z = abar / fq_norm_to_subfield(xbar, gen_img, sub)
        if z ** e != sub.one:
            raise NormMismatch(f"anchor is not an e-th root of the norm mod {p}")
        xi = xbar * _poly_at(z.coeffs, gen_img) ** kinv
        # corrected root must reproduce the anchor (one extra norm per ideal)
        count("couveignes", "norm_checks")
        if fq_norm_to_subfield(xi, gen_img, sub) != abar:
            raise NormMismatch(f"corrected root misses the norm anchor mod {p}")
        residues.append(list(xi.coeffs))
    return crt_ideals(residues, list(cp.upper_ideals), K)


def eth_root_couveignes(y: FactoredElement, e: int, K: NumberField,
                        emb: SubfieldEmbedding, norm_root_solver,
                        seed: int = 0) -> FieldElement:
    """e-th root of y by norm descent to L = emb.L.

    norm_root_solver(factored element over L) must return one e-th root in
    L; it runs exactly once, on the relative norm of y, and its choice of
    root decides which of the e conjugates x*zeta_e^j comes back. Callers
    therefore compare e-th powers, never roots.
    """
    check_odd_prime_power(e)
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


def build_tower(K: NumberField, e: int) -> TowerPlan:
    """Cyclotomic descent plan for the bad case e | m.

    Repeatedly drops to the smallest admissible subconductor; NotApplicable
    when already the first step fails (the strategy then falls back to
    lattice reconstruction in K itself).
    """
    l, _ = check_odd_prime_power(e)
    m = K.conductor
    if m is None:
        raise ValueError("tower construction needs a cyclotomic field")
    if m % e != 0:
        raise ValueError("tower construction expects the bad case e | m")
    levels = [K]
    while True:
        msub = _descend(levels[-1].conductor, e, l)
        if msub is None:
            break
        levels.append(NumberField.cyclotomic(msub))
    if len(levels) == 1:
        raise NotApplicable(f"no admissible subfield below Q(zeta_{m}) for e = {e}")
    base = "padic" if is_cyclic_unit_group(levels[-1].conductor) else "reconstruct"
    return TowerPlan(tuple(levels), base)
