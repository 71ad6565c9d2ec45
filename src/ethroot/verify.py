"""Root verification: modular spot-checks plus an exact check when cheap.

Each trial takes a fresh unramified prime q from the shared prime stream and
compares x^e with y at every prime ideal above q (NumberField.prime_ideals).
A degree-1 ideal (alpha - r) is a value at r, in integers mod q; a larger one
is a residue in F_{q^d}. Q(zeta_m) draws q = 1 mod m, where every ideal has
degree 1 and nothing is factored.
"""

import operator

from . import gfpoly
from .fq import FqField
from .fq import factor_mod_p  # noqa: F401, wrapped at this module by layerbench
from .numfield import FactoredElement, FieldElement, NumberField, avoid_integers
from .primes import derive_rng, prime_stream

# exact expansion allowed below this estimated bit volume
EXACT_BITS = 1 << 16
_VERIFY_BITS = 62
# prime draws per call; only a field ramified at nearly every prime, which
# does not exist, could exhaust it
_VERIFY_BUDGET = 1000


def _element_bits(u: FieldElement) -> int:
    m = max((abs(c) for c in u.num), default=0)
    return m.bit_length() + u.den.bit_length()


def _exact_affordable(x: FieldElement, y: FactoredElement, e: int,
                      K: NumberField) -> bool:
    if K.n > 8:
        return False
    cost = e * max(1, _element_bits(x))
    for u, a in y.terms:
        cost += abs(a) * max(1, _element_bits(u))
        if cost >= EXACT_BITS:
            return False
    return cost < EXACT_BITS


def verify_root(x: FieldElement, y: FactoredElement, e: int, K: NumberField,
                trials: int = 3, seed: int = 0) -> bool:
    """True iff x^e = prod u_i^{a_i} mod `trials` fresh unramified primes.

    Adds an exact polynomial comparison when the field is small and the
    expansion is estimated under 2^16 bits. Negative exponents are allowed
    (both sides fold with modular inverses via nonzero residues).

    The primes are _VERIFY_BITS-bit draws of prime_stream that skip the
    divisors of avoid_integers(x, u_i); a ramified draw is passed over, and
    SearchExhausted is raised after _VERIFY_BUDGET draws.
    Cyclotomic K draws q = 1 mod m. A wrong x passes only if q divides the
    content of x^e - y, as at any prime; at most log_q(content) of the
    ~2^61 / (42 phi(m)) split primes there do, so a split trial is as strong.
    """
    if _exact_affordable(x, y, e, K):
        if x == K.zero:
            return False
        if x ** e != y.value():
            return False
    rng = derive_rng(seed, "verify")
    avoid = avoid_integers([x] + [u for u, _ in y.terms])
    stream = prime_stream(rng, _VERIFY_BITS, K.conductor or 1, avoid,
                          _VERIFY_BUDGET)
    passed = 0
    while passed < trials:
        q = next(stream)
        ideals = K.prime_ideals(q)
        if ideals is None:
            continue  # ramified
        if not _check_at(x, y, e, q, ideals):
            return False
        passed += 1
    return True


def _check_at(x: FieldElement, y: FactoredElement, e: int, q: int,
              ideals) -> bool:
    """x^e = y at every ideal above q, with x and y nonzero there or both 0.

    A vanishing factor of y with a negative exponent is a pole of y mod q:
    the trial fails.
    """
    vecs = [x.reduce_mod_prime(q)]
    exps = []
    for u, a in y.terms:
        if a != 0:
            vecs.append(u.reduce_mod_prime(q))
            exps.append(a)
    for ideal in ideals:
        if ideal.f_deg == 1:
            r = (-ideal.g[0]) % q
            xr, *urs = [gfpoly.evaluate(v, r, q) for v in vecs]
            one, mul, power = 1, (lambda s, t: s * t % q), (lambda b, k: pow(b, k, q))
        else:
            g = list(ideal.g)
            field = FqField.trusted(q, g)
            xr, *urs = [field.element(gfpoly.rem(gfpoly.trim(list(v)), g, q))
                        for v in vecs]
            one, mul, power = field.one, operator.mul, pow
        zero = next((a for ur, a in zip(urs, exps) if ur == 0), None)
        if zero is not None:
            # y vanishes here: x must vanish too, and y must have no pole
            if zero < 0 or xr != 0:
                return False
            continue
        if xr == 0:
            return False
        order = q ** ideal.f_deg - 1
        rhs = one
        for ur, a in zip(urs, exps):
            rhs = mul(rhs, power(ur, a % order))
        if power(xr, e % order) != rhs:
            return False
    return True
