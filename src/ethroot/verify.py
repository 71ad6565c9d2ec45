"""Root verification: an exact check when cheap, modular spot-checks otherwise.

When the field is small and the expansion cheap, x^e == y in K decides alone:
it proves the root, and a trial could only add a spurious failure at a q
where a negative-exponent factor vanishes.
Each trial takes a fresh unramified prime q from the shared prime stream and
compares x^e with y mod q. Q(zeta_m) draws q = 1 mod m, where every ideal
(alpha - r) above q has degree 1: both sides are values at r mod q. Any other
field compares once in Z[alpha]/q = F_q[t]/(f mod q). There q does not divide
disc(f), so the ring is the product of the residue fields above q, and by CRT
that one comparison is the comparison at every ideal. Nothing is factored.
"""

from . import gfpoly
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
    cost = e * max(1, _element_bits(x))
    cost += sum(abs(a) * max(1, _element_bits(u)) for u, a in y.terms)
    return K.n <= 8 and cost < EXACT_BITS


def verify_root(x: FieldElement, y: FactoredElement, e: int, K: NumberField,
                trials: int = 3, seed: int = 0) -> bool:
    """True iff x^e = prod u_i^{a_i}: exactly in K when the field has degree
    at most 8 and the expansion is estimated under 2^16 bits, else mod
    `trials` fresh unramified primes.

    x = 0 fails. Negative exponents are allowed; in a trial, a factor with
    one that vanishes mod q is a pole of y, and fails the trial.

    The primes are _VERIFY_BITS-bit draws of prime_stream that skip the
    divisors of avoid_integers(x, u_i); a ramified draw (q | m, or q | disc(f)
    as in NumberField.prime_ideals) is passed over, and SearchExhausted is
    raised after _VERIFY_BUDGET draws.
    Cyclotomic K draws q = 1 mod m. A wrong x passes only if q divides the
    content of x^e - y, as at any prime; at most log_q(content) of the
    ~2^61 / (42 phi(m)) split primes there do, so a split trial is as strong.
    """
    if _exact_affordable(x, y, e, K):
        return x != K.zero and x ** e == y.value()
    rng = derive_rng(seed, "verify")
    avoid = avoid_integers([x] + [u for u, _ in y.terms])
    stream = prime_stream(rng, _VERIFY_BITS, K.conductor or 1, avoid,
                          budget=_VERIFY_BUDGET)
    passed = 0
    while passed < trials:
        q = next(stream)
        if K.conductor is None and K.discriminant() % q == 0:
            continue  # ramified; a q = 1 mod m never is
        if not (_check_in_ring(x, y, e, q, K) if K.conductor is None
                else _check_at(x, y, e, q, K.degree_one_roots(q))):
            return False
        passed += 1
    return True


def _check_at(x: FieldElement, y: FactoredElement, e: int, q: int, roots) -> bool:
    """x^e = y at each degree-1 ideal (alpha - r) above q, r in roots: values at r.

    A factor of y with a negative exponent that vanishes at r is a pole of
    y mod q, and the trial fails whatever the other factors are.
    """
    xv = x.reduce_mod_prime(q)
    terms = [(u.reduce_mod_prime(q), a) for u, a in y.terms if a]
    for r in roots:
        rhs = 1
        for v, a in terms:
            ur = gfpoly.evaluate(v, r, q)
            if ur == 0 and a < 0:
                return False
            rhs = rhs * pow(ur, a, q) % q
        if pow(gfpoly.evaluate(xv, r, q), e, q) != rhs:
            return False
    return True


def _check_in_ring(x: FieldElement, y: FactoredElement, e: int, q: int,
                   K: NumberField) -> bool:
    """x^e = y in F_q[t]/(f mod q), for q not dividing disc(f).

    A factor with a negative exponent is inverted there; one that is not a
    unit vanishes at some ideal above q, a pole of y: the trial fails.
    """
    ring = gfpoly._Packed(gfpoly.from_int_poly(list(K.f), q), q)
    rhs = [1]
    for u, a in y.terms:
        v = u.reduce_mod_prime(q)
        try:
            v = ring.inverse(v) if a < 0 else v
        except ZeroDivisionError:
            return False
        rhs = ring.mul(rhs, ring.power(v, abs(a)))
    return ring.power(x.reduce_mod_prime(q), e) == rhs
