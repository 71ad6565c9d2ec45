"""Root verification: modular spot-checks plus an exact check when cheap.

Q(zeta_m) is checked at primes q = 1 mod m by evaluation at the primitive
m-th roots of unity mod q; other fields factor f mod q, compare in F_{q^d}.
"""

from . import gfpoly
from .fq import factor_mod_p
from .numfield import FactoredElement, FieldElement, NumberField, split_prime_ideals
from .primes import derive_rng, is_prime

# exact expansion allowed below this estimated bit volume
EXACT_BITS = 1 << 16
_VERIFY_BITS = 62


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


def _usable_prime(q: int, x: FieldElement, y: FactoredElement,
                  K: NumberField) -> bool:
    if x.den % q == 0 or any(u.den % q == 0 for u, _ in y.terms):
        return False
    if K.conductor is not None:
        # Phi_m divides x^m - 1, which is squarefree mod every q not dividing m
        return K.conductor % q != 0
    fbar = gfpoly.from_int_poly(list(K.f), q)
    return gfpoly.deg(gfpoly.gcd(fbar, gfpoly.derivative(fbar, q), q)) == 0


def verify_root(x: FieldElement, y: FactoredElement, e: int, K: NumberField,
                trials: int = 3, seed: int = 0) -> bool:
    """True iff x^e = prod u_i^{a_i} mod `trials` fresh unramified primes.

    Adds an exact polynomial comparison when the field is small and the
    expansion is estimated under 2^16 bits. Negative exponents are allowed
    (both sides fold with modular inverses via nonzero residues).

    Cyclotomic K draws q = 1 mod m in [2^61, 2^62). A wrong x passes only if q
    divides the content of x^e - y, as at any prime; at most log_q(content) of
    the ~2^61 / (42 phi(m)) split primes there do, so a split trial is as strong.
    """
    if _exact_affordable(x, y, e, K):
        if x == K.zero:
            return False
        if x ** e != y.value():
            return False
    rng = derive_rng(seed, "verify")
    m = K.conductor
    check = _check_mod_q if m is None else _check_split
    passed = 0
    while passed < trials:
        if m is None:
            q = rng.randrange(1 << (_VERIFY_BITS - 1), 1 << _VERIFY_BITS) | 1
        else:
            q = m * rng.randrange(((1 << (_VERIFY_BITS - 1)) - 2) // m + 1,
                                  ((1 << _VERIFY_BITS) - 2) // m + 1) + 1
        if not is_prime(q) or not _usable_prime(q, x, y, K):
            continue
        if not check(x, y, e, K, q):
            return False
        passed += 1
    return True


def _check_split(x: FieldElement, y: FactoredElement, e: int, K: NumberField, q: int) -> bool:
    """_check_mod_q at a split q: residues are values at the roots r."""
    xvec = x.reduce_mod_prime(q)
    uvecs = [(u.reduce_mod_prime(q), a) for u, a in y.terms if a != 0]
    for ideal in split_prime_ideals(q, K.conductor):
        r = (-ideal.g[0]) % q
        xr = gfpoly.evaluate(xvec, r, q)
        rhs = 1
        for uvec, a in uvecs:
            ur = gfpoly.evaluate(uvec, r, q)
            if ur == 0:
                if a < 0:
                    return False  # pole mod q: treat as failed trial
                rhs = 0
                break
            rhs = rhs * pow(ur, a % (q - 1), q) % q
        # a zero rhs matches only a zero x: pow(0, e, q) = 0 for e >= 1
        if pow(xr, e, q) != rhs:
            return False
    return True


def _check_mod_q(x: FieldElement, y: FactoredElement, e: int, K: NumberField,
                 q: int) -> bool:
    from .fq import FqField

    xvec = x.reduce_mod_prime(q)
    fac = factor_mod_p(list(K.f), q, seed=1)
    for g, _ in fac:
        field = FqField(q, g)
        order = field.q - 1
        xbar = field.element(gfpoly.rem(gfpoly.trim(list(xvec)), g, q))
        lhs = field.one if xbar.is_zero() else xbar ** (e % order)
        rhs = field.one
        zero = xbar.is_zero()
        rhs_zero = False
        for u, a in y.terms:
            if a == 0:
                continue
            uvec = u.reduce_mod_prime(q)
            ubar = field.element(gfpoly.rem(gfpoly.trim(list(uvec)), g, q))
            if ubar.is_zero():
                rhs_zero = a > 0
                if a < 0:
                    return False  # pole mod q: treat as failed trial
                break
            rhs = rhs * ubar ** (a % order)
        if zero or rhs_zero:
            if not (zero and rhs_zero):
                return False
            continue
        if lhs != rhs:
            return False
    return True
