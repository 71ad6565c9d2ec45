"""Finite fields F_q, q = p^d, with the operations the root machinery needs.

Elements are fixed-length coefficient vectors over F_p modulo a monic
irreducible. The e-th root routine dispatches on v = v_l(q-1) for e = l^k:
v = 0 gives the unique-root exponent inverse, 0 < v <= k an exponent inverse
in the prime-to-l part, and v > k runs k successive l-th root extractions
(Adleman-Manders-Miller / Tonelli-Shanks style). The l-th non-residue that
run needs is searched among the constants first, and those lie in F_p, so
each is tested with one integer pow mod p instead of a power in F_q.
"""

from __future__ import annotations

import math
import random

from . import gfpoly
from .errors import (
    BudgetExceeded,
    IncompatibleFields,
    NotAPower,
    NotInGroup,
    ZeroInput,
)
from .primes import check_odd_prime_power, is_prime, modinv

DLOG_BUDGET = 1 << 40  # largest order a baby-step giant-step log may take


class FqField:
    """F_{p^d} = F_p[x] / (modulus), modulus monic irreducible of degree d."""

    def __init__(self, p: int, modulus: list[int]):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        modulus = [c % p for c in modulus]
        if not modulus or modulus[-1] != 1:
            raise ValueError("modulus must be monic")
        d = len(modulus) - 1
        if d < 1:
            raise ValueError("modulus must have degree >= 1")
        if d <= 64 and not gfpoly.is_irreducible(modulus, p):
            raise ValueError("modulus is reducible")
        self._setup(p, modulus)

    @classmethod
    def trusted(cls, p: int, modulus) -> "FqField":
        """F_p[x] / (modulus) for a prime p and a monic modulus already known
        to be irreducible mod p, such as the g of a PrimeIdealRep: neither is
        tested again."""
        field = cls.__new__(cls)
        field._setup(p, [c % p for c in modulus])
        return field

    def _setup(self, p: int, modulus: list[int]):
        self.p = p
        self.d = len(modulus) - 1
        self.q = p ** self.d
        self.modulus = tuple(modulus)
        self._mod_list = modulus
        self._packed = None  # gfpoly._Packed with Frobenius rows, built on first power

    def __eq__(self, other):
        return (
            isinstance(other, FqField)
            and self.p == other.p
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.modulus))

    def __repr__(self):
        return f"FqField(p={self.p}, d={self.d})"

    # -- element constructors ------------------------------------------------

    def element(self, coeffs) -> "FqElement":
        if isinstance(coeffs, FqElement):
            if coeffs.field != self:
                raise IncompatibleFields("element from a different field")
            return coeffs
        if isinstance(coeffs, int):
            coeffs = [coeffs]
        c = [x % self.p for x in coeffs]
        if len(c) > self.d:
            c = gfpoly.rem(gfpoly.trim(c), self._mod_list, self.p)
        c = c + [0] * (self.d - len(c))
        return FqElement(self, tuple(c[: self.d]))

    @property
    def zero(self) -> "FqElement":
        return self.element(0)

    @property
    def one(self) -> "FqElement":
        return self.element(1)

    @property
    def gen(self) -> "FqElement":
        return self.element([0, 1])

    def element_at(self, idx: int) -> "FqElement":
        """idx-th element in the fixed base-p enumeration (0 is zero)."""
        coeffs = []
        for _ in range(self.d):
            coeffs.append(idx % self.p)
            idx //= self.p
        return self.element(coeffs)

    def elements(self):
        for i in range(self.q):
            yield self.element_at(i)

    def random_element(self, rng: random.Random) -> "FqElement":
        return self.element([rng.randrange(self.p) for _ in range(self.d)])


class FqElement:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: FqField, coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    def _check(self, other) -> "FqElement":
        if isinstance(other, int):
            return self.field.element(other)
        if not isinstance(other, FqElement) or other.field != self.field:
            raise IncompatibleFields("mixed-field arithmetic")
        return other

    def _poly(self) -> list[int]:
        return gfpoly.trim(list(self.coeffs))

    def _wrap(self, poly: list[int]) -> "FqElement":
        c = poly + [0] * (self.field.d - len(poly))
        return FqElement(self.field, tuple(c))

    def __add__(self, other):
        other = self._check(other)
        p = self.field.p
        return FqElement(
            self.field,
            tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __sub__(self, other):
        other = self._check(other)
        p = self.field.p
        return FqElement(
            self.field,
            tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __neg__(self):
        p = self.field.p
        return FqElement(self.field, tuple(-a % p for a in self.coeffs))

    def __mul__(self, other):
        other = self._check(other)
        f = self.field
        return self._wrap(
            gfpoly.mulmod(self._poly(), other._poly(), f._mod_list, f.p)
        )

    __radd__ = __add__
    __rmul__ = __mul__

    def inverse(self) -> "FqElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        f = self.field
        return self._wrap(gfpoly.invmod(self._poly(), f._mod_list, f.p))

    def __truediv__(self, other):
        other = self._check(other)
        return self * other.inverse()

    def __pow__(self, n: int):
        f = self.field
        if n < 0:
            return self.inverse() ** (-n)
        if self.is_zero():
            return f.one if n == 0 else f.zero
        n %= f.q - 1
        if n == 0 or f.d == 1:
            return self._wrap(gfpoly.powmod(self._poly(), n, f._mod_list, f.p))
        if f._packed is None:
            f._packed = gfpoly._Packed(f._mod_list, f.p)
            f._packed.keep_frobenius()
        return self._wrap(f._packed.power(self._poly(), n))

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.element(other)
        return (
            isinstance(other, FqElement)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(self.coeffs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __repr__(self):
        return f"Fq{list(self.coeffs)}"


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


def _nonresidue(field: FqField, ell: int) -> FqElement:
    """Deterministic l-th non-residue: small elements first, then seeded draws.

    The small-index prefix of the enumeration starts with the constants
    c < p, which lie in F_p: there c^((q-1)/l) = c^(((q-1)/l) mod (p-1)), one
    integer pow. Constants can be universally l-th powers (e.g. l | p + 1 in
    F_{p^2}), so the scan must not stay sequential past a short prefix.
    """
    p = field.p
    exp = (field.q - 1) // ell
    exp_p = exp % (p - 1)
    for idx in range(2, min(field.q, 32)):
        if idx < p:
            if pow(idx, exp_p, p) != 1:
                return field.element_at(idx)
            continue
        t = field.element_at(idx)
        if t ** exp != field.one:
            return t
    rng = random.Random(field.q ^ ell)
    while True:
        t = field.random_element(rng)
        if not t.is_zero() and t ** exp != field.one:
            return t


def _bsgs(target: FqElement, base: FqElement, order: int) -> int:
    """Discrete log of target in <base> of the given order, or NotInGroup."""
    m = math.isqrt(order - 1) + 1
    baby: dict[FqElement, int] = {}
    cur = target.field.one
    for j in range(m):
        baby.setdefault(cur, j)
        cur = cur * base
    giant = (base ** m).inverse()
    cur = target
    for g in range(m + 1):
        if cur in baby:
            return (g * m + baby[cur]) % order
        cur = cur * giant
    raise NotInGroup("element outside the cyclic group")


def dlog_mod_p(t: int, z: int, e: int, p: int) -> int:
    """log_z t mod e in F_p*, z of exact order e: one dlog_mod_p_base log."""
    return dlog_mod_p_base(z, e, p)(t)


def dlog_mod_p_base(z: int, e: int, p: int):
    """t -> log_z t mod e in F_p*, z of exact order e, by integer baby-step
    giant-step, the baby steps and z^-m taken once for every t. Raises
    BudgetExceeded for e above DLOG_BUDGET; each log raises NotInGroup for a
    t outside <z>."""
    if e > DLOG_BUDGET:
        raise BudgetExceeded(f"dlog order {e} above 2^40 budget")
    m = math.isqrt(e - 1) + 1
    baby: dict[int, int] = {}
    cur = 1
    for j in range(m):
        baby.setdefault(cur, j)
        cur = cur * z % p
    giant = pow(z, -m, p)

    def log(t: int) -> int:
        if pow(t, e, p) != 1:
            raise NotInGroup("element is not in the order-e subgroup")
        cur = t % p
        for g in range(m + 1):
            if cur in baby:
                return (g * m + baby[cur]) % e
            cur = cur * giant % p
        raise NotInGroup("element outside the cyclic group")

    return log


def _amm_ell_root(y: FqElement, ell: int) -> FqElement:
    """One l-th root in F_q for prime l with l | q - 1; y must be an l-th power."""
    field = y.field
    s = field.q - 1
    v = 0
    while s % ell == 0:
        s //= ell
        v += 1
    b = _nonresidue(field, ell) ** s  # exact order ell^v
    u = modinv(ell, s)
    w = (ell * u - 1) // s
    x0 = y ** u  # x0^ell = y * (y^s)^w
    t = y ** s
    target = (t ** w).inverse()  # must be in mu_{ell^(v-1)}
    if target ** (ell ** (v - 1)) != field.one:
        raise NotAPower("not an l-th power residue")
    # solve b^(ell*j) = target by lifting digits of j base ell
    gamma = b ** (ell ** (v - 1))  # order ell
    h = b ** ell
    j = 0
    for i in range(v - 1):
        c = (target * (h ** j).inverse()) ** (ell ** (v - 2 - i))
        j += _bsgs(c, gamma, ell) * ell ** i
    x = x0 * b ** j
    if x ** ell != y:
        raise NotAPower("root verification failed")
    return x


def fq_eth_root(y: FqElement, e: int) -> FqElement:
    """Some x with x^e = y, for odd prime-power e. Raises NotAPower if none.

    In the unique-root case (gcd(e, q-1) = 1) the returned x is that root.
    """
    ell, k = check_odd_prime_power(e)
    if y.is_zero():
        raise ZeroInput("e-th root of zero requested")
    field = y.field
    qm1 = field.q - 1
    v = 0
    m = qm1
    while m % ell == 0:
        m //= ell
        v += 1
    if v == 0:
        return y ** modinv(e, qm1)
    if v <= k:
        x = y ** modinv(e, m)
        if x ** e != y:
            raise NotAPower("not an e-th power")
        return x
    x = y
    for _ in range(k):
        x = _amm_ell_root(x, ell)
    return x

