"""Number fields K = Q[x]/(f) and elements kept in factored form.

Elements are integer coordinate vectors over the power basis 1, alpha, ...,
alpha^(n-1) with a single positive denominator. Products of many elements are
never expanded; a FactoredElement is a list of (element, exponent) terms and
every algorithm downstream works on residues of the individual terms.

The constant cinf() bounds how coefficient vectors grow relative to
embedding size: ||C(x)||_inf <= ||Sigma(x)||_inf * cinf. Each factor's
embedding size is bounded in integers by the triangle inequality,
|sigma(u)| <= sum_i |c_i| R^i / den over u's power-basis coordinates, with
R >= max |alpha| over the roots of f (R = 1 for cyclotomic f, as |zeta| = 1;
Fujiwara's bound otherwise). cinf comes from the trace-dual basis of the
power basis, computed with exact field arithmetic. Together with the
factored-form bound in coeff_bound_root (the root's embedding norm is at most
the product of the factors' norms, independent of e) it yields the certified
coefficient bound B used by all reconstruction paths. No floating point is
involved: both constants are exact rationals, computed once per field.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from typing import NamedTuple

from . import gfpoly
from .errors import (
    BadConductor,
    BoundViolation,
    DenominatorClash,
    IncompatibleFields,
    IncompleteCover,
    NotInSubfield,
    SearchExhausted,
    ZeroInput,
)
from .primes import factorize, iroot, is_prime, modinv, multiplicative_order, t_range

# a field keeps the primes q = M t + 1 its walks reach in blocks of
# SPLIT_BLOCK consecutive t; a walk starts at one of the first SPLIT_STARTS
# blocks, picked by its seed; a field keeps at most SPLIT_CAP primes over
# all its tables
SPLIT_BLOCK = 128
SPLIT_STARTS = 256
SPLIT_CAP = 4096

# -- integer polynomial helpers (index = degree, stripped, [] = 0) ------------


def _zdivexact_monic(a: list[int], b: list[int]) -> list[int]:
    """Exact division by a monic integer polynomial."""
    r = a[:]
    db = len(b) - 1
    q = [0] * max(0, len(r) - db)
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i]
        if c == 0:
            continue
        q[i - db] = c
        for j, y in enumerate(b):
            r[i - db + j] -= c * y
    if gfpoly.trim(r):
        raise ValueError("division was not exact")
    return gfpoly.trim(q)


def _zderiv(a) -> list[int]:
    return [i * c for i, c in enumerate(a)][1:]


def _zdet(rows) -> int:
    """Determinant of a square integer matrix, fraction-free (Bareiss)."""
    a = [list(r) for r in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


_cyclo_cache: dict[int, list[int]] = {}


def cyclotomic_poly(m: int) -> list[int]:
    """m-th cyclotomic polynomial as an integer coefficient list."""
    if m in _cyclo_cache:
        return _cyclo_cache[m][:]
    poly = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            poly = _zdivexact_monic(poly, cyclotomic_poly(d))
    _cyclo_cache[m] = poly[:]
    return poly


# -- fields and elements -------------------------------------------------------


class NumberField:
    """Q[x]/(f) for monic squarefree integral f; elements live on the power basis.

    A generic f is squarefree iff disc(f) != 0, and that discriminant is kept
    for prime_ideals. Cyclotomic construction skips the test and never
    computes the discriminant: Phi_m has distinct roots, and its ramified
    primes are those dividing m.
    """

    def __init__(self, f: list[int], conductor: int | None = None):
        f = [int(c) for c in f]
        if not f or f[-1] != 1 or len(f) < 2:
            raise ValueError("f must be monic of degree >= 1")
        self.f = tuple(f)
        self.n = len(f) - 1
        self.conductor = conductor
        self._cinf = None
        self._disc = None
        self._conductor_primes = None  # see split_root()
        # primes kept by walk_primes: (M, bits, block) -> [q, fact, ...]
        self.prime_blocks: dict = {}
        self._radius = None
        self._subfields = {}  # m' -> SubfieldEmbedding, see cyclotomic()
        if conductor is None and self.discriminant() == 0:
            raise ValueError("f must be squarefree (disc(f) = 0)")

    @classmethod
    def cyclotomic(cls, m: int) -> "NumberField":
        if m < 3 or m % 4 == 2:
            raise BadConductor(f"conductor {m} is not primitive (need m >= 3, m != 2 mod 4)")
        return cls(cyclotomic_poly(m), conductor=m)

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.f == other.f

    def __hash__(self):
        return hash(self.f)

    def __repr__(self):
        if self.conductor:
            return f"NumberField(cyclotomic m={self.conductor})"
        return f"NumberField(deg {self.n})"

    # -- construction ----------------------------------------------------------

    def element(self, num, den: int = 1) -> "FieldElement":
        if isinstance(num, FieldElement):
            if num.field != self:
                raise IncompatibleFields("element from a different field")
            return num
        if isinstance(num, int):
            num = [num]
        num = [int(c) for c in num]
        if len(num) > self.n:
            num = self.reduce_int_poly(num)
        num = num + [0] * (self.n - len(num))
        return FieldElement(self, tuple(num[: self.n]), den)._normalize()

    def from_fractions(self, coeffs) -> "FieldElement":
        fr = [Fraction(c) for c in coeffs]
        den = 1
        for c in fr:
            den = den * c.denominator // math.gcd(den, c.denominator)
        return self.element([int(c * den) for c in fr], den)

    @property
    def zero(self) -> "FieldElement":
        return self.element(0)

    @property
    def one(self) -> "FieldElement":
        return self.element(1)

    @property
    def gen(self) -> "FieldElement":
        return self.element([0, 1])

    def random_element(self, rng, bits: int, den: int = 1) -> "FieldElement":
        lo, hi = -(1 << bits), 1 << bits
        return self.element([rng.randrange(lo, hi) for _ in range(self.n)], den)

    def prime_ideals(self, q: int) -> tuple | None:
        """The prime ideals above the prime q, or None when f mod q has a
        repeated factor (q ramifies, or divides the index of Z[alpha]).

        Listed as factor_mod_p lists the factors of f mod q: by residue
        degree, then by coefficients. Each route costs only what the field
        does not already know:
        - ramified: q | m on Q(zeta_m), q | discriminant() otherwise -> None;
        - split cyclotomic, q = 1 mod m: the known linear ideals, unfactored;
        - other cyclotomic q: every factor of Phi_m mod q has degree
          d = ord_m(q), so q is inert when d = n and otherwise Phi_m mod q
          goes straight to equal-degree splitting at d;
        - generic: q does not divide the discriminant, so f mod q is
          squarefree and is split with no squarefree stage.
        """
        m = self.conductor
        if m is not None:
            if m % q == 0:
                return None
            if q % m == 1:
                return tuple(PrimeIdealRep(q, (q - r, 1), 1)
                             for r in split_roots(q, m, self.split_root(q)))
        elif self.discriminant() % q == 0:
            return None
        fq = gfpoly.from_int_poly(list(self.f), q)
        d = 0 if m is None else multiplicative_order(q, m)  # 0: degrees unknown
        gs = [fq] if d == self.n else gfpoly.split_squarefree(fq, q, degree=d)
        gs.sort(key=lambda g: (len(g), g))
        return tuple(PrimeIdealRep(q, tuple(g), len(g) - 1) for g in gs)

    def residue_degrees(self, q: int) -> tuple | None:
        """The distinct residue degrees above the prime q, ascending, or None
        when f mod q has a repeated factor, as in prime_ideals. Every degree
        on Q(zeta_m) is ord_m(q); a generic f mod q is squarefree, and its
        distinct-degree split names the degrees without splitting any
        further.
        """
        m = self.conductor
        if m is not None:
            return None if m % q == 0 else (multiplicative_order(q, m),)
        if self.discriminant() % q == 0:
            return None
        return tuple(d for _, d in gfpoly._ddf(gfpoly.from_int_poly(list(self.f), q), q))

    def kept_degrees(self, q: int) -> tuple:
        """residue_degrees(q), () when q ramifies: walk_primes' fact at M = 2."""
        return self.residue_degrees(q) or ()

    def degree_one_roots(self, q: int) -> tuple:
        """The roots r of f mod the prime q, one per degree-1 ideal
        (q, alpha - r), in prime_ideals' order (g = (-r) % q ascending); ()
        when q ramifies. Nothing is factored: Q(zeta_m) has the w^t of one
        primitive m-th root w at q = 1 mod m and none at other q, a generic
        f takes gfpoly.roots."""
        m = self.conductor
        if m is not None:
            return tuple(split_roots(q, m, self.split_root(q))) if q % m == 1 else ()
        if self.discriminant() % q == 0:
            return ()
        rs = gfpoly.roots(gfpoly.from_int_poly(list(self.f), q), q)
        return tuple(sorted(rs, key=lambda r: (-r) % q))

    def split_root(self, q: int) -> int:
        """root_of_unity(q, m) for a prime q = 1 mod m on Q(zeta_m).

        m's prime factors are read once per field.
        """
        if self._conductor_primes is None:
            self._conductor_primes = tuple(factorize(self.conductor))
        return root_of_unity(q, self.conductor, self._conductor_primes)

    def walk_primes(self, M: int, bits: int, fact, rng, avoid, budget: int):
        """(q, fact(q)) for the primes q = M t + 1 of `bits` bits, ascending
        from a block rng picks to the end of the range, then from its start
        up to that block. Primes dividing an integer of avoid are skipped.
        Raises SearchExhausted after budget primes walked (skipped ones
        included) or once the whole range is walked.

        The library's one kept-prime table. Its callers fix one fact per
        (M, bits): w = split_root(q) on Q(zeta_m), whose M are multiples of
        m (the double CRT, the character primes); kept_degrees(q) for odd q
        (M = 2: the double CRT and its bad-field verdict on a generic K, the
        Couveignes primes on Q(zeta_m)); and on a generic K the degree-1
        roots for M = e (the character primes). A block is scanned once, by
        is_prime, and kept while K holds at most SPLIT_CAP primes over all
        tables, so a fact is computed at most once per kept prime, when a
        walk first reaches it; a block past the cap is scanned again by each
        walk that reaches it. The primes depend on rng alone, whatever ran
        on K before.
        """
        lo, hi = t_range(bits, M)
        blocks = -(-(hi - lo) // SPLIT_BLOCK)
        start = rng.randrange(min(SPLIT_STARTS, blocks))
        avoid = [a for a in avoid if a]
        walked = 0
        for b in chain(range(start, blocks), range(start)):
            block = self.prime_blocks.get((M, bits, b))
            if block is None:
                t0 = lo + b * SPLIT_BLOCK
                block = [x for q in range(M * t0 + 1, M * min(t0 + SPLIT_BLOCK, hi) + 1, M)
                         if is_prime(q) for x in (q, None)]
                if sum(map(len, self.prime_blocks.values())) + len(block) <= 2 * SPLIT_CAP:
                    self.prime_blocks[M, bits, b] = block
            for i in range(0, len(block), 2):
                if walked == budget:
                    raise SearchExhausted(f"no usable prime in {budget} walked primes")
                walked += 1
                q = block[i]
                if not any(a % q == 0 for a in avoid):
                    if block[i + 1] is None:
                        block[i + 1] = fact(q)
                    yield q, block[i + 1]
        raise SearchExhausted(f"the {bits}-bit primes q = 1 mod {M} ran out")

    def discriminant(self) -> int:
        """disc(f) = (-1)^(n(n-1)/2) N(f'(alpha)), exact, computed once.

        The norm is the determinant of multiplication by f'(alpha) on the
        power basis, whose rows f'(alpha) alpha^j are integral.
        """
        if self._disc is None:
            x, rows = self.element(_zderiv(self.f)), []
            for _ in range(self.n):
                rows.append(x.num)
                x = x * self.gen
            sign = -1 if self.n * (self.n - 1) // 2 % 2 else 1
            self._disc = sign * _zdet(rows)
        return self._disc

    # -- power-basis arithmetic -------------------------------------------------

    def reduce_int_poly(self, poly: list[int]) -> list[int]:
        """Reduce an integer polynomial mod f (monic, so this is exact)."""
        r = poly[:]
        n = self.n
        f = self.f
        for i in range(len(r) - 1, n - 1, -1):
            c = r[i]
            if c == 0:
                continue
            r[i] = 0
            for j in range(n):
                r[i - n + j] -= c * f[j]
        del r[n:]
        return r + [0] * (n - len(r))

    # -- certified constants ------------------------------------------------------

    def radius_powers(self) -> tuple[list[int], int]:
        """(t, s) with t[i] / 2^s >= R^i, R >= max |alpha| over the roots of f.

        Cyclotomic f has |zeta| = 1, so t is all ones and s = 0. Otherwise R
        is Fujiwara's bound 2 max(|f_(n-i)|^(1/i), |f_0 / 2|^(1/n)), taken
        as an integer root at s fractional bits plus one unit; the powers
        follow by integer ceiling products, so no entry is ever rounded down.
        """
        if self._radius is None:
            if self.conductor:
                self._radius = ([1] * self.n, 0)
            else:
                s, n, f = 64, self.n, self.f
                terms = [(abs(f[n - i]) << (s * i), i) for i in range(1, n)]
                terms.append((abs(f[0]) << (s * n - 1), n))
                top = 2 * (max(iroot(a, i) for a, i in terms) + 1)
                t = [1 << s]
                for _ in range(n - 1):
                    t.append(-(-t[-1] * top >> s))
                self._radius = (t, s)
        return self._radius

    def sigma_bound(self, x: "FieldElement") -> tuple[int, int]:
        """(num, den) with num / den >= max_sigma |sigma(x)|, in integers.

        Triangle inequality: |sigma(x)| <= sum_i |c_i| R^i / den for the
        power-basis coordinates c_i / den of x and R^i from radius_powers().
        """
        t, s = self.radius_powers()
        return sum(abs(c) * r for c, r in zip(x.num, t)), x.den << s

    def cinf(self) -> Fraction:
        """Exact rational cinf with ||C(x)||_inf <= ||Sigma(x)||_inf * cinf.

        With f(x) / (x - alpha) = sum_j b_j(alpha) x^j, the trace-dual basis
        of the power basis is d_j = b_j(alpha) / f'(alpha) (Euler's lemma), so
        the coordinates of x are c_j = Tr(x d_j) and |c_j| <= ||Sigma(x)||_inf
        * n * max_sigma |sigma(d_j)|. Hence cinf = n * max_j sigma_bound(d_j),
        with d_(n-1) = 1 / f'(alpha) and d_j = alpha d_(j+1) + f_(j+1) / f'(alpha):
        one inverse and O(n) further field operations, all exact, no slack.
        """
        if self._cinf is None:
            d = dinv = self.element(_zderiv(self.f)).inverse()
            best = Fraction(*self.sigma_bound(d))
            for j in range(self.n - 2, -1, -1):
                d = d * self.gen + dinv * self.f[j + 1]
                best = max(best, Fraction(*self.sigma_bound(d)))
            self._cinf = self.n * best
        return self._cinf


class FieldElement:
    """num / den over the power basis; num integer vector of length n."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: NumberField, num: tuple, den: int = 1):
        self.field = field
        self.num = num
        self.den = den

    def _normalize(self) -> "FieldElement":
        den = self.den
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            den = -den
            num = tuple(-c for c in self.num)
        else:
            num = self.num
        g = den
        for c in num:
            g = math.gcd(g, c)
            if g == 1:
                break
        if g > 1:
            num = tuple(c // g for c in num)
            den //= g
        return FieldElement(self.field, num, den)

    def _check(self, other) -> "FieldElement":
        if isinstance(other, int):
            return self.field.element(other)
        if not isinstance(other, FieldElement) or other.field != self.field:
            raise IncompatibleFields("mixed-field arithmetic")
        return other

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.num)

    def __add__(self, other):
        other = self._check(other)
        d1, d2 = self.den, other.den
        num = tuple(a * d2 + b * d1 for a, b in zip(self.num, other.num))
        return FieldElement(self.field, num, d1 * d2)._normalize()

    def __sub__(self, other):
        other = self._check(other)
        d1, d2 = self.den, other.den
        num = tuple(a * d2 - b * d1 for a, b in zip(self.num, other.num))
        return FieldElement(self.field, num, d1 * d2)._normalize()

    def __neg__(self):
        return FieldElement(self.field, tuple(-c for c in self.num), self.den)

    def __mul__(self, other):
        other = self._check(other)
        K = self.field
        # trimmed operands: a constant costs n multiplies, not n^2
        a, b = gfpoly.trim(list(self.num)), gfpoly.trim(list(other.num))
        red = K.reduce_int_poly(gfpoly._product(a, b))
        return FieldElement(K, tuple(red), self.den * other.den)._normalize()

    __radd__ = __add__
    __rmul__ = __mul__

    def __pow__(self, n: int) -> "FieldElement":
        K = self.field
        if n < 0:
            return self.inverse() ** (-n)
        result = K.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def inverse(self) -> "FieldElement":
        """Inverse in K via extended Euclid over Q[x]."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero element")
        K = self.field
        f = [Fraction(c) for c in K.f]
        r0, r1 = f, gfpoly.trim(self.power_basis_fractions())
        s0, s1 = [], [Fraction(1)]
        while r1:
            q, r = _fdivmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _fsub(s0, gfpoly._product(q, s1))
        if len(r0) != 1:
            raise ZeroDivisionError("element not invertible (f reducible?)")
        inv = [c / r0[0] for c in s0]
        return K.from_fractions(inv)

    def __truediv__(self, other):
        other = self._check(other)
        return self * other.inverse()

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.element(other)
        return (
            isinstance(other, FieldElement)
            and self.field == other.field
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        if self.den == 1:
            return f"K{list(self.num)}"
        return f"K{list(self.num)}/{self.den}"

    # -- representation changes --------------------------------------------------

    def power_basis_fractions(self) -> list[Fraction]:
        """Coordinates over the power basis as Fractions (length n)."""
        return [Fraction(c, self.den) for c in self.num]

    def reduce_mod_prime(self, p: int) -> list[int]:
        """Power-basis coordinates mod p; DenominatorClash if p meets den."""
        if math.gcd(self.den, p) != 1:
            raise DenominatorClash(p)
        dinv = modinv(self.den, p)
        return [c % p * dinv % p for c in self.num]


def _fsub(a, b):
    out = list(a) + [Fraction(0)] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return gfpoly.trim(out)


def _fdivmod(a, b):
    r = list(a)
    db = len(b) - 1
    q = [Fraction(0)] * max(0, len(r) - db)
    inv = 1 / b[-1]
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i]
        if c == 0:
            continue
        fct = c * inv
        q[i - db] = fct
        for j, y in enumerate(b):
            r[i - db + j] -= fct * y
    return q, gfpoly.trim(r)


# -- factored elements ---------------------------------------------------------


class FactoredElement:
    """Product prod_i u_i^{a_i}, kept unexpanded."""

    __slots__ = ("field", "terms")

    def __init__(self, field: NumberField, terms):
        self.field = field
        self.terms = []
        for u, a in terms:
            if not isinstance(u, FieldElement) or u.field != field:
                raise IncompatibleFields("factored term from a different field")
            if u.is_zero():
                raise ZeroInput("zero factor in factored element")
            self.terms.append((u, int(a)))

    def __iter__(self):
        return iter(self.terms)

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        return f"FactoredElement({len(self.terms)} terms)"

    def mul(self, other: "FactoredElement") -> "FactoredElement":
        if other.field != self.field:
            raise IncompatibleFields("mixed-field product")
        return FactoredElement(self.field, self.terms + other.terms)

    def pow(self, c: int) -> "FactoredElement":
        return FactoredElement(self.field, [(u, a * c) for u, a in self.terms])

    def value(self) -> FieldElement:
        """Expand the product exactly. Use only when the result is known small."""
        out = self.field.one
        for u, a in self.terms:
            out = out * u ** a
        return out


def avoid_integers(us) -> tuple:
    """Integers whose primes must stay out of modular work on the elements us.

    These are the denominators other than 1 and the numerator contents above
    1: a prime dividing one turns a unit factor into 0 or 1/0 locally.
    """
    out = set()
    for u in us:
        if u.den != 1:
            out.add(u.den)
        c = math.gcd(*u.num)
        if c > 1:
            out.add(c)
    return tuple(sorted(out))


def clear_denominators(y: FactoredElement, e: int) -> tuple[FactoredElement, int]:
    """Append (T, e) with T = prod of term denominators.

    The e-th root of the returned product is T times the root of y, which is
    integral over Z[alpha] whenever exponents stay within [0, e]; CRT and
    lattice reconstructions need that integrality.
    """
    T = 1
    for u, _ in y.terms:
        T *= u.den
    if T == 1:
        return y, 1
    terms = list(y.terms) + [(y.field.element([T]), e)]
    return FactoredElement(y.field, terms), T


def normalize_exponents(y: FactoredElement, e: int) -> tuple[FactoredElement, FactoredElement]:
    """Split y = prefactor^e * residual with residual exponents in [0, e)."""
    if e < 2:
        raise ValueError("e must be at least 2")
    pre, res = [], []
    for u, a in y.terms:
        q, r = divmod(a, e)
        if q:
            pre.append((u, q))
        if r:
            res.append((u, r))
    return FactoredElement(y.field, pre), FactoredElement(y.field, res)


# -- certified coefficient bound ------------------------------------------------


def coeff_bound_root(y: FactoredElement, e: int, K: NumberField) -> int:
    """Integer B >= ||C(x)||_inf for any root x^e = y with exponents <= e.

    B = ceil(cinf * prod_i max(1, S(u_i))) over the terms with a_i > 0,
    where S(u) = sum_j |c_j| R^j / den >= ||Sigma(u)||_inf is the integer
    bound of NumberField.sigma_bound: the triangle inequality over u's
    power-basis coordinates c_j / den, with R = 1 for cyclotomic K (|zeta| = 1)
    and otherwise Fujiwara's R >= max |alpha| (radius_powers). |sigma(x)| =
    prod |sigma(u_i)|^(a_i/e) is at most prod max(1, S(u_i)) because a_i <= e,
    so the product does not depend on e. cinf is an exact fraction and is
    combined with the S(u_i) in integers, then one ceiling division: no step
    rounds down, so no slack factor is needed.
    """
    for _, a in y.terms:
        if not 0 <= a <= e:
            raise ValueError("exponents must lie in [0, e] for the bound")
    c = K.cinf()
    num, den = c.numerator, c.denominator
    for u, a in y.terms:
        if a:
            s, d = K.sigma_bound(u)
            if s > d:
                num *= s
                den *= d
    return max(1, -(-num // den))


# -- modular reduction and CRT ----------------------------------------------------


def _remainder_tree(value: int, tree: list[list[int]]) -> list[int]:
    """Reduce one integer against a product tree (tree[0] = moduli)."""
    vals = [value % tree[-1][0] if value >= tree[-1][0] else value]
    for level in range(len(tree) - 2, -1, -1):
        nxt = []
        row = tree[level]
        for i, m in enumerate(row):
            v = vals[i // 2]
            nxt.append(v % m if v >= m else v)
        vals = nxt
    return vals


def build_product_tree(moduli: list[int]) -> list[list[int]]:
    tree = [list(moduli)]
    while len(tree[-1]) > 1:
        row = tree[-1]
        tree.append([
            row[i] * row[i + 1] if i + 1 < len(row) else row[i]
            for i in range(0, len(row), 2)
        ])
    return tree


def multi_reduce(us: list[FieldElement], moduli: list[int]):
    """Residues us[i] mod moduli[j] -> matrix[i][j] of length-n int lists.

    Raises DenominatorClash(p) when a denominator meets a modulus.
    """
    if not moduli:
        return [[] for _ in us]
    tree = build_product_tree(moduli)
    out = []
    for u in us:
        den_res = _remainder_tree(u.den, tree)
        dinv = []
        for d, m in zip(den_res, moduli):
            if math.gcd(d, m) != 1:
                raise DenominatorClash(m)
            dinv.append(modinv(d, m))
        rows = []
        for c in u.num:
            r = _remainder_tree(abs(c), tree)
            if c < 0:
                r = [(m - v) % m for v, m in zip(r, moduli)]
            rows.append(r)
        per_mod = []
        for j, m in enumerate(moduli):
            per_mod.append([rows[i][j] * dinv[j] % m for i in range(len(rows))])
        out.append(per_mod)
    return out


class PrimeIdealRep(NamedTuple):
    """Degree-f_deg prime (p, g(alpha)) above p, g a monic factor of f mod p."""

    p: int
    g: tuple
    f_deg: int


def root_of_unity(q: int, m: int, ps=None) -> int:
    """A primitive m-th root of 1 mod the prime q = 1 mod m.

    The first c^((q-1)/m), c = 2, 3, ..., of order m; ps are the primes
    dividing m (factored here when not given).
    """
    if (q - 1) % m:
        raise ValueError(f"{q} is not 1 mod {m}")
    ps = factorize(m) if ps is None else ps
    return next(w for w in (pow(c, (q - 1) // m, q) for c in range(2, q))
                if all(pow(w, m // p, q) != 1 for p in ps))


def split_roots(q: int, m: int, w: int) -> list[int]:
    """The phi(m) primitive m-th roots of 1 mod q, largest first.

    w has order m, so they are the w^t with gcd(t, m) = 1. Largest first is
    the order of NumberField.prime_ideals, whose g = q - r ascend.
    """
    roots, acc = [], 1
    for t in range(1, m):
        acc = acc * w % q
        if math.gcd(t, m) == 1:
            roots.append(acc)
    roots.sort(reverse=True)
    return roots


def crt_ideals(residues: list[list[int]], ideals: list[PrimeIdealRep],
               K: NumberField) -> list[int]:
    """Combine per-ideal residues into z mod (p, f): Chinese remainder in F_p[x]."""
    if not ideals:
        raise IncompleteCover("no ideals supplied")
    p = ideals[0].p
    if sum(i.f_deg for i in ideals) != K.n:
        raise IncompleteCover("ideal degrees do not cover deg f")
    fbar = gfpoly.from_int_poly(list(K.f), p)
    z = []
    for r, ideal in zip(residues, ideals):
        g = list(ideal.g)
        mi = gfpoly.divmod_(fbar, g, p)[0]
        ti = gfpoly.invmod(mi, g, p)
        r = gfpoly.rem(gfpoly.trim(list(r)), g, p)
        term = gfpoly.mul(gfpoly._Packed(g, p).mul(ti, r), mi, p)
        z = gfpoly.add(z, term, p)
    z = gfpoly.rem(z, fbar, p)
    return list(z) + [0] * (K.n - len(z))


def crt_integers_symmetric(vectors: list[list[int]], moduli: list[int],
                           bound: int) -> list[int]:
    """Per-coordinate CRT with symmetric lift into [-bound, bound].

    vectors[j] is the coordinate vector mod moduli[j], entries in
    [0, moduli[j]); returns one integer vector. Requires prod moduli >
    2*bound; BoundViolation if a combined coordinate falls outside the
    symmetric range.
    """
    if not vectors:
        raise ValueError("no residue vectors")
    pairs = [(v, m) for v, m in zip(vectors, moduli)]
    while len(pairs) > 1:
        nxt = []
        for i in range(0, len(pairs) - 1, 2):
            (v1, m1), (v2, m2) = pairs[i], pairs[i + 1]
            inv = modinv(m1 % m2, m2)
            # a < m1 and the digit is below m2, so a + m1 * digit < m1 * m2
            combined = [
                a + m1 * ((b - a) % m2 * inv % m2)
                for a, b in zip(v1, v2, strict=True)
            ]
            nxt.append((combined, m1 * m2))
        if len(pairs) % 2:
            nxt.append(pairs[-1])
        pairs = nxt
    vec, modulus = pairs[0]
    if modulus <= 2 * bound:
        raise ValueError("modulus product does not exceed 2*bound")
    out = []
    for c in vec:
        if c <= bound:
            out.append(c)
        elif c >= modulus - bound:
            out.append(c - modulus)
        else:
            raise BoundViolation("coordinate outside the certified bound")
    return out


# -- subfields and relative norms --------------------------------------------------
# Every subfield here is cyclotomic, L = Q(zeta_{m'}) inside K = Q(zeta_m), so
# Gal(K/L) acts by reindexing exponents mod m and N_{K/L}(u) is the product of
# the conjugates sigma_t(u), t = 1 mod m'.


class SubfieldEmbedding:
    """Q(zeta_{m'}) -> Q(zeta_m) for m' | m: L's generator goes to
    h(alpha) = alpha^(m/m').

    orbit holds the t of Gal(K/L) = {sigma_t : alpha -> alpha^t}, the units
    t = 1 mod m', and degree = [K:L] counts them; relative_norm multiplies
    the conjugates sigma_t(u).
    """

    @classmethod
    def cyclotomic(cls, K: NumberField, m_sub: int) -> "SubfieldEmbedding":
        """The only constructor: L = Q(zeta_{m_sub}) for m_sub dividing m.

        One embedding is kept per (K, m_sub), so its to_subfield solve is
        paid once per field.
        """
        m = K.conductor
        if m is None:
            raise IncompatibleFields("cyclotomic embedding needs a conductor field")
        if m_sub < 3 or m % m_sub != 0:
            raise BadConductor(f"{m_sub} is not a valid subconductor of {m}")
        if m_sub in K._subfields:
            return K._subfields[m_sub]
        emb = cls.__new__(cls)
        emb.K, emb.L = K, NumberField.cyclotomic(m_sub)
        emb.h = (0,) * (m // m_sub) + (1,)
        emb.orbit = tuple(t for t in range(1, m)
                          if math.gcd(t, m) == 1 and t % m_sub == 1)
        emb.degree = len(emb.orbit)
        emb._solver = None
        if emb.degree * emb.L.n != K.n:
            raise IncompatibleFields("relative degree does not match")
        K._subfields[m_sub] = emb
        return emb

    def _power_map(self, x: FieldElement, k: int) -> FieldElement:
        """x(alpha^k) in K; x's exponents i * k must stay distinct mod m
        (k a unit, or x in L and k = m/m')."""
        m = self.K.conductor
        num = [0] * m
        for i, c in enumerate(x.num):
            num[i * k % m] = c
        return self.K.element(num, x.den)

    def to_subfield(self, x: FieldElement) -> FieldElement:
        """Express a K-element lying in L as an L-element (NotInSubfield else)."""
        if x.field != self.K:
            raise IncompatibleFields("element not in K")
        if self._solver is None:
            K, L = self.K, self.L
            beta = K.element(list(self.h))
            cols = []
            acc = K.one
            for _ in range(L.n):
                cols.append([Fraction(c, acc.den) for c in acc.num])
                acc = acc * beta
            self._solver = _frac_solver(cols, K.n)
        coords = self._solver([Fraction(c, x.den) for c in x.num])
        return self.L.from_fractions(coords)


def _frac_solver(columns: list[list[Fraction]], dim: int):
    ncols = len(columns)
    # augmented [M | I], reduced once; solving is then a matrix-vector product
    rows = []
    for i in range(dim):
        row = [columns[j][i] for j in range(ncols)]
        row += [Fraction(int(i == k)) for k in range(dim)]
        rows.append(row)
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, dim) if rows[i][c] != 0), None)
        if piv is None:
            raise NotInSubfield("embedding powers are dependent")
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(dim):
            if i != r and rows[i][c] != 0:
                fct = rows[i][c]
                rows[i] = [x - fct * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    transform = [row[ncols:] for row in rows]

    def solve(z: list[Fraction]) -> list[Fraction]:
        coords = [sum(t * zi for t, zi in zip(row, z)) for row in transform]
        for idx in range(ncols, dim):
            if coords[idx] != 0:
                raise NotInSubfield("element does not lie in the subfield")
        sol = [Fraction(0)] * ncols
        for idx, c in enumerate(pivots):
            sol[c] = coords[idx]
        return sol

    return solve


def relative_norm(y: FactoredElement, emb: SubfieldEmbedding) -> FactoredElement:
    """Termwise relative norm N_{K/L}: factored over K -> factored over L.

    N_{K/L}(u) is the product of the conjugates sigma_t(u), t in emb.orbit.
    """
    if y.field != emb.K:
        raise IncompatibleFields("factored element not over K")
    out = []
    for u, a in y.terms:
        n = math.prod((emb._power_map(u, t) for t in emb.orbit), start=emb.K.one)
        out.append((emb.to_subfield(n), a))
    return FactoredElement(emb.L, out)
