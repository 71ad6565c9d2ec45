"""Dense polynomial arithmetic over F_p.

A polynomial is a list of ints in [0, p), index = degree, trailing zeros
stripped; [] is the zero polynomial. The prime lives in the call, not the
data, so callers must not mix moduli.

Products and powers mod f run on a `_Packed` ring that the caller builds
once per modulus: residues packed into one int, w bits per coefficient
(Kronecker substitution, Harvey, J. Symb. Comp. 2009), so that one big-int
product does the work of a schoolbook product. With d = deg f,
w = 2 bit_length(p) + bit_length(d) + 1: a product of two reduced residues
has coefficients below d (p-1)^2, folding its d-1 high slots back (each
reduced mod p, times a reduced row of x^(d+k) mod f) adds at most
(d-1)(p-1)^2 more, and (2d-1)(p-1)^2 < 2^w, so no slot ever carries into the
next; powers of t take only squarings, each product by t a shift
(`_t_power`).

For a prime p, a -> a^p is a ring endomorphism of F_p[t]/(g) for every monic
g, reducible or not, fixing F_p: sum a_i t^i maps to sum a_i t^(p i). A
`_Packed` that keeps the rows t^(p i) mod g, i < d (`keep_frobenius`), takes
a^n for n = sum_j n_j p^j >= p as prod_j Frob^j(a)^(n_j). An image is d small
multiples of the rows, whose slots stay below d (p-1)^2 < 2^w, and one
reduction. One shared squaring chain (Straus, as `splitkernel._multi_pow`)
over all images takes bit_length(p) steps, not bit_length(n) (Itoh-Tsujii,
Inf. Comput. 1988; von zur Gathen-Shoup, Comput. Complexity 1992). Modulo a
prime power p^a the map is no endomorphism, so `padic` keeps the rows only
on its ring mod p, the residue field. The distinct-degree split `_ddf` takes
its repeated p-th powers as such images.
"""

from __future__ import annotations

import random


def trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def deg(a: list[int]) -> int:
    return len(a) - 1


def from_int_poly(a: list[int], p: int) -> list[int]:
    return trim([c % p for c in a])


def add(a: list[int], b: list[int], p: int) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = a[:]
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return trim(out)


def sub(a: list[int], b: list[int], p: int) -> list[int]:
    out = a[:] + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return trim(out)


def scale(a: list[int], c: int, p: int) -> list[int]:
    c %= p
    if c == 0:
        return []
    return trim([x * c % p for x in a])


def _product(a: list[int], b: list[int]) -> list[int]:
    """Schoolbook product over Z (or Q), neither reduced nor trimmed."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def mul(a: list[int], b: list[int], p: int) -> list[int]:
    return trim([c % p for c in _product(a, b)])


def _lead_inverse(b: list[int], p: int) -> int:
    # a monic b needs no inverse, which keeps prime-power moduli working
    return 1 if b[-1] % p == 1 else pow(b[-1], p - 2, p)


def divmod_(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder mod p (a prime power if b is monic), lazily reduced."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = a[:]
    q = [0] * max(0, len(a) - len(b) + 1)
    db = deg(b)
    inv_lead = _lead_inverse(b, p)
    low = b[:-1]
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i] % p
        if c == 0:
            continue
        base = i - db
        q[base] = f = c * inv_lead % p
        for j, y in enumerate(low, base):
            r[j] -= f * y
    return trim(q), trim([c % p for c in r[:db]])


def rem(a: list[int], b: list[int], p: int) -> list[int]:
    return divmod_(a, b, p)[1]


def monic(a: list[int], p: int) -> list[int]:
    if not a:
        return []
    return scale(a, pow(a[-1], p - 2, p), p)


def gcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        a, b = b, rem(a, b, p)
    return monic(a, p)


class _Packed:
    """The ring (Z/p)[t]/(mod), its residues packed into one int, slot i
    holding coefficient i: the one ring type of the library, for the residue
    fields F_q = F_p[t]/(g) as for the completions (Z/p^k)[t]/(g).

    Its methods take and return reduced coefficient lists (this module's
    convention, [] for zero). The slot width w and the fold table are those
    of the module docstring; p may be a prime power when mod is monic, as
    for padic's completions and the Schirokauer map's ring mod e^2. Every
    product and power mod f in the library runs here: callers build one ring
    per modulus and reuse it across steps. For a prime p, `inverse` inverts,
    and `keep_frobenius` adds the Frobenius rows that `power` runs long
    exponents over.
    """

    __slots__ = ("p", "mod", "w", "mask", "low", "shifts", "fold", "row_t", "frob")

    def __init__(self, mod: list[int], p: int):
        d = deg(mod)
        self.p, self.mod = p, mod
        self.w = w = 2 * p.bit_length() + d.bit_length() + 1
        self.mask, self.low = (1 << w) - 1, (1 << d * w) - 1
        self.shifts = tuple(range((d - 1) * w, -1, -w))  # low slots, top first
        inv = _lead_inverse(mod, p)
        first = [-c * inv % p for c in mod[:d]]  # x^d mod (mod, p)
        # (shift of slot d+k, packed x^(d+k) mod (mod, p)) for k = 0..d-2
        fold, row = [], first
        for s in range(d * w, (2 * d - 1) * w, w):
            fold.append((s, self.pack(row)))
            top = row[-1]
            row = [(c + top * t) % p for c, t in zip([0] + row[:-1], first)]
        self.fold = tuple(fold)
        self.row_t = None  # packed x^(2d-1) mod (mod, p), once a power of t needs it
        self.frob = None  # packed t^(p i) mod (mod, p), i < d, once kept

    def pack(self, a: list[int]) -> int:
        """Pack reduced coefficients in [0, p), at most d of them."""
        w, r = self.w, 0
        for c in reversed(a):
            r = (r << w) | c
        return r

    def unpack(self, r: int) -> list[int]:
        mask = self.mask
        return trim([(r >> s) & mask for s in reversed(self.shifts)])

    def reduce(self, prod: int) -> int:
        """Packed residue of prod: a product of two packed residues, such a
        product plus a reduced constant, or a sum of at most d packed
        residues times reduced constants."""
        p, mask = self.p, self.mask
        low = prod & self.low
        for s, row in self.fold:
            low += ((prod >> s) & mask) % p * row
        w, r = self.w, 0
        for s in self.shifts:
            r = (r << w) | ((low >> s) & mask) % p
        return r

    def mul(self, a: list[int], b: list[int]) -> list[int]:
        """a * b for reduced a and b."""
        return self.unpack(self.reduce(self.pack(a) * self.pack(b)))

    def inverse(self, a: list[int]) -> list[int]:
        """a^-1 for a reduced a prime to mod, p prime; else ZeroDivisionError."""
        return invmod(a, self.mod, self.p)

    def keep_frobenius(self, xp: list[int] | None = None):
        """Keep the rows t^(p i), i < d, for `power`; p must be prime, and xp
        is t^p mod (mod, p) when the caller has it. Only for d >= 3: below,
        building the rows cost about what they saved in measured runs."""
        if len(self.shifts) < 3:
            return
        x = self.pack(xp if xp is not None else self.power([0, 1], self.p))
        rows = [1]
        for _ in self.shifts[1:]:
            rows.append(self.reduce(rows[-1] * x))
        self.frob = tuple(rows)

    def power(self, a: list[int], n: int) -> list[int]:
        """a^n for reduced a and n >= 0: over Frobenius images when the rows
        are kept and n has two or more base-p digits, else by left-to-right
        square-and-multiply, whose products by t are shifts when a = t.
        ValueError for n < 0."""
        if n < 0:
            raise ValueError("power needs n >= 0")
        reduce, r = self.reduce, self.pack(a)
        if self.frob is not None and n >= self.p:
            return self.unpack(self._frobenius_power(r, n))
        if n == 0:
            return [1]
        if a == [0, 1]:
            return self.unpack(self._t_power(n))
        base = r
        for bit in bin(n)[3:]:
            r = reduce(r * r)
            if bit == "1":
                r = reduce(r * base)
        return self.unpack(r)

    def _t_power(self, n: int) -> int:
        """t^n for n >= 1 by left-to-right square-and-multiply; a product by t
        shifts the square up one slot, whose top slot, reduced mod p, folds
        through the row of t^(2d-1): at most (p-1)^2 more in a low slot."""
        p, w, reduce = self.p, self.w, self.reduce
        top = (2 * len(self.shifts) - 2) * w  # slot 2d-2, a square's top
        if self.row_t is None:
            self.row_t = reduce(self.fold[-1][1] << w)  # t * t^(2d-2)
        r, below, row = 1 << w, (1 << top) - 1, self.row_t
        for bit in bin(n)[3:]:
            r *= r
            if bit == "1":
                r = ((r & below) << w) + (r >> top) % p * row
            r = reduce(r)
        return r

    def _frobenius_power(self, r: int, n: int) -> int:
        """prod_j Frob^j(r)^(n_j) over the base-p digits n_j of n (module
        docstring): the images with a nonzero digit go in groups of g, whose
        joint tables hold the product over each subset of the group."""
        p, mask, reduce = self.p, self.mask, self.reduce
        slots = self.shifts[::-1]
        terms = []  # (digit, image) for the nonzero digits
        while True:
            n, c = divmod(n, p)
            if c:
                terms.append((c, r))
            if not n:
                break
            r = reduce(sum(((r >> s) & mask) * row for s, row in zip(slots, self.frob)))
        top = max(c for c, _ in terms).bit_length()
        g = max(1, top.bit_length() - 1)  # about the g minimising (2^g + top) / g
        groups = []
        for j in range(0, len(terms), g):
            table, digits = [1], []
            for c, image in terms[j:j + g]:
                table += [image] + [reduce(t * image) for t in table[1:]]
                digits.append(c)
            groups.append((table, digits))
        acc = 1
        for b in range(top - 1, -1, -1):
            if b < top - 1:
                acc = reduce(acc * acc)
            for table, digits in groups:
                subset = sum(((c >> b) & 1) << i for i, c in enumerate(digits))
                if subset:
                    acc = reduce(acc * table[subset])
        return acc


def invmod(a: list[int], mod: list[int], p: int) -> list[int]:
    """Inverse of a modulo mod; raises ZeroDivisionError if not coprime."""
    r0, r1 = mod[:], rem(a, mod, p)
    s0, s1 = [], [1]
    while r1:
        q, r = divmod_(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, sub(s0, mul(q, s1, p), p)
    if deg(r0) != 0:
        raise ZeroDivisionError("element not invertible")
    return scale(s0, pow(r0[0], p - 2, p), p)


def evaluate(a: list[int], x: int, p: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


def derivative(a: list[int], p: int) -> list[int]:
    return trim([i * c % p for i, c in enumerate(a)][1:])


def _frobenius_root(a: list[int], p: int) -> list[int]:
    # p-th root of a polynomial in x^p: coefficients of F_p are Frobenius-fixed.
    return trim([a[i] for i in range(0, len(a), p)])


def squarefree_parts(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Squarefree decomposition: list of (g, multiplicity), g monic squarefree."""
    f = monic(f, p)
    out: list[tuple[list[int], int]] = []
    _sqfree_rec(f, p, 1, out)
    return out


def _sqfree_rec(f: list[int], p: int, mult: int, out: list[tuple[list[int], int]]):
    if deg(f) < 1:
        return
    df = derivative(f, p)
    if not df:
        _sqfree_rec(_frobenius_root(f, p), p, mult * p, out)
        return
    c = gcd(f, df, p)
    w = divmod_(f, c, p)[0]
    i = 1
    while deg(w) > 0:
        y = gcd(w, c, p)
        z = divmod_(w, y, p)[0]
        if deg(z) > 0:
            out.append((z, mult * i))
        c = divmod_(c, y, p)[0]
        w = y
        i += 1
    if deg(c) > 0:
        _sqfree_rec(_frobenius_root(c, p), p, mult * p, out)


def _ddf(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Distinct-degree split of a monic squarefree f: list of (product, degree).

    Step d takes h = t^(p^d) mod v as the p-th power of step d-1's h, on one
    ring per v. From the second step on, that ring keeps the Frobenius rows
    of the first step's t^p, so each p-th power is one image; a v of degree
    below 4 takes at most one step and keeps none.
    """
    out, v, d = [], f[:], 0
    ring, h, xp = None, [0, 1], None  # xp: t^p mod f, once taken
    while deg(v) >= 2 * (d + 1):
        d += 1
        if ring is None:
            ring = _Packed(v, p)
        if xp is not None and ring.frob is None:
            ring.keep_frobenius(rem(xp, v, p))
        h = ring.power(h, p)
        if xp is None:
            xp = h
        g = gcd(sub(h, [0, 1], p), v, p)
        if deg(g) > 0:
            out.append((g, d))
            v = divmod_(v, g, p)[0]
            h, ring = rem(h, v, p), None
    if deg(v) > 0:
        out.append((v, deg(v)))
    return out


# Random splits give up after this many failed draws. On a valid input one
# draw fails with probability at most 2/3: at most 1/2 for a Cantor-Zassenhaus
# draw in `_edf` (power map for odd p, trace map for p = 2; von zur
# Gathen-Gerhard, Modern Computer Algebra, Sec. 14.3), and at most
# (p+1)/(2p) <= 2/3 for a shift a in `_linear_roots`, since (p-1)/2 of the p
# shifts separate any two given roots (a character sum). A valid input of
# degree below 2^40 is split fewer than 2^40 times, so it fails with
# probability below 2^40 (2/3)^256 < 2^-109; a broken precondition (a wrong
# degree, a composite modulus) raises instead of drawing forever.
SPLIT_DRAWS = 256


def _edf(f: list[int], d: int, p: int, rng: random.Random) -> list[list[int]]:
    """Equal-degree split of monic squarefree f, all factors of degree d;
    ArithmeticError after SPLIT_DRAWS failed draws."""
    n = deg(f)
    if n == d:
        return [f]
    ring = _Packed(f, p)
    if p > 2 and d >= 3:
        ring.keep_frobenius()  # (p^d - 1)/2 then runs over d images
    for _ in range(SPLIT_DRAWS):
        t = trim([rng.randrange(p) for _ in range(n)])
        if deg(t) < 1:
            continue
        g = gcd(t, f, p)
        if not 0 < deg(g) < n:
            if p == 2:
                # trace map over F_{2^d}
                u, acc = t[:], t[:]
                for _ in range(d - 1):
                    u = ring.mul(u, u)
                    acc = add(acc, u, p)
                g = gcd(acc, f, p)
            else:
                s = ring.power(t, (p ** d - 1) // 2)
                g = gcd(sub(s, [1], p), f, p)
        if 0 < deg(g) < n:
            h = divmod_(f, g, p)[0]
            return _edf(g, d, p, rng) + _edf(h, d, p, rng)
    raise ArithmeticError(f"no split into degree-{d} factors in {SPLIT_DRAWS} draws")


def _rng(seed: int) -> random.Random:
    return random.Random(f"gfpoly:{seed}")


def split_squarefree(f: list[int], p: int, degree: int = 0,
                     rng: random.Random | None = None) -> list[list[int]]:
    """The monic irreducible factors of a monic squarefree f over F_p, unsorted.

    Distinct-degree splitting, then equal-degree splitting of each part. A
    caller that knows every factor has degree `degree` skips the first stage.
    The equal-degree draws come from rng, by default that of factor(seed=0).
    """
    rng = rng or _rng(0)
    if degree:
        return _edf(f, degree, p, rng)
    return [irr for h, d in _ddf(f, p) for irr in _edf(h, d, p, rng)]


def factor(f: list[int], p: int, seed: int = 0) -> list[tuple[list[int], int]]:
    """Full factorization of f over F_p into monic irreducibles.

    Returns a list of (factor, multiplicity), sorted for determinism.
    Randomness in the equal-degree stage is driven only by `seed`.
    """
    rng = _rng(seed)
    out = [(irr, mult) for g, mult in squarefree_parts(f, p)
           for irr in split_squarefree(g, p, rng=rng)]
    out.sort(key=lambda t: (deg(t[0]), t[0]))
    return out


def sqrt_mod(a: int, p: int) -> int:
    """A square root of a mod the odd prime p, by Tonelli-Shanks; ValueError
    when a is not a square."""
    s = ((p - 1) & (1 - p)).bit_length() - 1
    q = (p - 1) >> s  # p - 1 = q 2^s, q odd
    z = next(z for z in range(2, p) if pow(z, (p - 1) >> 1, p) == p - 1)
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) >> 1, p)
    while t > 1:  # r^2 = a t, t of order 2^i, c of order 2^m; t = 0 iff a = 0
        i = next(i for i in range(1, m + 1) if pow(t, 1 << i, p) == 1)
        if i == m:
            raise ValueError(f"{a} is not a square mod {p}")
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def roots(f: list[int], p: int) -> list[int]:
    """The distinct roots in F_p of a nonzero f, ascending, for a prime p.

    Only g = gcd(t^p - t, f), the product of the linear factors, is split, and
    never beyond degree 2: a quadratic by its formula, a larger g by
    gcd((t + a)^((p-1)/2) - 1, g) with a drawn from the fixed stream of
    factor(seed=0), which moves no root.
    """
    if p == 2:
        return [r for r in (0, 1) if not evaluate(f, r, 2)]
    xp = _Packed(f, p).power(rem([0, 1], f, p), p)
    return sorted(_linear_roots(gcd(sub(xp, [0, 1], p), f, p), p))


def _linear_roots(g: list[int], p: int, rng: random.Random | None = None) -> list[int]:
    k = deg(g)
    if k < 2:
        return [-g[0] % p] if k else []
    if k == 2:
        s, half = sqrt_mod(g[1] * g[1] - 4 * g[0], p), (p + 1) >> 1
        return [(s - g[1]) * half % p, (-s - g[1]) * half % p]
    rng, ring = rng or _rng(0), _Packed(g, p)
    for _ in range(SPLIT_DRAWS):
        h = gcd(sub(ring.power([rng.randrange(p), 1], (p - 1) >> 1), [1], p), g, p)
        if 0 < deg(h) < k:
            return _linear_roots(h, p, rng) + _linear_roots(divmod_(g, h, p)[0], p, rng)
    raise ArithmeticError(f"no split into linear factors in {SPLIT_DRAWS} draws")

