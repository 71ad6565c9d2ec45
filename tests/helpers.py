"""Test-only helpers built on the library: code that only the tests call."""

from ethroot import gfpoly
from ethroot.crtroot import SEARCH_BUDGET, _cover, good_prime_stream
from ethroot.errors import IncompatibleFields
from ethroot.primes import prime_stream


def select_crt_primes(K, e: int, B: int, seed: int = 0, avoid_divisors_of=(),
                      budget: int = SEARCH_BUDGET):
    """Good primes whose product exceeds 2B."""
    return _cover(good_prime_stream(K, e, seed, avoid_divisors_of, budget), B)


def random_prime(rng, bits: int) -> int:
    """Random prime in [2^(bits-1), 2^bits)."""
    return next(prime_stream(rng, bits))


def random_irreducible(d: int, p: int, rng) -> list[int]:
    """Random monic irreducible of degree d over F_p."""
    while True:
        f = [rng.randrange(p) for _ in range(d)] + [1]
        if gfpoly.is_irreducible(f, p):
            return f


def reduce_mod_ideal(coeffs_mod_p: list[int], ideal) -> list[int]:
    """Residue of a mod-p coordinate vector in F_p[x]/(g)."""
    return gfpoly.rem(gfpoly.trim(list(coeffs_mod_p)), list(ideal.g), ideal.p)


def from_subfield(emb, b):
    """Image of an L-element in K (substitute beta = alpha^(m/m'))."""
    if b.field != emb.L:
        raise IncompatibleFields("element not in L")
    return emb._power_map(b, emb.K.conductor // emb.L.conductor)


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b)."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def hnf(mat: list[list[int]], n: int) -> list[list[int]]:
    """Upper-triangular row Hermite form, positive diagonal, reduced above it.

    A reference for "same lattice": two full-rank generating sets span the
    same lattice exactly when their Hermite forms are equal.
    """
    rows = [list(r) for r in mat]
    basis = []
    for col in range(n):
        work = [r for r in rows if r[col] != 0]
        rest = [r for r in rows if r[col] == 0]
        if not work:
            raise ValueError("matrix rows do not span full rank")
        piv = work.pop()
        while work:
            r = work.pop()
            g, s, t = xgcd(piv[col], r[col])
            q1, q2 = piv[col] // g, r[col] // g
            comb = [s * x + t * y for x, y in zip(piv, r)]
            left = [q2 * x - q1 * y for x, y in zip(piv, r)]
            piv = comb
            if any(left):
                rest.append(left)
        if piv[col] < 0:
            piv = [-c for c in piv]
        basis.append(piv)
        rows = rest
    # entries above each pivot land in [0, pivot); increasing order keeps
    # earlier columns untouched (later pivot rows start with zeros)
    for i in range(n):
        for j in range(i):
            q = basis[j][i] // basis[i][i]
            if q:
                basis[j] = [x - q * y for x, y in zip(basis[j], basis[i])]
    return basis
