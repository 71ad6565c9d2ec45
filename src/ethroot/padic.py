"""p-adic e-th roots: inverse-free lifting at one prime ideal, then recognition.

The root is lifted by a Newton iteration for the inverse root in the completion
Z[x]/(p^a, g_a), g_a the Hensel lift of a single factor g of f mod p, doubling
the precision each step; the only division is the one mod-p inverse in the
seed. The global root is the residual of the lift under nearest-plane rounding
in the lattice of the ideal power (p, g)^a, walked in exact integers on the
Gram-Schmidt data that LLL leaves behind. An inert p is the case g = f: the
completion is Z[x]/(p^a, f), the lattice is p^a Z^n and the rounding is plain
symmetric rounding of each coordinate mod p^a. A non-power stops at the first
precision where Babai's box test holds: there the rounding would have found
every root the tried twists lead to, so doubling the precision cannot help.

gfpoly is reused with a composite modulus: divmod_/rem and the packed rings
stay exact there as long as every divisor is monic (the leading-coefficient
inverse is 1).
"""

import dataclasses
import math
from typing import NamedTuple

from . import gfpoly
from .counters import count
from .errors import (
    DenominatorClash,
    NotAPower,
    RootSeedMissing,
    SearchExhausted,
    SeedInvalid,
    VerificationFailed,
)
from .fq import fq_eth_root
from .numfield import (
    FactoredElement,
    FieldElement,
    NumberField,
    PrimeIdealRep,
    clear_denominators,
    coeff_bound_root,
)
from .primes import (
    OddPrimePower,
    derive_rng,
    is_cyclic_unit_group,
    is_prime,
    modinv,
    prime_stream,
)
from .verify import verify_root

# inert primes are sampled small on purpose: a 16-bit p forces several genuine
# doubling steps, which is the part of the method worth exercising
INERT_BITS = 16
INERT_BUDGET = 2000

# root-Hermite factor LLL achieves at delta = 0.99
GAMMA = 1.022
LLL_DELTA = (99, 100)  # delta = 99/100

TWIST_BUDGET = 4096
MAX_DOUBLINGS = 4  # precision doublings while the box test fails


@dataclasses.dataclass(frozen=True)
class PadicContext:
    """Lifting parameters: all work happens in Z[x]/(p^{2^i}, f), i <= kappa.

    rings[i] is the packed ring mod (p^{2^i}, f), built once here and shared
    by every lift on this context; rings[0] is the residue field F_p[x]/(f).
    """

    p: int
    kappa: int
    f: tuple  # monic modulus polynomial of the completion
    rings: tuple = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mods = [self.p ** (1 << i) for i in range(self.kappa + 1)]
        object.__setattr__(self, "rings", tuple(
            gfpoly._Packed([c % M for c in self.f], M) for M in mods))


def is_inert(K: NumberField, p: int) -> bool:
    """True when pO is prime, i.e. f stays irreducible mod p: p is prime and
    unramified, and its one residue degree is deg f (K.residue_degrees)."""
    return is_prime(p) and K.residue_degrees(p) == (K.n,)


def find_inert_prime(K: NumberField, e: int, seed: int = 0,
                     avoid=()) -> int | None:
    """Random 16-bit prime p with f irreducible mod p, p prime to e and avoid.

    Returns None when none exists (non-cyclic Galois group, e.g. Q(zeta_8)),
    decided before any prime is drawn, or after INERT_BUDGET prime draws,
    repeats included: there are only 3,030 primes of 16 bits. That None is
    what sends a Couveignes tower's base field to reconstruct.
    """
    if K.conductor is not None and not is_cyclic_unit_group(K.conductor):
        return None
    rng = derive_rng(seed, "inert")
    try:
        return next(p for p in prime_stream(rng, INERT_BITS, avoid=(*avoid, e),
                                             budget=INERT_BUDGET)
                    if is_inert(K, p))
    except SearchExhausted:
        return None


# -- completion arithmetic -----------------------------------------------------


def _fold_mod(terms, ring, p: int) -> list[int]:
    """prod u_i^{a_i} in ring, the packed Z[x]/(p^a, g_a); every term must be
    a unit above p."""
    M, mp = ring.p, ring.mod
    acc = [1]
    for u, a in terms:
        if u.den % p == 0:
            raise DenominatorClash(p)
        num = [c % M for c in u.num]
        if u.den != 1:
            inv = modinv(u.den % M, M)
            num = [c * inv % M for c in num]
        vec = gfpoly.rem(gfpoly.trim(num), mp, M)
        if not any(c % p for c in vec):
            raise RootSeedMissing(f"term is not a unit above p={p}")
        acc = ring.mul(acc, ring.power(vec, a))
    return acc


def _symmetric(c: int, M: int) -> int:
    c %= M
    return c - M if 2 * c > M else c


def _check_converged(t, M):
    # quadratic convergence contract: t = a * x^e - 1 is 0 mod (M, f)
    count("padic", "lift_checks")
    if any(c % M for c in t):
        raise VerificationFailed(f"Newton convergence check failed at modulus {M}")


def hensel_lift(a_poly: list[int], x0: list[int], e: int,
                ctx: PadicContext) -> list[int]:
    """Lift the inverse e-th root of a_poly to precision p^{2^kappa}.

    a_poly lives in Z[x]/(target_modulus, ctx.f); x0 is the seed, a reduced
    residue of the field F_p[x]/(ctx.f mod p) with a * x0^e = 1. One update
        x <- x - (1/e) x (a x^e - 1)
    per doubling, 1/e recomputed mod each p^{2^i}; no other inversions. Each
    step runs in the context's ring of that step, and its residual a x^e - 1
    is 0 mod the last step's modulus iff that step converged: its check.
    """
    p, field = ctx.p, ctx.rings[0]
    abar = gfpoly.rem(list(a_poly), field.mod, p)
    if field.mul(abar, field.power(x0, e)) != [1]:
        raise SeedInvalid("a * x0^e != 1 in the residue field")
    x = list(x0)
    for i in range(1, ctx.kappa + 1):
        ring = ctx.rings[i]
        M = ring.p
        ai = [c % M for c in a_poly]
        inv_e = modinv(e, M)
        t = gfpoly.sub(ring.mul(ai, ring.power(x, e)), [1], M)
        if i > 1:
            _check_converged(t, ctx.rings[i - 1].p)
        x = gfpoly.sub(x, gfpoly.scale(ring.mul(x, t), inv_e, M), M)
        count("padic", "lift_steps")
    if ctx.kappa:
        _check_converged(gfpoly.sub(ring.mul(ai, ring.power(x, e)), [1], M), M)
    return x


def _element_of_order(field, l: int, v: int, j: int, seed: int) -> list[int]:
    # exact order l^j in F_q* (field: its packed ring), where l^v fully
    # divides q - 1 and j <= v; each draw takes d coefficients
    rng = derive_rng(seed, "twist")
    d = gfpoly.deg(field.mod)
    cof = (field.p ** d - 1) // l ** v
    while True:
        z = gfpoly.trim([rng.randrange(field.p) for _ in range(d)])
        if not z:
            continue
        z = field.power(z, cof)
        if field.power(z, l ** (v - 1)) == [1]:
            continue
        return field.power(z, l ** (v - j))


def _twist_candidates(x0: list[int], field, l: int, k: int, seed: int):
    """x0 times every e-th root of unity of the residue field (its packed
    ring), lazily."""
    yield x0
    v, N = 0, field.p ** gfpoly.deg(field.mod) - 1
    while N % l == 0:
        N //= l
        v += 1
    if v == 0:
        return  # e-th roots are unique here: nothing to twist
    t = l ** min(k, v)
    omega = _element_of_order(field, l, v, min(k, v), seed)
    w = [1]
    for _ in range(min(t - 1, TWIST_BUDGET)):
        w = field.mul(w, omega)
        yield field.mul(x0, w)


# -- prime-ideal reconstruction ------------------------------------------------


def precision_estimate(n: int, f_deg: int, p: int, Bprime: int) -> int:
    """Smallest power of two a > n/(f_deg ln p) (ln 2B' + max(0, n(n-1)/4 - 1) ln GAMMA).

    The lattice term is clamped at 0 (it is negative for n <= 2), and
    p^a > 2B' is then checked exactly rather than trusted to the float
    estimate: symmetric lifts mod p^a are unique only past 2B'.
    """
    if Bprime < 1:
        raise ValueError("B' must be >= 1")
    if Bprime.bit_length() <= 512:
        ln2b = math.log(2 * Bprime)
    else:
        ln2b = (Bprime.bit_length() + 1) * math.log(2)
    lattice = max(0.0, n * (n - 1) / 4 - 1) * math.log(GAMMA)
    rhs = (n / (f_deg * math.log(p))) * (ln2b + lattice)
    a = 1
    while a <= rhs or p ** a <= 2 * Bprime:
        a *= 2
    return a


def _exact_div(poly: list[int], m: int, newmod: int) -> list[int]:
    out = []
    for c in poly:
        if c % m:
            raise ArithmeticError("Hensel step: coefficient not divisible")
        out.append((c // m) % newmod)
    return gfpoly.trim(out)


def hensel_factor_lift(g: list[int], f: list[int], p: int, a: int) -> list[int]:
    """Quadratic lift of a monic factor g of f mod p to g_a mod p^a.

    post: g_a monic, g_a = g mod p, g_a | f mod p^a. Requires gcd(g, f/g) = 1
    mod p (f squarefree at g).
    """
    target = p ** a
    gbar = gfpoly.from_int_poly(g, p)
    fbar = gfpoly.from_int_poly(f, p)
    h, r = gfpoly.divmod_(fbar, gbar, p)
    if gfpoly.trim(r):
        raise ValueError("g does not divide f mod p")
    # Bezout pair s g + t h = 1 over F_p: t = h^-1 mod g, s = (1 - t h) / g
    try:
        t = gfpoly.invmod(h, gbar, p)
    except ZeroDivisionError:
        raise ValueError("f mod p is not squarefree at g") from None
    s, _ = gfpoly.divmod_(gfpoly.sub([1], gfpoly.mul(t, h, p), p), gbar, p)
    G, H, S, T = gbar[:], h[:], s[:], t[:]
    m = p
    while m < target:
        m2 = m * m
        diff = gfpoly.sub([c % m2 for c in f], gfpoly.mul(G, H, m2), m2)
        dd = _exact_div(diff, m, m)
        Gm, Hm = [c % m for c in G], [c % m for c in H]
        u = gfpoly.rem(gfpoly.mul(T, dd, m), Gm, m)
        v, r = gfpoly.divmod_(gfpoly.sub(dd, gfpoly.mul(u, Hm, m), m), Gm, m)
        if gfpoly.trim(r):
            raise ArithmeticError("Hensel step: factor solve left a remainder")
        G = gfpoly.add([c % m2 for c in G], gfpoly.scale(u, m % m2, m2), m2)
        H = gfpoly.add([c % m2 for c in H], gfpoly.scale(v, m % m2, m2), m2)
        # lift the Bezout pair too, same solve shape
        b = gfpoly.sub(gfpoly.add(gfpoly.mul(S, G, m2), gfpoly.mul(T, H, m2), m2),
                       [1], m2)
        bb = _exact_div(b, m, m)
        nb = gfpoly.scale(bb, m - 1, m)
        tau = gfpoly.rem(gfpoly.mul(T, nb, m), Gm, m)
        sig, r = gfpoly.divmod_(gfpoly.sub(nb, gfpoly.mul(tau, Hm, m), m), Gm, m)
        if gfpoly.trim(r):
            raise ArithmeticError("Hensel step: Bezout solve left a remainder")
        S = gfpoly.add([c % m2 for c in S], gfpoly.scale(sig, m % m2, m2), m2)
        T = gfpoly.add([c % m2 for c in T], gfpoly.scale(tau, m % m2, m2), m2)
        m = m2
    ga = [c % target for c in G]
    if ga[-1] != 1 or gfpoly.from_int_poly(ga, p) != gbar:
        raise ArithmeticError("Hensel lift lost the factor")
    return ga


def build_ideal_lattice(pil: PrimeIdealRep, a: int, K: NumberField,
                        ga: list[int]) -> list[list[int]]:
    """Lower-triangular row basis of pil^a = (p^a, g_a(alpha)), n x n.

    The rows are p^a e_i for i < f, then the coefficient rows of x^j g_a for
    j < n - f; g_a, from hensel_factor_lift, is monic of degree f, so the
    diagonal is f times p^a and then n - f ones.
    """
    p, n, f = pil.p, K.n, pil.f_deg
    pa = p ** a
    basis = [[pa if i == j else 0 for i in range(n)] for j in range(f)]
    basis += [[0] * j + list(ga) + [0] * (n - f - 1 - j) for j in range(n - f)]
    if math.prod(basis[i][i] for i in range(n)) != p ** (a * f):
        raise ArithmeticError("ideal lattice determinant mismatch")
    return basis


class GramSchmidt(NamedTuple):
    """Rows with their integral Gram-Schmidt data (de Weger 1987; Cohen, GTM
    138, Alg. 2.6.7): d[i] = Gram determinant of rows 0..i-1, and for j < i
    lam[i][j] = mu_ij d[j+1]. Every entry is an integer."""

    basis: list
    d: list
    lam: list


def _lambda_row(v, basis, d, lam) -> list[int]:
    """[mu(v, b*_j) d[j+1] for each row b_j] by fraction-free elimination;
    a row j past lam is v itself, whose entries are the ones being computed."""
    row = []
    for j, bj in enumerate(basis):
        u = sum(x * y for x, y in zip(v, bj))
        lj = lam[j] if j < len(lam) else row
        for k in range(j):
            u = (d[k + 1] * u - row[k] * lj[k]) // d[k]
        row.append(u)
    return row


def gram_schmidt(basis) -> GramSchmidt:
    """Integral Gram-Schmidt data of full-rank integer rows."""
    b = [[int(c) for c in row] for row in basis]
    d, lam = [1], []
    for i in range(len(b)):
        row = _lambda_row(b[i], b[:i + 1], d, lam)
        if row[i] <= 0:
            raise ValueError("basis is not full rank")
        d.append(row.pop())
        lam.append(row)
    return GramSchmidt(b, d, lam)


def _round_div(a: int, b: int) -> int:
    """round(a / b) for b > 0, half to even like round(Fraction(a, b))."""
    q, r = divmod(a, b)
    return q + (2 * r > b or (2 * r == b and q & 1))


def lll_reduce(basis) -> GramSchmidt:
    """Exact integral LLL (de Weger variant) at LLL_DELTA: a reduced basis of
    the same lattice, with its Gram-Schmidt data kept through every step."""
    dn, dd = LLL_DELTA
    b, d, lam = gram_schmidt(basis)
    n = len(b)

    def red(k, l):
        if abs(2 * lam[k][l]) <= d[l + 1]:
            return
        q = _round_div(lam[k][l], d[l + 1])
        b[k] = [x - q * y for x, y in zip(b[k], b[l])]
        lam[k][l] -= q * d[l + 1]
        for i in range(l):
            lam[k][i] -= q * lam[l][i]

    def swap(k):
        b[k], b[k - 1] = b[k - 1], b[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        lmb = lam[k][k - 1]
        dnew = (d[k - 1] * d[k + 1] + lmb * lmb) // d[k]
        for i in range(k + 1, n):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - lmb * t) // d[k]
            lam[i][k - 1] = (dnew * t + lmb * lam[i][k]) // d[k + 1]
        d[k] = dnew

    k = 1
    while k < n:
        red(k, k - 1)
        if dd * (d[k + 1] * d[k - 1] + lam[k][k - 1] ** 2) < dn * d[k] ** 2:
            swap(k)
            k = max(k - 1, 1)
        else:
            for l in range(k - 2, -1, -1):
                red(k, l)
            k += 1
    return GramSchmidt(b, d, lam)


def babai_nearest_plane(gs: GramSchmidt, target: list[int]) -> list[int]:
    """Lattice vector near target: nearest-plane walk in exact integers.

    Step i subtracts c b_i with c = round(mu(t, b*_i)) = round(lt[i] / d[i+1]),
    then updates the target's lambda row lt by c times row i of lam.
    """
    basis, d, lam = gs
    res = list(target)
    lt = _lambda_row(res, basis, d, lam)
    for i in range(len(basis) - 1, -1, -1):
        c = _round_div(lt[i], d[i + 1])
        if c:
            res = [x - c * y for x, y in zip(res, basis[i])]
            for j in range(i):
                lt[j] -= c * lam[i][j]
    return [t - r for t, r in zip(target, res)]


def eth_root_padic_reconstruct(y: FactoredElement, e: int, K: NumberField,
                               pil: PrimeIdealRep, seed: int = 0) -> FieldElement:
    """e-th root via a single prime ideal: lift in the completion, then Babai.

    Pipeline: clear denominators, bound the integral root, fold
    a = Y^{e-1} mod (p^a, g_a), seed with the residue-field root, lift, and
    multiply back by Y. The approximation X_hat = Y * x_lift lives in
    O/pil^a; the true integral root X differs from it by a lattice vector of
    pil^a, so X is the residual of X_hat under nearest-plane once a is past
    precision_estimate. LLL reduces the lattice once per precision, and every
    twist's nearest-plane walk runs on its integral Gram-Schmidt data. When K
    contains e-th roots of unity the local seed is ambiguous; wrong seeds are
    retried twisted by a root of unity until the verified global root appears.

    When no twist verifies, Babai's box test decides whether to double a.
    Nearest plane returns X exactly when ||X|| < min ||b*_i|| / 2 (Babai
    1986); ||b*_i||^2 = d[i+1] / d[i] and every root has ||X|| <= sqrt(n) B',
    so 4 n B'^2 d[i] < d[i+1] for every i means each tried twist's root would
    have been found, and doubling, which retries the same twists, cannot help.
    The failure is then final at this precision, and "certified" (y is not an
    e-th power) when every twist was tried on a cyclotomic K, whose Z[alpha]
    is the maximal order. Otherwise a doubles, at most MAX_DOUBLINGS times.

    An inert pil (f_deg == n) takes two exact shortcuts: the Hensel lift of
    f mod p is f itself, and pil^a = p^a O is the lattice p^a Z^n, whose
    nearest-plane residual is the symmetric residue of each coordinate. That
    rounding is exact once p^a > 2B', so the box test always holds there.
    """
    e = OddPrimePower(e)
    l, k = e.split
    p = pil.p
    terms = [(u, aa) for u, aa in y.terms if aa != 0]
    if not terms:
        return K.one
    if any(aa < 0 for _, aa in terms):
        raise ValueError("exponents must lie in [0, e]")
    if e % p == 0:
        raise ValueError("p divides e")
    work, T = clear_denominators(FactoredElement(K, terms), e)
    Bp = coeff_bound_root(work, e, K)
    a = precision_estimate(K.n, pil.f_deg, p, Bp)
    inert = pil.f_deg == K.n
    for attempt in range(MAX_DOUBLINGS + 1):
        if attempt:
            a *= 2
            count("padic", "doublings")
        M = p ** a
        ga = list(K.f) if inert else hensel_factor_lift(list(pil.g), list(K.f), p, a)
        ctx = PadicContext(p, a.bit_length() - 1, tuple(ga))
        field, top = ctx.rings[0], ctx.rings[-1]  # F_q = F_p[x]/(g), and mod p^a
        field.keep_frobenius()
        Y = _fold_mod(work.terms, top, p)
        a_poly = top.power(Y, e - 1)
        try:
            x0 = fq_eth_root(field.inverse(gfpoly.from_int_poly(a_poly, p)), e, field)
        except NotAPower as exc:
            raise RootSeedMissing("y mod pil is not an e-th power residue") from exc
        if not inert:
            red = lll_reduce(build_ideal_lattice(pil, a, K, ga))
        for tried, cand in enumerate(_twist_candidates(x0, field, l, k, seed), 1):
            xk = hensel_lift(a_poly, cand, e, ctx)
            approx = top.mul(Y, xk)
            xhat = list(approx) + [0] * (K.n - len(approx))
            if inert:
                coords = [_symmetric(c, M) for c in xhat]
            else:
                w = babai_nearest_plane(red, xhat)
                coords = [h - wi for h, wi in zip(xhat, w)]
            if any(abs(c) > Bp for c in coords):
                count("padic", "twists")
                continue
            x = K.element(coords, T)
            if verify_root(x, y, e, K, trials=2, seed=seed + 1):
                return x
            count("padic", "twists")
        box = 4 * K.n * Bp * Bp
        if inert or all(box * red.d[i] < red.d[i + 1] for i in range(K.n)):
            break
    else:
        raise VerificationFailed(
            f"no twist of the local seed gives a global root up to {p}^{a}")
    msg = (f"no twist of the local seed gives a global root at {p}^{a}, "
           f"where the box test holds")
    if K.conductor is None:
        raise VerificationFailed(f"{msg}; no root lies in Z[alpha]/{T}")
    if tried < math.gcd(e, p ** pil.f_deg - 1):
        raise VerificationFailed(f"{msg}; only {tried} twists were tried")
    raise VerificationFailed(f"certified: y is not an e-th power; {msg}")


def eth_root_padic(y: FactoredElement, e: int, K: NumberField, p: int,
                   seed: int = 0) -> FieldElement:
    """e-th root of y by Hensel lifting at the inert prime p.

    This is reconstruction at the inert ideal (p, f) of degree n: its a-th
    power is p^a O, so recognizing the root is symmetric rounding mod p^a.
    Once p^a > 2B that rounding is unique, so the box test holds at the first
    precision and a failure is final there.
    """
    if not is_inert(K, p):
        raise ValueError(f"p={p} is not inert in K")
    pil = PrimeIdealRep(p, tuple(gfpoly.from_int_poly(list(K.f), p)), K.n)
    return eth_root_padic_reconstruct(y, e, K, pil, seed=seed)
