"""Detect e-th powers in a finitely generated multiplicative subgroup.

The subgroup comes factored: generators y_i = prod_j u_j^{E_ij} over a basis
U. Characters into Z/eZ (power residue symbols at degree-1 primes, the
Schirokauer map at e, known valuations) kill e-th powers, and enough of them
make the converse hold up to probability e^-r, so the left kernel of the
character matrix names the powers. Roots are then extracted by the strategy
layer without ever expanding a product.

Character ideals have degree 1, so they are the roots r of f mod q and
their residue field is F_q itself: the residues u(r), the power
u^((q-1)/e) and its discrete log base zeta are all computed in integers mod
q (baby-step giant-step, one table per prime), with no F_q arithmetic.
The primes and their roots are kept on the field (NumberField.walk_primes),
so the detection of a saturation loop, which calls it again and again on
one field, finds each prime's roots once.
"""

import math
from dataclasses import dataclass

from . import gfpoly
from .errors import IncompatibleFields, NotUnit, RamifiedE, ZeroInput
from .fq import DLOG_BUDGET, dlog_mod_p_base
from .fq import factor_mod_p  # noqa: F401, wrapped at this module by layerbench
from .numfield import (
    FactoredElement,
    FieldElement,
    NumberField,
    PrimeIdealRep,
    avoid_integers,
    split_roots,
)
from .primes import OddPrimePower, derive_rng, modinv
from .strategy import RootRequest, eth_root

CHAR_BITS = 29
SELECT_BUDGET = 100000
EXTRA_CHARACTERS = 20  # failure probability <= e^-20


@dataclass
class GeneratingSet:
    """Generators y_i = prod_j u_j^{E[i][j]}, with optional known valuations."""

    U: list
    E: list
    valuations: list | None = None

    def __post_init__(self):
        if not self.U:
            raise ValueError("empty multiplicative basis")
        if any(u.is_zero() for u in self.U):
            raise ZeroInput("zero basis element")
        r = len(self.U)
        if any(len(row) != r for row in self.E):
            raise ValueError("exponent rows do not match the basis size")
        if self.valuations is not None:
            if len(self.valuations) != len(self.E):
                raise ValueError("valuation rows do not match the generators")
            if self.valuations and any(len(row) != len(self.valuations[0])
                                       for row in self.valuations):
                raise ValueError("ragged valuation matrix")


@dataclass(frozen=True)
class CharacterPrime:
    """Degree-1 prime Q with N(Q) = q = 1 mod e, cached chi(u_j).

    zeta is an integer of exact order e mod q, the base of the logs.
    """

    Q_ideal: PrimeIdealRep
    zeta: int
    table: tuple | None = None


@dataclass
class CharacterMatrix:
    M: list
    column_tags: list


def _unit_residue(u: FieldElement, r: int, q: int) -> int:
    if u.den % q == 0:
        raise ValueError(f"denominator of u vanishes mod {q}")
    val = gfpoly.evaluate(u.num, r, q) * modinv(u.den % q, q) % q
    if val == 0:
        raise ValueError(f"u is not a unit mod the ideal over {q}")
    return val


def _order_e_element(q: int, e: int, ell: int, rng) -> int:
    # z = t^((q-1)/e) has order dividing e = ell^k; exact iff z^(e/ell) != 1
    exp = (q - 1) // e
    while True:
        z = pow(rng.randrange(2, q), exp, q)
        if z != 1 and pow(z, e // ell, q) != 1:
            return z


def select_character_primes(K: NumberField, e: int, count: int, U,
                            seed: int = 0) -> list:
    """Degree-1 primes Q with N(Q) = 1 mod e, units at every u_j, chi tables.

    The primes are q = 1 mod M, M = lcm(e, m) on Q(zeta_m), so f splits
    completely, and M = e otherwise, walked on the field's kept table
    (K.walk_primes) from a block the seed picks. Their range has
    count.bit_length() + 8 bits above M, at least CHAR_BITS, so it holds
    count ideals even for a large M. The ideals are the roots of f mod q, in
    prime_ideals' order: split_roots of the kept w on Q(zeta_m), and the
    kept K.degree_one_roots otherwise, so repeated calls on one field find
    them once. An ideal is built only for a prime that is kept.
    SearchExhausted after SELECT_BUDGET primes walked.
    """
    ell, _ = OddPrimePower(e).split
    if count < 1:
        raise ValueError("count must be at least 1")
    m = K.conductor
    M = e if m is None else math.lcm(e, m)
    rng = derive_rng(seed, "characters")
    bits = max(CHAR_BITS, M.bit_length() + 8 + count.bit_length())
    avoid = avoid_integers(U)
    if m is None:
        walk = K.walk_primes(M, bits, K.degree_one_roots, rng, avoid, SELECT_BUDGET)
    else:
        walk = ((q, split_roots(q, m, w))
                for q, w in K.walk_primes(M, bits, K.split_root, rng, avoid,
                                          SELECT_BUDGET))
    out: list = []
    for q, roots in walk:
        if not roots:
            continue
        z = _order_e_element(q, e, ell, rng)
        exp, log = (q - 1) // e, dlog_mod_p_base(z, e, q)
        for r in roots:
            try:
                table = tuple(log(pow(_unit_residue(u, r, q), exp, q)) for u in U)
            except ValueError:
                continue  # some u_j vanishes mod this ideal; its siblings may do
            out.append(CharacterPrime(PrimeIdealRep(q, ((-r) % q, 1), 1), z, table))
            if len(out) == count:
                return out


def chi(u: FieldElement, cp: CharacterPrime, e: int) -> int:
    """Power residue symbol as a residue mod e: log_zeta of u^((Q-1)/e) mod Q.

    Zero exactly on the e-th power residues; u must be a unit at the ideal,
    e an odd prime power. IncompatibleFields unless zeta has exact order e
    mod Q.
    """
    ideal = cp.Q_ideal
    if ideal.f_deg != 1:
        raise ValueError("character ideals must have degree 1")
    q, z = ideal.p, cp.zeta
    ell, _ = OddPrimePower(e).split
    if pow(z, e, q) != 1 or pow(z, e // ell, q) == 1:
        raise IncompatibleFields(f"zeta does not have order {e} mod {q}")
    val = _unit_residue(u, (-ideal.g[0]) % q, q)
    return dlog_mod_p_base(z, e, q)(pow(val, (q - 1) // e, q))


def schirokauer_map(u: FieldElement, e: int, K: NumberField) -> list:
    """Additive character at e: the n coefficients of (u^rho - 1 mod e^2) / e.

    rho is the exponent of (O/eO)*, so u^rho = 1 mod e for every u coprime
    to e and the division is exact; e-th powers land on the zero vector.
    """
    ell, k = OddPrimePower(e).split
    degrees = K.residue_degrees(ell)
    if degrees is None:
        raise RamifiedE(f"{ell} ramifies in K (f not squarefree mod {ell})")
    # exponent of (O/eO)*: the ell-part ell^(k-1) times lcm of the residue
    # field orders ell^d - 1
    rho = math.lcm(ell ** (k - 1), *(ell ** d - 1 for d in degrees))
    e2 = e * e
    if u.den % ell == 0:
        raise NotUnit("denominator is divisible by e's prime")
    dinv = modinv(u.den % e2, e2)
    coeffs = [c * dinv % e2 for c in u.num]
    # f is monic, so the packed ring holds mod the prime power e^2
    ring = gfpoly._Packed(gfpoly.from_int_poly(list(K.f), e2), e2)
    w = ring.power(gfpoly.trim(coeffs), rho)
    w = w + [0] * (K.n - len(w))
    w[0] = (w[0] - 1) % e2
    out = []
    for c in w:
        if c % e:
            raise NotUnit("u^rho is not 1 mod e; u is not a unit at e")
        out.append((c // e) % e)
    return out


def build_character_matrix(G: GeneratingSet, columns, e: int) -> CharacterMatrix:
    """Evaluate every character on U once, then push through E mod e.

    columns mixes CharacterPrime entries, the tag "schirokauer" (n columns)
    and the tag "valuations" (one column per known valuation).
    """
    E = G.E
    s, r = len(E), len(G.U)
    rows: list = [[] for _ in range(s)]
    tags: list = []

    def push(base, tag):
        for i in range(s):
            rows[i].append(sum(E[i][j] * base[j] for j in range(r)) % e)
        tags.append(tag)

    for col in columns:
        if isinstance(col, CharacterPrime):
            base = col.table
            if base is None or len(base) != r:
                base = [chi(u, col, e) for u in G.U]
            push(base, ("chi", col.Q_ideal.p, (-col.Q_ideal.g[0]) % col.Q_ideal.p))
        elif col == "schirokauer":
            K = G.U[0].field
            vecs = [schirokauer_map(u, e, K) for u in G.U]
            for t in range(K.n):
                push([vecs[j][t] for j in range(r)], ("lambda", t))
        elif col == "valuations":
            if G.valuations is None:
                raise ValueError("no valuation data in the generating set")
            width = len(G.valuations[0]) if G.valuations else 0
            for t in range(width):
                for i in range(s):
                    rows[i].append(G.valuations[i][t] % e)
                tags.append(("val", t))
        else:
            raise ValueError(f"unknown column source {col!r}")
    return CharacterMatrix([list(row) for row in rows], tags)


def _val_ell(a: int, ell: int, k: int) -> int:
    if a == 0:
        return k
    v = 0
    while a % ell == 0:
        a //= ell
        v += 1
    return v


def kernel_mod_e(M, e: int) -> list:
    """Generators of the left kernel over Z/eZ, e an odd prime power.

    Howell-style elimination on [M | I]: pivots are normalized to ell^v, and
    ell^(k-v) times each pivot row is kept in play so kernel vectors hiding
    above a non-unit pivot are not lost. Redundant generators are fine.
    """
    ell, k = OddPrimePower(e).split
    rows = M.M if isinstance(M, CharacterMatrix) else M
    s = len(rows)
    width = len(rows[0]) if s else 0
    active = []
    for i, row in enumerate(rows):
        tail = [1 if j == i else 0 for j in range(s)]
        active.append([c % e for c in row] + tail)
    for col in range(width):
        best = None
        for row in active:
            if row[col] == 0:
                continue
            v = _val_ell(row[col], ell, k)
            if best is None or v < best[1]:
                best = (row, v)
        if best is None:
            continue
        pivot, v = best
        unit = pivot[col] // ell ** v
        inv = modinv(unit, e)
        for j in range(col, width + s):
            pivot[j] = pivot[j] * inv % e
        for row in active:
            if row is pivot or row[col] == 0:
                continue
            m = row[col] // ell ** v
            for j in range(col, width + s):
                row[j] = (row[j] - m * pivot[j]) % e
        active.remove(pivot)
        if v > 0:
            shifted = [c * ell ** (k - v) % e for c in pivot]
            active.append(shifted)
    out = []
    seen = set()
    for row in active:
        if any(row[:width]):
            continue  # cannot happen: every column was eliminated
        tail = tuple(row[width:])
        if any(tail) and tail not in seen:
            seen.add(tail)
            out.append(tail)
    return out


def detect_eth_powers(G: GeneratingSet, e: int, K: NumberField,
                      seed: int = 0) -> list:
    """Kernel vectors alpha with prod y_i^{alpha_i} an e-th power (w.h.p.).

    Returns (alpha, y_alpha) pairs with y_alpha factored over U by exponent
    arithmetic. Up to the BSGS cutoff DLOG_BUDGET the columns are s + 20
    power residue characters; above it only Schirokauer and valuation
    columns are used, exactly the cheap large-e recipe.
    """
    e = OddPrimePower(e)
    s, r = len(G.E), len(G.U)
    columns: list = []
    if G.valuations is not None:
        columns.append("valuations")
    if e <= DLOG_BUDGET:
        count = s + EXTRA_CHARACTERS
        columns.extend(select_character_primes(K, e, count, G.U, seed=seed))
    else:
        columns.append("schirokauer")
    mat = build_character_matrix(G, columns, e)
    out = []
    for alpha in kernel_mod_e(mat, e):
        exps = [sum(alpha[i] * G.E[i][j] for i in range(s)) for j in range(r)]
        terms = [(G.U[j], exps[j]) for j in range(r) if exps[j]]
        out.append((alpha, FactoredElement(K, terms)))
    return out


def saturate(G: GeneratingSet, e: int, K: NumberField, seed: int = 0) -> list:
    """Detected e-th powers together with their verified roots."""
    e = OddPrimePower(e)  # tested once for the detection and every root
    out = []
    for alpha, y in detect_eth_powers(G, e, K, seed=seed):
        result = eth_root(RootRequest(K, e, y, seed=seed))
        out.append((alpha, result))
    return out
