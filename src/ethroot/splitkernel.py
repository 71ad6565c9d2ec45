"""Vectorized all-split path for double-CRT roots on Q(zeta_m).

Every prime the double-CRT backend takes on Q(zeta_m) is q = 1 mod m, held
as (q, w) with w a primitive m-th root of 1 mod q. Its phi(m) linear ideals
are (alpha - w^u) for the units u of Z/m, so residues are values at the nodes
w^u, and everything vectorizes across (bases x primes x nodes) int64 grids:

- the power table P[j, t] = w_j^t, t < m, takes log2 m products; gathering
  V[j, k, a] = P[j, k u_a mod m] gives the Vandermonde block of the nodes
  with no multiplication at all;
- every base, and f', is evaluated at every node by one batched product of
  its coefficient rows with V;
- the unique e-th root at a node is prod_i u_i(w^u)^(a_i e^-1 mod q-1), and
  the Lagrange basis there carries 1/f'(w^u) = f'(w^u)^(q-2), so one
  multi-exponentiation gives root/f' with e^-1 folded into each exponent and
  f' as one more base. It is Straus's shared squaring chain with joint
  tables: the bases go in groups of _GROUP, each with a table of its subset
  products, and each exponent bit costs one squaring and one gathered product
  per group;
- with scale_a = root/f' at node x_a the root is sum_a scale_a f(x)/(x - x_a),
  whose coefficient k is r_k = sum_l f_(k+1+l) S_l over the power sums
  S_l = sum_a scale_a x_a^l: one product with V, then one with the Hankel
  matrix of f.

The primes run in blocks whose largest array (V, the Hankel matrices or the
joint tables) has at most _GRID entries, so memory stays bounded however
many terms and primes a root has; a small field takes all its primes in one
block. Primes stay below SPLIT_BITS = 29 bits, so a product of two residues
is below 2^58, and every product above sums at most _CHUNK of them, plus a
residue, between reductions: below 2^63 (tests/test_guards.py checks the
constants).
"""

import math

import numpy as np

from .crtroot import SPLIT_BITS
from .primes import modinv

# 29-bit limbs: limb * residue < 2^58, and 16-term partial sums stay < 2^62
_LIMB = 29
_LIMB_MASK = (1 << _LIMB) - 1
_CHUNK = 16
# entries of the largest array of a block: V, the Hankel matrices, the tables
_GRID = 1 << 18
# bases per joint table of the exponentiation chain, 2^_GROUP entries each
_GROUP = 4


def _to_limbs(values: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Split |values| into base-2^29 limb rows; also return the sign mask."""
    neg = np.array([v < 0 for v in values], dtype=bool)
    mags = [-v if v < 0 else v for v in values]
    width = max(1, max((v.bit_length() + _LIMB - 1) // _LIMB for v in mags)
                if any(mags) else 1)
    shifts = range(0, width * _LIMB, _LIMB)
    rows = [[(v >> s) & _LIMB_MASK for s in shifts] for v in mags]
    return np.array(rows, dtype=np.int64).reshape(len(values), width), neg


def _reduce_limbs(limbs: np.ndarray, neg: np.ndarray,
                  qs: np.ndarray) -> np.ndarray:
    """values[c] mod qs[j] for every pair from _to_limbs(values), shape (C, J)."""
    width = limbs.shape[1]
    powers = np.empty((len(qs), width), dtype=np.int64)
    powers[:, 0] = 1 % qs
    base = (1 << _LIMB) % qs
    for l in range(1, width):
        powers[:, l] = powers[:, l - 1] * base % qs
    out = np.zeros((len(limbs), len(qs)), dtype=np.int64)
    for start in range(0, width, _CHUNK):
        block = limbs[:, start:start + _CHUNK]
        pb = powers[:, start:start + _CHUNK]
        out = (out + np.einsum("cl,jl->cj", block, pb)) % qs
    out[neg] = (qs - out[neg]) % qs
    return out


def _matmul(A: np.ndarray, B: np.ndarray, qs3: np.ndarray) -> np.ndarray:
    """A @ B mod qs[j] for each batch j, from int64 entries below q.

    The sums run over at most _CHUNK products before each reduction.
    """
    out = np.zeros(A.shape[:-1] + B.shape[-1:], dtype=np.int64)
    for s in range(0, A.shape[-1], _CHUNK):
        out += A[..., s:s + _CHUNK] @ B[..., s:s + _CHUNK, :]
        out %= qs3
    return out


def _power_table(ws: np.ndarray, qs2: np.ndarray, m: int) -> np.ndarray:
    """P[j, t] = ws[j]^t mod qs[j] for t < m, doubling the filled prefix."""
    P = np.empty((len(ws), m), dtype=np.int64)
    P[:, 0] = 1
    h, wh = 1, ws[:, None] % qs2  # wh = w^h
    while h < m:
        c = min(h, m - h)
        np.multiply(P[:, :c], wh, out=P[:, h:h + c])
        P[:, h:h + c] %= qs2
        wh = wh * wh % qs2
        h *= 2
    return P


def _multi_pow(bases: np.ndarray, exps: np.ndarray, qs2: np.ndarray) -> np.ndarray:
    """prod_i bases[i, j, t] ** exps[i, j] mod qs[j], for exps >= 0.

    Straus's shared squaring chain with joint tables: the bases, padded with
    ones, go in groups of _GROUP, and table[g, s] holds the product of the
    bases of group g over the bits of s. From the top exponent bit down, a
    step squares once and multiplies in, per group, the entry whose subset
    is the group's bases with that bit set; those entries are gathered at
    once and multiplied by halves.
    """
    k, J, T = bases.shape
    groups = -(-k // _GROUP)
    pad = groups * _GROUP - k
    bases = np.concatenate([bases, np.ones((pad, J, T), dtype=np.int64)])
    exps = np.concatenate([exps, np.zeros((pad, J), dtype=np.int64)])
    table = np.empty((groups, 1 << _GROUP, J, T), dtype=np.int64)
    table[:, 0] = 1
    for i in range(_GROUP):
        h = 1 << i
        np.multiply(table[:, :h], bases[i::_GROUP, None], out=table[:, h:2 * h])
        table[:, h:2 * h] %= qs2
    table = table.reshape(-1, T)
    top = int(exps.max()).bit_length()
    # bits[g, i, b, j]: bit top-1-b of exps[g * _GROUP + i, j], top bit first
    bits = (exps[:, None, :] >> np.arange(top - 1, -1, -1)[:, None]) & 1
    subset = (bits.reshape(groups, _GROUP, top, J)
              << np.arange(_GROUP)[:, None, None]).sum(axis=1)
    # row of table for group g, step b, prime j
    rows = ((np.arange(groups)[:, None, None] << _GROUP) + subset) * J + np.arange(J)
    acc = np.ones((J, T), dtype=np.int64)
    for b in range(top):
        acc *= acc
        acc %= qs2
        acc *= _prod_mod(table[rows[:, b]], qs2)
        acc %= qs2
    return acc


def _prod_mod(X: np.ndarray, qs2: np.ndarray) -> np.ndarray:
    """prod_g X[g] mod qs[j], one product per halving of X."""
    while len(X) > 1:
        h = len(X) // 2
        half = X[:h] * X[h:2 * h] % qs2
        X = np.concatenate([half, X[2 * h:]]) if len(X) % 2 else half
    return X[0]


def _primes_per_block(n: int, m: int, k: int) -> int:
    """Primes per block for k terms on Q(zeta_m), n = phi(m).

    Per prime the largest arrays are V and the Hankel matrix (n x n), the
    power table (m) and the joint tables of the k bases and f' (2^_GROUP
    rows of n per group); a block's primes times that stays within _GRID.
    """
    tables = (1 << _GROUP) * -(-(k + 1) // _GROUP) * n
    return max(1, _GRID // max(n * n, m, tables))


def split_roots_kernel(bases, exps, good_primes, e, K) -> list[list[int]]:
    """Per-prime coordinate vectors of the unique e-th root of prod u_i^a_i.

    bases: FieldElements on the power basis of K = Q(zeta_m); exps: matching
    exponents; good_primes: GoodPrimes of K held as (q, w), below SPLIT_BITS.
    Returns one length-n int list per prime, each the root mod (q, f).
    """
    n, m = K.n, K.conductor
    if m is None:
        raise ValueError("the split kernel needs a cyclotomic field")
    terms = [(u, a) for u, a in zip(bases, exps) if a]
    # the terms' numerators, then f: split into limbs once for every block
    limbs, neg = _to_limbs([c for u, _ in terms for c in u.num] + list(K.f))
    units = [u for u in range(1, m) if math.gcd(u, m) == 1]
    # V[j, k, a] = P[j, k u_a mod m]; H[j, k, l] = f_(k+1+l), 0 past f_n
    vandermonde = np.outer(np.arange(n), units) % m
    hankel = np.arange(n)[:, None] + np.arange(1, n + 1)
    step = _primes_per_block(n, m, len(terms))
    out = []
    for s in range(0, len(good_primes), step):
        out += _split_block(terms, limbs, neg, good_primes[s:s + step], e, m,
                            vandermonde, hankel)
    return out


def _split_block(terms, limbs, neg, good_primes, e: int, m: int,
                 vandermonde: np.ndarray, hankel: np.ndarray) -> list[list[int]]:
    """split_roots_kernel on one block of primes."""
    n, k = len(vandermonde), len(terms)
    qs = np.array([gp.q for gp in good_primes], dtype=np.int64)
    if qs.max() >> SPLIT_BITS:
        raise ValueError(f"split primes must stay below 2^{SPLIT_BITS}")
    qs2, qs3 = qs[:, None], qs[:, None, None]
    R = _reduce_limbs(limbs, neg, qs)
    F = R[k * n:].T  # f's coefficients, (primes, n + 1)
    P = _power_table(np.array([gp.w for gp in good_primes], dtype=np.int64),
                     qs2, m)
    # f(w) = 0 mod q makes w a primitive m-th root of 1: the prime is K's
    if _matmul(P[:, None, :n + 1], F[:, :, None], qs3).any():
        raise ValueError("each prime must supply a root of f")
    V = P[:, vandermonde]
    # rows[j, i]: the coefficients of base i at prime j, the terms and then f'
    deriv = np.arange(1, n + 1) * F[:, 1:] % qs2
    rows = np.concatenate([R[:k * n].reshape(k, n, len(qs)).transpose(2, 0, 1),
                           deriv[:, None]], axis=1)
    vals = np.ascontiguousarray(_matmul(rows, V, qs3).transpose(1, 0, 2))

    ql = qs.tolist()
    for i, (u, _) in enumerate(terms):
        if u.den != 1:
            dinv = np.array([modinv(u.den, q) for q in ql], dtype=np.int64)
            vals[i] = vals[i] * dinv[:, None] % qs2
    einv = [modinv(e, q - 1) for q in ql]
    pows = [[a * r % (q - 1) for q, r in zip(ql, einv)] for _, a in terms]
    scale = _multi_pow(vals, np.array(pows + [[q - 2 for q in ql]],
                                      dtype=np.int64), qs2)
    # a base vanishing at a node puts y, and so its root, in that ideal
    scale[(vals[:k] == 0).any(axis=0)] = 0
    S = _matmul(V, scale[:, :, None], qs3)
    H = np.concatenate([F, np.zeros((len(qs), n - 1), dtype=np.int64)],
                       axis=1)[:, hankel]
    return _matmul(H, S, qs3)[:, :, 0].tolist()
