"""Vectorized all-split path for double-CRT roots.

When every selected prime is totally split in a cyclotomic field, each prime
contributes phi(m) linear ideals whose residues are plain evaluations at the
primitive m-th roots of unity w mod q. Everything then vectorizes across
(bases x primes x nodes) int64 grids:

- one Horner pass evaluates every base, and f', at every node;
- the unique e-th root at w is prod_i u_i(w)^(a_i e^-1 mod q-1), and the
  Lagrange basis at w carries 1/f'(w) = f'(w)^(q-2), so one
  multi-exponentiation gives root(w)/f'(w) with e^-1 folded into each
  exponent and f'(w) as one more base. It is Straus's shared squaring chain:
  per exponent bit, one squaring and one masked product per base;
- synthetic division by x - w gives the Lagrange numerators, and one
  broadcast sum interpolates the coordinates.

The primes run in blocks whose largest array has at most _GRID entries, one
chain per block, so memory stays bounded however many terms and primes a
root has; a small field takes all its primes in one block. Primes stay below
SPLIT_BITS = 29 bits, so a product of two residues is below 2^58 and fits
in int64 with room for the sums below (tests/test_guards.py checks the
constants).
"""

import numpy as np

from .primes import modinv

# 29-bit limbs: limb * residue < 2^58, and 16-term partial sums stay < 2^62
_LIMB = 29
_LIMB_MASK = (1 << _LIMB) - 1
_CHUNK = 16
# entries of the largest (bases or coefficients) x primes x nodes array
_GRID = 1 << 18


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


def _horner_eval(rows: np.ndarray, W: np.ndarray, qs2: np.ndarray) -> np.ndarray:
    """Evaluate sum_c rows[c, i, j] x^c at x = W[j, t], shape (I, J, T)."""
    acc = np.zeros((rows.shape[1],) + W.shape, dtype=np.int64)
    for row in rows[::-1]:
        acc *= W
        acc += row[:, :, None]
        acc %= qs2
    return acc


def _multi_pow(bases: np.ndarray, exps: np.ndarray, qs2: np.ndarray) -> np.ndarray:
    """prod_i bases[i, j, t] ** exps[i, j] mod qs[j], for exps >= 0.

    Straus's shared squaring chain: the bits from the top, one squaring per
    bit, then each base multiplies in at the primes whose exponent has the bit.
    """
    acc = np.ones_like(bases[0])
    for bit in range(int(exps.max()).bit_length() - 1, -1, -1):
        acc = acc * acc % qs2
        for base, on in zip(bases, ((exps >> bit) & 1).astype(bool)):
            acc = np.where(on[:, None], acc * base % qs2, acc)
    return acc


def split_roots_kernel(bases, exps, good_primes, e, K) -> list[list[int]]:
    """Per-prime coordinate vectors of the unique e-th root of prod u_i^a_i.

    bases: FieldElements on the power basis; exps: matching exponents;
    good_primes: all-split GoodPrime list. Returns one length-n int list per
    prime, each the root mod (q, f).
    """
    n = K.n
    terms = [(u, a) for u, a in zip(bases, exps) if a]
    # the terms' numerators, then f: split into limbs once for every block
    limbs, neg = _to_limbs([c for u, _ in terms for c in u.num] + list(K.f))
    step = max(1, _GRID // (n * max(n, len(terms) + 1)))
    out = []
    for s in range(0, len(good_primes), step):
        out += _split_block(terms, limbs, neg, good_primes[s:s + step], e, n)
    return out


def _split_block(terms, limbs, neg, good_primes, e: int, n: int) -> list[list[int]]:
    """split_roots_kernel on one block of primes."""
    qs = np.array([gp.q for gp in good_primes], dtype=np.int64)
    qs2 = qs[:, None]
    W = np.array([gp.split_roots() for gp in good_primes], dtype=np.int64)
    if W.shape[1] != n:
        raise ValueError("each prime must supply deg f split roots")
    k = len(terms)
    R = _reduce_limbs(limbs, neg, qs)
    F = R[k * n:]  # f's coefficients
    # rows[c, i]: coefficient c of base i, the terms and then f'
    deriv = np.arange(1, n + 1)[:, None] * F[1:] % qs
    rows = np.concatenate([R[:k * n].reshape(k, n, len(qs)).transpose(1, 0, 2),
                           deriv[:, None]], axis=1)
    vals = _horner_eval(rows, W, qs2)

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
    return _interpolate(scale, W, F, qs2)


def _interpolate(scale: np.ndarray, W: np.ndarray, F: np.ndarray,
                 qs2: np.ndarray) -> list[list[int]]:
    """Coefficients of sum_t scale[j, t] f(x) / (x - W[j, t]) mod qs[j].

    With scale = root / f'(w) this is the Lagrange form of the degree < n
    polynomial through (w, root(w)). The quotient f(x) / (x - w) has
    coefficients c_(n-1) = lc(f) = 1, c_k = c_(k+1) w + f_(k+1) by synthetic
    division; the rows are stacked and reduced in one broadcast sum.
    """
    n = W.shape[1]
    C = np.empty((n,) + W.shape, dtype=np.int64)
    C[n - 1] = 1
    for k in range(n - 2, -1, -1):
        np.multiply(C[k + 1], W, out=C[k])
        C[k] += F[k + 1][:, None]
        C[k] %= qs2
    C *= scale
    C %= qs2
    return (C.sum(axis=2) % qs2.T).T.tolist()
