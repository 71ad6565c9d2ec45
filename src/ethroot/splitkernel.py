"""Vectorized all-split path for double-CRT roots.

When every selected prime is totally split in a cyclotomic field, each prime
contributes phi(m) linear ideals whose residues are plain evaluations at the
primitive m-th roots of unity mod q. Everything then vectorizes across
(primes x roots) int64 grids: Horner evaluation, exponent folding, the unique
e-th root, and Lagrange interpolation back to coordinates. Primes stay below
29 bits so a product of two residues fits comfortably in int64.
"""

import numpy as np

from .primes import modinv

# 29-bit limbs: limb * residue < 2^58, and 16-term partial sums stay < 2^62
_LIMB = 29
_LIMB_MASK = (1 << _LIMB) - 1
_CHUNK = 16


def _to_limbs(values: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Split |values| into base-2^29 limb rows; also return the sign mask."""
    neg = np.array([v < 0 for v in values], dtype=bool)
    mags = [-v if v < 0 else v for v in values]
    width = max(1, max((v.bit_length() + _LIMB - 1) // _LIMB for v in mags)
                if any(mags) else 1)
    rows = np.empty((len(values), width), dtype=np.int64)
    for i, v in enumerate(mags):
        for l in range(width):
            rows[i, l] = v & _LIMB_MASK
            v >>= _LIMB
    return rows, neg


def _reduce_coeffs(coeffs: list[int], qs: np.ndarray) -> np.ndarray:
    """coeffs[c] mod qs[j] for every pair, shape (len(coeffs), J)."""
    limbs, neg = _to_limbs(coeffs)
    width = limbs.shape[1]
    powers = np.empty((len(qs), width), dtype=np.int64)
    powers[:, 0] = 1 % qs
    base = (1 << _LIMB) % qs
    for l in range(1, width):
        powers[:, l] = powers[:, l - 1] * base % qs
    out = np.zeros((len(coeffs), len(qs)), dtype=np.int64)
    for start in range(0, width, _CHUNK):
        block = limbs[:, start:start + _CHUNK]
        pb = powers[:, start:start + _CHUNK]
        out = (out + np.einsum("cl,jl->cj", block, pb)) % qs
    out[neg] = (qs - out[neg]) % qs
    return out


def _pow_rows(base: np.ndarray, exps: np.ndarray, qs2: np.ndarray) -> np.ndarray:
    """base[j,t] ** exps[j] mod qs[j], square-and-multiply on shared bits."""
    acc = np.ones_like(base)
    b = base % qs2
    ex = exps.copy()
    while ex.any():
        mask = (ex & 1).astype(bool)
        if mask.any():
            acc[mask] = acc[mask] * b[mask] % qs2[mask]
        ex >>= 1
        if ex.any():
            b = b * b % qs2
    return acc


def _horner_eval(rows: np.ndarray, W: np.ndarray, qs2: np.ndarray) -> np.ndarray:
    """Evaluate sum_c rows[c, j] x^c at x = W[j, t], shape (J, T)."""
    acc = np.zeros_like(W)
    for c in range(rows.shape[0] - 1, -1, -1):
        acc = (acc * W + rows[c][:, None]) % qs2
    return acc


def split_roots_kernel(bases, exps, good_primes, e, K) -> list[list[int]]:
    """Per-prime coordinate vectors of the unique e-th root of prod u_i^a_i.

    bases: FieldElements on the power basis; exps: matching exponents;
    good_primes: all-split GoodPrime list. Returns one length-n int list per
    prime, each the root mod (q, f).
    """
    n = K.n
    qs = np.array([gp.q for gp in good_primes], dtype=np.int64)
    qs2 = qs[:, None]
    W = np.array([gp.split_roots() for gp in good_primes], dtype=np.int64)
    if W.shape[1] != n:
        raise ValueError("each prime must supply deg f split roots")
    ords = qs - 1

    prod = np.ones_like(W)
    zero_mask = np.zeros(W.shape, dtype=bool)
    for u, a in zip(bases, exps):
        if a == 0:
            continue
        rows = _reduce_coeffs(list(u.num), qs)
        vals = _horner_eval(rows, W, qs2)
        if u.den != 1:
            dinv = np.array([modinv(u.den % int(q), int(q)) for q in qs],
                            dtype=np.int64)
            vals = vals * dinv[:, None] % qs2
        hit = vals == 0
        zero_mask |= hit
        vals[hit] = 1
        ared = np.array([a % int(o) for o in ords], dtype=np.int64)
        prod = prod * _pow_rows(vals, ared, qs2) % qs2
    prod[zero_mask] = 0

    roots = _pow_rows(prod, np.array([modinv(e, int(o)) for o in ords],
                                     dtype=np.int64), qs2)
    return _interpolate(roots, W, qs, K)


def _interpolate(vals: np.ndarray, W: np.ndarray, qs: np.ndarray,
                 K) -> list[list[int]]:
    """Coefficients of the degree < n polynomial through (W[j,t], vals[j,t]).

    Uses the Lagrange form with f = the field polynomial: the basis numerator
    at node w is f(x)/(x - w), computed by synthetic division and accumulated
    row by row, scaled by vals / f'(w).
    """
    J, T = W.shape
    qs2 = qs[:, None]
    F = _reduce_coeffs(list(K.f), qs)

    # f'(w) by Horner on the derivative
    dacc = np.zeros_like(W)
    for k in range(F.shape[0] - 1, 0, -1):
        dacc = (dacc * W + (k * F[k] % qs)[:, None]) % qs2

    scale = vals * _pow_rows(dacc, qs - 2, qs2) % qs2

    out = np.zeros((J, T), dtype=np.int64)
    C = np.ones_like(W)  # quotient coefficient c_{n-1} = lc(f) = 1
    out[:, T - 1] = (scale * C % qs2).sum(axis=1) % qs
    for k in range(T - 2, -1, -1):
        C = (C * W + F[k + 1][:, None]) % qs2
        out[:, k] = (scale * C % qs2).sum(axis=1) % qs
    return out.tolist()
