"""The three seeded workloads: fields, warm-up, job lists and their oracles.

Every job calls the public API through the package attribute (`ethroot.eth_root`,
`ethroot.saturate`), looked up at call time so a traced pass sees the wrapper.
Each job carries an exact check against an answer planted while the inputs
were built; checks run outside the timed region. See README.md for why each
workload exists and which layers it stresses.
"""

import random
from dataclasses import dataclass
from typing import Callable

import ethroot as et


@dataclass
class Job:
    run: Callable[[], object]  # one eth_root or saturate call
    check: Callable[[object], bool]  # exact planted-answer comparison


def _is_prime(n: int) -> bool:
    # the benchmark's own test, so inputs never change with library helpers;
    # Miller-Rabin with the first 13 prime bases is exact below 3.3e24
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _random_prime(rng, bits: int) -> int:
    while True:
        n = rng.randrange(1 << (bits - 1), 1 << bits) | 1
        if _is_prime(n):
            return n


def _element(K, rng, bits: int):
    """Nonzero element with coefficients in (-2^bits, 2^bits)."""
    while True:
        c = [rng.randrange(-(1 << bits) + 1, 1 << bits) for _ in range(K.n)]
        if any(c):
            return K.element(c)


def _planted_power(K, e, x, method, seed) -> Job:
    xe = x ** e
    req = et.RootRequest(K, e, et.FactoredElement(K, [(xe, 1)]),
                         method=method, seed=seed)
    # a bad field holds e-th roots of unity, so only the e-th power is fixed
    return Job(lambda: et.eth_root(req), lambda res: res.root ** e == xe)


def warm_up(fields: dict):
    """Fill each field's caches (embeddings, cinf) with one tiny root.

    The exponent is the smallest prime the field is good for, so the root
    takes the cheap double_crt path whatever the workload's own exponent.
    """
    for K in fields.values():
        e = next(p for p in (3, 5, 7) if (K.conductor or 1) % p)
        x = K.element([1, 1])
        et.eth_root(et.RootRequest(K, e, et.FactoredElement(K, [(x ** e, 1)])))


class CrtLarge:
    """The criterion-5 construction, one ± pair per root: double_crt."""

    M = 31
    E_BITS = 40
    # (roots per pass, pairs per root, coefficient bits)
    ROOTS, PAIRS, BITS = 6, 1, 200

    def fields(self):
        return {self.M: et.NumberField.cyclotomic(self.M)}

    def jobs(self, fields, seed: int, smoke: bool) -> list:
        K = fields[self.M]
        rng = random.Random(f"crt_large:{seed}")
        roots, bits = (1, 16) if smoke else (self.ROOTS, self.BITS)
        return [self._job(K, rng, self.PAIRS, bits) for _ in range(roots)]

    def _job(self, K, rng, pairs: int, bits: int) -> Job:
        e = _random_prime(rng, self.E_BITS)
        terms, root = [], K.one
        for _ in range(pairs):
            u = _element(K, rng, bits)
            a = rng.randrange(1, e)
            # u^a (-u)^(e-a) = ((-1)^(e-a) u)^e for odd e
            terms += [(u, a), (-u, e - a)]
            root = root * (u if (e - a) % 2 == 0 else -u)
        # e does not divide 2*31, so the root is unique
        req = et.RootRequest(K, e, et.FactoredElement(K, terms))
        return Job(lambda: et.eth_root(req), lambda res: res.root == root)


class BadFields:
    """Planted x^e on bad fields: couveignes, padic and forced reconstruct."""

    # (conductor, e, coefficient bits, method, jobs per pass)
    CASES = (
        (12, 3, 3, "auto", 3),
        (9, 3, 40, "auto", 3),
        (8, 3, 30, "reconstruct", 3),
    )

    def fields(self):
        return {m: et.NumberField.cyclotomic(m) for m, *_ in self.CASES}

    def jobs(self, fields, seed: int, smoke: bool) -> list:
        rng = random.Random(f"bad_fields:{seed}")
        out = []
        # each call's library seed is its slot in the list: --seed varies the
        # elements, not the library's prime streams, whose luck would swamp
        # the seed-to-seed spread
        for m, e, bits, method, count in self.CASES:
            K = fields[m]
            for _ in range(1 if smoke else count):
                out.append(_planted_power(K, e, _element(K, rng, bits), method,
                                          len(out)))
        return out


class SaturateMixed:
    """saturate on sets whose relations all need a real root."""

    GENERIC = (-1, -1, 0, 1)  # x^3 - x - 1, Galois group S_3
    # (field key, e, prime dividing e, sets per pass)
    CASES = ((4, 3, 3, 2), (4, 25, 5, 2), (16, 3, 3, 2), (16, 5, 5, 2),
             ("x3-x-1", 3, 3, 2), ("x3-x-1", 5, 5, 2))
    RANDOM_BASIS, HIDDEN, BITS = 2, 1, 10

    def fields(self):
        return {
            4: et.NumberField.cyclotomic(4),
            16: et.NumberField.cyclotomic(16),
            "x3-x-1": et.NumberField(list(self.GENERIC)),
        }

    def jobs(self, fields, seed: int, smoke: bool) -> list:
        rng = random.Random(f"saturate_mixed:{seed}")
        out = []  # library seeds are slots, as in BadFields
        for key, e, ell, count in self.CASES:
            for _ in range(1 if smoke else count):
                out.append(self._job(fields[key], e, ell, rng, len(out)))
        return out

    def _job(self, K, e, ell, rng, seed) -> Job:
        basis = [_element(K, rng, self.BITS) for _ in range(self.RANDOM_BASIS)]
        U = list(basis)
        for _ in range(self.HIDDEN):
            # w^e times a basis product: an e-th power only up to the basis,
            # so every relation that uses it needs a genuine root
            h = _element(K, rng, self.BITS) ** e
            for b in basis:
                h = h * b ** rng.randrange(2)
            U.append(h)
        # one generator per basis element, E invertible mod e: no nonzero
        # combination of generators has all exponents divisible by e, so no
        # relation reduces to bookkeeping without a root
        while True:
            E = [[rng.randrange(3) for _ in U] for _ in U]
            if _invertible_mod(E, ell):
                break
        G = et.GeneratingSet(U, E)

        def check(relations) -> bool:
            # the hidden elements give the set relations, so never empty
            return bool(relations) and all(
                _relation_holds(K, U, E, e, alpha, res.root)
                for alpha, res in relations)

        return Job(lambda: et.saturate(G, e, K, seed=seed), check)


def _invertible_mod(M, p: int) -> bool:
    """Whether the square integer matrix M is invertible mod the prime p."""
    rows = [[c % p for c in row] for row in M]
    for col in range(len(rows)):
        i = next((i for i in range(col, len(rows)) if rows[i][col]), None)
        if i is None:
            return False
        rows[col], rows[i] = rows[i], rows[col]
        pivot = rows[col]
        inv = pow(pivot[col], -1, p)
        for r in rows[col + 1:]:
            f = r[col] * inv % p
            r[:] = [(a - f * b) % p for a, b in zip(r, pivot)]
    return True


def _relation_holds(K, U, E, e, alpha, root) -> bool:
    """root^e * (negative-exponent part) == positive-exponent part, exactly."""
    pos, neg = K.one, K.one
    for j, u in enumerate(U):
        a = sum(alpha[i] * E[i][j] for i in range(len(E)))
        if a > 0:
            pos = pos * u ** a
        elif a < 0:
            neg = neg * u ** -a
    return root ** e * neg == pos


WORKLOADS = {
    "crt_large": CrtLarge(),
    "bad_fields": BadFields(),
    "saturate_mixed": SaturateMixed(),
}
