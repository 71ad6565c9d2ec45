"""Small integer number theory: primality, prime powers, CRT, orders.

All functions work on plain Python ints and are deterministic. Randomized
search helpers take an explicit random.Random.
"""

from __future__ import annotations

import math
import random

from .errors import SearchExhausted, Unsupported

# Miller-Rabin with the first k prime bases is exact below psi_k, the least
# strong pseudoprime to all of them (OEIS A014233; Jaeschke, Math. Comp. 1993;
# Sorenson and Webster, Math. Comp. 2017):
#   psi_4  = 3215031751                  (~3.2e9)
#   psi_7  = 341550071728321             (~3.4e14, also psi_8)
#   psi_12 = 318665857834031151167461    (~3.2e23)
#   psi_13 = 3317044064679887385961981   (~3.3e24)
# From psi_7 up to 2^64, Jim Sinclair's seven bases (2011, the record set
# listed at miller-rabin.appspot.com) are exact, in place of the 9 or 12
# prime bases; each is below psi_7, so none is 0 mod n. is_prime takes the
# first tier whose bound exceeds n. Every modulus this package samples
# stays under 2^64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_SINCLAIR_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
_MR_TIERS = ((3215031751, _MR_BASES[:4]), (341550071728321, _MR_BASES[:7]),
             (1 << 64, _SINCLAIR_BASES),
             (318665857834031151167461, _MR_BASES[:12]),
             (3317044064679887385961981, _MR_BASES))
_PSI_13 = _MR_TIERS[-1][0]

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def is_prime(n: int) -> bool:
    """Exact below psi_13 (strong tests at the bases of the table above);
    above it Baillie-PSW, which has no known counterexample."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    # above psi_13, Baillie-PSW: the strong base-2 test, then Lucas
    bases = next((b for bound, b in _MR_TIERS if n < bound), (2,))
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _PSI_13 or _strong_lucas(n)


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of odd n > 53 with Selfridge's
    parameters: D the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1,
    Q = (1 - D)/4."""
    if math.isqrt(n) ** 2 == n:
        return False  # no such D exists
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    half = (n + 1) // 2  # 1/2 mod n
    # U_k, V_k, Q^k mod n, from k = 1 up to k = d by doubling and k -> k + 1
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = (U + V) * half % n, (D * U + V) * half % n, Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def prime_stream(rng: random.Random, bits: int, modulus: int = 1, avoid=(), *,
                 budget: int):
    """Yield distinct random primes q in [2^(bits-1), 2^bits), q = 1 mod modulus.

    The one candidate loop of the package. With modulus 1 a candidate is an
    odd number of the range; otherwise it is modulus * t + 1 with t drawn so
    that q stays in the range. Primes dividing a nonzero integer of avoid
    are skipped. After budget primes have been drawn (repeats and skipped
    ones included; composites are not counted) SearchExhausted is raised.
    The draws stay on rng, so a caller may draw from it between two yields
    and the stream still replays under a seed.
    """
    if bits < 2:
        raise ValueError("prime_stream needs bits >= 2")
    if modulus == 1:
        lo, hi = 1 << (bits - 1), 1 << bits

        def draw():
            return rng.randrange(lo, hi) | 1
    else:
        lo, hi = t_range(bits, modulus)

        def draw():
            return rng.randrange(lo, hi) * modulus + 1
    avoid = [a for a in avoid if a]
    seen = set()
    drawn = 0
    while drawn < budget:
        q = draw()
        if not is_prime(q):
            continue
        drawn += 1
        if q in seen or any(a % q == 0 for a in avoid):
            continue
        seen.add(q)
        yield q
    raise SearchExhausted(f"no usable prime in {budget} prime draws")


def t_range(bits: int, modulus: int) -> tuple[int, int]:
    """(lo, hi): every t in [lo, hi) puts q = modulus * t + 1 in
    [2^(bits-1), 2^bits). Raises ValueError when that range is empty."""
    lo = ((1 << (bits - 1)) - 1) // modulus + 1
    hi = ((1 << bits) - 1) // modulus
    if hi <= lo:
        raise ValueError(f"no {bits}-bit range of q = 1 mod {modulus}")
    return lo, hi


def iroot(n: int, k: int) -> int:
    """Floor of the integer k-th root of n >= 0."""
    if n < 0 or k < 1:
        raise ValueError("iroot needs n >= 0, k >= 1")
    if n < 2 or k == 1:
        return n
    x = 1 << (-(-n.bit_length() // k))  # upper start
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


class OddPrimePower(int):
    """An exponent e = l^k, l an odd prime: the one test and split of e.

    The test runs once, when the value is made, and split holds (l, k), so a
    caller that validates e and passes this down spares every layer below
    the test. Raises Unsupported for any other e. Arithmetic on it gives
    plain ints.
    """

    def __new__(cls, e: int) -> "OddPrimePower":
        if isinstance(e, OddPrimePower):
            return e
        # k = 1 first: a prime e costs one is_prime; a prime power has one split
        ks = range(1, e.bit_length() + 1) if e > 1 else ()
        split = next(((r, k) for k in ks
                      if (r := iroot(e, k)) ** k == e and is_prime(r)), None)
        if split is None:
            raise Unsupported(f"e = {e} is not a prime power")
        if split[0] == 2:
            raise Unsupported("even e is out of scope")
        self = super().__new__(cls, e)
        self.split = split
        return self


def modinv(a: int, m: int) -> int:
    try:
        return pow(a, -1, m)
    except ValueError:
        raise ValueError(f"{a} not invertible mod {m}") from None


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division + Pollard rho. For moduli-sized n."""
    if n < 1:
        raise ValueError("factorize needs n >= 1")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return out


def _pollard_rho(n: int) -> int:
    if n % 2 == 0:
        return 2
    rng = random.Random(n)
    while True:
        x = rng.randrange(2, n)
        y, c, d = x, rng.randrange(1, n), 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d


def euler_phi(n: int) -> int:
    phi = 1
    for p, k in factorize(n).items():
        phi *= (p - 1) * p ** (k - 1)
    return phi


def multiplicative_order(a: int, m: int) -> int:
    """Order of a in (Z/m)^*. Requires gcd(a, m) = 1."""
    a %= m
    if math.gcd(a, m) != 1:
        raise ValueError(f"{a} not a unit mod {m}")
    order = euler_phi(m)
    for p in sorted(factorize(order)):
        while order % p == 0 and pow(a, order // p, m) == 1:
            order //= p
    return order


def is_cyclic_unit_group(m: int) -> bool:
    """Whether (Z/m)^* is cyclic: m in {1, 2, 4, p^k, 2 p^k} for odd p."""
    if m in (1, 2, 4):
        return True
    if m % 2 == 0:
        m //= 2
        if m % 2 == 0:
            return False
    fac = factorize(m)
    return len(fac) == 1 and 2 not in fac


def derive_rng(seed: int, tag: str) -> random.Random:
    """Independent deterministic stream for (seed, tag)."""
    return random.Random(f"{seed}:{tag}")
