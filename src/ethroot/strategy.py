"""Method dispatch: pick a root algorithm from the field/exponent arithmetic.

Order on auto: double-CRT when some prime sees no e-th roots of unity in any
residue field; inert-prime Hensel lifting when one exists; the relative
Couveignes recursion when a cyclotomic tower exists; prime-ideal lattice
reconstruction, which applies to every field, as the last resort. Each
runner checks its own admissibility and raises NotApplicable, so auto never
runs an inapplicable method, and a genuine failure falls through to the next
method before NotAnEthPower is reported. Every backend runs at its library
defaults. Each call opens one counters.record(), which the backends fill and
the result returns as stats["counters"].
"""

import time
from dataclasses import dataclass

from .counters import record
from .couveignes import build_tower, eth_root_couveignes
from .crtroot import eth_root_double_crt, is_bad_field
from .errors import (
    EthrootError,
    IncompatibleFields,
    NotAnEthPower,
    NotApplicable,
)
from .fq import factor_mod_p  # noqa: F401, wrapped at this module by layerbench
from .numfield import (
    FactoredElement,
    FieldElement,
    NumberField,
    PrimeIdealRep,
    SubfieldEmbedding,
    avoid_integers,
    normalize_exponents,
)
from .padic import eth_root_padic, eth_root_padic_reconstruct, find_inert_prime
from .primes import OddPrimePower, derive_rng, prime_stream

METHODS = ("auto", "double_crt", "padic", "reconstruct", "couveignes")

RECONSTRUCT_PRIME_BITS = 16
RECONSTRUCT_BUDGET = 200  # prime draws of pick_reconstruct_ideal


@dataclass
class RootRequest:
    """What to take the root of and how.

    method is "auto" or one backend of METHODS; seed fixes every prime the
    backends draw, so equal requests give equal results.
    """

    K: NumberField
    e: int
    y: FactoredElement
    method: str = "auto"
    seed: int = 0


@dataclass
class RootResult:
    """root^e multiplies back to the requested y.

    prefactor is the factored part split off by exponent normalization
    (term exponents floor(a_i/e)); its value is already folded into root,
    it is kept so callers can see how much of the root was bookkeeping.
    Beware that folding expands the prefactor, so requests with huge term
    exponents pay for the expansion here.

    stats is the record of this call alone: "seconds", the "failures" of the
    backends auto tried before method_used, and "counters", the nonzero work
    counts {"crt": ..., "padic": ..., "couveignes": ...} of its backends.
    """

    prefactor: FactoredElement
    root: FieldElement
    method_used: str
    stats: dict


def pick_reconstruct_ideal(K: NumberField, e: int, seed: int = 0,
                           avoid=()) -> PrimeIdealRep:
    """An unramified prime ideal for the lattice backend.

    Samples small primes prime to e and avoid, and returns the last (largest
    degree) ideal above the first unramified one: larger residue degree means
    lower p-adic precision for the same lattice volume. SearchExhausted after
    RECONSTRUCT_BUDGET prime draws.
    """
    rng = derive_rng(seed, "reconstruct-ideal")
    for p in prime_stream(rng, RECONSTRUCT_PRIME_BITS, avoid=(*avoid, e),
                          budget=RECONSTRUCT_BUDGET):
        ideals = K.prime_ideals(p)
        if ideals is not None:
            return ideals[-1]


def _tower_root(y_level: FactoredElement, levels: tuple, level: int, e: int,
                seed: int) -> FieldElement:
    """Root of y_level inside levels[level], recursing down the chain."""
    top = levels[level]
    if level == len(levels) - 1:
        return _base_root(y_level, top, e, seed)
    emb = SubfieldEmbedding.cyclotomic(top, levels[level + 1].conductor)

    def solver(y_sub: FactoredElement) -> FieldElement:
        return _tower_root(y_sub, levels, level + 1, e, seed)

    return eth_root_couveignes(y_level, e, top, emb, solver, seed=seed + level)


def _base_root(y: FactoredElement, L: NumberField, e: int,
               seed: int) -> FieldElement:
    """Root in the tower's base: padic at an inert prime, else reconstruct."""
    try:
        return run_padic(y, L, e, seed)
    except NotApplicable:
        # no inert prime: a non-cyclic (Z/m)* has none, and find_inert_prime
        # says so before it draws; a cyclic one has some, but the budget ran dry
        pass
    return run_reconstruct(y, L, e, seed)


# -- backend runners: (y, K, e, seed) -> root, or NotApplicable ----------------


def run_double_crt(y: FactoredElement, K: NumberField, e: int,
                   seed: int) -> FieldElement:
    # Q(zeta_m)'s verdict is exact and walks no prime; a generic K's is the
    # first primes of the double CRT's own walk, which the root reads itself
    if K.conductor is not None and is_bad_field(K, e, seed=seed):
        raise NotApplicable("every prime sees e-th roots of unity")
    return eth_root_double_crt(y, e, K, seed=seed)


def run_padic(y: FactoredElement, K: NumberField, e: int,
              seed: int) -> FieldElement:
    avoid = avoid_integers([u for u, _ in y.terms])
    p = find_inert_prime(K, e, seed=seed, avoid=avoid)
    if p is None:
        raise NotApplicable("no inert prime found")
    return eth_root_padic(y, e, K, p, seed=seed)


def run_couveignes(y: FactoredElement, K: NumberField, e: int,
                   seed: int) -> FieldElement:
    if K.conductor is None or K.conductor % e != 0:
        raise NotApplicable("tower construction needs a cyclotomic bad case")
    return _tower_root(y, build_tower(K, e), 0, e, seed)


def run_reconstruct(y: FactoredElement, K: NumberField, e: int,
                    seed: int) -> FieldElement:
    avoid = avoid_integers([u for u, _ in y.terms])
    pil = pick_reconstruct_ideal(K, e, seed=seed, avoid=avoid)
    return eth_root_padic_reconstruct(y, e, K, pil, seed=seed)


RUNNERS = {
    "double_crt": run_double_crt,
    "padic": run_padic,
    "couveignes": run_couveignes,
    "reconstruct": run_reconstruct,
}


def eth_root(req: RootRequest) -> RootResult:
    """Strategy entry point: normalize exponents, dispatch, return the root.

    auto tries double_crt, padic, couveignes, reconstruct in that order,
    skipping inapplicable ones; reconstruct applies to every field, so
    NotAnEthPower means every applicable method ran and failed. Unsupported
    is raised only for an exponent that is not an odd prime power. An
    explicitly requested method propagates its own errors unchanged.
    """
    e = OddPrimePower(req.e)  # the one test of e; the backends reuse it
    if req.method not in METHODS:
        raise ValueError(f"unknown method {req.method!r}")
    K, seed = req.K, req.seed
    if req.y.field != K:
        raise IncompatibleFields("request element does not live in K")
    prefactor, residual = normalize_exponents(req.y, e)
    if req.method == "auto":
        plan = list(RUNNERS.items())
    else:
        plan = [(req.method, RUNNERS[req.method])]

    t0 = time.perf_counter()
    failures: list[str] = []
    with record() as counts:
        for name, backend in plan:
            try:
                root = backend(residual, K, e, seed)
            except NotApplicable as exc:
                if req.method != "auto":
                    raise
                failures.append(f"{name}: not applicable: {exc}")
                continue
            except EthrootError as exc:
                if req.method != "auto":
                    raise
                failures.append(f"{name}: {type(exc).__name__}: {exc}")
                continue
            if prefactor.terms:
                root = prefactor.value() * root
            stats = {
                "seconds": time.perf_counter() - t0,
                "failures": failures,
                "counters": {group: {k: v for k, v in tally.items() if v}
                             for group, tally in counts.items() if any(tally.values())},
            }
            return RootResult(prefactor, root, name, stats)
    raise NotAnEthPower("; ".join(failures))
