"""Command line surface: root extraction, power detection, benchmarks.

Documents are JSON with every integer rendered as a decimal string, so no
consumer ever sees a rounded coefficient. Exit codes: 0 success, 2 input is
not an e-th power, 3 parse/validation problems, 4 search budget exhausted.
"""

import argparse
import csv
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from .errors import BudgetExceeded, EthrootError, NotAnEthPower, SearchExhausted
from .crtroot import eth_root_double_crt
from .numfield import FactoredElement, NumberField
from .primes import OddPrimePower, derive_rng
from .saturation import GeneratingSet, detect_eth_powers
from .strategy import METHODS, RootRequest, eth_root
from .verify import verify_root

EXIT_OK = 0
EXIT_NOT_A_POWER = 2
EXIT_PARSE = 3
EXIT_BUDGET = 4

DEFAULT_SEED = 0

# suite -> (method, default m grid, e grid, bits grid)
BENCH_SUITES = {
    "crt-scaling": ("double_crt", (8, 16, 32), (3,), (50,)),
    "couveignes-scaling": ("couveignes", (15, 45), (3,), (20,)),
    "exponent-insensitivity": ("double_crt", (16,), (3, 13099), (50,)),
    "saturation-analog": ("saturate", (4,), (3, 5), (3,)),
}
CSV_HEADER = ("method", "m", "n", "e", "bits", "seconds", "verified")


# -- document plumbing ---------------------------------------------------------


def _int(v) -> int:
    if isinstance(v, bool):
        raise ValueError(f"expected an integer, got {v!r}")
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        return int(v, 10)
    raise ValueError(f"expected an integer or decimal string, got {v!r}")


def _field_from_doc(doc) -> NumberField:
    if not isinstance(doc, dict):
        raise ValueError("field descriptor must be an object")
    if "conductor" in doc:
        return NumberField.cyclotomic(_int(doc["conductor"]))
    if "poly" in doc:
        return NumberField([_int(c) for c in doc["poly"]])
    raise ValueError("field descriptor needs 'conductor' or 'poly'")


def _element_from_doc(K: NumberField, doc):
    return K.element([_int(c) for c in doc["coeffs"]], _int(doc.get("den", 1)))


def _factored_from_doc(K: NumberField, terms) -> FactoredElement:
    if not isinstance(terms, list):
        raise ValueError("element must be a list of factored terms")
    pairs = [(_element_from_doc(K, t), _int(t.get("exp", 1))) for t in terms]
    return FactoredElement(K, pairs)


def _element_doc(x) -> dict:
    return {"coeffs": [str(c) for c in x.num], "den": str(x.den)}


def _term_docs(y: FactoredElement) -> list:
    return [dict(_element_doc(u), exp=str(a)) for u, a in y.terms]


def _write_lines(docs, out_path):
    text = "".join(json.dumps(doc) + "\n" for doc in docs)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fail(msg: str, code: int) -> int:
    print(f"ethroot: {msg}", file=sys.stderr)
    return code


# -- root ----------------------------------------------------------------------


def cmd_root(args) -> int:
    try:
        if args.job:
            with open(args.job) as fh:
                job = json.load(fh)
        else:
            job = {}
            if args.conductor is not None:
                job["field"] = {"conductor": args.conductor}
            elif args.field:
                job["field"] = {"poly": args.field.split(",")}
            if args.e is not None:
                job["e"] = args.e
            if args.element:
                job["element"] = json.loads(args.element)
        K = _field_from_doc(job.get("field", {}))
        e = _int(job["e"])
        y = _factored_from_doc(K, job["element"])
        method = job.get("method", args.method)
        seed = _int(job.get("seed", args.seed))
        req = RootRequest(K, e, y, method=method, seed=seed)
    except (KeyError, ValueError, TypeError, OSError, json.JSONDecodeError,
            EthrootError) as exc:
        return _fail(f"bad job: {exc}", EXIT_PARSE)

    t0 = time.perf_counter()
    try:
        res = eth_root(req)
    except NotAnEthPower as exc:
        return _fail(f"not an e-th power: {exc}", EXIT_NOT_A_POWER)
    except (BudgetExceeded, SearchExhausted) as exc:
        return _fail(f"budget exhausted: {exc}", EXIT_BUDGET)
    except EthrootError as exc:
        return _fail(f"cannot process: {exc}", EXIT_PARSE)
    seconds = round(time.perf_counter() - t0, 6)
    _write_lines([{
        "root": _element_doc(res.root),
        "prefactor": _term_docs(res.prefactor),
        "method_used": res.method_used,
        "verified": verify_root(res.root, y, e, K, seed=seed),
        "seconds": seconds,
        "seed": str(seed),
    }], args.out)
    return EXIT_OK


# -- detect ----------------------------------------------------------------------


def cmd_detect(args) -> int:
    try:
        with open(args.set) as fh:
            doc = json.load(fh)
        K = _field_from_doc(doc.get("field", {}))
        e = _int(args.e if args.e is not None else doc["e"])
        U = [_element_from_doc(K, u) for u in doc["U"]]
        E = [[_int(c) for c in row] for row in doc["E"]]
        vals = doc.get("valuations")
        if vals is not None:
            vals = [[_int(c) for c in row] for row in vals]
        G = GeneratingSet(U, E, valuations=vals)
        seed = _int(args.seed)
    except (KeyError, ValueError, TypeError, OSError, json.JSONDecodeError,
            EthrootError) as exc:
        return _fail(f"bad generating set: {exc}", EXIT_PARSE)

    try:
        lines = []
        for alpha, y in detect_eth_powers(G, e, K, seed=seed):
            line = {"alpha": [str(a) for a in alpha], "terms": _term_docs(y)}
            if args.roots:
                res = eth_root(RootRequest(K, e, y, seed=seed))
                line["root"] = _element_doc(res.root)
                line["prefactor"] = _term_docs(res.prefactor)
                line["method_used"] = res.method_used
                line["verified"] = verify_root(res.root, y, e, K, seed=seed)
            lines.append(line)
        _write_lines(lines, args.out)
    except NotAnEthPower as exc:
        return _fail(f"detected relation failed extraction: {exc}", EXIT_NOT_A_POWER)
    except (BudgetExceeded, SearchExhausted) as exc:
        return _fail(f"budget exhausted: {exc}", EXIT_BUDGET)
    except EthrootError as exc:
        return _fail(f"cannot process: {exc}", EXIT_PARSE)
    return EXIT_OK


# -- bench ----------------------------------------------------------------------


def _grid(text, default):
    if text is None:
        return default
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _random_element(K: NumberField, bits: int, rng):
    lo, hi = -(1 << bits) + 1, 1 << bits
    while True:
        x = K.element([rng.randrange(lo, hi) for _ in range(K.n)])
        if not x.is_zero():
            return x


def _bench_one(spec) -> dict:
    suite, method, m, e, bits, seed = spec
    K = NumberField.cyclotomic(m)
    rng = derive_rng(seed, f"bench-{suite}-{m}-{e}-{bits}")
    verified = True
    t0 = time.perf_counter()
    try:
        if suite == "saturation-analog":
            u1 = _random_element(K, bits, rng)
            u2 = _random_element(K, bits, rng)
            G = GeneratingSet([u1, u2], [[e, 0], [1, 2]])
            found = detect_eth_powers(G, e, K, seed=seed)
            verified = bool(found) and all(
                verify_root(eth_root(RootRequest(K, e, y, seed=seed)).root,
                            y, e, K, seed=seed)
                for _, y in found)
        elif method == "double_crt":
            # the factored (x, e) form is the protocol: folding must scale
            # with log e, so the power is never expanded
            x = _random_element(K, bits, rng)
            y = FactoredElement(K, [(x, e)])
            root = eth_root_double_crt(y, e, K, seed=seed)
            verified = root == x or root ** e == x ** e
        else:
            x = _random_element(K, bits, rng)
            y = FactoredElement(K, [(x ** e, 1)])
            res = eth_root(RootRequest(K, e, y, method=method, seed=seed))
            verified = res.root ** e == x ** e
    except EthrootError:
        verified = False
    return {
        "method": method, "m": m, "n": K.n, "e": e, "bits": bits,
        "seconds": round(time.perf_counter() - t0, 6),
        "verified": "true" if verified else "false",
    }


def _bench_specs(args) -> list:
    """Every (suite, method, m, e, bits, seed) run; each m and e is checked
    first, so a bad grid value fails before anything runs."""
    method, ms, es, bits = BENCH_SUITES[args.suite]
    ms, es = _grid(args.m_grid, ms), _grid(args.e_grid, es)
    for m in ms:
        NumberField.cyclotomic(m)
    for e in es:
        OddPrimePower(e)
    return [(args.suite, method, m, e, b, args.seed + rep)
            for m in ms for e in es for b in _grid(args.bits_grid, bits)
            for rep in range(args.reps)]


def cmd_bench(args) -> int:
    if args.seed is None:
        return _fail("bench requires an explicit --seed", EXIT_PARSE)
    if args.suite not in BENCH_SUITES:
        return _fail(f"unknown suite {args.suite!r}", EXIT_PARSE)
    try:
        specs = _bench_specs(args)
    except (ValueError, EthrootError) as exc:
        return _fail(f"bad grid: {exc}", EXIT_PARSE)
    # a forked pool starts all its workers at the first submit
    workers = min(args.jobs, len(specs), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_bench_one, specs))
    else:
        rows = [_bench_one(s) for s in specs]
    fh = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.DictWriter(fh, fieldnames=CSV_HEADER)
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if args.out:
            fh.close()
    return EXIT_OK


# -- selftest ----------------------------------------------------------------------


def cmd_selftest(args) -> int:
    # (backend, conductor or None for x^3 - x - 1, e, method)
    checks = [
        ("double_crt", 16, 3, "auto"),
        ("padic", 9, 3, "auto"),
        ("couveignes", 15, 3, "auto"),
        ("couveignes", 45, 3, "auto"),  # residue fields hold mu_9
        ("reconstruct", 16, 3, "reconstruct"),
        ("double_crt", None, 3, "auto"),
        ("padic", None, 3, "padic"),  # an inert prime from the generic DDF
    ]
    failures = 0
    for want, m, e, method in checks:
        K = NumberField.cyclotomic(m) if m else NumberField([-1, -1, 0, 1])
        label = f"{want} m={m} e={e}" if m else f"{want} x^3-x-1 e={e}"
        rng = derive_rng(args.seed, f"selftest-{m}-{e}")
        x = _random_element(K, 8, rng)
        t0 = time.perf_counter()
        try:
            res = eth_root(RootRequest(K, e, FactoredElement(K, [(x ** e, 1)]),
                                       method=method, seed=args.seed))
            ok = res.root ** e == x ** e and res.method_used == want
        except EthrootError as exc:
            print(f"FAIL {label}: {exc}")
            failures += 1
            continue
        status = "ok" if ok else "FAIL"
        failures += 0 if ok else 1
        print(f"{status} {label} ({time.perf_counter() - t0:.2f}s)")
    # a non-power ends in a certified failure, with no precision doubling
    K9 = NumberField.cyclotomic(9)
    x = _random_element(K9, 8, derive_rng(args.seed, "selftest-non-power"))
    y = FactoredElement(K9, [(K9.element([2]) * x ** 3, 1)])
    t0 = time.perf_counter()
    try:
        eth_root(RootRequest(K9, 3, y, seed=args.seed))
        ok = False
    except NotAnEthPower as exc:
        ok = "certified:" in str(exc)
    except EthrootError:
        ok = False
    print(f"{'ok' if ok else 'FAIL'} non-power m=9 e=3 "
          f"({time.perf_counter() - t0:.2f}s)")
    failures += 0 if ok else 1
    # saturation plants: character primes on Q(i) and on x^3 - x - 1, and at
    # e = 2^31 - 1, whose character primes lie above 40 bits
    plants = (("m=4", NumberField.cyclotomic(4), 3),
              ("x^3-x-1", NumberField([-1, -1, 0, 1]), 3),
              ("x^3-x-1", NumberField([-1, -1, 0, 1]), 2 ** 31 - 1))
    for label, K, e in plants:
        g = K.element([2, 1])
        if e == 3:
            G = GeneratingSet([g ** 3, K.element([3, 2])], [[1, 0], [0, 1]])
        else:  # g^e stays factored
            G = GeneratingSet([g, K.element([3, 2])], [[e, 0], [0, 1]])
        t0 = time.perf_counter()
        found = detect_eth_powers(G, e, K, seed=args.seed)
        ok = [a for a, _ in found] == [(1, 0)]
        print(f"{'ok' if ok else 'FAIL'} saturation {label} e={e} "
              f"({time.perf_counter() - t0:.2f}s)")
        failures += 0 if ok else 1
    total = len(checks) + 1 + len(plants)
    print(f"selftest: {total - failures}/{total} passed")
    return EXIT_OK if failures == 0 else 1


# -- argument surface ----------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ethroot",
        description="e-th roots of number field elements in factored form")
    sub = parser.add_subparsers(dest="command", required=True)

    p_root = sub.add_parser("root", help="extract one e-th root")
    p_root.add_argument("--job", help="JSON job file (overrides other flags)")
    p_root.add_argument("--conductor", help="cyclotomic conductor m")
    p_root.add_argument("--field", help="comma-separated monic polynomial")
    p_root.add_argument("--e", help="odd prime power exponent")
    p_root.add_argument("--element", help="JSON list of {coeffs, den, exp}")
    p_root.add_argument("--method", default="auto", choices=METHODS)
    p_root.add_argument("--seed", default=DEFAULT_SEED, type=int)
    p_root.add_argument("--out")
    p_root.set_defaults(func=cmd_root)

    p_det = sub.add_parser("detect", help="find e-th powers in a generating set")
    p_det.add_argument("set", help="JSON generating-set file")
    p_det.add_argument("--e", help="overrides the file's exponent")
    p_det.add_argument("--roots", action="store_true",
                       help="also extract and verify the roots")
    p_det.add_argument("--seed", default=DEFAULT_SEED, type=int)
    p_det.add_argument("--out")
    p_det.set_defaults(func=cmd_detect)

    p_bench = sub.add_parser("bench", help="timing suites as CSV")
    p_bench.add_argument("suite", choices=BENCH_SUITES)
    p_bench.add_argument("--seed", type=int, default=None,
                         help="mandatory: bench runs must be reproducible")
    p_bench.add_argument("--reps", type=int, default=1)
    p_bench.add_argument("--m-grid", dest="m_grid")
    p_bench.add_argument("--e-grid", dest="e_grid")
    p_bench.add_argument("--bits-grid", dest="bits_grid")
    p_bench.add_argument("--jobs", default=1, type=int)
    p_bench.add_argument("--out")
    p_bench.set_defaults(func=cmd_bench)

    p_self = sub.add_parser("selftest", help="quick end-to-end battery")
    p_self.add_argument("--seed", default=DEFAULT_SEED, type=int)
    p_self.set_defaults(func=cmd_selftest)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
