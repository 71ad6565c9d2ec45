"""Per-layer spans and work counts, taken from outside the library.

Each layer function is replaced, for the length of a traced pass, by a
wrapper bound at the module attribute its caller looks the name up by, so
`crtroot.coeff_bound_root` and `couveignes.coeff_bound_root` both feed the
one metric `numfield.coeff_bound_root`. The library is never edited and its
module-level counters are never read: every count below comes from the
wrappers' own arguments and return values.

`gfpoly` and `primes` stay unwrapped: they are called millions of times and a
wrapper would distort the times. Their cost shows in their callers' self time.
"""

import functools
import importlib
import time
from collections import defaultdict

# (layer, function, modules whose global name the callers look up)
LAYERS = (
    ("strategy", "eth_root", ("ethroot", "saturation")),
    ("strategy", "pick_reconstruct_ideal", ("strategy",)),
    ("crtroot", "eth_root_double_crt", ("strategy",)),
    ("crtroot", "is_bad_field", ("strategy",)),
    ("crtroot", "check_good_prime", ("crtroot",)),
    ("crtroot", "eth_root_mod_q", ("crtroot",)),
    ("numfield", "coeff_bound_root", ("crtroot", "couveignes", "padic")),
    ("numfield", "multi_reduce", ("crtroot",)),
    ("numfield", "crt_integers_symmetric", ("crtroot", "couveignes")),
    ("numfield", "crt_ideals", ("crtroot", "couveignes")),
    ("numfield", "relative_norm", ("couveignes",)),
    # eth_root_double_crt imports the kernel inside the function body, which
    # reads the attribute of the splitkernel module on every call
    ("splitkernel", "split_roots_kernel", ("splitkernel",)),
    ("fq", "factor_mod_p",
     ("crtroot", "couveignes", "saturation", "verify", "strategy")),
    ("fq", "fq_eth_root", ("crtroot", "couveignes", "padic")),
    ("padic", "find_inert_prime", ("strategy",)),
    ("padic", "eth_root_padic", ("strategy",)),
    ("padic", "hensel_lift", ("padic",)),
    ("padic", "hensel_factor_lift", ("padic",)),
    ("padic", "eth_root_padic_reconstruct", ("strategy",)),
    ("padic", "lll_reduce", ("padic",)),
    ("padic", "babai_nearest_plane", ("padic",)),
    ("couveignes", "build_tower", ("strategy",)),
    ("couveignes", "eth_root_couveignes", ("strategy",)),
    ("couveignes", "select_couveignes_primes", ("couveignes",)),
    ("couveignes", "make_couveignes_prime", ("couveignes",)),
    ("couveignes", "couveignes_mod_p", ("couveignes",)),
    ("verify", "verify_root", ("couveignes", "padic")),
    ("saturation", "detect_eth_powers", ("saturation",)),
    ("saturation", "select_character_primes", ("saturation",)),
    ("saturation", "build_character_matrix", ("saturation",)),
    ("saturation", "kernel_mod_e", ("saturation",)),
)

METHODS = ("double_crt", "padic", "couveignes", "reconstruct")

# work counts derived from wrapper arguments and results, with their units
COUNTS = (
    *((f"strategy.method.{m}", "count") for m in METHODS),
    ("crtroot.good_prime.accepted", "count"),
    ("crtroot.good_prime.accept_ratio", "ratio"),
    ("numfield.bound_bits", "bits"),
    ("splitkernel.residue_evals", "count"),
    ("padic.twists", "count"),
    ("couveignes.primes", "count"),
    ("couveignes.prime_accept_ratio", "ratio"),
    ("saturation.character_primes", "count"),
    ("saturation.relations", "count"),
)


def _module(name):
    return importlib.import_module(name if name == "ethroot" else f"ethroot.{name}")


def metric_units() -> dict:
    """Every per-layer metric name a traced run reports, with its unit."""
    out = {}
    for layer, fn, _ in LAYERS:
        out[f"{layer}.{fn}.calls"] = "count"
        out[f"{layer}.{fn}.s"] = "s"
        out[f"{layer}.{fn}.self_s"] = "s"
    out.update(COUNTS)
    out["trace.overhead"] = "ratio"
    out["other.self_s"] = "s"
    return out


def _hooks():
    """name -> hook(counts, args, result), run after a call returns."""
    crtroot = _module("crtroot")

    def method(c, args, res):
        c[f"strategy.method.{res.method_used}"] += 1

    def good_prime(c, args, res):
        if isinstance(res, crtroot.GoodPrime):
            c["crtroot.good_prime.accepted"] += 1

    def bound(c, args, res):
        c["numfield.bound_bits"] += res.bit_length()

    def kernel(c, args, res):
        bases, exps, primes, _, K = args[:5]
        c["splitkernel.residue_evals"] += sum(1 for a in exps if a) * len(primes) * K.n

    def lift_success(c, args, res):
        # every Hensel lift but the one that produced the returned root is a
        # rejected twist of the local seed
        if any(a for _, a in args[0].terms):
            c["padic.successes"] += 1

    def count_len(key):
        def hook(c, args, res):
            c[key] += len(res)
        return hook

    return {
        "strategy.eth_root": method,
        "crtroot.check_good_prime": good_prime,
        "numfield.coeff_bound_root": bound,
        "splitkernel.split_roots_kernel": kernel,
        "padic.eth_root_padic": lift_success,
        "padic.eth_root_padic_reconstruct": lift_success,
        "couveignes.select_couveignes_primes": count_len("couveignes.primes"),
        "saturation.select_character_primes": count_len("saturation.character_primes"),
        "saturation.detect_eth_powers": count_len("saturation.relations"),
    }


class Tracer:
    """Spans for the layer functions; install() wraps, uninstall() restores.

    A span's self time is its duration minus the time of the spans it
    caused. Inclusive time counts only the outermost span of a function, so
    the tower recursion in couveignes is not counted twice.
    """

    def __init__(self):
        self._saved = []
        self.reset()

    def reset(self):
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.covered = 0.0  # time inside outermost spans
        self._stack = []
        self._active = defaultdict(int)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        hooks = _hooks()
        try:
            for layer, fn, callers in LAYERS:
                name = f"{layer}.{fn}"
                original = getattr(_module(layer), fn)
                for caller in callers:
                    mod = _module(caller)
                    if getattr(mod, fn, None) is not original:
                        raise RuntimeError(
                            f"{caller}.{fn} is not {name}: the benchmark's "
                            "wrapping sites no longer match the library")
                    self._saved.append((mod, fn, original))
                    setattr(mod, fn, self._wrap(name, original, hooks.get(name)))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._saved:
            mod, fn, original = self._saved.pop()
            setattr(mod, fn, original)

    def _wrap(self, name, fn, hook):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]  # time of child spans
            self._stack.append(frame)
            self._active[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                self._stack.pop()
                self._active[name] -= 1
                self.calls[name] += 1
                self.self_s[name] += dur - frame[0]
                if not self._active[name]:
                    self.incl[name] += dur
                if self._stack:
                    self._stack[-1][0] += dur
                else:
                    self.covered += dur
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return wrapper

    def metrics(self, wall: float) -> dict:
        """Per-layer values of the pass traced since reset(); wall is its time."""
        out = {}
        for layer, fn, _ in LAYERS:
            name = f"{layer}.{fn}"
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.s"] = self.incl[name]
            out[f"{name}.self_s"] = self.self_s[name]
        c = self.counts
        for key, _ in COUNTS:
            out[key] = c[key]
        out["crtroot.good_prime.accept_ratio"] = _ratio(
            c["crtroot.good_prime.accepted"], self.calls["crtroot.check_good_prime"])
        out["padic.twists"] = self.calls["padic.hensel_lift"] - c["padic.successes"]
        out["couveignes.prime_accept_ratio"] = _ratio(
            c["couveignes.primes"], self.calls["couveignes.make_couveignes_prime"])
        out["other.self_s"] = wall - self.covered
        return out


def _ratio(num, den):
    return num / den if den else 0.0


def is_work_count(name: str, unit: str) -> bool:
    """Metrics that must repeat exactly for the same seed."""
    return unit in ("count", "bits", "ratio") and name != "trace.overhead"
