"""Input and invariant guards raise explicitly, so `python -O` keeps them."""

import ast
import importlib.util
import itertools
import json
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ethroot import gfpoly
from ethroot.crtroot import SPLIT_BITS, GoodPrime, check_good_prime
from ethroot.numfield import NumberField, crt_integers_symmetric
from ethroot.primes import factorize
from ethroot.splitkernel import _CHUNK, _GRID, _LIMB, split_roots_kernel

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ethroot"


def test_library_has_no_assert_statements():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_library_has_no_unused_module_imports():
    # __init__.py re-exports; "# noqa" marks an import kept as module surface
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text, filename=str(path))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"):
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                marked = "# noqa" in lines[node.lineno - 1] + lines[alias.lineno - 1]
                if name not in used and not marked:
                    found.append(f"{path.name}:{alias.lineno} {name}")
    assert found == []


def _bound_names(node) -> set:
    """Names that node binds: assignment targets, arguments, imports, defs."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, (ast.Store, ast.Del)):
            names.add(n.id)
        elif isinstance(n, ast.arg):
            names.add(n.arg)
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in n.names)
        elif isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(n.name)
    return names


def _global_mutations(tree) -> list:
    """Lines of `x[k] += n`, `x.a += n` with x a module-level name, and of
    `x += n` with x declared global: process-wide mutable state."""
    module = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            module.add(stmt.name)
        else:
            module |= _bound_names(stmt)
    found = []

    def visit(node, local, declared):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                inner = {n for g in ast.walk(child) if isinstance(g, ast.Global)
                         for n in g.names}
                # a function's own name is the module's: f.calls += 1 counts
                own = _bound_names(child) - inner - {getattr(child, "name", None)}
                visit(child, local | own, inner)
                continue
            if isinstance(child, ast.AugAssign):
                root = child.target
                while isinstance(root, (ast.Subscript, ast.Attribute)):
                    root = root.value
                if isinstance(root, ast.Name) and (
                        root.id in declared if root is child.target
                        else root.id in module and root.id not in local):
                    found.append(child.lineno)
            visit(child, local, declared)

    visit(tree, set(), set())
    return found


def test_library_keeps_no_process_global_counters():
    # per-call counts go through ethroot.counters; a module global bumped in
    # place would leak counts between calls, threads and tests
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}" for line in _global_mutations(tree)]
    assert found == []


def test_global_mutation_guard_sees_through_scopes():
    code = """
import mod
stats = {}
memo = {}
def bump(memo, n):
    stats["a"] += 1
    mod.calls += n
    memo["b"] += 1
    local = {}
    local["c"] += 1
    memo2 = memo
    memo2["d"] += 1
def cache(k, v):
    global total
    total += 1
    memo[k] = v
    cache.calls += 1
    fn = lambda: memo.update(k=1)
"""
    assert _global_mutations(ast.parse(code)) == [6, 7, 15, 17]


def test_only_numfield_and_cli_build_fields():
    # a field's kept facts (primes, cinf, subfields) live on its one object:
    # the backends reach subfields through SubfieldEmbedding.cyclotomic
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("numfield.py", "cli.py"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            if isinstance(fn, ast.Attribute) and fn.attr == "cyclotomic":
                fn = fn.value
            if isinstance(fn, ast.Name) and fn.id == "NumberField":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


WRAPPED = "# noqa: F401, wrapped at this module by layerbench"


# the two primitives that take a budget; every search above them reads its
# bound from a module constant, which a test sets with monkeypatch
BUDGETED = {"prime_stream", "walk_primes"}


def test_searches_take_no_budget_argument():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            names = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}
            if names & {"budget", "candidates"} and node.name not in BUDGETED:
                found.append(f"{path.name}:{node.lineno} {node.name}")
    assert found == []


# the one-shot searches: the inert prime and the reconstruction ideal, whose
# primes decide which conjugate root comes back on fields holding mu_e
# (test_padic.TWIST_PINS), and verify_root's trials; every search a field
# repeats walks the field's kept table (NumberField.walk_primes)
RANDOM_PRIME_CALLERS = {("padic", "find_inert_prime"), ("strategy", "pick_reconstruct_ideal"),
                        ("verify", "verify_root")}


def _draws(node) -> bool:
    return isinstance(node, ast.Call) and "prime_stream" in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None))


def test_only_one_shot_searches_draw_random_primes():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        placed = set()
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                for node in filter(_draws, ast.walk(fn)):
                    found.add((path.stem, getattr(fn, "name", "<lambda>")))
                    placed.add(node)
        if set(filter(_draws, ast.walk(tree))) - placed:
            found.add((path.stem, "<module>"))
    assert found == RANDOM_PRIME_CALLERS


def test_layerbench_imports_name_wrapped_functions_and_nothing_else():
    # an import kept only for layerbench must name a function that
    # spans.LAYERS wraps at that module, and must have no other use there,
    # so that dropping it once the benchmark stops wrapping is mechanical
    spec = importlib.util.spec_from_file_location(
        "layerbench_spans", ROOT / "layerbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    wrapped = {(layer, fn, caller) for layer, fn, callers in spans.LAYERS
               for caller in callers}
    found, seen = [], 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text, filename=str(path))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if (not isinstance(node, ast.ImportFrom)
                    or not lines[node.lineno - 1].endswith(WRAPPED)):
                continue
            for alias in node.names:
                seen += 1
                name = alias.asname or alias.name
                if (node.module, alias.name, path.stem) not in wrapped or alias.asname:
                    found.append(f"{path.name}:{node.lineno} {name} is not wrapped here")
                if name in used:
                    found.append(f"{path.name}:{node.lineno} {name} is used here")
    assert seen and found == []


def test_library_imports_only_stdlib_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside ethroot
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] not in allowed]
    assert found == []


def test_import_ethroot_loads_no_numpy():
    # the cold import is most of a workload's set-up, and numpy would add
    # about 60 ms to it; only the split kernel needs numpy
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import ethroot; "
            "print('numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, str(SRC.parent)],
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)


def test_packed_power_rejects_negative_exponent():
    # the ring's power once read n < 0 silently: (1 + t)^-1 mod (t^2 + 1, 7)
    # came out [5, 2], where the inverse is [4, 3]
    plain = gfpoly._Packed([1, 0, 1], 7)
    assert plain.inverse([1, 1]) == [4, 3]
    frob = gfpoly._Packed([1, 1, 0, 1], 7)  # t^3 + t + 1, irreducible mod 7
    frob.keep_frobenius()
    assert plain.frob is None and frob.frob is not None
    for ring in (plain, frob):
        for base in ([0, 1], [1, 1]):  # t takes shifts, 1 + t products
            for n in (-1, -8):
                with pytest.raises(ValueError):
                    ring.power(base, n)


def test_split_kernel_rejects_primes_of_another_field():
    K4, K8 = NumberField.cyclotomic(4), NumberField.cyclotomic(8)
    gp = check_good_prime(17, K8, 3)  # four roots where Q(i) needs two
    assert isinstance(gp, GoodPrime) and gp.degrees == (1,)
    with pytest.raises(ValueError):
        split_roots_kernel([K4.element([1, 1])], [3], [gp], 3, K4)


def test_split_kernel_refuses_a_root_of_lower_order_and_generic_fields():
    # 17 = 1 mod 8, but 4 has order 4 mod 17: not a root of Phi_8
    K8 = NumberField.cyclotomic(8)
    with pytest.raises(ValueError):
        split_roots_kernel([K8.element([1, 1])], [3], [GoodPrime(17, (1,), 4)], 3, K8)
    K = NumberField([2, 0, 1])  # x^2 + 2: 11 splits, and 11 = 2 mod 3 is good
    gp = check_good_prime(11, K, 3)
    assert gp == GoodPrime(11, (1,))
    with pytest.raises(ValueError):
        split_roots_kernel([K.element([1, 1])], [3], [gp], 3, K)


def test_frobenius_image_fits_its_slots():
    # a Frobenius image sums d rows t^(p i), each times a coefficient below
    # p, before one reduction: every slot stays below d (p - 1)^2
    for p in (3, 5, 65521, (1 << 61) - 1, (1 << 62) - 57, (1 << 64) - 59):
        for d in (3, 4, 8, 36, 112):
            w = gfpoly._Packed([0] * d + [1], p).w
            assert d * (p - 1) ** 2 < 1 << w, (p, d)


def test_shifted_square_fits_its_slots():
    # a power of t multiplies a square by t as a one-slot shift: low slot
    # j < d holds the square's slot j - 1, at most (d - 1)(p - 1)^2, plus at
    # most (p - 1)^2 from the top slot folded through the row of t^(2d-1),
    # and reduce's d - 1 folds add at most (d - 1)(p - 1)^2; p may be one of
    # padic's prime powers
    for p in (3, 5, 65521, (1 << 61) - 1, (1 << 62) - 57, (1 << 64) - 59,
              5 ** 7, 7 ** 8, 3 ** 250):
        for d in (2, 3, 4, 8, 36, 112):
            w = gfpoly._Packed([0] * d + [1], p).w
            assert d * (p - 1) ** 2 + (d - 1) * (p - 1) ** 2 < 1 << w, (p, d)


def test_split_kernel_int64_headroom():
    # residues lie below q < 2^SPLIT_BITS, limbs below 2^_LIMB
    q, limb, top = 1 << SPLIT_BITS, 1 << _LIMB, 1 << 63
    # a gather (evaluation, power sums) or Hankel product: _CHUNK products
    # of residues, plus the running residue
    assert _CHUNK * (q - 1) ** 2 + q < top
    assert _CHUNK * limb * q + q < top  # one einsum block of limb * power, plus the carry
    assert _GRID * q < top  # n * f_k, the coefficients of f'


def test_split_kernel_blocks_stay_within_grid(monkeypatch):
    # every array of a block, the joint tables of the chain included, has at
    # most _GRID entries; the tables have 2^_GROUP rows per group of bases
    import ethroot.splitkernel as sk
    from ethroot.crtroot import good_prime_stream

    K16, rng = NumberField.cyclotomic(16), random.Random(5)
    primes = list(itertools.islice(good_prime_stream(K16, 3, seed=5), 40))
    bases = [K16.random_element(rng, 60) for _ in range(9)]
    exps = [rng.randrange(1, 10 ** 9) for _ in bases]
    whole = split_roots_kernel(bases, exps, primes, 3, K16)
    sizes = []

    def record(name):
        real = getattr(sk, name)

        def wrapper(*args):
            out = real(*args)
            sizes.append((name, max(np.size(a) for a in (*args, out))))
            if name == "_multi_pow":
                k, J, T = args[0].shape
                groups = -(-k // sk._GROUP)
                sizes.append(("tables", groups * (1 << sk._GROUP) * J * T))
            return out
        monkeypatch.setattr(sk, name, wrapper)

    for name in ("_matmul", "_multi_pow", "_power_table"):
        record(name)
    monkeypatch.setattr(sk, "_GRID", 4096)
    assert split_roots_kernel(bases, exps, primes, 3, K16) == whole
    # 9 terms and f' in 3 groups: 384 table entries a prime, 10 primes a block
    assert [size for name, size in sizes if name == "tables"] == [3840] * 4
    assert max(size for _, size in sizes) <= 4096


def test_crt_integers_rejects_ragged_vectors():
    with pytest.raises(ValueError):
        crt_integers_symmetric([[1, 2], [3]], [10007, 10009], 10)


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_bench_files_pair_like_runs(path):
    """Each pair holds the harness's result line for the parent and for the
    change, run at the same seed, seconds and trace setting; both correct."""
    pairs = json.loads(path.read_text())["pairs"]
    assert pairs
    for pair in pairs:
        parent, change = pair["parent"], pair["change"]
        for key in ("seed", "seconds", "trace"):
            assert parent[key] == change[key] == pair[key], (pair["workload"], key)
        assert parent["result"]["correct"] is True
        assert change["result"]["correct"] is True
