"""Input and invariant guards raise explicitly, so `python -O` keeps them."""

import ast
import json
import random
import sys
from pathlib import Path

import pytest

from ethroot import gfpoly
from ethroot.crtroot import SPLIT_BITS, GoodPrime, check_good_prime
from ethroot.numfield import NumberField, crt_integers_symmetric
from ethroot.primes import factorize, random_prime
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


def test_random_prime_rejects_one_bit():
    with pytest.raises(ValueError):
        random_prime(random.Random(0), 1)


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)


def test_powmod_rejects_negative_exponent():
    with pytest.raises(ValueError):
        gfpoly.powmod([1, 1], -1, [1, 0, 1], 7)


def test_split_roots_needs_an_all_split_prime():
    K = NumberField.cyclotomic(4)
    gp = check_good_prime(7, K, 5)  # 7 = 3 mod 4 is inert in Q(i)
    assert isinstance(gp, GoodPrime) and not gp.all_split
    with pytest.raises(ValueError):
        gp.split_roots()


def test_split_kernel_rejects_primes_of_another_field():
    K4, K8 = NumberField.cyclotomic(4), NumberField.cyclotomic(8)
    gp = check_good_prime(17, K8, 3)  # four roots where Q(i) needs two
    assert isinstance(gp, GoodPrime) and gp.all_split
    with pytest.raises(ValueError):
        split_roots_kernel([K4.element([1, 1])], [3], [gp], 3, K4)


def test_split_kernel_int64_headroom():
    # residues lie below q < 2^SPLIT_BITS, limbs below 2^_LIMB
    q, limb, top = 1 << SPLIT_BITS, 1 << _LIMB, 1 << 63
    assert q * q + q < top  # a product of residues plus a residue (Horner steps)
    assert _CHUNK * limb * q + q < top  # one einsum block of limb * power, plus the carry
    assert _GRID * q < top  # a sum over the nodes of one prime, and n * f_k


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
