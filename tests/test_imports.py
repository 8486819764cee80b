"""Import contract: the package runs on the standard library and mpmath, so
neither `import latcensus` nor any command nor any table kernel loads numpy.
mpmath loads at the first error-bounded value, so exact counts and the
commands that print only exact values never load it, and no module loads
`dataclasses`.

Each of those checks runs a fresh interpreter; `-X importtime` lists on
stderr every module the process imported.  The module graph stays acyclic
without deferred imports: every package import sits at module level, and
`constants` imports none of the census modules."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
LAYER_MODULES = ("arith", "counting", "constants", "lattice", "rng", "groups", "cli", "verifysuite")


def _python(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-X", "importtime", *argv], env=env, capture_output=True, text=True, timeout=120
    )


def _imported(stderr: str) -> set[str]:
    # lines read "import time: <self us> | <cumulative us> | <indented module name>"
    return {
        line.rsplit("|", 1)[1].strip() for line in stderr.splitlines() if line.startswith("import time:")
    }


def test_import_latcensus_leaves_numpy_out():
    # an exact count after the import builds no interval either, and only
    # the JSON round trip of a basis loads json
    proc = _python("-c", "import latcensus; assert latcensus.count_cocyclic(3, 10**5) == 582985627661524")
    assert proc.returncode == 0, proc.stderr
    assert "latcensus.counting" in _imported(proc.stderr)
    assert not {"numpy", "mpmath", "dataclasses", "json"} & _imported(proc.stderr)


# (argv, whether it prints an error-bounded value and so loads mpmath)
@pytest.mark.parametrize(
    "argv, loads_mpmath",
    [
        (["count", "--n", "2", "--V", "1000"], True),
        (["count", "--n", "3", "--V", "5000", "--format", "csv", "--ladder", "4"], True),
        (["constants", "--name", "rho-n", "--n", "4"], True),
        (["sample", "--n", "3", "--q", str(10**20), "--seed", "1", "--count", "3"], False),
        (["enumerate", "--n", "2", "--q", "12"], False),
        (["clmass", "--V", "3000", "--predicate", "cyclic"], False),
        (["groups", "--V", "3000", "--dump"], False),
        (["verify", "--suite", "bijection"], False),
        (["verify", "--suite", "sampler"], False),
        (["verify", "--suite", "census"], False),
        (["constants", "--name", "landau-prime-sum", "--tol", "1e-5"], True),
    ],
    ids=["count", "count-csv-ladder", "constants-rho-n", "sample-q-1e20", "enumerate", "clmass",
         "groups-dump", "verify-bijection", "verify-sampler", "verify-census",
         "constants-landau-prime-sum"],
)
def test_commands_without_a_vector_kernel_leave_numpy_out(argv, loads_mpmath):
    proc = _python("-m", "latcensus.cli", *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    imported = _imported(proc.stderr)
    assert "numpy" not in imported and "dataclasses" not in imported
    assert ("mpmath" in imported) == loads_mpmath


def test_import_cli_loads_every_layer_module():
    proc = _python("-c", "import latcensus.cli")
    assert proc.returncode == 0, proc.stderr
    imported = _imported(proc.stderr)
    assert {f"latcensus.{m}" for m in LAYER_MODULES} <= imported


# One call of each table kernel that once ran on numpy, at a small size.
_KERNELS = """
from latcensus import arith, constants, counting, groups
assert arith.SieveTable(1000).factor_pairs(360) == [(2, 3), (3, 2), (5, 1)]
assert arith.totient_table(10)[1:] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]
assert list(arith.squarefree_mask(10)) == [0, 1, 1, 1, 0, 1, 1, 1, 0, 0, 1]
assert arith.squarefree_coprime_count(10, 2) == 4
assert len(counting.primitive_class_representatives(3, 6)) == counting.count_primitive_classes(3, 6)
assert counting._primitive_vector_count(2, 6) == 24
assert groups.aut_order_bruteforce(groups.AbelianGroup.from_invariant_factors((2, 4))) == 8
assert 0.608 < float(constants.prime_log_weight_sum(1e-5).value) < 0.609
assert groups.cl_total_mass(3000, exact_limit=0).contains(groups.cl_total_mass(3000))
"""


def test_every_former_numpy_kernel_runs_with_numpy_blocked():
    # a None entry in sys.modules makes any `import numpy` raise ImportError
    proc = _python("-c", "import sys; sys.modules['numpy'] = None\n" + _KERNELS)
    assert proc.returncode == 0, proc.stderr
    assert "numpy" not in _imported(proc.stderr)


def _package_imports(node) -> set[str]:
    """Dotted names of the latcensus modules imported anywhere inside node;
    relative imports resolve against the package, which is one level deep."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Import):
            names = [a.name for a in sub.names]
        elif isinstance(sub, ast.ImportFrom):
            module = sub.module or ""
            if sub.level:
                module = f"latcensus.{module}" if module else "latcensus"
            names = [f"{module}.{a.name}" for a in sub.names] if module == "latcensus" else [module]
        else:
            continue
        out |= {name for name in names if name.split(".")[0] == "latcensus"}
    return out


_SOURCES = sorted(Path(SRC, "latcensus").glob("*.py"))


@pytest.mark.parametrize("path", _SOURCES, ids=[p.stem for p in _SOURCES])
def test_package_imports_sit_at_module_level(path):
    # an import inside a function body hides a cycle between modules
    tree = ast.parse(path.read_text(), str(path))
    inner = {
        f"{node.name}: {sorted(found)}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and (found := set().union(*map(_package_imports, node.body)))
    }
    assert not inner


def test_constants_imports_no_census_module():
    tree = ast.parse(Path(SRC, "latcensus", "constants.py").read_text())
    assert not _package_imports(tree) & {"latcensus.groups", "latcensus.counting", "latcensus.lattice"}
