"""Import contract: the package runs on the standard library and mpmath, so
neither `import latcensus` nor any command nor any table kernel loads numpy.
mpmath loads at the first error-bounded value, so exact counts and the
commands that print only exact values never load it, and no module loads
`dataclasses`.

`import latcensus` alone loads no layer module: each public name loads its
home module on first access, so each call loads only the layers it runs:
an exact count loads `counting`, `arith` and `errors` alone, and a constant
never loads the census modules.

Each of those checks runs a fresh interpreter; `-X importtime` lists on
stderr every module the process imported.  `__init__.__getattr__` is the
package's one deferred import and its one import made by a call: every
other package import is a statement at module level, so the module graph
stays acyclic and no load hides from `-X importtime`.  A layer that a module
needs in only some calls is reached through the package namespace
(`latcensus.lattice` after a module-level `import latcensus`), so its load
also goes through `__getattr__`.  `constants` imports none of the census
modules."""

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


def test_import_latcensus_loads_no_layer_module():
    proc = _python("-c", "import latcensus")
    assert proc.returncode == 0, proc.stderr
    assert "latcensus" in _imported(proc.stderr)
    assert not {m for m in _imported(proc.stderr) if m.startswith("latcensus.")}


def test_import_latcensus_leaves_numpy_out():
    # an exact count after the import builds no interval either, never
    # reaches the group layer, and only the JSON round trip of a basis loads json
    proc = _python("-c", "import latcensus; assert latcensus.count_cocyclic(3, 10**5) == 582985627661524")
    assert proc.returncode == 0, proc.stderr
    assert "latcensus.counting" in _imported(proc.stderr)
    assert not {"numpy", "mpmath", "dataclasses", "json", "latcensus.groups"} & _imported(proc.stderr)


# (call through the package, the library modules it loads); mpmath loads with errbound
@pytest.mark.parametrize(
    "call, loads",
    [
        ("count_cocyclic(3, 10**5)", "counting arith errors"),
        ("count_squarefree(3, 10**5)", "counting arith errors"),
        ("total_count(3, 10**5)", "counting arith errors"),
        ("census_cocyclic_bruteforce(3, 10)", "counting arith errors lattice rng"),
        ("counting.census('cyclic', 3).density(1e-9)", "counting arith errors constants errbound"),
        ("arith.landau_sum(latcensus.arith.EXACT_SUM_LIMIT + 1)", "arith errors errbound"),
    ],
    ids=["count_cocyclic", "count_squarefree", "total_count", "oracle", "density", "landau_sum-float"],
)
def test_each_call_loads_only_the_layers_it_runs(call, loads):
    proc = _python("-c", f"import latcensus; latcensus.{call}")
    assert proc.returncode == 0, proc.stderr
    imported = {m for m in _imported(proc.stderr) if m.startswith("latcensus.") or m == "mpmath"}
    expected = {f"latcensus.{m}" for m in loads.split()}
    assert imported == expected | ({"mpmath"} if "latcensus.errbound" in expected else set())


def test_a_constant_loads_no_census_module():
    code = "import latcensus; print(latcensus.constants.evaluate_constant('theta-n', n=5, tol=1e-9))"
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    imported = _imported(proc.stderr)
    assert {"latcensus.constants", "mpmath"} <= imported
    assert not {"latcensus.counting", "latcensus.lattice", "latcensus.groups"} & imported


# The package's public names when the lazy namespace replaced the eager
# re-exports, by home module; the eight layer modules are public names too.
PUBLIC = {
    "arith": """FactoredInt SieveTable abelian_group_count euler_phi factorize fn_weight is_squarefree
        landau_sum mobius omega partition_count squarefree_coprime_count ward_sum""",
    "constants": """delta_rank_at_least_bound delta_rank_at_most density_cocyclic_limit
        density_squarefree_limit gekeler_cyclic gekeler_squarefree landau_prediction rank_prob rho
        rho_n rho_n_product squarefree_coprime_prediction theta theta_n theta_product theta_sandwich
        uniform_density_cyclic uniform_density_squarefree xi xi_inf zeta""",
    "counting": """census_cocyclic_bruteforce count_by_rank count_by_rank_bruteforce count_cocyclic
        count_primitive_classes count_primitive_classes_bruteforce count_squarefree
        primitive_class_representatives total_count""",
    "errbound": "ErrBoundedReal",
    "errors": "CapExceededError NotPrimitiveError PrecisionError SingularMatrixError",
    "groups": """AbelianGroup aut_order aut_order_bruteforce aut_order_pgroup aut_order_qm
        cl_predicate_mass cl_total_mass enumerate_groups generating_tuples_count pak_check
        primitive_class_count""",
    "lattice": """CongruenceVector HnfBasis InvariantFactors are_equivalent count_sublattices
        enumerate_sublattices hnf_canonicalize is_cocyclic lattice_from_congruence quotient_rank
        sample_cocyclic smith_invariants""",
    "rng": "SplitMix64",
}
HOME = {name: module for module, names in PUBLIC.items() for name in names.split()}


def test_dir_and_star_import_list_the_public_names():
    # fresh, as importing a submodule such as cli adds it to dir(latcensus)
    code = (
        "import latcensus\nprint(*[n for n in dir(latcensus) if not n.startswith('_')])\n"
        "star = {}\nexec('from latcensus import *', star)\nprint(*sorted(star.keys() - {'__builtins__'}))"
    )
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    public = sorted([*HOME, *PUBLIC])
    assert len(public) == 80
    assert proc.stdout.splitlines() == [" ".join(public)] * 2


def test_public_names_are_the_home_modules_objects():
    import latcensus

    assert sorted(latcensus.__all__) == sorted([*HOME, *PUBLIC])
    star: dict = {}
    exec("from latcensus import *", star)
    for name, module in HOME.items():
        home = sys.modules[f"latcensus.{module}"]
        assert star[name] is getattr(latcensus, name) is getattr(home, name), name
    for module in PUBLIC:
        assert star[module] is latcensus.__dict__[module] is sys.modules[f"latcensus.{module}"]


def test_init_holds_the_only_module_level_getattr():
    # one deferred-load hook: no other module answers a missing name with a PEP 562 __getattr__
    hooks = [path.name for path in sorted(Path(SRC, "latcensus").glob("*.py"))
             if any(isinstance(node, ast.FunctionDef) and node.name == "__getattr__"
                    for node in ast.parse(path.read_text()).body)]
    assert hooks == ["__init__.py"]


@pytest.mark.parametrize("name", ["no_such_name", "_rank_counts", "evaluate_constant"])
def test_an_unknown_name_raises_attribute_error(name):
    import latcensus

    with pytest.raises(AttributeError, match=name):
        getattr(latcensus, name)
    assert not hasattr(latcensus, name)


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


_LOADERS = ("__import__", "import_module")


def _callee(func) -> str | None:
    """The name a call calls: `f` of `f(...)` and of `mod.f(...)`."""
    return getattr(func, "id", getattr(func, "attr", None))


def _package_imports(node) -> set[str]:
    """Dotted names of the latcensus modules imported anywhere inside node;
    relative imports resolve against the package, which is one level deep.
    A load by an `__import__` or `importlib.import_module` call, which
    `-X importtime` may not list, counts as `latcensus.<__import__>` or
    `latcensus.<import_module>` unless its target is a literal outside the package."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Import):
            names = [a.name for a in sub.names]
        elif isinstance(sub, ast.ImportFrom):
            module = sub.module or ""
            if sub.level:
                module = f"latcensus.{module}" if module else "latcensus"
            names = [f"{module}.{a.name}" for a in sub.names] if module == "latcensus" else [module]
        elif isinstance(sub, ast.Call) and (loader := _callee(sub.func)) in _LOADERS:
            target = sub.args[0].value if sub.args and isinstance(sub.args[0], ast.Constant) else None
            outside = isinstance(target, str) and target.split(".")[0] not in ("", "latcensus")
            names = [] if outside else [f"latcensus.<{loader}>"]
        else:
            continue
        out |= {name for name in names if name.split(".")[0] == "latcensus"}
    return out


_SOURCES = sorted(Path(SRC, "latcensus").glob("*.py"))


@pytest.mark.parametrize("path", _SOURCES, ids=[p.stem for p in _SOURCES])
def test_package_imports_sit_at_module_level(path):
    # an import inside a function body hides a cycle between modules, and a
    # load by call may hide from -X importtime; the lazy namespace's
    # __getattr__ is the one place for either
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    tree = ast.parse(path.read_text(), str(path))
    inner = {
        f"{node.name}: {sorted(found)}"
        for node in ast.walk(tree)
        if isinstance(node, defs) and (found := set().union(*map(_package_imports, node.body)))
    }
    top = set().union(*(_package_imports(node) for node in tree.body if not isinstance(node, defs)))
    assert inner == ({"__getattr__: ['latcensus.<__import__>']"} if path.stem == "__init__" else set())
    assert not {name for name in top if "<" in name}


def test_a_load_by_call_counts_as_a_package_import():
    tree = ast.parse(
        "import importlib\n__import__(f'{__name__}.counting', fromlist=['x'])\n"
        "importlib.import_module('.groups', 'latcensus')\n__import__('json')"
    )
    assert _package_imports(tree) == {"latcensus.<__import__>", "latcensus.<import_module>"}


def test_constants_imports_no_census_module():
    tree = ast.parse(Path(SRC, "latcensus", "constants.py").read_text())
    assert not _package_imports(tree) & {"latcensus.groups", "latcensus.counting", "latcensus.lattice"}
