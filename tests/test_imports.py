"""Import contract: numpy is loaded only by the functions that run a vector
kernel, so `import latcensus` and the commands without one never load it.

Each check runs a fresh interpreter; `-X importtime` lists on stderr every
module the process imported."""

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
    proc = _python("-c", "import latcensus")
    assert proc.returncode == 0, proc.stderr
    assert "latcensus.counting" in _imported(proc.stderr)
    assert "numpy" not in _imported(proc.stderr)


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--n", "2", "--V", "1000"],
        ["count", "--n", "3", "--V", "5000", "--format", "csv", "--ladder", "4"],
        ["constants", "--name", "rho-n", "--n", "4"],
        ["sample", "--n", "3", "--q", str(10**20), "--seed", "1", "--count", "3"],
        ["enumerate", "--n", "2", "--q", "12"],
    ],
    ids=["count", "count-csv-ladder", "constants-rho-n", "sample-q-1e20", "enumerate"],
)
def test_commands_without_a_vector_kernel_leave_numpy_out(argv):
    proc = _python("-m", "latcensus.cli", *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert "numpy" not in _imported(proc.stderr)


def test_import_cli_loads_every_layer_module():
    proc = _python("-c", "import latcensus.cli")
    assert proc.returncode == 0, proc.stderr
    imported = _imported(proc.stderr)
    assert {f"latcensus.{m}" for m in LAYER_MODULES} <= imported
