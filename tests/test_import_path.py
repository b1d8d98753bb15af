"""A run below cond(D) 3e11 loads NumPy only: SciPy is imported by the
solver's other route, the dense KKT LU (``quadrature.solve_linear``) that
serves cond(D) 3e11 and up, alone, and no package of the ``test`` extra
(mpmath, pytest, hypothesis) is imported. Nor is NumPy's masked-array
package, which no solve uses (``import scipy.linalg`` loads it, so the
dense route is not held to this).
The same run loads every module of the package: a module that only the
tests import does not belong in it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wavefocp

SCRIPT = """
import json, sys, tempfile
from wavefocp import cli
from wavefocp.basis import WaveletParams
from wavefocp.solver import solve_focp

with tempfile.TemporaryDirectory() as out:
    for basis in ("tw", "ftw"):
        code = cli.main(["--example", "1", "--basis", basis, "--k", "2", "--M", "4",
                         "--mu", "0.75,1", "--emit", "tables,plotdata,matrices", "--out", out])
        assert code == 0, code
problem = cli._example_spec(3).make_problem(0.8)
sol = solve_focp(problem, WaveletParams(k=5, M=8, mu=0.8), diagnostics=True)
assert "dynamics_defect" in sol.residuals  # the diagnostics ran
print(json.dumps({
    "foreign": sorted(m for m in sys.modules
                      if m.split(".")[0] in ("scipy", "mpmath", "pytest", "hypothesis")),
    "wavefocp": sorted(m for m in sys.modules if m.split(".")[0] == "wavefocp"),
    "numpy_ma": "numpy.ma" in sys.modules,
}))
"""


def _run(script: str) -> str:
    """Stdout of the script in a fresh interpreter on this checkout."""
    src = str(Path(wavefocp.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout


@pytest.fixture(scope="module")
def loaded():
    """The modules that the CLI runs and the diagnostics solve of SCRIPT load."""
    return json.loads(_run(SCRIPT).strip().splitlines()[-1])


def test_cli_runs_and_structured_solves_never_load_scipy(loaded):
    assert loaded["foreign"] == [], loaded


def test_cli_runs_and_diagnostics_never_load_numpy_ma(loaded):
    """The diagnostics' breakpoint merge avoids ``np.unique``, which imports
    ``numpy.ma`` under NumPy 2."""
    assert loaded["numpy_ma"] is False


def test_runs_load_every_package_module(loaded):
    """A module that no solve or CLI run imports, such as one that only
    the tests read, does not belong in the package."""
    package = Path(wavefocp.__file__).parent
    modules = {"wavefocp" if path.stem == "__init__" else f"wavefocp.{path.stem}"
               for path in package.glob("*.py")}
    assert set(loaded["wavefocp"]) == modules


BELOW_GATE_SCRIPT = """
import sys, tempfile
from wavefocp import cli

with tempfile.TemporaryDirectory() as out:
    code = cli.main(["--example", "1", "--basis", "tw", "--k", "2", "--M", "9",
                     "--mu", "0.9", "--out", out])
    assert code == 0, code
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_below_gate_cli_run_never_loads_scipy():
    """At (2, 9) tw (cond(D) 2.6e11, the highest of the CLI runs below the
    3e11 gate) the range-space route solves, so SciPy stays out there too."""
    out = _run(BELOW_GATE_SCRIPT)
    assert out.strip().splitlines()[-1] == "[]", out
