"""A normal run loads NumPy only: SciPy is imported by the solver's one
other route, the dense KKT LU (``quadrature.solve_linear``), alone, and no
package of the ``test`` extra (mpmath, pytest, hypothesis) is imported."""

import os
import subprocess
import sys
from pathlib import Path

import wavefocp

SCRIPT = """
import sys, tempfile
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
print(sorted(m for m in sys.modules
             if m.split(".")[0] in ("scipy", "mpmath", "pytest", "hypothesis")))
"""


def test_cli_runs_and_structured_solves_never_load_scipy():
    src = str(Path(wavefocp.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.stdout.strip().splitlines()[-1] == "[]", done.stdout
