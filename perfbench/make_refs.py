"""Regenerate perfbench/refs.json, the benchmark's accuracy references.

    python3 perfbench/make_refs.py

Run from the repository root; takes about a minute. It writes:

- example1_mu1: closed-form optimum of example 1 at mu = 1 (mpmath, 40 digits).
- example1_mu0.9: converged J of example 1 at mu = 0.9, the median of
  solves at m_hat = 128 and 256 (ftw k = 6, 7 and tw k = 7, M = 4); the
  stated uncertainty is their spread.
- cli: the CLI's cost and 9-point trajectory values for built-in examples
  1 and 3 on both bases at k = 2, 3, M = 4 over the cli-sweep mu list, with
  the tolerance the benchmark checks them against.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from inputs import example1_functions  # noqa: E402
from oracle import DIGITS, Example1Exact  # noqa: E402
from workloads import CLI_EXAMPLES, CLI_TOL, MU_SWEEP, mu_tag, read_cli_outputs  # noqa: E402
from wavefocp import cli, solver  # noqa: E402
from wavefocp.basis import WaveletParams  # noqa: E402


def converged_j(mu: float) -> dict:
    problem = solver.FocpProblem(mu=mu, **example1_functions())
    runs = {
        f"{basis} k={k} M=4": solver.solve_focp(
            problem, WaveletParams(k, 4, mu if basis == "ftw" else 1.0), diagnostics=False
        ).J_value
        for basis, k in (("ftw", 6), ("ftw", 7), ("tw", 7))
    }
    values = list(runs.values())
    return {
        "J": statistics.median(values),
        "uncertainty": max(values) - min(values),
        "solves": runs,
    }


def cli_outputs(work: Path) -> dict:
    out = {}
    for example, basis, k in CLI_EXAMPLES:
        target = work / f"ex{example}_{basis}_k{k}"
        argv = [
            "--example", str(example), "--basis", basis, "--k", str(k), "--M", "4",
            "--mu", ",".join(format(mu, "g") for mu in MU_SWEEP),
            "--out", str(target), "--emit", "tables",
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                raise SystemExit(f"CLI failed for {argv}")
        costs, traj = read_cli_outputs(target, f"example{example}", basis)
        out[f"example{example}/{basis}/k{k}"] = {
            mu_tag(mu): {"J": costs[mu], "x": traj[mu]["x"], "u": traj[mu]["u"]}
            for mu in MU_SWEEP
        }
    return out


def main() -> None:
    exact = Example1Exact()
    work = HERE / "out" / "make_refs"
    try:
        refs = {
            "example1_mu1": {
                "J": exact.J, "B": exact.B, "uncertainty": 10.0 ** -(DIGITS - 5),
                "note": "closed form, x = cosh(r t) + B sinh(r t), r = sqrt(2)",
            },
            "example1_mu0.9": converged_j(0.9),
            "cli": {"tolerance": CLI_TOL, "outputs": cli_outputs(work)},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (HERE / "refs.json").write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
