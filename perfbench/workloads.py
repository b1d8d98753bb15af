"""The three workloads: their seeded op lists and the checks on every op's output.

An op is one closed-loop call into wavefocp: ``call`` is timed, ``check``
is not. A check returns an Outcome:

- ok: outputs finite and every check passed;
- refused: the program reported a numeric failure through its documented
  channel (``SingularMatrixError`` or ``FloatingPointError`` from the
  library, exit code 2 from the CLI);
- failed: anything else (another exception or exit code, a non-finite
  output, a stored-value mismatch, an internal consistency miss).

All calls go through module attributes (``solver.solve_focp``,
``cli.main``) so that the traced run sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from inputs import draw_problem, example1_functions, example3_functions

from wavefocp import cli, solver
from wavefocp.basis import WaveletParams
from wavefocp.quadrature import SingularMatrixError

HERE = Path(__file__).resolve().parent

# Accuracy errors are floored here (and at a reference's own uncertainty) so
# that round-off in an otherwise exact answer cannot read as a regression.
ROUNDOFF = 1e-10
# Stored CLI outputs are written with 9 significant digits; a real change
# of the answer is far larger than this.
CLI_TOL = 1e-7
# J from the quadratic form and from re-quadrature use the same nodes, so
# they agree to round-off unless the solve is broken.
COST_TOL = 1e-8

MU_SWEEP = (0.5, 0.75, 0.85, 0.9, 0.95, 1.0)
CLI_EXAMPLES = [(ex, basis, k) for ex in (1, 3) for basis in ("tw", "ftw") for k in (2, 3)]
TRAJ_GRID = np.linspace(0.0, 1.0, 201)
ACCURACY_GRID = [(2, 4), (3, 8), (4, 8), (5, 6), (5, 8)]
ACCURACY_CASES = [(1, 0.9, "tw"), (1, 0.9, "ftw"), (1, 1.0, "tw"), (3, 0.7, "ftw")]
SEEDED_MU = (0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95)
CLI_SEEDED_FILES = 3


@dataclass
class Outcome:
    status: str
    reason: str = ""
    j_err: float | None = None
    traj_err: float | None = None
    defect: float | None = None


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], Outcome]


@dataclass
class Plan:
    ops: list[Op]
    setup_module: str
    setup_files: list[Path]
    warmup: list[Op]


@dataclass(frozen=True)
class Reference:
    """Reference J (relative or absolute error) and optional exact trajectories."""

    J: float
    uncertainty: float
    relative: bool
    x: Callable | None = None
    u: Callable | None = None

    def j_err(self, J: float) -> float:
        scale = abs(self.J) if self.relative else 1.0
        return max(abs(J - self.J) / scale, self.uncertainty / scale, ROUNDOFF)

    def traj_err(self, x: np.ndarray, u: np.ndarray, grid: np.ndarray) -> float:
        return max(
            float(np.abs(x - self.x(grid)).max()),
            float(np.abs(u - self.u(grid)).max()),
            ROUNDOFF,
        )


def load_refs() -> dict:
    return json.loads((HERE / "refs.json").read_text(encoding="utf-8"))


def references(refs: dict) -> dict:
    """References keyed by (example, mu); example 3 is exact at every mu."""
    r2 = math.sqrt(2.0)
    ex1 = refs["example1_mu1"]
    B = ex1["B"]
    out = {
        (1, 1.0): Reference(
            J=ex1["J"], uncertainty=ex1["uncertainty"], relative=True,
            x=lambda t: np.cosh(r2 * t) + B * np.sinh(r2 * t),
            u=lambda t: (1 + r2 * B) * np.cosh(r2 * t) + (r2 + B) * np.sinh(r2 * t),
        ),
        (1, 0.9): Reference(
            J=refs["example1_mu0.9"]["J"],
            uncertainty=refs["example1_mu0.9"]["uncertainty"], relative=True,
        ),
    }
    for mu in set(MU_SWEEP) | {0.7}:
        _, x, u = example3_functions(mu)
        out[(3, mu)] = Reference(J=0.0, uncertainty=0.0, relative=False, x=x, u=u)
    return out


def classify(exc: BaseException) -> Outcome:
    if isinstance(exc, (SingularMatrixError, FloatingPointError)):
        return Outcome("refused", f"{type(exc).__name__}: {exc}"[:160])
    return Outcome("failed", f"{type(exc).__name__}: {exc}"[:160])


def _finite(*arrays) -> bool:
    return all(np.all(np.isfinite(np.asarray(a, dtype=float))) for a in arrays)


# ---------------------------------------------------------------- library ops


def _library_op(label, problem, params, diagnostics, reference) -> Op:
    def call():
        sol = solver.solve_focp(problem, params, diagnostics=diagnostics)
        x, u = solver.reconstruct_many(sol, TRAJ_GRID)
        return sol, x, u

    def check(result) -> Outcome:
        sol, x, u = result
        J = sol.J_value
        if not _finite(J, list(sol.residuals.values()), x, u):
            return Outcome("failed", "non-finite output")
        if sol.residuals["cost_discrepancy"] > COST_TOL * max(1.0, abs(J)):
            return Outcome("failed", f"cost discrepancy {sol.residuals['cost_discrepancy']:.3e}")
        out = Outcome("ok", defect=sol.residuals.get("dynamics_defect"))
        if reference is None:
            if not J > 0.0:
                return Outcome("failed", f"cost {J!r} not positive")
            return out
        out.j_err = reference.j_err(J)
        if reference.x is not None:
            out.traj_err = reference.traj_err(x, u, TRAJ_GRID)
        return out

    return Op(label, call, check)


def _example_problem(example: int, mu: float):
    if example == 1:
        return solver.FocpProblem(mu=mu, **example1_functions())
    kwargs, _, _ = example3_functions(mu)
    return solver.FocpProblem(mu=mu, **kwargs)


def _basis_params(k: int, M: int, mu: float, basis: str) -> WaveletParams:
    return WaveletParams(k, M, mu if basis == "ftw" else 1.0)


def _library_warmup() -> list[Op]:
    return [
        _library_op(f"warmup {basis}", _example_problem(1, 0.9), _basis_params(1, 2, 0.9, basis), True, None)
        for basis in ("tw", "ftw")
    ]


def fine_solve(seed: int, quick: bool, refs: dict, work: Path) -> Plan:
    """Example 1 at mu = 1 (closed form) at m_hat = 256, and example 1 at
    mu = 0.9 (converged J_ref) and a seeded problem on both bases at
    m_hat = 128; no diagnostics, no expressions, no CLI. The four m_hat =
    128 ops make the median op one of them, so it does not jump between sizes.
    The order is fixed: peak memory depends on it."""
    rng = random.Random(seed)
    draw = draw_problem(rng)
    mu_s = rng.choice(SEEDED_MU)
    seeded = solver.FocpProblem(
        p_fn=draw.p.fn, q_fn=draw.q.fn, a_fn=draw.a.fn, b_fn=draw.b.fn, x0=draw.x0, mu=mu_s
    )
    k_big, k_mid = (3, 2) if quick else (7, 6)
    ref = references(refs)
    ops = [
        _library_op(f"example1 mu=1 tw k={k_big} M=4", _example_problem(1, 1.0),
                    _basis_params(k_big, 4, 1.0, "tw"), False, ref[(1, 1.0)]),
    ]
    for basis in ("ftw", "tw"):
        ops.append(_library_op(f"example1 mu=0.9 {basis} k={k_mid} M=4", _example_problem(1, 0.9),
                               _basis_params(k_mid, 4, 0.9, basis), False, ref[(1, 0.9)]))
        ops.append(_library_op(f"seeded mu={mu_s} {basis} k={k_mid} M=4", seeded,
                               _basis_params(k_mid, 4, mu_s, basis), False, None))
    return Plan(ops, "wavefocp", [], _library_warmup())


def accuracy_grid(seed: int, quick: bool, refs: dict, work: Path) -> Plan:
    """The few-blocks, high-degree corner with diagnostics on, including the
    configurations the seed code gets wrong. The seed only shuffles the order."""
    ref = references(refs)
    grid = ACCURACY_GRID[:1] if quick else ACCURACY_GRID
    ops = [
        _library_op(f"({k},{M}) example{ex} mu={mu} {basis}", _example_problem(ex, mu),
                    _basis_params(k, M, mu, basis), True, ref[(ex, mu)])
        for k, M in grid for ex, mu, basis in ACCURACY_CASES
    ]
    random.Random(seed).shuffle(ops)
    return Plan(ops, "wavefocp", [], _library_warmup())


# -------------------------------------------------------------------- CLI ops


def mu_tag(mu: float) -> str:
    """The CLI's file-name tag for a mu value."""
    return format(mu, ".9g").replace(".", "p").replace("-", "m")


_NUMBER = re.compile(r"[^,\s]+")


def _numbers_finite(path: Path) -> bool:
    for token in _NUMBER.findall(path.read_text(encoding="utf-8")):
        try:
            value = float(token)
        except ValueError:
            continue  # header names and the basis column
        if not math.isfinite(value):
            return False
    return True


def read_cli_outputs(out_dir: Path, name: str, basis: str) -> tuple[dict, dict]:
    """J per mu from the cost table; x, u (and max err column) per mu from the trajectory tables."""
    costs = {}
    lines = (out_dir / f"{name}_{basis}_cost.csv").read_text(encoding="utf-8").splitlines()
    for line in lines[1:]:
        cells = line.split(",")
        costs[float(cells[0])] = float(cells[4])
    traj = {}
    for mu in costs:
        path = out_dir / f"{name}_{basis}_trajectory_mu{mu_tag(mu)}.csv"
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        traj[mu] = {
            "x": table[:, 1].tolist(),
            "u": table[:, 2].tolist(),
            "err": float(table[:, 5:7].max()) if table.shape[1] >= 7 else None,
        }
    return costs, traj


def _close(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return bool(np.all(np.abs(a - b) <= CLI_TOL * np.maximum(1.0, np.abs(b))))


def _cli_op(label, source, name, basis, k, out_dir, stored, ref) -> Op:
    argv = [
        *source, "--basis", basis, "--k", str(k), "--M", "4",
        "--mu", ",".join(format(mu, "g") for mu in MU_SWEEP),
        "--out", str(out_dir), "--emit", "tables,plotdata,matrices",
    ]

    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(code) -> Outcome:
        try:
            return _check_cli(code, out_dir, name, basis, stored, ref)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    return Op(label, call, check)


def _check_cli(code, out_dir, name, basis, stored, ref) -> Outcome:
    if code == 2:
        return Outcome("refused", "exit code 2")
    if code != 0:
        return Outcome("failed", f"exit code {code}")
    if not all(_numbers_finite(p) for p in out_dir.iterdir()):
        return Outcome("failed", "non-finite output")
    costs, traj = read_cli_outputs(out_dir, name, basis)
    if sorted(costs) != sorted(MU_SWEEP):
        return Outcome("failed", f"cost table lists mu {sorted(costs)}")
    out = Outcome("ok")
    if stored is None:
        if not all(J > 0.0 for J in costs.values()):
            return Outcome("failed", "cost not positive")
        return out
    for mu in MU_SWEEP:
        want = stored[mu_tag(mu)]
        if not (_close(costs[mu], want["J"]) and _close(traj[mu]["x"], want["x"])
                and _close(traj[mu]["u"], want["u"])):
            return Outcome("failed", f"mu={mu}: output differs from stored value")
    j_errs = [r.j_err(costs[mu]) for mu in MU_SWEEP if (r := ref.get(mu)) is not None]
    out.j_err = max(j_errs) if j_errs else None
    if name == "example3":
        out.traj_err = max(ROUNDOFF, *(traj[mu]["err"] for mu in MU_SWEEP))
    return out


def cli_sweep(seed: int, quick: bool, refs: dict, work: Path) -> Plan:
    """In-process CLI runs over the reference mu sweep: built-in examples 1
    and 3 on both bases at k = 2, 3, and seeded problem files on both bases
    at k = 2. k = 2 runs outnumber k = 3 runs so the median op is a k = 2 run."""
    rng = random.Random(seed)
    work.mkdir(parents=True, exist_ok=True)
    files = []
    for i in range(1 if quick else CLI_SEEDED_FILES):
        path = work / f"seeded{i + 1}.txt"
        path.write_text(draw_problem(rng).problem_file(), encoding="utf-8")
        files.append(path)
    stored = refs["cli"]["outputs"]
    ref = references(refs)
    examples = [(1, "tw", 2), (3, "ftw", 2)] if quick else CLI_EXAMPLES
    ops = []
    for example, basis, k in examples:
        name = f"example{example}"
        ops.append(_cli_op(
            f"{name} {basis} k={k}", ["--example", str(example)], name, basis, k,
            work / f"op{len(ops)}", stored[f"{name}/{basis}/k{k}"],
            {mu: r for (ex, mu), r in ref.items() if ex == example},
        ))
    for path in files:
        for basis in ("tw", "ftw"):
            ops.append(_cli_op(
                f"{path.stem} {basis} k=2", ["--problem", str(path)], path.stem, basis, 2,
                work / f"op{len(ops)}", None, None,
            ))
    rng.shuffle(ops)
    warmup = [_cli_op("warmup", ["--example", "1"], "example1", "ftw", 1,
                      work / "warmup", None, None)]
    return Plan(ops, "wavefocp.cli", files, warmup)


WORKLOADS = {"cli-sweep": cli_sweep, "fine-solve": fine_solve, "accuracy-grid": accuracy_grid}
