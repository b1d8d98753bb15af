"""Batch command line runner.

Solves the built-in reference problems or a user problem file over a list
of fractional orders, and writes deterministic CSV tables, plot-data
files, and optional operational-matrix dumps.

Exit codes: 0 success, 1 validation/usage error, 2 numeric failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .basis import MIN_ORDER, WaveletParams
from .expressions import ExpressionError, as_function, parse_expression
from .opmats import OperationalMatrices, build_operational_matrices
from .quadrature import SingularMatrixError, gamma
from .solver import FocpProblem, reconstruct_many, sample_checked, solve_focp

Fn = Callable[[np.ndarray], np.ndarray]

_TABLE_GRID = np.arange(1, 10) / 10.0
_PLOT_GRID = np.linspace(0.0, 1.0, 200)


class UsageError(ValueError):
    """Bad flags or an invalid problem definition."""


def _mu_tag(mu: float) -> str:
    return format(mu, ".9g").replace(".", "p").replace("-", "m")


@dataclass(frozen=True)
class RunConfig:
    """One batch run: problem, basis family, discretization, outputs."""

    spec: ProblemSpec
    basis: str
    k: int
    M: int
    mu_list: tuple[float, ...]
    out_dir: Path
    emit: tuple[str, ...]

    def __post_init__(self):
        if self.basis not in ("tw", "ftw"):
            raise UsageError(f"basis must be tw or ftw, got {self.basis!r}")
        if self.k < 1 or self.M < 1:
            raise UsageError("k and M must be positive integers")
        if not self.mu_list:
            raise UsageError("at least one mu value is required")
        tags: dict[str, float] = {}
        for mu in self.mu_list:
            if not MIN_ORDER <= mu <= 1.0:
                raise UsageError(f"mu values must lie in [{MIN_ORDER:g}, 1], got {mu}")
            # output files are named by tag: a repeated tag would overwrite
            tag = _mu_tag(mu)
            if tag in tags:
                raise UsageError(f"mu values {tags[tag]!r} and {mu!r} share the file tag {tag!r}")
            tags[tag] = mu
        bad = set(self.emit) - {"tables", "plotdata", "matrices"}
        if bad:
            raise UsageError(f"unknown emit flags: {sorted(bad)}")


@dataclass(frozen=True)
class ProblemSpec:
    """Mu-parametrized problem plus, per mu, the optional exact state and
    control for error columns."""

    name: str
    make_problem: Callable[[float], FocpProblem]
    exact: Callable[[float], tuple[Fn, Fn] | None] = lambda mu: None


def _example_spec(example: int) -> ProblemSpec:
    if example == 1:
        sqrt2 = math.sqrt(2.0)
        varpi = -0.98

        def exact(mu: float) -> tuple[Fn, Fn] | None:
            if mu != 1.0:
                return None
            return (
                lambda z: np.cosh(sqrt2 * z) + varpi * np.sinh(sqrt2 * z),
                lambda z: (1.0 + sqrt2 * varpi) * np.cosh(sqrt2 * z)
                + (sqrt2 + varpi) * np.sinh(sqrt2 * z),
            )

        return ProblemSpec(
            name="example1",
            make_problem=lambda mu: FocpProblem(
                p_fn=lambda z: np.ones_like(z), q_fn=lambda z: np.ones_like(z),
                a_fn=lambda z: -np.ones_like(z), b_fn=lambda z: np.ones_like(z),
                x0=1.0, mu=mu,
            ),
            exact=exact,
        )
    if example == 2:
        return ProblemSpec(
            name="example2",
            make_problem=lambda mu: FocpProblem(
                p_fn=lambda z: np.ones_like(z), q_fn=lambda z: np.ones_like(z),
                a_fn=lambda z: np.asarray(z, dtype=float),
                b_fn=lambda z: np.ones_like(z),
                x0=1.0, mu=mu,
            ),
        )
    if example == 3:

        def rx(mu: float) -> Fn:
            return lambda z: np.asarray(z, dtype=float) ** mu

        def ru(mu: float) -> Fn:
            g = gamma(mu + 1.0)
            return lambda z: np.asarray(z, dtype=float) ** mu + g

        return ProblemSpec(
            name="example3",
            make_problem=lambda mu: FocpProblem(
                p_fn=lambda z: np.ones_like(z), q_fn=lambda z: np.ones_like(z),
                a_fn=lambda z: -np.ones_like(z), b_fn=lambda z: np.ones_like(z),
                x0=0.0, mu=mu, track_x=rx(mu), track_u=ru(mu),
            ),
            exact=lambda mu: (rx(mu), ru(mu)),
        )
    raise UsageError(f"example must be 1, 2, or 3, got {example}")


def _number_list(text: str, message: str) -> tuple[float, ...]:
    """The numbers of a comma-separated list; UsageError(message) if one is not."""
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise UsageError(message) from exc


def parse_problem_file(path: Path) -> tuple[ProblemSpec, dict]:
    """Read a `key = value` problem file; returns the spec plus raw settings.

    Recognized keys: p, q, a, b, rx, ru, exact_x, exact_u (expressions in t),
    x0 (number), mu (comma-separated list), basis, k, M; exact_x and
    exact_u come together or not at all. Lines starting with `#` and blank
    lines are ignored.
    """
    if not path.exists():
        raise UsageError(f"problem file not found: {path}")
    values: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not key or not val:
            raise UsageError(f"{path}:{lineno}: empty key or value")
        if key in values:
            raise UsageError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = val

    known = {"p", "q", "a", "b", "rx", "ru", "exact_x", "exact_u",
             "x0", "mu", "basis", "k", "M"}
    unknown = set(values) - known
    if unknown:
        raise UsageError(f"{path}: unknown keys: {sorted(unknown)}")
    for req in ("p", "q", "a", "b", "x0"):
        if req not in values:
            raise UsageError(f"{path}: missing required key {req!r}")
    for given, other in (("exact_x", "exact_u"), ("exact_u", "exact_x")):
        if given in values and other not in values:
            raise UsageError(f"{path}: missing key {other!r}, which {given!r} needs")

    def expr_fn(key: str) -> Fn | None:
        """The field's function; a parse error names the key, an evaluation
        error the field (track_x, track_u for rx, ru) in ``sample_checked``."""
        if key not in values:
            return None
        try:
            return as_function(parse_expression(values[key]))
        except ExpressionError as exc:
            raise UsageError(f"{path}: field {key!r}: {exc}") from exc

    p_fn, q_fn = expr_fn("p"), expr_fn("q")
    a_fn, b_fn = expr_fn("a"), expr_fn("b")
    rx_fn, ru_fn = expr_fn("rx"), expr_fn("ru")
    ex_fn, eu_fn = expr_fn("exact_x"), expr_fn("exact_u")
    exact = None if ex_fn is None else (ex_fn, eu_fn)
    try:
        x0 = float(values["x0"])
    except ValueError as exc:
        raise UsageError(f"{path}: field 'x0' must be a number") from exc

    spec = ProblemSpec(
        name=path.stem,
        make_problem=lambda mu: FocpProblem(
            p_fn=p_fn, q_fn=q_fn, a_fn=a_fn, b_fn=b_fn,
            x0=x0, mu=mu, track_x=rx_fn, track_u=ru_fn,
        ),
        exact=lambda mu: exact,
    )
    settings = {}
    if "mu" in values:
        settings["mu_list"] = _number_list(
            values["mu"], f"{path}: field 'mu' must be a number list")
    if "basis" in values:
        settings["basis"] = values["basis"].lower()
    for key in ("k", "M"):
        if key in values:
            try:
                settings[key] = int(values[key])
            except ValueError as exc:
                raise UsageError(f"{path}: field {key!r} must be an integer") from exc
    return spec, settings


def _table_text(values: np.ndarray, sep: str) -> str:
    """The rows of a 2-D array, values joined by sep, one row per line: one
    ``%`` over a row template, which gives every value as
    format(v, ".9g") does."""
    values = np.asarray(values, dtype=float)
    row = sep.join(["%.9g"] * values.shape[1]) + "\n"
    return (row * values.shape[0]) % tuple(values.ravel().tolist())


def _exact_values(exact: tuple[Fn, Fn], grid: np.ndarray) -> list[np.ndarray]:
    """The exact state and control on an output grid; a value that is not
    finite is refused by field name."""
    return list(sample_checked(dict(zip(("exact_x", "exact_u"), exact)), grid,
                               "on the output grid").values())


def run(config: RunConfig) -> list[Path]:
    """Execute the batch run; returns the files written.

    Every mu is solved and every file's text made before any file is
    written, so a numeric failure leaves no output. The run keeps one
    operational-matrix bundle per basis: on the Taylor wavelets every mu
    shares the grid, D and P1 of the (k, M, 1) bundle, and only ``Pmu`` is
    built per order.
    """
    spec = config.spec
    prefix = f"{spec.name}_{config.basis}"
    outputs: list[tuple[str, str]] = []
    costs: list = []
    bundles: dict[WaveletParams, OperationalMatrices] = {}
    dumps: dict[WaveletParams, tuple[str, str]] = {}

    for mu in config.mu_list:
        problem = spec.make_problem(mu)
        params = WaveletParams(k=config.k, M=config.M, mu=mu if config.basis == "ftw" else 1.0)
        base = bundles.get(params)
        if base is None:
            base = bundles[params] = build_operational_matrices(params, frac_order=mu)
        mats = base.at_order(mu)
        sol = solve_focp(problem, params, mats, diagnostics=False)
        costs += [mu, config.basis, config.k, config.M, sol.J_value]
        tag = _mu_tag(mu)
        exact = spec.exact(mu)

        if "tables" in config.emit:
            x, u = reconstruct_many(sol, _TABLE_GRID)
            header = "zeta,x,u"
            cols = [_TABLE_GRID, x, u]
            if exact is not None:
                xe, ue = _exact_values(exact, _TABLE_GRID)
                header += ",exact_x,exact_u,err_x,err_u"
                cols += [xe, ue, np.abs(x - xe), np.abs(u - ue)]
            text = header + "\n" + _table_text(np.column_stack(cols), ",")
            outputs.append((f"{prefix}_trajectory_mu{tag}.csv", text))

        if "plotdata" in config.emit:
            x, u = reconstruct_many(sol, _PLOT_GRID)
            cols = [_PLOT_GRID, x, u]
            if exact is not None:
                cols += _exact_values(exact, _PLOT_GRID)
            outputs.append((f"{prefix}_plot_mu{tag}.dat", _table_text(np.column_stack(cols), " ")))

        if "matrices" in config.emit:
            if params not in dumps:
                dumps[params] = (_table_text(base.D, ","), _table_text(base.P1, ","))
            texts = (*dumps[params], _table_text(mats.Pmu, ","))
            for label, text in zip(("D", "P1", "Pmu"), texts):
                outputs.append((f"{prefix}_{label}_mu{tag}.csv", text))

    cost_rows = "%.9g,%s,%d,%d,%.9g\n" * len(config.mu_list)
    outputs.append((f"{prefix}_cost.csv", "mu,basis,k,M,J\n" + cost_rows % tuple(costs)))

    config.out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, text in outputs:
        path = config.out_dir / name
        path.write_text(text, encoding="utf-8", newline="\n")
        written.append(path)
    return written


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wavefocp",
        description="Solve linear-quadratic fractional optimal control "
        "problems with Taylor-wavelet operational matrices.",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--example", type=int, help="built-in problem 1, 2, or 3")
    source.add_argument("--problem", type=Path, help="path to a problem file")
    parser.add_argument("--basis", choices=["tw", "ftw"], default=None)
    parser.add_argument("--k", type=int, default=None, help="resolution level")
    parser.add_argument("--M", type=int, default=None, help="polynomials per block")
    parser.add_argument("--mu", default=None, help="comma-separated order list")
    parser.add_argument("--out", type=Path, default=Path("."), help="output directory")
    parser.add_argument(
        "--emit", default="tables",
        help="comma-separated subset of tables,plotdata,matrices",
    )
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.problem is not None:
        spec, file_settings = parse_problem_file(args.problem)
    else:
        spec, file_settings = _example_spec(args.example), {}

    basis = args.basis or file_settings.get("basis", "ftw")
    k = args.k if args.k is not None else file_settings.get("k", 2)
    M = args.M if args.M is not None else file_settings.get("M", 4)
    if args.mu is not None:
        mu_list = _number_list(args.mu, "--mu must be a comma-separated number list")
    else:
        mu_list = file_settings.get("mu_list", (1.0,))
    emit = tuple(tok.strip() for tok in args.emit.split(",") if tok.strip())
    return RunConfig(
        spec=spec, basis=basis, k=k, M=M, mu_list=mu_list, out_dir=args.out, emit=emit,
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = config = None
    try:
        args = parser.parse_args(argv)
        config = _config_from_args(args)
        written = run(config)
    except (SingularMatrixError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, OverflowError):  # OverflowError: sizes past the index range
        at = "" if config is None else f" at m_hat={WaveletParams(k=config.k, M=config.M).m_hat}"
        print(f"numeric failure: out of memory{at}", file=sys.stderr)
        return 2
    except (UsageError, OSError) as exc:  # OSError: --problem or --out unusable
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # FocpProblem or sample_checked refused the data: name the file
        source = f"{args.problem}: " if args is not None and args.problem else ""
        print(f"error: {source}{exc}", file=sys.stderr)
        return 1
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
