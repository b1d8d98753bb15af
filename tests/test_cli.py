import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import UNSTABLE_PROBLEM_FILE
from wavefocp import cli, opmats
from wavefocp.basis import WaveletParams
from wavefocp.cli import (
    RunConfig,
    UsageError,
    _table_text,
    main,
    parse_problem_file,
    run,
)

EXAMPLE1_FILE = """\
# first reference problem
p = 1
q = 1
a = -1
b = 1
x0 = 1
mu = 1
basis = tw
k = 2
M = 4
"""


def _config(tmp_path, **overrides):
    fields = dict(spec=cli._example_spec(1), basis="tw", k=2, M=4, mu_list=(1.0,),
                  out_dir=tmp_path, emit=("tables",))
    return RunConfig(**{**fields, **overrides})


class TestRunConfig:
    def test_requires_exactly_one_source(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        path.write_text(EXAMPLE1_FILE, encoding="utf-8")
        assert main(["--out", str(tmp_path)]) == 1
        assert main(["--example", "1", "--problem", str(path), "--out", str(tmp_path)]) == 1
        capsys.readouterr()
        assert list(tmp_path.iterdir()) == [path]

    def test_validates_mu_range(self, tmp_path):
        with pytest.raises(UsageError):
            _config(tmp_path, mu_list=(1.5,))

    def test_validates_emit_flags(self, tmp_path):
        with pytest.raises(UsageError):
            _config(tmp_path, emit=("pictures",))


class TestProblemFiles:
    def test_parse_example_encoding(self, tmp_path):
        path = tmp_path / "prob.txt"
        path.write_text(EXAMPLE1_FILE, encoding="utf-8")
        spec, settings = parse_problem_file(path)
        assert settings == {"mu_list": (1.0,), "basis": "tw", "k": 2, "M": 4}
        problem = spec.make_problem(1.0)
        assert problem.x0 == 1.0

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "prob.txt"
        path.write_text("p = 1\nq = 1\na = -1\nb = 1\n", encoding="utf-8")
        with pytest.raises(UsageError, match="x0"):
            parse_problem_file(path)

    def test_bad_line_reports_number(self, tmp_path):
        path = tmp_path / "prob.txt"
        path.write_text("p = 1\nnonsense line\n", encoding="utf-8")
        with pytest.raises(UsageError, match="prob.txt:2"):
            parse_problem_file(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "prob.txt"
        path.write_text(EXAMPLE1_FILE + "wibble = 3\n", encoding="utf-8")
        with pytest.raises(UsageError, match="wibble"):
            parse_problem_file(path)

    def test_zero_q_rejected_by_name(self, tmp_path):
        path = tmp_path / "prob.txt"
        path.write_text(EXAMPLE1_FILE.replace("q = 1", "q = 0"), encoding="utf-8")
        spec, _ = parse_problem_file(path)
        with pytest.raises(ValueError, match=r"q must be strictly positive on \[0, 1\]"):
            spec.make_problem(1.0)

    def test_file_matches_builtin_example(self, tmp_path):
        path = tmp_path / "prob.txt"
        path.write_text(EXAMPLE1_FILE, encoding="utf-8")
        out_file = tmp_path / "file_run"
        out_builtin = tmp_path / "builtin_run"
        assert main(["--problem", str(path), "--out", str(out_file)]) == 0
        assert main(["--example", "1", "--basis", "tw", "--k", "2", "--M", "4",
                     "--mu", "1", "--out", str(out_builtin)]) == 0
        got = (out_file / "prob_tw_cost.csv").read_bytes()
        want = (out_builtin / "example1_tw_cost.csv").read_bytes()
        # same numbers; only the problem name column is absent from both
        assert got == want

    def test_problem_file_parsed_once(self, tmp_path, monkeypatch, capsys):
        """A --problem run reads its file once: the settings and the spec come
        from the same parse, and each expression key is parsed once."""
        path = tmp_path / "prob.txt"
        path.write_text(EXAMPLE1_FILE, encoding="utf-8")
        calls = {"parse_problem_file": 0, "parse_expression": 0}

        def counted(name):
            original = getattr(cli, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(cli, name, wrapper)

        counted("parse_problem_file")
        counted("parse_expression")
        assert main(["--problem", str(path), "--out", str(tmp_path / "o")]) == 0
        capsys.readouterr()
        assert calls == {"parse_problem_file": 1, "parse_expression": 4}

    def test_exact_columns_from_expressions(self, tmp_path):
        path = tmp_path / "prob.txt"
        path.write_text(
            "p = 1\nq = 1\na = -1\nb = 1\nx0 = 0\nmu = 0.5\nbasis = ftw\n"
            "k = 2\nM = 4\n"
            "rx = t^0.5\nru = t^0.5 + gamma(1.5)\n"
            "exact_x = t^0.5\nexact_u = t^0.5 + gamma(1.5)\n",
            encoding="utf-8",
        )
        assert main(["--problem", str(path), "--out", str(tmp_path / "o")]) == 0
        table = (tmp_path / "o" / "prob_ftw_trajectory_mu0p5.csv").read_text()
        lines = table.strip().split("\n")
        assert lines[0] == "zeta,x,u,exact_x,exact_u,err_x,err_u"
        errs = np.array(
            [[float(v) for v in line.split(",")[5:]] for line in lines[1:]]
        )
        assert np.all(errs >= 0.0)
        assert errs.max() <= 1e-6


class TestCliRuns:
    def test_exit_codes(self, tmp_path, capsys):
        assert main(["--example", "9", "--out", str(tmp_path)]) == 1
        assert main(["--example", "1", "--mu", "1.7", "--out", str(tmp_path)]) == 1
        assert main(["--problem", str(tmp_path / "missing.txt")]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("mu_arg, first, second", [
        ("0.5,0.5", "0.5", "0.5"),
        ("0.5,0.5000000001", "0.5", "0.5000000001"),
    ])
    def test_mu_values_sharing_a_file_tag_rejected(self, tmp_path, capsys, mu_arg, first, second):
        """Both values would write ..._trajectory_mu0p5.csv: the second run
        would overwrite the first while the cost table listed both."""
        out = tmp_path / "out"
        assert main(["--example", "1", "--mu", mu_arg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"mu values {first} and {second} share the file tag '0p5'" in err
        assert not out.exists()

    def test_numeric_failure_exit_code(self, tmp_path, capsys):
        # the dense KKT LU, which serves cond(D) 3e11 and up, refuses (2, 12) tw
        # at mu 0.7 on its pivot ratio
        args = ["--example", "1", "--basis", "tw", "--k", "2", "--M", "12", "--mu", "0.7"]
        with pytest.warns(UserWarning, match="condition"):
            assert main(args + ["--out", str(tmp_path)]) == 2
        assert "numeric failure" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())
        # mu = 1 solves; mu = 0.5 fails afterwards, and nothing is written
        args = ["--example", "1", "--basis", "ftw", "--k", "2", "--M", "12", "--mu", "1,0.5"]
        with pytest.warns(UserWarning, match="condition"):
            assert main(args + ["--out", str(tmp_path / "sweep")]) == 2
        assert "numeric failure" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_out_of_memory_exit_code(self, tmp_path, monkeypatch, capsys):
        """A run that cannot allocate is a numeric failure (exit 2) that
        names m_hat, not a traceback, and it writes nothing."""

        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "build_operational_matrices", no_memory)
        out = tmp_path / "out"
        assert main(["--example", "1", "--k", "3", "--M", "5", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "numeric failure: out of memory at m_hat=20\n"
        assert not out.exists()

    def test_out_of_memory_before_config_exit_code(self, tmp_path, monkeypatch, capsys):
        """Running out of memory while reading the problem file, before the
        run's configuration exists, is the same numeric failure (exit 2),
        without m_hat, and it writes nothing."""

        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "parse_problem_file", no_memory)
        out = tmp_path / "out"
        assert main(["--problem", str(tmp_path / "huge.txt"), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "numeric failure: out of memory\n"
        assert not out.exists()

    @pytest.mark.parametrize("line, field", [
        ("x0 = nan", "x0"), ("x0 = inf", "x0"), ("p = exp(1000*t)", "p"),
        ("q = exp(1000*t)", "q"), ("a = exp(1000*t)", "a"), ("b = exp(1000*t)", "b"),
        ("p = 1 + exp(0.001/((t - 0.00505)^2 + 1e-12))", "p"),
        ("a = -exp(0.001/((t - 0.00505)^2 + 1e-12))", "a"), ("p = gamma(200*t + 1)", "p")])
    def test_non_finite_problem_data_exit_code(self, tmp_path, capsys, line, field):
        """Non-finite problem data is a validation error (exit 1) that names
        the field, with no warning and no file written; x0 = nan used to
        exit 0 with J = nan in the cost file. The spikes are finite on the
        100-point validation grid and overflow at a quadrature node; they,
        and the Gamma overflow, ended in a traceback."""
        key = line.split(" = ")[0]
        text = "".join(line + "\n" if row.startswith(key + " =") else row + "\n"
                       for row in EXAMPLE1_FILE.splitlines())
        path = tmp_path / "prob.txt"
        path.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--problem", str(path), "--out", str(out)]) == 1
        assert f"{field} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, field", [("rx", "track_x"), ("ru", "track_u")])
    def test_non_finite_tracking_target_exit_code(self, tmp_path, capsys, key, field):
        """A tracking target that overflows on the grid exits 1, names the
        field and writes nothing; rx = exp(1000*t) used to exit 0 with
        J = nan. A target infinite only at t = 0 still solves."""
        path = tmp_path / "prob.txt"
        path.write_text(EXAMPLE1_FILE + f"{key} = exp(1000*t)\n", encoding="utf-8")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--problem", str(path), "--out", str(out)]) == 1
        assert f"{field} must be finite" in capsys.readouterr().err
        assert not out.exists()
        path.write_text(EXAMPLE1_FILE + f"{key} = t^(-0.25)\n", encoding="utf-8")
        assert main(["--problem", str(path), "--out", str(out)]) == 0
        capsys.readouterr()
        assert (out / "prob_tw_cost.csv").exists()

    @pytest.mark.parametrize("emit", ["tables", "plotdata"])
    @pytest.mark.parametrize("key", ["exact_x", "exact_u"])
    def test_non_finite_exact_solution_exit_code(self, tmp_path, capsys, key, emit):
        """An exact solution that overflows on an output grid exits 1, names
        the field and the file and writes nothing, with no warning;
        exact_x = exp(1000*t) used to exit 0 with inf in the error columns."""
        exact = {"exact_x": "1", "exact_u": "1", key: "exp(1000*t)"}
        path = tmp_path / "prob.txt"
        path.write_text(EXAMPLE1_FILE + "".join(f"{k} = {v}\n" for k, v in exact.items()),
                        encoding="utf-8")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--problem", str(path), "--emit", emit, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: {key} must be finite on the output grid\n"
        assert not out.exists()

    @pytest.mark.parametrize("given, missing", [("exact_x", "exact_u"), ("exact_u", "exact_x")])
    def test_lone_exact_solution_refused(self, tmp_path, capsys, given, missing):
        """A file with one exact field and not the other exits 1 and names
        the missing key; it used to exit 0 with no error columns."""
        path = tmp_path / "prob.txt"
        path.write_text(EXAMPLE1_FILE + f"{given} = 1\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--problem", str(path), "--out", str(out)]) == 1
        assert f"missing key {missing!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line, refusal", [
        ("p = gamma(200*t + 1)", "p must be finite on [0, 1]"),
        ("p = 1 + exp(0.001/((t - 0.00505)^2 + 1e-12))",
         "p must be finite on the quadrature nodes"),
        ("rx = gamma(300*t + 1)", "track_x must be finite on the quadrature nodes"),
        ("q = 1 - 20*exp(-((t - 0.5)/0.0013)^2)",
         "q must be strictly positive on the quadrature nodes"),
    ])
    def test_problem_data_refusal_names_the_file_once(self, tmp_path, capsys, line, refusal):
        """Data refused on the validation grid and data refused on the
        quadrature nodes (the spike in p, the Gamma overflow in rx, the dip
        of q to -19 between the grid's points) all name the problem file,
        once; the spike and the overflow used to omit it, and the dip
        solved with exit 0."""
        rows = {"p": "1", "q": "1", "a": "-1", "b": "1", "x0": "1"}
        key, _, value = line.partition(" = ")
        rows[key] = value
        path = tmp_path / "spike.txt"
        path.write_text("".join(f"{k} = {v}\n" for k, v in rows.items()), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--problem", str(path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {path}: {refusal}\n")
        assert not out.exists()

    @pytest.mark.parametrize("key, value, emit", [
        ("p", "t^(-0.25)", "tables"),
        ("a", "-1 + 0*t^(-1)", "tables"),
        ("exact_x", "t^(-0.5)", "plotdata"),
    ])
    def test_evaluation_error_names_the_field(self, tmp_path, capsys, key, value, emit):
        """An expression that fails where it is evaluated (0^-0.25 and 0^-1
        on the validation grid, 0^-0.5 at t = 0 of the plot grid) exits 1
        and names the file and the field, once; the field used to go
        unnamed."""
        rows = {"p": "1", "q": "1", "a": "-1", "b": "1", "x0": "1", "exact_u": "1"}
        rows[key] = value
        rows.setdefault("exact_x", "1")
        path = tmp_path / "prob.txt"
        path.write_text("".join(f"{k} = {v}\n" for k, v in rows.items()), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--problem", str(path), "--emit", emit, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: field {key!r}: invalid power operation")
        assert captured.err.count("field") == 1
        assert not out.exists()

    @pytest.mark.parametrize("value, refusal", [
        ("(" * 1200 + "1" + ")" * 1200, "expression nested too deeply"),
        ("2+" + "-" * 1200 + "1", "expression nested too deeply"),
        ("+".join(["1"] * 3000), "expression nested too deeply"),
        ("1 + gamma(t - 2)", "gamma requires finite x > 0, got -2.0"),
    ], ids=["parentheses", "unary-minus", "long-sum", "gamma-domain"])
    def test_expression_refusal_names_the_field(self, tmp_path, capsys, value, refusal):
        """Expressions nested past Python's recursion limit (refused where
        they are parsed, or the long sum where it is evaluated) and Gamma's
        domain error exit 1 with the file and the field named and no
        traceback; the first three used to crash with a RecursionError and
        the last went unnamed, its argument printed as np.float64(-2.0)."""
        path = tmp_path / "deep.txt"
        path.write_text(f"p = {value}\nq = 1\na = -1\nb = 1\nx0 = 1\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--problem", str(path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {path}: field 'p': {refusal}\n")
        assert "np.float64(" not in captured.err
        assert not out.exists()

    def test_level_past_the_index_range_is_out_of_memory(self, tmp_path, capsys):
        """At k = 65 the 2^64 blocks do not fit an index: the run is refused
        as k = 40 is, out of memory (exit 2) before anything is allocated,
        and nothing is written; it used to end in an OverflowError."""
        out = tmp_path / "out"
        assert main(["--example", "1", "--k", "65", "--M", "4", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"numeric failure: out of memory at m_hat={2**64 * 4}\n"
        assert not out.exists()

    @pytest.mark.parametrize("mu", ["1e-16", "1e-17", "1e-300"])
    def test_order_below_the_floor_refused_by_name(self, tmp_path, capsys, mu):
        """On the tw basis, 1e-16 divided by zero in the Jacobi rules (exit 0
        with a RuntimeWarning) and 1e-17 and 1e-300 were refused by a kernel
        exponent the user never set; now each is refused as mu, exit 1."""
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["--example", "1", "--basis", "tw", "--k", "2", "--M", "4",
                         "--mu", mu, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: mu values must lie in [1e-11, 1], got {float(mu)}\n"
        assert not out.exists()

    def test_unusable_problem_or_out_path_exit_code(self, tmp_path, capsys):
        """A directory as --problem, or an existing file as --out, is a
        usage error (exit 1), not a traceback; the file is left unchanged."""
        assert main(["--problem", str(tmp_path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()
        out = tmp_path / "taken"
        out.write_text("kept\n", encoding="utf-8")
        assert main(["--example", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert out.read_text(encoding="utf-8") == "kept\n"

    def test_unstable_problem_file_solves(self, tmp_path):
        """At (4, 4) tw the range-space route solves the strongly unstable
        dynamics of ``UNSTABLE_PROBLEM_FILE``, and the run writes its cost
        row."""
        path = tmp_path / "unstable.txt"
        path.write_text(UNSTABLE_PROBLEM_FILE, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--problem", str(path), "--basis", "tw", "--k", "4", "--M", "4",
                     "--out", str(out)]) == 0
        header, row = (out / "unstable_tw_cost.csv").read_text().splitlines()
        assert header == "mu,basis,k,M,J"
        assert row.startswith("0.6,tw,4,4,")
        assert float(row.split(",")[-1]) == pytest.approx(0.28835, abs=1e-5)

    def test_emit_matrices(self, tmp_path):
        assert main([
            "--example", "1", "--basis", "ftw", "--k", "2", "--M", "4",
            "--mu", "0.9", "--out", str(tmp_path), "--emit", "matrices",
        ]) == 0
        for label in ("D", "P1", "Pmu"):
            f = tmp_path / f"example1_ftw_{label}_mu0p9.csv"
            assert f.exists()
            rows = f.read_text().strip().split("\n")
            assert len(rows) == 8 and len(rows[0].split(",")) == 8

    def test_plotdata_shape(self, tmp_path):
        assert main([
            "--example", "3", "--basis", "ftw", "--mu", "0.8",
            "--out", str(tmp_path), "--emit", "plotdata",
        ]) == 0
        data = np.loadtxt(tmp_path / "example3_ftw_plot_mu0p8.dat")
        assert data.shape == (200, 5)
        np.testing.assert_allclose(data[:, 0], np.linspace(0.0, 1.0, 200))

    def test_determinism(self, tmp_path):
        args = ["--example", "1", "--basis", "ftw", "--k", "2", "--M", "4",
                "--mu", "0.5,0.75,0.85,0.95,0.99,1",
                "--emit", "tables,plotdata"]
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        files1 = sorted(p.name for p in out1.iterdir())
        files2 = sorted(p.name for p in out2.iterdir())
        assert files1 == files2
        for name in files1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_lf_line_endings_and_9_digits(self, tmp_path):
        assert main(["--example", "1", "--basis", "tw", "--mu", "1",
                     "--out", str(tmp_path)]) == 0
        raw = (tmp_path / "example1_tw_cost.csv").read_bytes()
        assert b"\r" not in raw
        value = raw.decode().strip().split("\n")[1].split(",")[-1]
        assert len(value.replace(".", "").replace("-", "").lstrip("0")) <= 9


class TestSweepOutput:
    MU = ["0.5", "0.75", "0.85", "0.9", "0.95", "1"]

    def test_tw_sweep_shares_one_bundle(self, tmp_path, monkeypatch, capsys):
        """A tw sweep builds the grid, D and P1 once and P^mu once per order,
        and writes the bytes of runs that build a fresh bundle for each mu."""
        base = ["--example", "3", "--basis", "tw", "--k", "2", "--M", "4",
                "--emit", "tables,plotdata,matrices"]
        for mu in self.MU:
            assert main(base + ["--mu", mu, "--out", str(tmp_path / f"single{mu}")]) == 0

        calls = {"quadrature_grid": 0, "build_operational_matrices": 0,
                 "integration_matrix_first_order": 0, "integration_matrix_fractional": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(cli, "build_operational_matrices")
        for name in ("quadrature_grid", "integration_matrix_first_order",
                     "integration_matrix_fractional"):
            counted(opmats, name)
        sweep = tmp_path / "sweep"
        assert main(base + ["--mu", ",".join(self.MU), "--out", str(sweep)]) == 0
        capsys.readouterr()
        assert calls == {"quadrature_grid": 1, "build_operational_matrices": 1,
                         "integration_matrix_first_order": 1,
                         "integration_matrix_fractional": 5}

        cost_rows = ["mu,basis,k,M,J\n"]
        for mu in self.MU:
            single = tmp_path / f"single{mu}"
            for path in single.iterdir():
                if path.name.endswith("_cost.csv"):
                    _, row = path.read_text().splitlines(keepends=True)
                    cost_rows.append(row)
                else:
                    assert (sweep / path.name).read_bytes() == path.read_bytes(), path.name
        assert (sweep / "example3_tw_cost.csv").read_text() == "".join(cost_rows)
        assert len(list(sweep.iterdir())) == 5 * len(self.MU) + 1
        for label in ("D", "P1"):
            texts = {(sweep / f"example3_tw_{label}_mu{mu.replace('.', 'p')}.csv").read_bytes()
                     for mu in self.MU}
            assert len(texts) == 1

    @pytest.mark.parametrize("basis, builds", [("ftw", 11), ("tw", 6)])
    def test_order_one_built_once(self, tmp_path, monkeypatch, capsys, basis, builds):
        """P1 and the order-1 P^mu of a basis are one build: the reference
        sweep assembles an integration matrix 11 times on ftw (P^mu and P1
        at five mu, one matrix at mu = 1) and 6 times on tw (P^mu at five
        orders and P1), one fewer than when order 1 was built twice. The
        files hold the bits of a fresh order-1 build."""
        original = opmats._integration_matrix
        orders = []

        def counted(params, mats, order):
            orders.append(order)
            return original(params, mats, order)

        monkeypatch.setattr(opmats, "_integration_matrix", counted)
        out = tmp_path / "sweep"
        assert main(["--example", "1", "--basis", basis, "--k", "2", "--M", "4",
                     "--mu", ",".join(self.MU), "--emit", "matrices", "--out", str(out)]) == 0
        capsys.readouterr()
        # one order-1 matrix per basis: six on ftw, one on tw
        assert len(orders) == builds and orders.count(1.0) == builds - 5
        params = WaveletParams(k=2, M=4, mu=1.0)
        fresh = _table_text(original(params, opmats.build_operational_matrices(params), 1.0), ",")
        for label in ("P1", "Pmu"):
            assert (out / f"example1_{basis}_{label}_mu1.csv").read_text() == fresh


_VALUES =st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@given(
    st.integers(1, 4).flatmap(
        lambda cols: st.lists(st.lists(_VALUES, min_size=cols, max_size=cols), min_size=1, max_size=6)
    ),
    st.sampled_from([",", " "]),
)
@example([[-0.0, 0.0, 5e-324, 2.2250738585072009e-308]], ",")
@example([[1e308, -1e308, math.inf, -math.inf, math.nan]], ",")
@example([[0.1234567895, 1.0000000005, 99999999.95, 9.999999995e-5, 123456789012.0]], " ")
def test_table_text_matches_per_value_format(rows, sep):
    """One % over the row template writes what joining format(v, ".9g") per
    value does, signed zeros, subnormals, overflow-edge values, inf and nan
    included."""
    expected = "".join(sep.join(format(v, ".9g") for v in row) + "\n" for row in rows)
    assert _table_text(np.array(rows, dtype=float), sep) == expected
