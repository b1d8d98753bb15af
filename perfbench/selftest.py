"""The benchmark's own tests.

    python3 -m pytest perfbench/selftest.py

Run from the repository root. The file name keeps these tests out of the
repository's default test run, which they would slow down.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
import types
from pathlib import Path

import mpmath
import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from inputs import draw_problem  # noqa: E402
from oracle import Example1Exact, gram_oracle  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_quick_mode_prints_the_declared_metrics(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.1",
                "--trace", trace, "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["end_to_end" if trace == "0" else "per_layer"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(v, float) and math.isfinite(v) for v in values)
    if trace == "0":
        assert all(v > 0 for v in values)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "fine-solve", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("seed", range(40))
def test_generated_problem_files_are_valid(seed, tmp_path):
    from wavefocp.cli import parse_problem_file
    from wavefocp.expressions import evaluate, parse_expression

    draw = draw_problem(random.Random(seed))
    path = tmp_path / "p.txt"
    path.write_text(draw.problem_file(), encoding="utf-8")
    spec, _ = parse_problem_file(path)
    spec.make_problem(0.8)  # runs FocpProblem's q > 0, p >= 0, b != 0 checks
    t = np.linspace(0.0, 1.0, 101)
    for term in (draw.p, draw.q, draw.a, draw.b):
        np.testing.assert_allclose(evaluate(parse_expression(term.text), t), term.fn(t), rtol=1e-13, atol=1e-14)


def test_gram_oracle_matches_quadrature_in_zeta():
    k, M, mu = 2, 3, 0.8
    D = gram_oracle(k, M, mu)
    N = 2 ** (k - 1)
    with mpmath.workdps(45):
        for n in (1, 2):
            lo = (mpmath.mpf(n - 1) / N) ** (1 / mpmath.mpf(mu))
            hi = (mpmath.mpf(n) / N) ** (1 / mpmath.mpf(mu))
            for m1, m2 in ((0, 0), (1, 2), (2, 2)):
                def psi(z, m):
                    s = N * z ** mpmath.mpf(mu) - n + 1
                    return mpmath.sqrt(N) * mpmath.sqrt(2 * m + 1) * s**m

                ref = mpmath.quad(lambda z: psi(z, m1) * psi(z, m2), [lo, hi])
                i, j = (n - 1) * M + m1, (n - 1) * M + m2
                assert abs(D[i, j] - float(ref)) <= 1e-15 * abs(float(ref))


def test_stored_closed_form_matches_oracle():
    refs = json.loads((HERE / "refs.json").read_text(encoding="utf-8"))
    exact = Example1Exact()
    assert refs["example1_mu1"]["J"] == exact.J
    assert refs["example1_mu1"]["B"] == exact.B
    assert abs(exact.u(np.array([1.0]))[0]) < 1e-14  # free-end condition u(1) = 0


def test_tracer_patches_every_binding_and_derives_self_time():
    pkg = types.ModuleType("fakepkg")
    inner = types.ModuleType("fakepkg.inner")
    outer = types.ModuleType("fakepkg.outer")

    def leaf(n):
        return n

    def walk(n):
        return 0 if n == 0 else inner.walk(n - 1) + inner.leaf(1)

    inner.leaf, inner.walk = leaf, walk
    outer.walk = walk  # as bound by `from .inner import walk`
    modules = {"fakepkg": pkg, "fakepkg.inner": inner, "fakepkg.outer": outer}
    sys.modules.update(modules)
    try:
        tracer = Tracer()
        tracer.install("fakepkg", {"inner": {"leaf": lambda args, r: float(r), "walk": None}})
        assert outer.walk is inner.walk is not walk
        with tracer.op_span(7):
            assert outer.walk(3) == 3
        tracer.uninstall()
        assert inner.walk is walk and outer.walk is walk
    finally:
        for name in modules:
            del sys.modules[name]
    summary = tracer.summary()
    # the recursion stays in one span; each leaf call is its own span
    assert summary["inner.walk"]["calls"] == 1
    assert summary["inner.leaf"]["calls"] == 3
    assert summary["inner.leaf"]["qty_sum"] == 3.0
    assert set(tracer.op) == {7}
    total = sum(s["self_s"] for s in summary.values())
    assert total == pytest.approx(tracer.end[0] - tracer.start[0], rel=1e-9)
