"""wavefocp benchmark: one workload per run, end to end or traced per module.

    python3 perfbench/run.py --workload cli-sweep --seed 1 --seconds 20 --trace 0

Run from a wavefocp checkout; wavefocp is imported from ./src. Workloads
(see workloads.py): cli-sweep, fine-solve, accuracy-grid. Each is a closed
loop in this one process: the next op starts when the previous returns, and
the op list repeats until --seconds have passed; only whole passes run, and
at least two (one per phase in a traced run).

--trace 0 prints the end-to-end metrics, --trace 1 the per-module metrics
from a traced run (half the time untraced, half traced, so the tracing
overhead is measured too). A readable report comes first; the last line of
standard output is one JSON object. Details go to perfbench/out/.

Times are speed-normalized: a fixed calibration kernel (an interpreter loop
and a small matrix product, independent of wavefocp) runs between ops, and
each op's time is scaled by CAL_NOMINAL / (calibration time around it).
Shared machines drift in speed by tens of percent over tens of seconds;
the ratio of an op's time to the kernel's drifts by a few percent. Raw
seconds are kept in the report and in perfbench/out/.
"""

import os

# BLAS threads must be fixed before NumPy is first imported.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
# Calibration kernel time that defines the reported seconds (about its
# median on a shared 2-vCPU x86_64 VM); it only sets the scale of reported times.
CAL_NOMINAL = 0.010

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_s_p50": "s",
    "peak_rss_mb": "MB",
    "solved_share": "1",
    "j_err_max": "1",
    "traj_err_max": "1",
}

# name -> unit; every name is <module>.<function>.<stat>
PER_LAYER = {
    "quadrature.solve_spd.calls": "count",
    "quadrature.solve_spd.s": "s",
    "quadrature.solve_linear.s": "s",
    "quadrature.gauss_legendre.calls": "count",
    "basis.eval_basis_many.calls": "count",
    "basis.eval_basis_many.s": "s",
    "basis.eval_basis_many.points": "count",
    "basis.eval_basis.calls": "count",
    "basis.monomial_coefficients.calls": "count",
    "opmats.build_operational_matrices.calls": "count",
    "opmats.gram_matrix.s": "s",
    "opmats.gram_matrix.rel_err": "1",
    "opmats.triple_product_tensor.s": "s",
    "opmats.triple_product_tensor.bytes": "bytes",
    "opmats.integration_matrix_first_order.s": "s",
    "opmats.integration_matrix_fractional.s": "s",
    "opmats.inner_products.calls": "count",
    "opmats.inner_products.s": "s",
    "opmats.quadrature_nodes.calls": "count",
    "opmats.quadrature_nodes.nodes": "count",
    "opmats.product_matrix.calls": "count",
    "opmats.product_matrix.s": "s",
    "opmats.p1_vs_pmu1.err": "1",
    "opmats.cond_D": "1",
    "fracops.rl_integral.calls": "count",
    "fracops.rl_integral.s": "s",
    "solver.discretize.s": "s",
    "solver.assemble_kkt.s": "s",
    "solver.solve_discretized.s": "s",
    "solver.solve_discretized.defect_max": "1",
    "solver.reconstruct_many.s": "s",
    "solver.kkt_lu_flops": "flop",
    "expressions.parse_expression.calls": "count",
    "expressions.parse_expression.s": "s",
    "expressions.evaluate.calls": "count",
    "expressions.evaluate.s": "s",
    "expressions.evaluate.points": "count",
    "cli.run.s": "s",
    "cli.files_written": "count",
    "cli.bytes_written": "bytes",
    "trace.overhead_share": "1",
}


def run_op(op, op_id, tracer):
    """Time op.call, then check its output; returns (seconds, outcome, warnings)."""
    from workloads import Outcome, classify

    span = tracer.op_span(op_id) if tracer is not None else nullcontext()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            with span:
                raw = op.call()
        except Exception as exc:  # a failing op is counted; the run goes on
            return time.perf_counter() - t0, classify(exc), len(caught)
        seconds = time.perf_counter() - t0
    try:
        outcome = op.check(raw)
    except Exception as exc:  # a check that cannot read the output is a failed op
        outcome = Outcome("failed", f"check raised {type(exc).__name__}: {exc}"[:160])
    return seconds, outcome, len(caught)


class Calibration:
    """Times a fixed kernel: 60k interpreter-loop steps and 36 products of
    128x128 matrices, about 10 ms; a sample is the median of three."""

    def __init__(self):
        import numpy as np

        self._a0 = np.random.default_rng(0).standard_normal((128, 128))

    def _once(self):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(60_000):
            acc += i * 0.5
        a = self._a0
        for _ in range(36):
            a = (a @ self._a0) * (1.0 / 128.0)
        return time.perf_counter() - t0

    def seconds(self):
        return statistics.median(self._once() for _ in range(3))


def run_passes(ops, seconds, cal, min_passes, tracer=None, first_id=0):
    """Repeat the op list until `seconds` have passed and at least
    `min_passes` passes have run; only whole passes run.

    Each record keeps the raw op time and norm_s, the time scaled by the
    calibration kernel timed just before and just after the op.
    """
    records = []
    t_start = time.perf_counter()
    n_pass = 0
    before = cal.seconds()
    while n_pass < min_passes or time.perf_counter() - t_start < seconds:
        for i, op in enumerate(ops):
            dt, outcome, n_warn = run_op(op, first_id + len(records), tracer)
            after = cal.seconds()
            speed = 0.5 * (before + after)
            before = after
            records.append({"pass": n_pass, "op": i, "label": op.label, "seconds": dt,
                            "cal_s": speed, "norm_s": dt * CAL_NOMINAL / speed,
                            "warnings": n_warn, **vars(outcome)})
        n_pass += 1
    return records


def pass_walls(records, key="norm_s"):
    walls = {}
    for r in records:
        walls[r["pass"]] = walls.get(r["pass"], 0.0) + r[key]
    return list(walls.values())


def measure_setup(plan, cal):
    """Median normalized seconds to import wavefocp and parse the problem
    files, each in a fresh interpreter; also returns the raw samples."""
    samples, raw = [], []
    before = cal.seconds()
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), plan.setup_module,
             *map(str, plan.setup_files)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        after = cal.seconds()
        raw.append(float(proc.stdout.split()[-1]))
        samples.append(raw[-1] * CAL_NOMINAL / (0.5 * (before + after)))
        before = after
    return statistics.median(samples), raw


def _max_or(values, default):
    values = [v for v in values if v is not None]
    return max(values) if values else default


def tail_percentile(n):
    """Highest of p50..p99 with at least ten samples beyond it, or None."""
    best = None
    for q in (50, 75, 90, 95, 99):
        if n * (100 - q) / 100 >= 10:
            best = q
    return best


def end_to_end_metrics(records, setup):
    import numpy as np

    ok = [r for r in records if r["status"] == "ok"]
    times = [r["norm_s"] for r in records]
    walls = pass_walls(records)
    metrics = {
        "setup_s": setup,
        "wall_s": statistics.median(walls),
        "op_s_p50": statistics.median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "solved_share": len(ok) / len(records),
        "j_err_max": _max_or([r["j_err"] for r in ok], float("nan")),
        "traj_err_max": _max_or([r["traj_err"] for r in ok], float("nan")),
    }
    q = tail_percentile(len(times))
    extra = {
        "samples": {"setup_s": SETUP_REPEATS, "wall_s": len(walls), "op_s_p50": len(times)},
        "failed_share": 1.0 - metrics["solved_share"],
        "defect_max": _max_or([r["defect"] for r in ok], None),
        "op_s_tail": None if q is None else (q, float(np.percentile(times, q))),
        "raw_wall_s": statistics.median(pass_walls(records, "seconds")),
        "raw_op_s_p50": statistics.median(r["seconds"] for r in records),
        "calibration_s_p50": statistics.median(r["cal_s"] for r in records),
    }
    return metrics, extra


def trace_targets(observed):
    """Functions wrapped in the traced run, with the work quantity each span records."""
    import numpy as np

    def points(args, result):
        return float(np.size(args[1]))

    def mats_seen(args, mats):
        # Keep only what the accuracy probes need; the triple tensor may be large.
        p = mats.params
        p1_err = float(np.abs(mats.P1 - mats.Pmu).max()) if mats.frac_order == 1.0 else None
        observed["mats"][(p.k, p.M, p.mu)] = (mats.D, mats.cond_D, p1_err)
        return float(p.m_hat)

    def files_written(args, paths):
        observed["files"] += len(paths)
        return float(sum(path.stat().st_size for path in paths))

    return {
        "quadrature": {"gauss_legendre": None, "solve_linear": None, "solve_spd": None},
        "basis": {"eval_basis": None, "eval_basis_many": points, "monomial_coefficients": None},
        "opmats": {
            "build_operational_matrices": mats_seen,
            "gram_matrix": None,
            "triple_product_tensor": lambda args, T: float(T.nbytes),
            "integration_matrix_first_order": None,
            "integration_matrix_fractional": None,
            "inner_products": None,
            "quadrature_nodes": lambda args, r: float(len(r[0])),
            "product_matrix": None,
        },
        "fracops": {"rl_integral": None},
        "solver": {
            "discretize": None,
            "assemble_kkt": None,
            # dense LU of the 3 m_hat KKT matrix: 2/3 n^3 flops
            "solve_discretized": lambda args, r: 2.0 / 3.0 * (3 * args[0].params.m_hat) ** 3,
            "reconstruct_many": None,
        },
        "expressions": {"parse_expression": None, "evaluate": points},
        "cli": {"run": files_written},
    }


def gram_errors(observed):
    """Gram error against the oracle for every (k, M, mu) the traced run built."""
    from oracle import gram_rel_err

    return {f"k={k} M={M} mu={mu}": gram_rel_err(D, k, M, mu)
            for (k, M, mu), (D, _, _) in sorted(observed["mats"].items())}


def layer_metrics(summary, n_pass, observed, traced, untraced, gram_err):
    speed = CAL_NOMINAL / statistics.median(r["cal_s"] for r in traced)

    def stat(name, key, per_pass=True):
        value = summary[name][key]
        return value / n_pass if per_pass else value

    out = {}
    for metric in PER_LAYER:
        name, _, what = metric.rpartition(".")
        if name in summary and what == "calls":
            out[metric] = stat(name, "calls")
        elif name in summary and what == "s":
            out[metric] = stat(name, "self_s") * speed
        elif name in summary and what in ("points", "nodes"):
            out[metric] = stat(name, "qty_sum")
    mats = observed["mats"]
    out["opmats.triple_product_tensor.bytes"] = stat("opmats.triple_product_tensor", "qty_max", False)
    out["solver.kkt_lu_flops"] = stat("solver.solve_discretized", "qty_sum")
    out["cli.bytes_written"] = stat("cli.run", "qty_sum")
    out["cli.files_written"] = observed["files"] / n_pass
    out["opmats.gram_matrix.rel_err"] = max(gram_err.values())
    out["opmats.p1_vs_pmu1.err"] = _max_or([err for _, _, err in mats.values()], 0.0)
    out["opmats.cond_D"] = max(cond for _, cond, _ in mats.values())
    out["solver.solve_discretized.defect_max"] = _max_or(
        [r["defect"] for r in traced if r["status"] == "ok"], 0.0
    )
    base = statistics.median(pass_walls(untraced))
    out["trace.overhead_share"] = (statistics.median(pass_walls(traced)) - base) / base
    return {name: out[name] for name in PER_LAYER}


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def op_table(records):
    """Per op label: runs, median seconds, statuses and errors."""
    rows = {}
    for r in records:
        row = rows.setdefault(r["label"], {"times": [], "status": set(), "j_err": None,
                                           "traj_err": None, "defect": None, "reason": ""})
        row["times"].append(r["norm_s"])
        row["status"].add(r["status"])
        for key in ("j_err", "traj_err", "defect"):
            if r[key] is not None:
                row[key] = r[key]
        row["reason"] = row["reason"] or r["reason"]
    return [
        {"label": label, "runs": len(row["times"]), "median_norm_s": statistics.median(row["times"]),
         "status": "/".join(sorted(row["status"])), "j_err": row["j_err"],
         "traj_err": row["traj_err"], "defect": row["defect"], "reason": row["reason"]}
        for label, row in rows.items()
    ]


def _g(v):
    return "-" if v is None else format(v, ".3g")


def report(args, env, metrics, units, extra, table):
    print(f"wavefocp benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env  " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(f"{'op':44s} {'runs':>4s} {'norm_s':>9s} {'status':>14s} "
          f"{'j_err':>9s} {'traj_err':>9s} {'defect':>9s}")
    for row in table:
        print(f"{row['label']:44s} {row['runs']:4d} {row['median_norm_s']:9.4f} {row['status']:>14s} "
              f"{_g(row['j_err']):>9s} {_g(row['traj_err']):>9s} {_g(row['defect']):>9s}"
              + (f"  {row['reason']}" if row["reason"] else ""))
    samples = extra.get("samples", {})
    for name, value in metrics.items():
        n = samples.get(name)
        print(f"{name:44s} {value:.6g} {units[name]}" + (f"  (median of {n})" if n else ""))
    for name in ("failed_share", "defect_max", "raw_wall_s", "raw_op_s_p50", "calibration_s_p50"):
        if name in extra:
            print(f"{name:44s} {_g(extra[name])}")
    for config, err in extra.get("gram_rel_err", {}).items():
        print(f"{'opmats.gram_matrix.rel_err ' + config:44s} {err:.3g}")
    if extra.get("op_s_tail") and extra["op_s_tail"][0] > 50:
        q, v = extra["op_s_tail"]
        print(f"{'op_s_p' + str(q):44s} {v:.6g} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cli-sweep", "fine-solve", "accuracy-grid"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--quick", action="store_true",
                        help="smallest sizes only (for the benchmark's own tests)")
    args = parser.parse_args(argv)

    if not (SRC / "wavefocp" / "__init__.py").is_file():
        print(f"error: no wavefocp sources at {SRC / 'wavefocp'}; "
              "run from a wavefocp checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Imported only now: they import wavefocp from SRC.
    from tracer import Tracer
    from workloads import WORKLOADS, load_refs

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        plan = WORKLOADS[args.workload](args.seed, args.quick, load_refs(), work)
        env = environment()
        cal = Calibration()
        run_passes(plan.warmup, 0.0, cal, 1, first_id=-len(plan.warmup))
        if args.trace == 0:
            setup, setup_samples = measure_setup(plan, cal)
            records = run_passes(plan.ops, args.seconds, cal, 2)
            metrics, extra = end_to_end_metrics(records, setup)
            extra["raw_setup_s"] = setup_samples
            units = END_TO_END
        else:
            untraced = run_passes(plan.ops, args.seconds / 2, cal, 1)
            tracer = Tracer()
            observed = {"mats": {}, "files": 0}
            tracer.install("wavefocp", trace_targets(observed))
            try:
                records = run_passes(plan.ops, args.seconds / 2, cal, 1, tracer, len(untraced))
            finally:
                tracer.uninstall()
            tracer.write(OUT / f"spans-{args.workload}.npz")
            n_pass = len(pass_walls(records))
            gram_err = gram_errors(observed)
            metrics = layer_metrics(tracer.summary(), n_pass, observed, records, untraced, gram_err)
            extra = {"traced_passes": n_pass, "untraced_passes": len(pass_walls(untraced)),
                     "gram_rel_err": gram_err}
            records = untraced + records
            units = PER_LAYER
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(r["status"] == "failed" for r in records)
    table = op_table(records)
    report(args, env, metrics, units, extra, table)
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(json.dumps(
        {"args": vars(args), "env": env, "metrics": metrics, "extra": extra, "ops": table,
         "records": records}, indent=1, default=str) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
