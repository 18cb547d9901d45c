#!/usr/bin/env python3
"""modnls benchmark: four CLI workloads, end-to-end timings, a traced per-layer breakdown.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Workloads (see ``configs/`` for why each was chosen): strichartz-probe,
inflate-long, ode-approx-2d, singular-quad.  Each is a closed loop with one
client: every sample is a fresh interpreter (``worker.py``) that imports
``modnls.cli``, parses the workload's configs, and runs its CLI
invocations in sequence through ``modnls.cli.main``, as a user of the CLI
would.  Samples repeat until ``--seconds`` have passed and at least
``MIN_SAMPLES`` were taken.

``--trace 0`` reports the end-to-end metrics (medians over the samples):
``run_s`` (the invocations), ``setup_s`` (import plus ``parse_config``),
``peak_rss_mb`` (of the sample's process) and ``pass_rate``.
``--trace 1`` makes one untraced and two traced samples and reports the
per-layer metrics of ``tracer.py``; it checks that the two traced samples
repeat every count exactly, that the traced ``report.csv`` files are
byte-identical to the untraced ones, and that every wrapped function was
restored.

Every invocation passes the correctness gate: expected exit code and
verdict, and each pinned fitted value within its stated relative tolerance
(``workloads.py``).  The SHA-256 of every ``report.csv`` and, at seed 0,
the largest relative deviation of its numeric cells from ``reference/``
are printed as diagnostics.  Human-readable lines go first; the last line
of standard output is one JSON object.  Outputs go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKER = Path(__file__).resolve().parent / "worker.py"

MIN_SAMPLES = 2
MIN_SETUP_SAMPLES = 5
HARD_LIMIT_S = 165.0  # a workload's samples end, and its result is printed, within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_rate": "ratio"}

# per-layer metric -> unit; counts and ratios of counts must repeat exactly
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "config.parse_config.s": "s",
    "numpy.fft.calls": "count",
    "numpy.fft.s": "s",
    "numpy.fft.elements": "count",
    "numpy.fft.flops_computed": "count",
    "numpy.fft.bytes_computed": "count",
    "evolution.evolve.calls": "count",
    "evolution.evolve.s": "s",
    "evolution.evolve.self_s": "s",
    "evolution.strang_steps": "count",
    "evolution.fft_per_step": "count",
    "spectral.Field.calls": "count",
    "spectral.Field.s": "s",
    "spectral.Field.bytes_copied": "count",
    "spectral.sobolev_norm.calls": "count",
    "spectral.sobolev_norm.s": "s",
    "spectral.spectral_tail_mass.calls": "count",
    "spectral.spectral_tail_mass.s": "s",
    "symbols.on_grid.calls": "count",
    "symbols.lattice_builds": "count",
    "symbols.on_grid.hit_ratio": "ratio",
    "experiments.run_strichartz_probe.self_s": "s",
    "experiments.probe_time_samples": "count",
    "experiments.ode_phase_profile.calls": "count",
    "experiments.ode_phase_profile.s": "s",
    "experiments.run_ode_approx.self_s": "s",
    "experiments.run_norm_inflation.self_s": "s",
    "singular.quad.calls": "count",
    "singular.quad.s": "s",
    "singular.log_singular_profile.calls": "count",
    "singular.log_singular_profile.s": "s",
    "singular.evals_per_segment": "count",
    "reports.write_report.s": "s",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run (no program, a worker crashed)."""


def pin_threads() -> dict:
    """Cap BLAS/OpenMP threads at nproc in this process's environment (inherited by workers)."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))
    return {var: os.environ[var] for var in THREAD_VARS}


def environment(threads: dict) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": threads,
    }


class Runner:
    """Writes a workload's configs once and runs its samples in fresh interpreters."""

    def __init__(self, workload: str, seed: int, trace: int):
        self.workload, self.seed = workload, seed
        self.started = time.perf_counter()
        self.invs = workloads.invocations(workload, seed)
        self.base = OUT / f"{workload}-seed{seed}-trace{trace}"
        shutil.rmtree(self.base, ignore_errors=True)
        (self.base / "configs").mkdir(parents=True)
        self.configs = []
        for inv in self.invs:
            path = self.base / "configs" / f"{inv.name}.cfg"
            path.write_text(inv.config_text)
            self.configs.append(path)
        self.count = 0

    def sample(self, run: bool = True, trace: bool = False) -> dict:
        self.count += 1
        wdir = self.base / f"sample{self.count}"
        wdir.mkdir()
        outs = [wdir / inv.name for inv in self.invs]
        job = {
            "src": str(SRC),
            "run": run,
            "trace": trace,
            "result": str(wdir / "result.json"),
            "spans": str(wdir / "spans.json"),
            "invocations": [
                {"name": inv.name, "subcommand": inv.subcommand,
                 "config": str(cfg), "out": str(out)}
                for inv, cfg, out in zip(self.invs, self.configs, outs)
            ],
        }
        job_path = wdir / "job.json"
        job_path.write_text(json.dumps(job))
        remaining = HARD_LIMIT_S - (time.perf_counter() - self.started)
        if remaining <= 0:
            raise BenchError("out of time before the sample could start")
        try:
            proc = subprocess.run([sys.executable, str(WORKER), str(job_path)], cwd=ROOT,
                                  capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{self.workload}: sample {self.count} ran past the time limit") from exc
        result_path = wdir / "result.json"
        if proc.returncode != 0 or not result_path.is_file():
            raise BenchError(f"{self.workload}: worker exited with {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
        result = json.loads(result_path.read_text())
        if run:
            result["gate"] = [gate(inv, code, out, self.seed)
                              for inv, code, out in zip(self.invs, result["exits"], outs)]
        return result


def _summary(path: Path) -> dict:
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def _max_rel_deviation(path: Path, ref_path: Path) -> float:
    with path.open() as f, ref_path.open() as g:
        rows, ref = list(csv.reader(f)), list(csv.reader(g))
    if len(rows) != len(ref) or rows[0] != ref[0]:
        return math.inf
    worst = 0.0
    for row, ref_row in zip(rows[1:], ref[1:]):
        if len(row) != len(ref_row):
            return math.inf
        for cell, ref_cell in zip(row, ref_row):
            try:
                a, b = float(cell), float(ref_cell)
            except ValueError:
                if cell != ref_cell:
                    return math.inf
                continue
            if math.isnan(a) or math.isnan(b):
                if not (math.isnan(a) and math.isnan(b)):
                    return math.inf
                continue
            if a != b:
                worst = max(worst, abs(a - b) / max(abs(b), 1e-300))
    return worst


def gate(inv: workloads.Invocation, code, out: Path, seed: int) -> dict:
    """Check one invocation's exit code, verdict and pinned fitted values."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}, expected 0")
    summary_path, report_path = out / "summary.txt", out / "report.csv"
    if summary_path.is_file():
        summary = _summary(summary_path)
        if summary.get("verdict") != "pass":
            problems.append(f"verdict {summary.get('verdict')}, expected pass")
        for check in inv.checks:
            raw = summary.get(f"fitted.{check.key}")
            try:
                dev = check.deviation(float(raw))
            except (TypeError, ValueError):
                dev = math.inf
            if not dev <= check.rel_tol:
                problems.append(f"{check.key} = {raw}, reference {check.reference:.17g} "
                                f"+- {check.rel_tol:g} relative")
    else:
        problems.append("no summary.txt")
    sha, deviation = None, None
    if report_path.is_file():
        sha = hashlib.sha256(report_path.read_bytes()).hexdigest()
        ref = workloads.REFERENCE_DIR / f"{inv.reference}.csv"
        if seed == 0 and ref.is_file():
            deviation = _max_rel_deviation(report_path, ref)
    else:
        problems.append("no report.csv")
    return {"name": inv.name, "ok": not problems, "problems": problems,
            "sha256": sha, "max_rel_deviation": deviation}


def _tally(samples) -> tuple[int, int, list]:
    gates = [g for s in samples for g in s["gate"]]
    problems = [f"{g['name']}: {p}" for g in gates for p in g["problems"]]
    problems += [e for s in samples for e in s["errors"]]
    return len(gates), sum(not g["ok"] for g in gates), problems


def _print_diagnostics(samples) -> None:
    names = [g["name"] for g in samples[0]["gate"]]
    for i, name in enumerate(names):
        shas = sorted({s["gate"][i]["sha256"] or "missing" for s in samples})
        devs = [s["gate"][i]["max_rel_deviation"] for s in samples]
        dev = "n/a (seed-0 reference only)" if None in devs else f"{max(devs):.3g}"
        print(f"  report.csv {name}: sha256 {', '.join(shas)} ({len(shas)} distinct over "
              f"{len(samples)} samples); max rel deviation from reference: {dev}")


def measure(runner: Runner, seconds: float) -> dict:
    """Untraced samples for ``seconds`` (at least MIN_SAMPLES): end-to-end metrics."""
    samples = []
    t0 = time.perf_counter()
    while len(samples) < MIN_SAMPLES or time.perf_counter() - t0 < seconds:
        samples.append(runner.sample())
    setups = [s["setup_s"] for s in samples]
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(runner.sample(run=False)["setup_s"])
    attempted, failed, problems = _tally(samples)
    runs = [s["run_s"] for s in samples]
    metrics = {
        "run_s": statistics.median(runs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
        "pass_rate": 1.0 - failed / attempted,
    }
    print(f"workload {runner.workload} seed {runner.seed}: {len(samples)} samples, "
          f"{attempted} invocations")
    print(f"  run_s        {metrics['run_s']:.4f} s (median of {len(runs)}; "
          f"min {min(runs):.4f}, max {max(runs):.4f})")
    print(f"  setup_s      {metrics['setup_s']:.4f} s (median of {len(setups)})")
    print(f"  peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB (median of {len(samples)})")
    print(f"  fail_rate    {failed}/{attempted} = {failed / attempted:.4g}")
    _print_diagnostics(samples)
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems, "samples": samples}


def layer_metrics(result: dict) -> dict:
    t = result["trace"]
    calls, s, self_s, counts = t["calls"], t["s"], t["self_s"], t["counts"]

    def n(name):
        return calls.get(name, 0)

    fft_calls = n("numpy.fft.fftn") + n("numpy.fft.ifftn")
    steps = counts.get("strang_steps", 0)
    on_grid = n("symbols.on_grid")
    quads = n("singular.quad")
    return {
        "cli.import_s": result["import_s"],
        "config.parse_config.s": s.get("config.parse_config", 0.0),
        "numpy.fft.calls": fft_calls,
        "numpy.fft.s": s.get("numpy.fft.fftn", 0.0) + s.get("numpy.fft.ifftn", 0.0),
        "numpy.fft.elements": counts.get("fft_elements", 0),
        "numpy.fft.flops_computed": counts.get("fft_flops_computed", 0),
        "numpy.fft.bytes_computed": counts.get("fft_bytes_computed", 0),
        "evolution.evolve.calls": n("evolution.evolve"),
        "evolution.evolve.s": s.get("evolution.evolve", 0.0),
        "evolution.evolve.self_s": self_s.get("evolution.evolve", 0.0),
        "evolution.strang_steps": steps,
        "evolution.fft_per_step": t["fft_calls_under"].get("evolution.evolve", 0) / steps
        if steps else 0.0,
        "spectral.Field.calls": n("spectral.Field"),
        "spectral.Field.s": s.get("spectral.Field", 0.0),
        "spectral.Field.bytes_copied": counts.get("field_bytes_copied", 0),
        "spectral.sobolev_norm.calls": n("spectral.sobolev_norm"),
        "spectral.sobolev_norm.s": s.get("spectral.sobolev_norm", 0.0),
        "spectral.spectral_tail_mass.calls": n("spectral.spectral_tail_mass"),
        "spectral.spectral_tail_mass.s": s.get("spectral.spectral_tail_mass", 0.0),
        "symbols.on_grid.calls": on_grid,
        "symbols.lattice_builds": counts.get("lattice_builds", 0),
        "symbols.on_grid.hit_ratio": counts.get("on_grid_hits", 0) / on_grid if on_grid else 0.0,
        "experiments.run_strichartz_probe.self_s":
            self_s.get("experiments.run_strichartz_probe", 0.0),
        "experiments.probe_time_samples": counts.get("probe_time_samples", 0),
        "experiments.ode_phase_profile.calls": n("experiments.ode_phase_profile"),
        "experiments.ode_phase_profile.s": s.get("experiments.ode_phase_profile", 0.0),
        "experiments.run_ode_approx.self_s": self_s.get("experiments.run_ode_approx", 0.0),
        "experiments.run_norm_inflation.self_s":
            self_s.get("experiments.run_norm_inflation", 0.0),
        "singular.quad.calls": quads,
        "singular.quad.s": s.get("singular.quad", 0.0),
        "singular.log_singular_profile.calls": n("singular.log_singular_profile"),
        "singular.log_singular_profile.s": s.get("singular.log_singular_profile", 0.0),
        "singular.evals_per_segment": n("singular.log_singular_profile") / quads if quads else 0.0,
        "reports.write_report.s": s.get("reports.write_report", 0.0),
    }


def traced(runner: Runner) -> dict:
    """One untraced and two traced samples: per-layer metrics and the tracer self-test."""
    plain = runner.sample()
    runs = [runner.sample(trace=True) for _ in range(2)]
    attempted, failed, problems = _tally([plain, *runs])
    layers = [layer_metrics(r) for r in runs]
    for name, unit in PER_LAYER_UNITS.items():
        if unit != "s" and name in layers[0] and layers[0][name] != layers[1][name]:
            problems.append(f"count {name} differs between traced runs: "
                            f"{layers[0][name]} vs {layers[1][name]}")
    for r in runs:
        for g, g_plain in zip(r["gate"], plain["gate"]):
            if g["sha256"] != g_plain["sha256"]:
                problems.append(f"{g['name']}: traced report.csv differs from untraced")
        if r["left_wrapped"]:
            problems.append(f"not restored after tracing: {r['left_wrapped']}")
    metrics = {name: (statistics.median(l[name] for l in layers) if PER_LAYER_UNITS[name] == "s"
                      else layers[0][name])
               for name in layers[0]}
    metrics["trace.overhead_s"] = statistics.median(r["run_s"] for r in runs) - plain["run_s"]
    print(f"workload {runner.workload} seed {runner.seed}: traced "
          f"(1 untraced + 2 traced samples, {attempted} invocations)")
    unwrapped = sorted({u for r in runs for u in r["unwrapped"]})
    if unwrapped:
        print(f"  not found, so not traced: {', '.join(unwrapped)}")
    for name, value in metrics.items():
        print(f"  {name:42s} {value:.6g} {PER_LAYER_UNITS[name]}")
    _print_diagnostics([plain, *runs])
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems, "samples": [plain, *runs]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "modnls" / "cli.py").is_file():
        print(f"error: no modnls source tree at {SRC}", file=sys.stderr)
        return 2
    env = environment(pin_threads())
    print("environment: " + json.dumps(env, sort_keys=True))

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            runner = Runner(name, args.seed, args.trace)
            results[name] = traced(runner) if args.trace else measure(runner, args.seconds)
            for problem in results[name]["problems"]:
                print(f"  FAIL {problem}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics = {}
    for name, res in results.items():
        prefix = f"{name}/" if len(results) > 1 else ""
        for key, value in res["metrics"].items():
            metrics[prefix + key] = {"value": value, "unit": units[key]}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"environment": env, "results": results}, default=str))
    print(json.dumps({
        "correct": all(not r["problems"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
