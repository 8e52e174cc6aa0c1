"""End-to-end benchmark of ``arraycal run`` on three Monte Carlo workloads.

Run from the repository root:

    python3 perfbench/run.py --workload singleton16-aml-crb --seed 1 --seconds 20 --trace 0

Every workload is one config, run in-process through the real CLI path,
``arraycal.bench.cli_main(["run", <config>, "--out", <csv>, "--seed", <s>])``,
with ``src`` on the import path.  One call draws ``trials`` trials at each SNR
point.  The call seeds of a run are ``seed * 1000 + k`` for k = 0, 1, ...

Each run first makes two untimed calls, with the call seeds of ``--seed 1``
(default) and ``--seed 2`` (holdout), and compares their CSVs against
``reference.json``; the first of them is also the warm-up that finishes lazy
scipy/BLAS set-up.  Then:

* ``--trace 0`` times calls until ``--seconds`` have passed and reports the
  median trials per second, the median set-up time of three fresh interpreters
  running ``arraycal check`` and the peak RSS of this process.
* ``--trace 1`` alternates an untraced and a traced call on the same call seed
  until ``--seconds`` have passed, requires byte-identical CSVs, and reports
  per-layer metrics from the traced calls (see ``tracer.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Operations are
estimator calls plus CRB evaluations; ``failed / attempted`` is the failed
fraction.  The metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import glob
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"
REFERENCE_SEEDS = {"default": 1, "holdout": 2}
REL_TOL = 1e-6          # reference tolerance on mse and crb_trace
SETUP_REPEATS = 3
CRB_TRIALS = 50         # arraycal's crb_trials default; every workload has fewer trials


# Why each workload is here: see README.md in this directory.
WORKLOADS = {
    "singleton16-aml-crb": {
        "m": 16, "scheme": "SINGLETON", "pilots": "ALL_ONES", "constraint": "FCC",
        "estimators": "aml, rogalin, argos", "crb": "true", "aml_max_iter": 50,
        "snr_db": "10, 40", "trials": 2,
    },
    "fc2-64-ls-crb": {
        "m": 64, "scheme": "FC_II", "g": 12, "pilots": "UNIT_PHASE_RANDOM",
        "constraint": "NPC", "estimators": "ls", "crb": "true",
        "snr_db": "20, 40", "trials": 1,
    },
    "singleton256-ls": {
        "m": 256, "scheme": "SINGLETON", "pilots": "ALL_ONES", "constraint": "FCC",
        "estimators": "ls, rogalin, daisy, argos", "crb": "false",
        "snr_db": "30", "trials": 1,
    },
}


class Shape:
    """What one call of a workload does, derived from its config keys."""

    def __init__(self, keys: dict):
        self.snrs = [float(x) for x in str(keys["snr_db"]).split(",")]
        self.estimators = [e.strip() for e in keys["estimators"].split(",")]
        self.trials = int(keys["trials"])
        self.crb_evals = min(self.trials, CRB_TRIALS) if keys["crb"] == "true" else 0
        self.cells = [(e, s) for s in self.snrs for e in self.estimators]

    @property
    def trials_per_call(self) -> int:
        return len(self.snrs) * self.trials

    @property
    def ops_per_call(self) -> int:
        return len(self.cells) * self.trials + len(self.snrs) * self.crb_evals


def config_text(keys: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in keys.items())


def call_seed(seed: int, k: int) -> int:
    return seed * 1000 + k


def _close(value: float, ref: float, rel_tol: float) -> bool:
    if math.isnan(ref):
        return math.isnan(value)
    return abs(value - ref) <= rel_tol * abs(ref)


def check_csv(text: str, shape: Shape, reference=None, rel_tol: float = REL_TOL):
    """Return (attempted, failed, problems) for one call's CSV.

    With ``reference`` (the stored CSV lines of the same call), a cell whose mse or
    trials leaves the tolerance fails all its trials, and an SNR point whose
    crb_trace does fails its CRB evaluations.  Without it, only skipped trials
    and non-finite or misplaced values fail.
    """
    attempted = shape.ops_per_call
    try:
        rows = list(csv.DictReader(io.StringIO(text)))
        got = [(r["estimator"], float(r["snr_db"])) for r in rows]
        values = [(float(r["mse"]), float(r["crb_trace"]), int(r["trials"])) for r in rows]
    except (KeyError, TypeError, ValueError) as e:
        return attempted, attempted, [f"unreadable CSV: {e}"]
    if got != shape.cells:
        return attempted, attempted, [f"CSV cells {got} != expected {shape.cells}"]
    failed, problems, bad_crb = 0, [], set()
    for idx, ((est, snr), (mse, crb, n)) in enumerate(zip(shape.cells, values)):
        if reference is not None:
            ref = reference[idx].split(",")
            ref_mse, ref_crb, ref_n = float(ref[3]), float(ref[4]), int(ref[5])
            cell_ok = n == ref_n and _close(mse, ref_mse, rel_tol)
            crb_ok = _close(crb, ref_crb, rel_tol)
        else:
            cell_ok = 0 <= n <= shape.trials and math.isfinite(mse) and mse >= 0
            crb_ok = math.isfinite(crb) and crb > 0 if shape.crb_evals else math.isnan(crb)
        if not shape.crb_evals and not crb_ok:
            cell_ok = False
        if not cell_ok:
            failed += shape.trials
            problems.append(f"{est} @ {snr:g} dB: mse={mse!r} crb={crb!r} trials={n}")
        else:
            failed += shape.trials - n
            if n < shape.trials:
                problems.append(f"{est} @ {snr:g} dB: {shape.trials - n} skipped trials")
        if shape.crb_evals and not crb_ok:
            bad_crb.add(snr)
    for snr in sorted(bad_crb):
        failed += shape.crb_evals
        problems.append(f"crb_trace @ {snr:g} dB out of tolerance")
    return attempted, failed, problems


def _blas_threads() -> dict:
    """Thread count of each OpenBLAS that numpy and scipy load."""
    out = {}
    for pkg in ("numpy", "scipy"):
        mod = sys.modules.get(pkg)
        libs = glob.glob(os.path.dirname(mod.__file__) + ".libs/*openblas*") if mod else []
        for path in libs:
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[pkg] = fn()
                    break
    return out


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy

    def blas_version(show_config):
        try:
            return show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
        except (TypeError, KeyError):
            return None

    return {
        "nproc": os.cpu_count(),
        "blas_threads": _blas_threads(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas_version(numpy.show_config),
        "scipy_openblas": blas_version(scipy.show_config),
        "python": platform.python_version(),
        "commit": _git_commit(),
    }


def _subprocess_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


SETUP_SNIPPET = ("import sys\nimport arraycal\n"
                 "raise SystemExit(arraycal.cli_main(['check', sys.argv[1]]))\n")


def measure_setup(config: Path):
    """Median wall time of fresh interpreters importing arraycal and running check."""
    times, problems = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        res = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(config)], cwd=ROOT,
                             env=_subprocess_env(), capture_output=True, text=True,
                             timeout=120)
        times.append(time.perf_counter() - t0)
        if res.returncode != 0:
            problems.append(f"check exited {res.returncode}: {res.stdout.strip()} "
                            f"{res.stderr.strip()}")
    return statistics.median(times), problems


class Runner:
    """Calls ``cli_main`` for one workload and tallies the checks."""

    def __init__(self, name: str):
        from arraycal.bench import cli_main

        self.cli_main = cli_main
        self.shape = Shape(WORKLOADS[name])
        self.name = name
        self.config = OUT / f"{name}.cfg"
        self.config.write_text(config_text(WORKLOADS[name]))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def call(self, seed: int, tag: str = "run"):
        """One timed ``cli_main`` call; returns (wall seconds, CSV text)."""
        out = OUT / f"{self.name}.{tag}.csv"
        t0 = time.perf_counter()
        rc = self.cli_main(["run", str(self.config), "--out", str(out), "--seed", str(seed)])
        wall = time.perf_counter() - t0
        if rc != 0:
            self.problems.append(f"cli_main exited {rc} at seed {seed}")
            return wall, ""
        return wall, out.read_text()

    def tally(self, text: str, reference=None) -> None:
        attempted, failed, problems = check_csv(text, self.shape, reference)
        self.attempted += attempted
        self.failed += failed
        self.problems += problems

    def check_references(self, stored: dict) -> None:
        for label, seed in REFERENCE_SEEDS.items():
            _, text = self.call(call_seed(seed, 0), tag="ref")
            reference = stored.get(self.name, {}).get(str(seed))
            if reference is None:
                self.attempted += self.shape.ops_per_call
                self.failed += self.shape.ops_per_call
                self.problems.append(f"no stored reference for {label} seed {seed}")
            else:
                self.tally(text, reference)


def run_untraced(runner: Runner, seed: int, seconds: float) -> dict:
    rates = []
    deadline = time.perf_counter() + seconds
    k = 0
    while not rates or time.perf_counter() < deadline:
        wall, text = runner.call(call_seed(seed, k))
        runner.tally(text)
        rates.append(runner.shape.trials_per_call / wall)
        k += 1
    print(f"timed calls: {len(rates)}, trials/s per call: "
          + ", ".join(f"{r:.4g}" for r in rates))
    return {"trials_per_s": statistics.median(rates),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def run_traced(runner: Runner, seed: int, seconds: float) -> dict:
    tracer = Tracer()
    plain_s = traced_s = 0.0
    traced_trials = 0
    deadline = time.perf_counter() + seconds
    k = 0
    while not traced_trials or time.perf_counter() < deadline:
        s = call_seed(seed, k)
        wall, plain = runner.call(s, tag="plain")
        plain_s += wall
        with tracer:
            wall, traced = runner.call(s, tag="traced")
        traced_s += wall
        traced_trials += runner.shape.trials_per_call
        runner.tally(traced)
        if traced != plain:
            runner.failed += runner.shape.ops_per_call
            runner.problems.append(f"traced CSV differs from the untraced one at seed {s}")
        k += 1
    if tracer.absent:
        print("absent (not traced): " + ", ".join(tracer.absent))
    spans = [[sp.name, sp.start, sp.end, sp.parent, sp.error] for sp in tracer.spans]
    (OUT / f"{runner.name}.seed{seed}.spans.json").write_text(json.dumps(spans))
    metrics = layer_metrics(tracer.spans, tracer.counts, tracer.absent, traced_s,
                            traced_trials)
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
    print(f"traced calls: {k}, untraced {plain_s:.4g} s, traced {traced_s:.4g} s")
    return metrics


def record_reference() -> None:
    """Write reference.json: CSV lines of call seed k = 0 of each reference seed."""
    stored = {}
    for name in WORKLOADS:
        runner = Runner(name)
        stored[name] = {}
        for seed in REFERENCE_SEEDS.values():
            _, text = runner.call(call_seed(seed, 0), tag="ref")
            stored[name][str(seed)] = text.splitlines()[1:]
    REFERENCE.write_text(json.dumps(stored, indent=1) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=REFERENCE_SEEDS["default"])
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="rewrite reference.json from the current code and exit")
    args = ap.parse_args(argv)

    if not (SRC / "arraycal" / "__init__.py").is_file():
        print(f"error: no arraycal sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.record_reference:
        record_reference()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        stored = json.loads(REFERENCE.read_text())
    except (OSError, ValueError) as e:
        print(f"error: cannot read the benchmark definition: {e}", file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]

    runner = Runner(args.workload)
    if not args.trace:
        setup_s, setup_problems = measure_setup(runner.config)
        runner.problems += setup_problems
    runner.check_references(stored)
    if args.trace:
        measured = run_traced(runner, args.seed, args.seconds)
    else:
        measured = run_untraced(runner, args.seed, args.seconds)
        measured["setup_s"] = setup_s

    env = environment()
    for p in runner.problems:
        print(f"problem: {p}")
    print("env " + json.dumps(env, sort_keys=True))
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared}
    result = {"correct": runner.failed == 0 and not runner.problems,
              "attempted": runner.attempted, "failed": runner.failed, "metrics": metrics}
    (OUT / f"{args.workload}.seed{args.seed}.trace{args.trace}.json").write_text(
        json.dumps(dict(result, env=env, workload=args.workload, seed=args.seed,
                        seconds=args.seconds), indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
