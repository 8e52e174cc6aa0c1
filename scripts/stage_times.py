"""Per-stage timings of one trial at M = 16, 64 and 256, for this working tree
and optionally a base revision.

Run from the repository root:

    python3 scripts/stage_times.py --out BENCH_stages.json
    python3 scripts/stage_times.py --base HEAD --out BENCH_aml_iteration.json

Each case draws one trial (generator seed 0): SINGLETON with ALL_ONES pilots
at 10 dB under FCC, and FC_II (g = 6, 12, 24 at M = 16, 64, 256) with
UNIT_PHASE_RANDOM pilots at 20 dB under NPC.  On it each stage is timed:
``simulate_exchange``; ``build_stacked``, its copy kept on the measurements
dropped; ``ls_estimate`` under FCC and under NPC, the system's kept
solutions dropped; ``argos_estimate``, where the partition admits it (else
null); one AML iteration; and ``crb_f`` under the case's constraint.  AML
starts from the FCC LS estimate with a tolerance no step meets, and its time
per iteration is the difference of the calls with ITERS[1] and ITERS[0]
iterations over the difference of their iteration counts.  A stage's time is
the minimum, over --repeat runs, of timeit's autorange count of calls.

Last, the CLI's fixed cost per call: for each workload of ``BENCHMARK.json``,
its perfbench config is run through ``bench.cli_main(["run", cfg, "--out",
csv, "--seed", s])`` CALLS times in one interpreter, after WARMUP untimed
calls, with the call seeds perfbench uses at ``--seed 1`` and the files in
the tree's ``.bench_out`` (where perfbench writes its CSVs).  The fixed cost
is the median over the calls of the call's wall time minus that of the
``run_experiment`` it makes: parsing, checks, scheme and verdict, and the
CSV write.

Every side runs in fresh interpreters with OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS set to --threads (1 by default), on its
own ``src``.  With --base REV the revision is exported with ``git archive``
and the working tree copied beside it (as ``scripts/ab_bench.py`` does), and
the sides run --rounds times, alternating which goes first; a side's time
per stage is the minimum over its rounds.  The JSON written to --out holds
each round's times in seconds, those minima, the ratio change / base per
stage, the same for the CLI's fixed cost (``cli_fixed_s``), AML's iteration
counts, each side's line count of ``src/arraycal/*.py``, and the environment
perfbench reports (nproc, BLAS threads, library versions) per side.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import timeit
from pathlib import Path

from ab_bench import ROOT, copy_working_tree, export_revision, git, src_lines

# (scheme, M, g, pilots, constraint, SNR in dB)
CASES = {f"{name}{m}": (scheme, m, g, pilots, constraint, snr)
         for name, scheme, pilots, constraint, snr, groups in (
             ("singleton", "SINGLETON", "ALL_ONES", "FCC", 10.0, {16: None, 64: None, 256: None}),
             ("fc2-", "FC_II", "UNIT_PHASE_RANDOM", "NPC", 20.0, {16: 6, 64: 12, 256: 24}))
         for m, g in groups.items()}
ITERS = (2, 12)
TOL = 5e-324            # AML stops only on a step of exactly zero
CALLS, WARMUP = 200, 5  # cli_main calls per workload in the fixed-cost measurement


def cli_fixed_cost(tree: Path) -> dict:
    """Per BENCHMARK.json workload, the median over CALLS cli_main calls of
    the call's seconds minus those of its run_experiment."""
    import run as perfrun
    from arraycal import bench

    inner, real = [], bench.run_experiment

    def timed(cfg):
        t0 = time.perf_counter()
        try:
            return real(cfg)
        finally:
            inner.append(time.perf_counter() - t0)

    out_dir = tree / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    fixed = {}
    bench.run_experiment = timed       # cli_main calls it through the module's globals
    try:
        for wl in json.loads((tree / "BENCHMARK.json").read_text())["workloads"]:
            name = wl["name"]
            cfg, csv = out_dir / f"cli_fixed.{name}.cfg", out_dir / f"cli_fixed.{name}.csv"
            cfg.write_text(perfrun.config_text(perfrun.WORKLOADS[name]))
            costs = []
            for k in range(WARMUP + CALLS):
                argv = ["run", str(cfg), "--out", str(csv), "--seed",
                        str(perfrun.call_seed(1, k))]
                t0 = time.perf_counter()
                if bench.cli_main(argv) != 0:
                    raise RuntimeError(f"cli_main failed on {name}")
                if k >= WARMUP:
                    costs.append(time.perf_counter() - t0 - inner[-1])
            fixed[name] = statistics.median(costs)
    finally:
        bench.run_experiment = real
    return fixed


def measure(tree: Path, repeat: int) -> dict:
    """Every case's stage times in seconds, AML's iteration counts and the
    environment, for the sources in tree."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import numpy as np
    import run as perfrun
    from arraycal.airlink import default_pilots, simulate_exchange
    from arraycal.crb import context_from_model, crb_f
    from arraycal.estimators import ConstraintSpec, aml_estimate, argos_estimate, ls_estimate
    from arraycal.grouping import make_scheme
    from arraycal.model import IID_RAYLEIGH, ImpairmentConfig, gen_channel, gen_impairments
    from arraycal.stacking import build_stacked

    def best(fn) -> float:
        timer = timeit.Timer(fn)
        number = timer.autorange()[0]
        return min(timer.repeat(repeat, number)) / number

    stages, iterations = {}, {}
    for case, (scheme, m, g, kind, constraint, snr) in CASES.items():
        part = make_scheme(scheme, m, g).partition
        rng = np.random.default_rng(0)
        pilots = default_pilots(part, kind, rng)
        imp = gen_impairments(ImpairmentConfig(0.5), m, rng)
        chan = gen_channel(m, IID_RAYLEIGH, rng)
        ms = simulate_exchange(part, pilots, imp, chan, snr, rng)
        system = build_stacked(ms, pilots)
        fcc, npc = ConstraintSpec.fcc(), ConstraintSpec.npc(imp.tx_gains / imp.rx_gains)
        rep = ls_estimate(system, fcc)
        init = getattr(rep, "f_hat", rep).f     # older revisions wrap f in a CalibrationVector
        ctx = context_from_model(imp, chan, pilots, part, ms.noise_variance)

        def stacked():
            ms.stacked = None
            return build_stacked(ms, pilots)

        def ls(spec):
            system.solutions.clear()
            return ls_estimate(system, spec)

        def aml(n):
            return aml_estimate(ms, pilots, part, init=init, tol=TOL, max_iter=n)

        def exchange():
            return simulate_exchange(part, pilots, imp, chan, snr, rng)

        t = {"simulate_exchange": best(exchange),
             "build_stacked": best(stacked),
             "ls_estimate_fcc": best(lambda: ls(fcc)),
             "ls_estimate_npc": best(lambda: ls(npc))}
        try:
            argos_estimate(ms, pilots, part)
            t["argos_estimate"] = best(lambda: argos_estimate(ms, pilots, part))
        except ValueError:
            t["argos_estimate"] = None
        its = [aml(n).iterations for n in ITERS]
        calls = [best(lambda n=n: aml(n)) for n in ITERS]
        t["aml_per_iteration"] = (calls[1] - calls[0]) / (its[1] - its[0])
        t["crb_f"] = best(lambda: crb_f(ctx, constraint))
        stages[case], iterations[case] = t, its
    return {"stages": stages, "aml_iterations": iterations, "cli_fixed_s": cli_fixed_cost(tree),
            "env": perfrun.environment()}


def run_side(tree: Path, repeat: int, threads: int) -> dict:
    """measure(tree) in a fresh interpreter with threads BLAS threads."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update({k: str(threads) for k in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    res = subprocess.run([sys.executable, __file__, "--measure", str(tree),
                          "--repeat", str(repeat)],
                         cwd=tree, env=env, capture_output=True, text=True, timeout=7200)
    if res.returncode != 0:
        raise RuntimeError(f"stage timing failed in {tree}: {res.stderr.strip()[-2000:]}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", help="git revision to compare against")
    ap.add_argument("--out", help="JSON file to write")
    ap.add_argument("--repeat", type=int, default=5, help="timeit runs per stage")
    ap.add_argument("--rounds", type=int, default=3, help="runs of each side")
    ap.add_argument("--threads", type=int, default=1, help="BLAS threads")
    ap.add_argument("--measure", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.measure is not None:
        print(json.dumps(measure(args.measure, args.repeat)))
        return 0
    if args.out is None:
        ap.error("--out is required")

    with tempfile.TemporaryDirectory(prefix="stage_times_") as tmp:
        trees = {"change": ROOT}
        if args.base is not None:
            trees = {"base": Path(tmp) / "base", "change": Path(tmp) / "change"}
            export_revision(args.base, trees["base"])
            copy_working_tree(trees["change"])
        runs = {side: [] for side in trees}
        for k in range(args.rounds):
            for side in (list(trees) if k % 2 == 0 else list(trees)[::-1]):
                runs[side].append(run_side(trees[side], args.repeat, args.threads))
                aml = runs[side][-1]["stages"]["singleton16"]["aml_per_iteration"]
                fixed = runs[side][-1]["cli_fixed_s"]
                print(f"round {k + 1}/{args.rounds} {side}: singleton16 AML "
                      f"{aml * 1e6:.2f} us/iteration, CLI fixed cost " + ", ".join(
                          f"{name} {v * 1e3:.3f} ms" for name, v in fixed.items()), flush=True)
        result = {"base": git("rev-parse", args.base) if args.base else None,
                  "change": f"working tree on {git('rev-parse', 'HEAD')}",
                  "threads": args.threads, "repeat": args.repeat, "rounds": args.rounds,
                  "iters": ITERS, "src_lines": {side: src_lines(t) for side, t in trees.items()},
                  "cases": {case: dict(zip(("scheme", "m", "g", "pilots", "constraint", "snr_db"),
                                           spec)) for case, spec in CASES.items()},
                  "calls": CALLS, "stages": {}, "cli_fixed_s": {}, "aml_iterations": {},
                  "env": {}}
    for case in CASES:
        out = result["stages"][case] = {}
        for stage in runs["change"][0]["stages"][case]:
            row = out[stage] = {}
            for side, side_runs in runs.items():
                values = [r["stages"][case][stage] for r in side_runs]
                row[side] = {"s": None if None in values else min(values), "rounds": values}
            if "base" in row and row["base"]["s"] and row["change"]["s"] is not None:
                row["ratio_change_over_base"] = row["change"]["s"] / row["base"]["s"]
    for name in runs["change"][0]["cli_fixed_s"]:
        row = result["cli_fixed_s"][name] = {}
        for side, side_runs in runs.items():
            values = [r["cli_fixed_s"][name] for r in side_runs]
            row[side] = {"s": min(values), "rounds": values}
        if "base" in row:
            row["ratio_change_over_base"] = row["change"]["s"] / row["base"]["s"]
    for side, side_runs in runs.items():
        result["aml_iterations"][side] = side_runs[-1]["aml_iterations"]
        result["env"][side] = side_runs[-1]["env"]
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
