"""A/B benchmark of this working tree against a base revision.

Run from the repository root:

    python3 scripts/ab_bench.py --base HEAD --seed 3 --out BENCH_pair_blocks.json

The base revision is exported with ``git archive``, and the working tree's
files (tracked and untracked, minus what ``.gitignore`` lists) are copied,
into two directories side by side under one temporary directory, so both
sides run from the same kind of location and the repository's git metadata
stays as it was.  For every workload in ``BENCHMARK.json`` it runs
``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`` in
both copies, in ten pairs that alternate which side runs first, then
one ``--trace 1`` run per side.  T is the benchmark's ``run_seconds`` on both
sides, and each side runs its own ``perfbench`` on its own sources.  Last,
the cold measurement: ten fresh interpreters per side, alternating, each
timing one ``arraycal run`` call of the workload's config after its imports,
so work done on first use (such as building a partition's plans) shows.

With ``--null`` the second side is another ``git archive`` export of the
base instead of the working tree, run through the same pairs, cold calls and
JSON: a null A/B, whose win fractions and median shifts show what the pairing
reports for identical code on this machine (side and drift effects).

The JSON written to ``--out`` holds each side's line count of
``src/arraycal/*.py`` (``src_lines``); per workload and end-to-end metric,
each side's runs, median and quartiles, and the fraction of pairs the change
wins (ties count for neither side); the same for the cold call's seconds
(``cold_call_s``); the ``correct``/``attempted``/``failed`` tallies of every
run; the per-layer metrics of the traced runs; and the environment perfbench
reports (nproc, BLAS threads, library versions).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# a gain needs the change to win at least 9 of 10 alternating pairs
PAIRS = 10


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export_revision(rev: str, tree: Path) -> None:
    """Write the files of revision rev into tree."""
    archive = tree.with_suffix(".tar")
    subprocess.run(["git", "archive", "--format=tar", "-o", str(archive), rev], cwd=ROOT,
                   check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(tree, filter="data")
    archive.unlink()


def copy_working_tree(tree: Path) -> None:
    """Copy the working tree's files, tracked or not, except ignored ones."""
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0"):
        src = ROOT / name
        if name and src.is_file():
            (tree / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, tree / name)


def perfbench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in tree; its result line plus the environment it printed."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds),
                          "--trace", str(trace)],
                         cwd=tree, env=env, capture_output=True, text=True, timeout=3600)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench failed in {tree} ({workload}, trace {trace}): "
                           f"{res.stderr.strip()[-2000:]}")
    out = json.loads(lines[-1])
    out["problems"] = [ln[len("problem: "):] for ln in lines if ln.startswith("problem: ")]
    env_lines = [ln[len("env "):] for ln in lines if ln.startswith("env ")]
    out["env"] = json.loads(env_lines[-1]) if env_lines else None
    return out


# One ``arraycal run`` call of a perfbench workload's config in this fresh
# interpreter, run from a tree's root; prints the call's seconds, imports
# excluded.  argv: config path, CSV path, workload, seed.
COLD_CALL = """
import sys, time
sys.path[:0] = ["src", "perfbench"]
import run
from arraycal.bench import cli_main
cfg, out, workload, seed = sys.argv[1:]
with open(cfg, "w") as fh:
    fh.write(run.config_text(run.WORKLOADS[workload]))
t0 = time.perf_counter()
code = cli_main(["run", cfg, "--out", out, "--seed", seed])
print(time.perf_counter() - t0)
sys.exit(code)
"""


def cold_call(tree: Path, workload: str, seed: int) -> float:
    """Seconds of one first ``arraycal run`` call in a fresh interpreter in tree."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    files = [str(tree.parent / f"{tree.name}.cold.{ext}") for ext in ("cfg", "csv")]
    res = subprocess.run([sys.executable, "-c", COLD_CALL, *files, workload, str(seed)],
                         cwd=tree, env=env, capture_output=True, text=True, timeout=600)
    if res.returncode != 0:
        raise RuntimeError(f"cold call failed in {tree} ({workload}): "
                           f"{res.stderr.strip()[-2000:]}")
    return float(res.stdout.strip().splitlines()[-1])


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "median": median, "q1": q1, "q3": q3}


def compare(base_runs: list, change_runs: list, metrics: list) -> dict:
    """Per end-to-end metric: both sides' summaries and the change's win rate."""
    out = {}
    for spec in metrics:
        name, higher = spec["name"], spec["better"] == "higher"
        b = [r["metrics"][name]["value"] for r in base_runs]
        c = [r["metrics"][name]["value"] for r in change_runs]
        wins = sum((y > x) if higher else (y < x) for x, y in zip(b, c))
        base, change = summary(b), summary(c)
        out[name] = {
            "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            "base": base, "change": change,
            "change_wins_frac": wins / len(b),
            "median_ratio_change_over_base": change["median"] / base["median"],
            "base_quartile_spread": base["q3"] - base["q1"],
        }
    return out


def compare_cold(trees: dict, workload: str, seed: int) -> dict:
    """Both sides' cold-call seconds over PAIRS alternating pairs, and the
    fraction of pairs in which the change is faster."""
    runs = {"base": [], "change": []}
    for k in range(PAIRS):
        for side in (("base", "change") if k % 2 == 0 else ("change", "base")):
            runs[side].append(cold_call(trees[side], workload, seed))
    wins = sum(c < b for b, c in zip(runs["base"], runs["change"]))
    base, change = summary(runs["base"]), summary(runs["change"])
    return {"unit": "s", "better": "lower", "base": base, "change": change,
            "change_wins_frac": wins / PAIRS,
            "median_ratio_change_over_base": change["median"] / base["median"],
            "base_quartile_spread": base["q3"] - base["q1"]}


def src_lines(tree: Path) -> int:
    """Lines of the package's modules, as ``wc -l src/arraycal/*.py`` counts them."""
    return sum(len(f.read_bytes().splitlines()) for f in (tree / "src" / "arraycal").glob("*.py"))


def tallies(runs: list) -> dict:
    return {key: [r[key] for r in runs] for key in ("correct", "attempted", "failed")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", default="HEAD", help="git revision to compare against")
    ap.add_argument("--seed", type=int, default=1, help="perfbench --seed of every run")
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--null", action="store_true",
                    help="run the base against a second export of itself")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    base = git("rev-parse", args.base)
    result = {"base": base,
              "change": f"second export of {base}" if args.null
              else f"working tree on {git('rev-parse', 'HEAD')}",
              "null": args.null, "seed": args.seed, "pairs": PAIRS, "run_seconds": seconds,
              "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="ab_bench_") as tmp:
        trees = {"base": Path(tmp) / "base", "change": Path(tmp) / "change"}
        export_revision(args.base, trees["base"])
        if args.null:
            export_revision(args.base, trees["change"])
        else:
            copy_working_tree(trees["change"])
        result["src_lines"] = {side: src_lines(tree) for side, tree in trees.items()}
        for wl in spec["workloads"]:
            name = wl["name"]
            runs = {"base": [], "change": []}
            for k in range(PAIRS):
                order = ("base", "change") if k % 2 == 0 else ("change", "base")
                for side in order:
                    runs[side].append(perfbench(trees[side], name, args.seed, seconds, 0))
                print(f"{name} pair {k + 1}/{PAIRS}: " + ", ".join(
                    f"{side} {runs[side][-1]['metrics']['trials_per_s']['value']:.4g}"
                    for side in ("base", "change")) + " trials/s", flush=True)
            traced = {side: perfbench(trees[side], name, args.seed, seconds, 1)
                      for side in ("base", "change")}
            result["workloads"][name] = {
                "end_to_end": compare(runs["base"], runs["change"], spec["end_to_end"]),
                "tally": {side: tallies(runs[side] + [traced[side]]) for side in runs},
                "problems": {side: sorted({p for r in runs[side] + [traced[side]]
                                           for p in r["problems"]}) for side in runs},
                "trace": {side: {m: v["value"] for m, v in traced[side]["metrics"].items()}
                          for side in runs},
                "cold_call_s": compare_cold(trees, name, args.seed),
            }
            cold = result["workloads"][name]["cold_call_s"]
            print(f"{name} cold call: base {cold['base']['median']:.4g} s, "
                  f"change {cold['change']['median']:.4g} s", flush=True)
            result["env"] = {side: runs[side][-1]["env"] for side in runs}
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
