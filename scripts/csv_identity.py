"""Check that ``arraycal run`` and ``arraycal crb`` CSVs are byte-identical to
a base revision's.

Run from the repository root:

    python3 scripts/csv_identity.py --base HEAD --seeds 5 7

The base revision is exported with ``git archive`` and the working tree is
copied beside it (as ``scripts/ab_bench.py`` does).  Each config below, and
each perfbench workload's config, is run with ``arraycal run <config> --out
<csv> --seed S`` in both trees, one fresh interpreter per call, for every
seed; each config that computes the CRB also with ``arraycal crb``, which
draws ``crb_trials`` (50 by default) CRB realisations per SNR where ``run``
draws only ``trials``.  Every CSV that differs, or that one side failed to
write, is
reported, each differing one with the largest relative difference of its
``mse`` and ``crb_trace`` columns per estimator; the exit status is 1 if
there is any, else 0.

With ``--rtol R`` the differing CSVs whose largest move exceeds R (or that
cannot be compared: one side failed, or the rows differ) are listed last,
and the exit status is 1 only if there is any of those:

    python3 scripts/csv_identity.py --base HEAD --seeds 5 7 --rtol 1e-9
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from ab_bench import ROOT, copy_working_tree, export_revision, git

sys.path.insert(0, str(ROOT / "perfbench"))
import run as perfrun  # noqa: E402

CONFIGS = {
    "singleton16-npc": "m = 16\nscheme = SINGLETON\npilots = ALL_ONES\nconstraint = NPC\n"
                       "estimators = ls, rogalin, argos, daisy, aml\nsnr_db = 10, 40\n"
                       "trials = 4\n",
    "fc1-29": "m = 29\nscheme = FC_I\ng = 8\nconstraint = NPC\n"
              "estimators = ls, aml, avalanche\nsnr_db = 20, 40\ntrials = 4\n",
    "interleaved-geometric": "m = 64\nscheme = INTERLEAVED\ng = 16\nchannel = geometric\n"
                             "rows = 4\ncols = 16\nestimators = ls\nsnr_db = 30\n"
                             "trials = 3\n",
    "noncoherent-singleton": "m = 6\nscheme = SINGLETON\n"
                             "noncoherent_slots = 0 1 2; 2 3 4; 4 5 0\ncrb = false\n"
                             "estimators = ls\nsnr_db = 20, 40\ntrials = 5\n",
    "noncoherent-custom": "m = 12\nscheme = CUSTOM\ngroup_sizes = 2, 3, 3, 2, 2\n"
                          "pilot_lengths = 2, 3, 1, 2, 2\n"
                          "noncoherent_slots = 0 1 2; 2 3 4; 4 0 1 3\ncrb = false\n"
                          "estimators = ls\nsnr_db = 20, 40\ntrials = 5\n",
    # the bound of a schedule, its slots' information summed; revisions
    # before it wrote crb_trace = nan from run and exited 2 from crb
    "noncoherent-crb": "m = 12\nscheme = CUSTOM\ngroup_sizes = 2, 3, 3, 2, 2\n"
                       "pilot_lengths = 2, 3, 1, 2, 2\n"
                       "noncoherent_slots = 0 1 2; 2 3 4; 4 0 1 3\nconstraint = NPC\n"
                       "estimators = ls\nsnr_db = 20, 40\ntrials = 5\ncrb_trials = 5\n",
    "argos-identity": "m = 8\nscheme = ARGOS\npilots = IDENTITY\nconstraint = FCC\n"
                      "estimators = ls, argos, aml\nsnr_db = 20, 40\ntrials = 4\n",
    "avalanche-6": "m = 16\nscheme = AVALANCHE\ng = 6\nconstraint = FCC\n"
                   "estimators = ls, avalanche\nsnr_db = 20, 40\ntrials = 4\n",
    "fc2-64-known-h": "m = 64\nscheme = FC_II\ng = 12\ncrb_known_h = true\n"
                      "estimators = ls\nsnr_db = 20, 40\ntrials = 2\n",
    "custom-1231": "m = 7\nscheme = CUSTOM\ngroup_sizes = 1, 2, 3, 1\n"
                   "pilot_lengths = 2, 2, 1, 3\nestimators = ls, aml\nsnr_db = 20, 40\n"
                   "trials = 5\n",
    # FC_I's 11 block shapes: the Gram, the exchange and Avalanche batch by shape
    "fc1-64": "m = 64\nscheme = FC_I\ng = 12\nconstraint = NPC\nestimators = ls, avalanche\n"
              "snr_db = 20, 40\ntrials = 3\n",
    # sizes (1, 1, 2, 3, 4, 5, 3, 1): shapes (3, 1) and (1, 1) recur apart, so
    # AML, the CRB and Avalanche run on runs of equal shape split in two
    "fc1-20": "m = 20\nscheme = FC_I\ng = 8\nconstraint = NPC\n"
              "estimators = ls, aml, avalanche\nsnr_db = 20, 40\ntrials = 4\n",
    # rank-one groups (L_g = 1 < M_g = 3): AML runs to aml_max_iter, so its
    # rounding accumulates over about 100 iterations
    "fc2-24-aml": "m = 24\nscheme = FC_II\ng = 8\npilots = UNIT_PHASE_RANDOM\nconstraint = NPC\n"
                  "estimators = ls, aml\ncrb = false\nsnr_db = 10, 40\ntrials = 4\n",
    # single antennas with pilots of 1-3 uses: AML's closed-form s^2 = ||p_g||^2
    # |f_g|^2 and the sum over a group's pilot uses differ by rounding
    "singles-long": "m = 6\nscheme = CUSTOM\ngroup_sizes = 1, 1, 1, 1, 1, 1\n"
                    "pilot_lengths = 2, 1, 3, 1, 2, 1\nconstraint = FCC\nestimators = ls, aml\n"
                    "snr_db = 10, 40\ntrials = 4\n",
}

RUN = "import sys\nfrom arraycal.bench import cli_main\nsys.exit(cli_main(sys.argv[1:]))\n"


def crb_on(text: str) -> bool:
    """Whether a config computes the CRB (``crb`` is true by default)."""
    return "crb=false" not in text.replace(" ", "").splitlines()


def run_csv(tree: Path, command: str, config: Path, out: Path, seed: int) -> bytes | None:
    """The CSV of one ``arraycal <command>`` call in tree, or None if the call
    failed."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    res = subprocess.run([sys.executable, "-c", RUN, command, str(config), "--out", str(out),
                          "--seed", str(seed)], cwd=tree, env=env, capture_output=True,
                         text=True, timeout=1800)
    if res.returncode != 0 or not out.exists():
        print(f"  {tree.name} exit {res.returncode}: {res.stderr.strip()[-500:]}")
        return None
    return out.read_bytes()


def relative_moves(base: bytes, change: bytes) -> dict:
    """{(estimator, column): largest |change - base| / |base|} over the rows
    of two CSVs with the same rows, for the mse and crb_trace columns.  Equal
    values (nan included) move by 0; a nonzero move from 0, or between nan
    and a number, by inf."""
    rows = [list(csv.DictReader(io.StringIO(b.decode()))) for b in (base, change)]
    if [[r["estimator"], r["snr_db"]] for r in rows[0]] \
            != [[r["estimator"], r["snr_db"]] for r in rows[1]]:
        raise ValueError("the CSVs have different rows")
    moves = {}
    for a, b in zip(*rows):
        for col in ("mse", "crb_trace"):
            x, y = float(a[col]), float(b[col])
            if x == y or (math.isnan(x) and math.isnan(y)):
                rel = 0.0
            elif x == 0 or math.isnan(x + y):
                rel = math.inf
            else:
                rel = abs(y - x) / abs(x)
            key = (a["estimator"], col)
            moves[key] = max(moves.get(key, 0.0), rel)
    return moves


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", default="HEAD", help="git revision to compare against")
    ap.add_argument("--seeds", type=int, nargs="+", default=[5, 7], help="run seeds")
    ap.add_argument("--rtol", type=float,
                    help="list the differing CSVs that move by more than RTOL relative, "
                         "and exit 1 only for those")
    args = ap.parse_args(argv)

    configs = {name: perfrun.config_text(keys) for name, keys in perfrun.WORKLOADS.items()}
    configs.update(CONFIGS)
    print(f"base {git('rev-parse', args.base)} against the working tree", flush=True)
    differ, beyond, total = [], [], 0
    with tempfile.TemporaryDirectory(prefix="csv_identity_") as tmp:
        tmp = Path(tmp)
        trees = {"base": tmp / "base", "change": tmp / "change"}
        export_revision(args.base, trees["base"])
        copy_working_tree(trees["change"])
        for name, text in configs.items():
            config = tmp / f"{name}.cfg"
            config.write_text(text)
            for command in ("run", "crb") if crb_on(text) else ("run",):
                for seed in args.seeds:
                    total += 1
                    label = f"{name} {command} seed {seed}"
                    csvs = [run_csv(tree, command, config,
                                    tmp / f"{side}.{name}.{command}.{seed}.csv", seed)
                            for side, tree in trees.items()]
                    same = None not in csvs and csvs[0] == csvs[1]
                    print(f"{label}: {'identical' if same else 'DIFFERS'}", flush=True)
                    if same:
                        continue
                    differ.append(label)
                    largest = math.inf             # one side failed, or the rows differ
                    if None not in csvs:
                        try:
                            moves = relative_moves(*csvs)
                            largest = max(moves.values(), default=0.0)
                        except ValueError as e:
                            print(f"  {e}")
                            moves = {}
                        for (est, col), rel in moves.items():
                            print(f"  {est} {col}: largest relative move {rel:.2e}")
                    if args.rtol is not None and not largest <= args.rtol:
                        beyond.append(label)
    print(f"{len(differ)} of {total} CSVs differ"
          + (": " + ", ".join(differ) if differ else ""))
    if args.rtol is None:
        return 1 if differ else 0
    print(f"{len(beyond)} move by more than {args.rtol:g}"
          + (": " + ", ".join(beyond) if beyond else ""))
    return 1 if beyond else 0


if __name__ == "__main__":
    sys.exit(main())
