"""
Per-antenna calibration estimators against the Cramer-Rao bound.

Every antenna transmits alone (singleton groups) on a 16-element array,
so all the classic estimators apply: full least squares, the Rogalin
Gram-matrix solve, Argos (the pair equations of the star around antenna
0), the daisy chain (those of the path), and alternating ML warm-started
from LS. Pilots are all ones, under which Argos and the daisy chain are the
classic reference and chain ratios. MSE is reported under the
first coefficient constraint alongside the CRB trace averaged over the
same impairment and channel draws.
"""

import numpy as np

from arraycal import ExperimentConfig, run_experiment


def main():
    cfg = ExperimentConfig(
        m=16,
        scheme="SINGLETON",
        snr_db=(10.0, 20.0, 30.0, 40.0),
        trials=300,
        estimators=("ls", "rogalin", "argos", "daisy", "aml"),
        constraint="FCC",
        pilots="ALL_ONES",
        seed=11,
        crb=True,
        crb_trials=200,
        aml_max_iter=50,
    )
    table = run_experiment(cfg)

    by_est = {}
    crb = {}
    for row in table.rows:
        by_est.setdefault(row.estimator, {})[row.snr_db] = row.mse
        crb[row.snr_db] = row.crb_trace

    snrs = cfg.snr_db
    header = "estimator  " + "".join(f"{s:>12.0f} dB" for s in snrs)
    print("16 antennas, singleton groups, FCC constraint, 300 trials")
    print()
    print(header)
    print("-" * len(header))
    for est in cfg.estimators:
        print(f"{est:<11}" + "".join(f"{by_est[est][s]:>15.3e}" for s in snrs))
    print(f"{'CRB':<11}" + "".join(f"{crb[s]:>15.3e}" for s in snrs))

    print()
    print("AML attains the bound, with LS (and Rogalin, identical to LS in the")
    print("singleton case) a few dB behind; Argos and the daisy chain lose more")
    print("because each coefficient only sees the links through the reference")
    print("element or its chain neighbor.")


if __name__ == "__main__":
    main()
