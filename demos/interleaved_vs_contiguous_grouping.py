"""
Does it matter which antennas share a group on a physical array?

On a 4x16 rectangular grid with a distance-based channel, contiguous
groups only hear their immediate neighbors well, while interleaved
groups (members spread across the whole grid with stride equal to the
group count) keep every pairwise link short on average. The MSE gap
between the two assignments is visible at every SNR and is matched by
the CRB, so it is a property of the geometry rather than the
estimator.
"""

import numpy as np

from arraycal import ExperimentConfig, run_experiment


def run(scheme):
    cfg = ExperimentConfig(
        m=64,
        scheme=scheme,
        g=16,
        channel="geometric",
        rows=4,
        cols=16,
        spacing=0.5,
        snr_db=(20.0, 30.0, 40.0),
        trials=100,
        estimators=("ls",),
        constraint="NPC",
        seed=5,
        crb=True,
        crb_trials=100,
    )
    table = run_experiment(cfg)
    return {row.snr_db: (row.mse, row.crb_trace) for row in table.rows}


def main():
    inter = run("INTERLEAVED")
    contig = run("NON_INTERLEAVED")

    print("4x16 grid, half-wavelength spacing, 16 groups of 4, NPC")
    print()
    print(f"{'SNR':>6}  {'interleaved':>13}  {'contiguous':>13}  {'gap (dB)':>9}"
          f"  {'CRB gap (dB)':>13}")
    for snr in sorted(inter):
        mi, ci = inter[snr]
        mc, cc = contig[snr]
        gap = 10.0 * np.log10(mc / mi)
        crb_gap = 10.0 * np.log10(cc / ci)
        print(f"{snr:>6.0f}  {mi:>13.3e}  {mc:>13.3e}  {gap:>9.2f}  {crb_gap:>13.2f}")

    print()
    print("The contiguous penalty comes from the weak long-distance links that")
    print("dominate its pair equations; spreading each group over the grid")
    print("replaces them with short ones.")


if __name__ == "__main__":
    main()
