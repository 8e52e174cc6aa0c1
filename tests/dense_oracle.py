"""Dense Y(P) reference for the Gram-only stacked system.

The package keeps only A = Y(P)^H Y(P).  These helpers build Y(P) itself,
one row block per pair from pair_equation_block, so tests can check the
Gram, null-space and rank properties against the explicit matrix.
"""

import numpy as np

from arraycal.stacking import pair_equation_block


def dense_y(measurements, pilots, partition, pairs=None):
    """Y(P) of one slot: row blocks for pairs i < j in the given order."""
    m = partition.num_antennas
    if pairs is None:
        pairs = partition.pairs()
    blocks = []
    for (i, j) in pairs:
        bi, bj = pair_equation_block(measurements.block(j, i), measurements.block(i, j),
                                     pilots[i], pilots[j])
        rows = np.zeros((bi.shape[0], m), dtype=complex)
        rows[:, partition.antennas_of(i)] = bi
        rows[:, partition.antennas_of(j)] = bj
        blocks.append(rows)
    return np.vstack(blocks)


def dense_y_noncoherent(slot_measurements, pilots, partition, schedule):
    """Per-slot Y(P) of the schedule's active pairs, stacked in slot order."""
    return np.vstack([dense_y(ms, pilots, partition, schedule.active_pairs(t))
                      for t, ms in enumerate(slot_measurements)])
