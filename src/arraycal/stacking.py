"""Stacked homogeneous system for joint calibration estimation.

Eliminating the reciprocal channel from the pair (i, j) exchanges gives

    (Y_{j->i}^T * P_i^T) f_i - (P_j^T * Y_{i->j}^T) f_j = n_ij

(* is the Khatri-Rao, i.e. column-wise Kronecker, product).  Stacking all
pairs i < j yields Y(P) f = n, a matrix with sum_{i<j} L_i L_j rows whose
null space is spanned by the true f in the noiseless case.  Y(P) is kept
as its per-pair row blocks and the M x M Gram matrix A = Y(P)^H Y(P), the
sum of the pairs' contributions; the dense Y(P) is never formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import AntennaPartition


@dataclass
class StackedSystem:
    """Y(P) as per-pair row blocks, with its Gram matrix A = Y(P)^H Y(P).

    blocks batches pairs of equal shape as (cols, w): the rows of Y(P) for
    pair p are w[p], at the antenna columns cols[p].  cols_index is every
    block's cols, flat, in order.  solutions holds the estimators' solves of
    this system, keyed by constraint.
    """

    gram: np.ndarray          # M x M, Hermitian PSD
    rows: int                 # rows of Y(P)
    m: int
    blocks: list              # [(cols (P, k) int, w (P, r, k) complex), ...]
    cols_index: np.ndarray
    solutions: dict = field(default_factory=dict, repr=False, compare=False)

    def apply_gram(self, f: np.ndarray) -> np.ndarray:
        """A f as Y(P)^H (Y(P) f) from the pair blocks: unlike gram @ f, its
        rounding error does not scale with cond(A) = cond(Y(P))^2."""
        yf = [np.einsum("prk,pk->pr", w, f[cols]) for cols, w in self.blocks]
        return _scatter_add(self.m, self.cols_index,
                            [np.einsum("prk,pr->pk", w.conj(), r)
                             for (_, w), r in zip(self.blocks, yf)])


def khatri_rao_t(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Khatri-Rao product of a^T and b^T: column k is kron(a[k], b[k]).

    a is (K, A) and b is (K, B); the result is (A B, K).  Leading axes are
    batch axes.
    """
    return np.einsum("...ka,...kb->...abk", a, b).reshape(
        a.shape[:-2] + (-1, a.shape[-2]))


def pair_equation_block(y_ji: np.ndarray, y_ij: np.ndarray,
                        p_i: np.ndarray, p_j: np.ndarray):
    """Khatri-Rao coefficient blocks of the pair equation, for (f_i, f_j).

    Rows follow the column-major vectorization of the L_i x L_j residual
    matrix P_i^T F_i Y_{j->i} - Y_{i->j}^T F_j P_j.  Leading axes are batch
    axes: stacked pairs of equal shape give stacked blocks.
    """
    return khatri_rao_t(y_ji, p_i), -khatri_rao_t(p_j, y_ij)   # (L_i L_j) x M_i, x M_j


def _scatter_add(n: int, index: np.ndarray, values: list) -> np.ndarray:
    """Length-n complex vector with the values[k].flat, concatenated, added at
    index.

    One bincount per part over all the batches in order: every entry sums its
    terms in the order np.add.at, batch after batch, would, so the result is
    the same to the bit.
    """
    val = np.concatenate([v.ravel() for v in values])
    out = np.empty(n, dtype=complex)
    out.real = np.bincount(index, val.real, n)
    out.imag = np.bincount(index, val.imag, n)
    return out


def pair_gram(n: int, index: np.ndarray, ws: list) -> np.ndarray:
    """The n x n sum of w_p^H w_p over every pair p of the batches ws
    [(P, r, k), ...], each k x k block added at its place in index
    (model.gram_index)."""
    return _scatter_add(n * n, index, [np.einsum("pri,prj->pij", w.conj(), w)
                                       for w in ws]).reshape(n, n)


def build_stacked(measurements, pilots) -> StackedSystem:
    """Stacked system of one slot's measurements: the pairs i < j of its
    active groups, lexicographic.

    Pairs of equal block shape are batched (the slot's plan); pair (i, j)
    adds W^H W, with W = [block_i, block_j], to the Gram at the antennas of
    groups i and j.  The result is kept on the measurements and returned
    again to a call with the same pilots object.
    """
    kept = measurements.stacked
    if kept is not None and kept[0] is pilots:
        return kept[1]
    plan = measurements.plan
    y = measurements.received.ravel()
    blocks = []
    for b in plan.pairs:
        bi, bj = pair_equation_block(y[b.y_ji], y[b.y_ij], pilots.stacked(b.gi),
                                     pilots.stacked(b.gj))
        blocks.append((b.cols, np.concatenate((bi, bj), axis=2)))
    m = measurements.partition.num_antennas
    system = StackedSystem(pair_gram(m, plan.gram_index, [w for _, w in blocks]), plan.rows,
                           m, blocks, plan.cols_index)
    measurements.stacked = (pilots, system)
    return system


def build_stacked_noncoherent(slot_measurements: list, pilots) -> StackedSystem:
    """Sum of the per-slot Grams, each over its slot's active pairs."""
    if not slot_measurements:
        raise ValueError("no slots to stack")
    systems = [build_stacked(ms, pilots) for ms in slot_measurements]
    return StackedSystem(sum(s.gram for s in systems), sum(s.rows for s in systems),
                         systems[0].m, [b for s in systems for b in s.blocks],
                         np.concatenate([s.cols_index for s in systems]))


def independent_equations(partition: AntennaPartition, schedule=None):
    """Upper bounds on the rank of Y(P): in total, and per group over its pairs.

    Pair (i, j)'s residual P_i^T F_i Y_{j->i} - Y_{i->j}^T F_j P_j equals
    P_i^T X P_j for an M_i x M_j matrix X linear in f, so its L_i L_j rows have
    rank at most e_ij = r_i r_j, r_i = min(L_i, M_i).  Summed over the pairs of
    every slot (all pairs when schedule is None); a schedule's slot adds at
    most M_t - 1, as its noiseless rows vanish on f at its M_t antennas.
    """
    r = np.minimum(partition.pilot_lengths, partition.group_sizes)
    rows, per_group = 0, np.zeros(partition.num_groups, dtype=int)
    for slot in ([range(partition.num_groups)] if schedule is None else schedule.slots):
        rs = r[list(slot)]
        e = int(rs.sum() ** 2 - (rs ** 2).sum()) // 2
        rows += e if schedule is None else min(e, sum(partition.group_sizes[g] for g in slot) - 1)
        per_group[list(slot)] += rs * (rs.sum() - rs)
    return rows, per_group


def group_components(partition: AntennaPartition, schedule=None) -> list:
    """Groups linked by exchanges in some slot, as ascending tuples in order of
    their first group.  Each component has its own unknown scale."""
    comps = [{g} for g in range(partition.num_groups)]
    for slot in ([range(partition.num_groups)] if schedule is None else schedule.slots):
        slot = set(slot)
        linked = [c for c in comps if not c.isdisjoint(slot)]
        comps = [c for c in comps if c.isdisjoint(slot)] + [set().union(*linked)]
    return sorted(tuple(sorted(c)) for c in comps)


def check_identifiability(partition: AntennaPartition, schedule=None) -> dict:
    """Independent equation count vs. the M-1 unknown directions.

    rows = sum of e_ij = min(L_i, M_i) min(L_j, M_j) over the pairs (of every
    slot of a non-coherent schedule; see independent_equations).  f is
    determined up to scale only if rows >= M - 1, every group i has at least
    M_i independent equations, and the exchanges connect all groups
    (group_components).
    """
    rows, per_group = independent_equations(partition, schedule)
    needed = partition.num_antennas - 1
    ok = (rows >= needed and bool(np.all(per_group >= partition.group_sizes))
          and len(group_components(partition, schedule)) == 1)
    return {"rows": rows, "needed": needed, "ok": ok}

