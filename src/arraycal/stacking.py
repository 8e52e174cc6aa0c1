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
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .model import AntennaPartition, batch_indices


@dataclass
class StackedSystem:
    """Y(P) as per-pair row blocks, with its Gram matrix A = Y(P)^H Y(P).

    blocks batches pairs of equal shape as (cols, w): the rows of Y(P) for
    pair p are w[p], at the antenna columns cols[p].  plans are the pair plans
    the blocks come from, one per slot, in order.  solutions holds the
    estimators' solves of this system, keyed by constraint.
    """

    gram: np.ndarray          # M x M, Hermitian PSD
    rows: int                 # rows of Y(P)
    m: int
    blocks: list              # [(cols (P, k) int, w (P, r, k) complex), ...]
    plans: tuple              # (PairPlan, ...)
    solutions: dict = field(default_factory=dict, repr=False, compare=False)

    def apply_gram(self, f: np.ndarray) -> np.ndarray:
        """A f as Y(P)^H (Y(P) f) from the pair blocks: unlike gram @ f, its
        rounding error does not scale with cond(A) = cond(Y(P))^2."""
        yf = [np.einsum("prk,pk->pr", w, f[cols]) for cols, w in self.blocks]
        index = self.plans[0].cols_index if len(self.plans) == 1 \
            else np.concatenate([p.cols_index for p in self.plans])
        return _scatter_add(self.m, index,
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


class PairBatch(NamedTuple):
    """Pairs (gi[p], gj[p]), i < j, of one block shape (M_i, M_j, L_i, L_j):
    their antenna columns cols (P, M_i + M_j), group i's first, and the flat
    indices in a slot's received matrix of Y_{j->i} (P, M_i, L_j) and
    Y_{i->j} (P, M_j, L_i)."""

    gi: np.ndarray
    gj: np.ndarray
    cols: np.ndarray
    y_ji: np.ndarray
    y_ij: np.ndarray


@dataclass(frozen=True, eq=False)
class PairPlan:
    """The index structure of a set of group pairs, which depends only on the
    partition: the batches in order of first appearance (pairs in their given
    order), the groups the pairs touch, the rows of Y(P), pair_gram's index
    over all batches, and their cols, flat.  Every array is read-only."""

    batches: tuple
    groups: tuple
    rows: int
    gram_index: np.ndarray
    cols_index: np.ndarray


def pair_plan(partition: AntennaPartition, pairs=None) -> PairPlan:
    """The plan of the pairs (i, j) (all i < j, lexicographic, for None), built
    once per partition and pairs: equal arguments give the same object."""
    return _pair_plan(partition, None if pairs is None else
                      tuple((int(i), int(j)) for i, j in pairs))


@lru_cache(maxsize=32)
def _pair_plan(partition: AntennaPartition, pairs: tuple | None) -> PairPlan:
    if pairs is None:
        g = np.transpose(np.triu_indices(partition.num_groups, 1))
    else:
        g = np.array(pairs, dtype=int).reshape(-1, 2)
    if np.any(g[:, 0] == g[:, 1]):
        raise ValueError("a pair needs two distinct groups")
    sizes, lens = np.asarray(partition.group_sizes), np.asarray(partition.pilot_lengths)
    offsets, pilot_offsets = np.asarray(partition.offsets), np.asarray(partition.pilot_offsets)
    width = int(lens.sum())

    def received(tx, rx):                     # Y_{tx->rx}, (P, M_rx, L_tx)
        return ((offsets[rx, None, None] + np.arange(sizes[rx[0]])[:, None]) * width
                + pilot_offsets[tx, None, None] + np.arange(lens[tx[0]]))

    batches = []
    for sel in batch_indices((*sizes[g].T, *lens[g].T)):
        gi, gj = g[sel, 0], g[sel, 1]
        cols = np.concatenate((offsets[gi, None] + np.arange(sizes[gi[0]]),
                               offsets[gj, None] + np.arange(sizes[gj[0]])), axis=1)
        batches.append(PairBatch(gi, gj, cols, received(gj, gi), received(gi, gj)))
    touched = np.bincount(g.ravel(), minlength=partition.num_groups)
    plan = PairPlan(tuple(batches), tuple(np.flatnonzero(touched).tolist()),
                    int(np.sum(lens[g[:, 0]] * lens[g[:, 1]])),
                    gram_index(partition.num_antennas, [b.cols for b in batches]),
                    np.concatenate([b.cols.ravel() for b in batches]))
    for a in (plan.gram_index, plan.cols_index, *(x for b in batches for x in b)):
        a.flags.writeable = False
    return plan


def pair_pilots(pilots, gi: np.ndarray, gj: np.ndarray):
    """The pilot blocks (P_i, P_j) of a batch of pairs, stacked."""
    return pilots.stacked(gi), pilots.stacked(gj)


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


def gram_index(n: int, cols: list) -> np.ndarray:
    """pair_gram's index for batches with the columns cols [(P, k), ...]:
    pair p's k x k block at the flat places cols_p[a] n + cols_p[b]."""
    return np.concatenate([(c[:, :, None] * n + c[:, None, :]).ravel() for c in cols])


def pair_gram(n: int, index: np.ndarray, ws: list) -> np.ndarray:
    """The n x n sum of w_p^H w_p over every pair p of the batches ws
    [(P, r, k), ...], each k x k block added at its place in index (gram_index)."""
    return _scatter_add(n * n, index, [np.einsum("pri,prj->pij", w.conj(), w)
                                       for w in ws]).reshape(n, n)


def build_stacked(measurements, pilots, partition: AntennaPartition,
                  pairs=None, slot: int = 0) -> StackedSystem:
    """Stacked system of one slot's measurements (pairs i<j, lexicographic).

    Pairs of equal block shape are batched (pair_plan); pair (i, j) adds
    W^H W, with W = [block_i, block_j], to the Gram at the antennas of groups
    i and j.  The result is kept on the measurements and returned again to a
    call with the same pilots and partition objects, slot and pairs argument
    (None, or an equal list).
    """
    pairs = None if pairs is None else list(pairs)
    kept = measurements.stacked
    if kept is not None and kept[0] is pilots and kept[1] is partition \
            and kept[2] == slot and kept[3] == pairs:
        return kept[4]
    plan = pair_plan(partition, pairs)
    idle = sorted(set(plan.groups).difference(measurements.groups))
    if idle:
        raise KeyError(f"no measurement blocks for group {idle[0]} in this slot")
    y = measurements.received.ravel()
    blocks = []
    for gi, gj, cols, y_ji, y_ij in plan.batches:
        bi, bj = pair_equation_block(y[y_ji], y[y_ij], *pair_pilots(pilots, gi, gj))
        blocks.append((cols, np.concatenate((bi, bj), axis=2)))
    m = partition.num_antennas
    system = StackedSystem(pair_gram(m, plan.gram_index, [w for _, w in blocks]), plan.rows,
                           m, blocks, (plan,))
    measurements.stacked = (pilots, partition, slot, pairs, system)
    return system


def build_stacked_noncoherent(slot_measurements: list, pilots,
                              partition: AntennaPartition,
                              schedule=None) -> StackedSystem:
    """Sum of the per-slot Grams, each restricted to its slot's active pairs."""
    if not slot_measurements:
        raise ValueError("no slots to stack")
    systems = [build_stacked(ms, pilots, partition, slot=ms.slot_id,
                             pairs=ms.pairs() if schedule is None else schedule.active_pairs(t))
               for t, ms in enumerate(slot_measurements)]
    return StackedSystem(sum(s.gram for s in systems), sum(s.rows for s in systems),
                         partition.num_antennas, [b for s in systems for b in s.blocks],
                         tuple(p for s in systems for p in s.plans))


def independent_equations(partition: AntennaPartition, schedule=None):
    """Upper bounds on the rank of Y(P): in total, and per group over its pairs.

    Pair (i, j)'s residual P_i^T F_i Y_{j->i} - Y_{i->j}^T F_j P_j equals
    P_i^T X P_j for an M_i x M_j matrix X linear in f, so its L_i L_j rows have
    rank at most e_ij = r_i r_j, r_i = min(L_i, M_i).  Summed over the pairs of
    every slot (all pairs when schedule is None).
    """
    r = np.minimum(partition.pilot_lengths, partition.group_sizes)
    rows, per_group = 0, np.zeros(partition.num_groups, dtype=int)
    for slot in ([range(partition.num_groups)] if schedule is None else schedule.slots):
        rs = r[list(slot)]
        rows += int(rs.sum() ** 2 - (rs ** 2).sum()) // 2
        per_group[list(slot)] += rs * (rs.sum() - rs)
    return rows, per_group


def group_components(partition: AntennaPartition, schedule=None) -> list:
    """Groups linked by exchanges in some slot, as ascending tuples in order of
    their first group.  Each component has its own unknown scale."""
    comps = [{g} for g in range(partition.num_groups)]
    for slot in ([range(partition.num_groups)] if schedule is None else schedule.slots):
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

