"""Stacked homogeneous system for joint calibration estimation.

Eliminating the reciprocal channel from the pair (i, j) exchanges gives

    (Y_{j->i}^T * P_i^T) f_i - (P_j^T * Y_{i->j}^T) f_j = n_ij

(* is the Khatri-Rao, i.e. column-wise Kronecker, product).  Stacking all
pairs i < j yields Y(P) f = n, a matrix with sum_{i<j} L_i L_j rows whose
null space is spanned by the true f in the noiseless case.  Y(P) is never
formed: with P = blkdiag(P_g) and F = diag(f), the pair residuals are the
blocks E_ij of E = S - S^T, S = P^T F Y, on the slot's received matrix Y.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .model import AntennaPartition

TILE = 32      # rows of E = S - S^T that StackedSystem.apply_gram forms at a time


@dataclass
class StackedSystem:
    """Y(P) through its slots' received matrices, with A = Y(P)^H Y(P).

    slots holds each slot's received matrix Y, conj(Y), W = Y P^H and
    pilots; inactive groups' rows and columns of Y are zero.  solutions
    holds the estimators' solves of this system, keyed by constraint.
    """

    gram: np.ndarray          # M x M, Hermitian PSD
    rows: int                 # rows of Y(P)
    slots: tuple              # ((Y, conj(Y), W, pilots), ...)
    solutions: dict = field(default_factory=dict, repr=False, compare=False)
    _s: np.ndarray | None = field(default=None, repr=False, compare=False)

    def apply_gram(self, f: np.ndarray) -> np.ndarray:
        """A f, summed over the slots as (A f)_a = sum_{c in cols of g(a)}
        conj(P_ac) (E Y^H)_ca from the residuals E = S - S^T, S = P^T F Y:
        unlike gram @ f, its rounding error does not scale with cond(A).
        Each run of groups of equal shape (the slot's PilotSet.runs) is a
        slice of Y's rows and of S's.  For a single-antenna run, S's rows are
        a broadcast product and (E Y^H)'s blocks row sums, with no per-group
        matrix product.  S is kept for the next call; E is formed in blocks of
        at least TILE rows, shared by short runs, and read a tile of groups at a time."""
        n_cols = self.slots[0][0].shape[1]
        if self._s is None:
            self._s = np.empty((n_cols, n_cols), dtype=complex)
        s = self._s
        out = np.zeros(self.gram.shape[0], dtype=complex)
        for y, y_conj, _, pilots in self.slots:
            for p, rows, _, r, c in pilots.runs:
                n, m, l = p.shape
                (np.multiply if m == 1 else np.matmul)(
                    (p * f[rows, None]).transpose(0, 2, 1), y[r].reshape(n, m, -1),
                    out=s[c].reshape(n, l, -1))
            top = 0                                    # e holds E's rows lo .. top - 1
            for p, rows, _, r, c in pilots.runs:
                n, m, l = p.shape
                t = max(1, TILE // l)                  # groups per tile
                for a in range(0, n, t):
                    b = min(a + t, n)
                    i, j = c.start + a * l, c.start + b * l
                    if j > top:                        # E's next block, of at least TILE rows
                        lo, top = i, max(j, i + TILE)
                        e = s[lo:top] - s[:, lo:top].T
                    et, yc = e[i - lo:j - lo].reshape(b - a, l, -1), y_conj[r][a * m:b * m]
                    if m == 1:
                        out[rows[a:b, 0]] += np.einsum("nl,nlk,nk->n", p[a:b, 0].conj(), et, yc)
                    else:
                        out[rows[a:b]] += np.einsum("nml,nlm->nm", p[a:b].conj(),
                                                    et @ yc.reshape(b - a, m, -1).swapaxes(1, 2))
        return out


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


def received_gram(y: np.ndarray, pilots):
    """A = Y(P)^H Y(P) of a received matrix Y with zero self blocks, and
    conj(Y) and W = Y P^H: A = conj(P P^H) o conj(Y Y^H) - W^T o conj(W), o
    the entrywise product; only the group diagonal blocks of Y Y^H are
    formed, as P P^H is block diagonal.  Each run of groups of equal shape
    (PilotSet.runs) is a slice of Y's rows and columns and of W's, so Y is
    read in place and nothing is gathered."""
    w = np.empty((y.shape[0],) * 2, dtype=complex)
    for p, _, _, r, c in pilots.runs:
        n, m, l = p.shape
        np.einsum("anl,nkl->ank", y[:, c].reshape(-1, n, l), p.conj(),
                  out=w[:, r].reshape(-1, n, m))
    gram = w.conj()
    gram *= w.T
    np.negative(gram, out=gram)
    y_conj = y.conj()
    for p, rows, _, r, _ in pilots.runs:
        n, m, _ = p.shape
        gram[rows[:, :, None], rows[:, None, :]] += np.conj(p @ p.conj().transpose(0, 2, 1)) \
            * (y_conj[r].reshape(n, m, -1) @ y[r].reshape(n, m, -1).transpose(0, 2, 1))
    return gram, y_conj, w


def build_stacked(measurements) -> StackedSystem:
    """Stacked system of one slot's measurements (the pairs i < j of its
    active groups, under its pilots), kept on the measurements and returned
    again to the next call."""
    if measurements.stacked is None:
        y, pilots = measurements.received, measurements.pilots
        gram, y_conj, w = received_gram(y, pilots)
        measurements.stacked = StackedSystem(gram, measurements.plan.rows,
                                             ((y, y_conj, w, pilots),))
    return measurements.stacked


def build_stacked_noncoherent(slot_measurements: list) -> StackedSystem:
    """Sum of the per-slot Grams, each over its slot's active pairs and
    under its slot's pilots."""
    if not slot_measurements:
        raise ValueError("no slots to stack")
    systems = [build_stacked(ms) for ms in slot_measurements]
    return StackedSystem(sum(s.gram for s in systems), sum(s.rows for s in systems),
                         tuple(x for s in systems for x in s.slots))


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


@lru_cache(maxsize=32)
def check_identifiability(partition: AntennaPartition, schedule=None) -> MappingProxyType:
    """Independent equation count vs. the M-1 unknown directions.

    rows = sum of e_ij = min(L_i, M_i) min(L_j, M_j) over the pairs (of every
    slot of a non-coherent schedule; see independent_equations).  f is
    determined up to scale only if rows >= M - 1, every group i has at least
    M_i independent equations, and the exchanges connect all groups
    (group_components).  Read-only, and computed once per (partition, schedule).
    """
    rows, per_group = independent_equations(partition, schedule)
    needed = partition.num_antennas - 1
    ok = (rows >= needed and bool(np.all(per_group >= partition.group_sizes))
          and len(group_components(partition, schedule)) == 1)
    return MappingProxyType({"rows": rows, "needed": needed, "ok": ok})

