"""Dense and per-pair references for the package's batched computations.

The package keeps only A = Y(P)^H Y(P).  dense_y and dense_y_noncoherent
build Y(P) itself, one row block per pair from pair_equation_block, in the
order row_blocks gives, so tests can check the Gram, null-space and rank
properties against the explicit matrix.  vec_transpose_perm is the dense
form of vec_transpose_index.  aux_channel_blocks is each pair's auxiliary
channel Hc_{i->j}, the input of the dense H(h, P) of crb.build_h_composite;
stack_h stacks them into h, and split_h inverts stack_h.
exchange_pairs is airlink.simulate_exchange as one loop over ordered pairs.
The pair oracles read the received matrix through received_index (the flat
indices of a batch of blocks Y_{i->j}) and the pilots through by_shape
(every group of a block shape, adjacent or not) and stacked.
constrained_lstsq is the linear-constraint LS f^H g = c solved by lstsq on
the dense Y(P); with g = e_0 and c = 1 it is estimators.ls_estimate's FCC
solve.  perp_projector is the dense projector
that the CRB's closed form replaces.

The pair route is the CRB and the compressed cost as they were computed
before they worked on the M x M channel K: F(f, P) is block diagonal over
the pairs i < j, pair_batches batches them by block shape, and
pair_context holds each batch's rows H_p of H(h, P).  group_factors takes
the full SVD U_g S_g V_g^H of every A_g = P_g^T diag(f_g), and pair_project
solves a batch of pairs' least squares F_p w = x in their singular bases
(pair_weights is crb.pair_weights, its weights on the M x M channel, entry
by entry);
pair_information sums the Grams of its residuals (B = H^H P_F_perp H),
pair_known_h_information those of H_p, and fim the joint FIM over (f, h).
ml_compressed_cost is y^H P_F_perp y, cross-checked against the weighted
F_perp form of build_f_perp.  svd_pair_solve is the route pair_project
replaces: a batched SVD of every dense F_p, solved by svd_lstsq, the SVD
route that crb.column_projection replaces for one unknown.  pair_solve is
pair_project's minimum-norm solution, and pair_observations a pair batch's
entries of y.  pairwise_aml is the alternating ML of
estimators.aml_estimate written pair by pair, as that function was before
it worked on the received matrix: pair_solve's h-step on each pair's
observations, and svd_lstsq's f-step on each group's rows of H, filled pair
by pair.
numerical_rank is the rank rule the tests read off dense matrices.
pair_count is the number of pair equations sum_{i<j} L_i L_j of a set of
pilot lengths, optimal_group_sizes the allocation of K channel uses that
maximizes it (K single-use groups), and brute_force_best_pair_count the
exhaustive search that confirms it.
calibration_vector is the true f of a trial's impairments, coherent_slot
a coherent trial's records for crb.context_from_model, and
compose_digital_channel a digital channel block R_B C T_A.
scheme_to_text and scheme_from_text serialise a GroupScheme, and
measurements_to_csv dumps a slot's blocks pair by pair as text.
"""

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import combinations
from typing import NamedTuple

import numpy as np
from scipy.linalg import null_space, orth

from arraycal.airlink import MeasurementSet, noise_variance_from_snr, simulate_exchange
from arraycal.crb import complement_basis, stack_observations
from arraycal.grouping import GroupScheme
from arraycal.model import AntennaPartition, RfImpairments, batch_indices
from arraycal.stacking import khatri_rao_t, pair_equation_block


def vec(a: np.ndarray) -> np.ndarray:
    """Column-major vectorization."""
    return np.asarray(a).reshape(-1, order="F")


def exchange_pairs(partition, pilots, imp, chan, snr_db, rng, groups=None):
    """Y_{i->j} for every ordered pair of active groups, {(i, j): M_j x L_i},
    computed and noised pair by pair, transmitters then receivers ascending."""
    active = tuple(range(partition.num_groups)) if groups is None else tuple(sorted(groups))
    sigma2 = noise_variance_from_snr(snr_db, chan)
    sd = np.sqrt(sigma2 / 2.0)
    blocks = {}
    for i in active:
        si = partition.antennas_of(i)
        txi = imp.tx_gains[si]
        for j in active:
            if j == i:
                continue
            sj = partition.antennas_of(j)
            y = (imp.rx_gains[sj, None] * chan.c[sj, si] * txi[None, :]) @ pilots[i]
            if sigma2 > 0:
                shp = y.shape
                y = y + sd * (rng.standard_normal(shp) + 1j * rng.standard_normal(shp))
            blocks[(i, j)] = y
    return blocks


def received_index(partition, tx, rx):
    """Flat indices of Y_{tx[p]->rx[p]} in a slot's M x sum(L_i) received
    matrix, for pairs of one block shape, (P, M_rx, L_tx)."""
    width = sum(partition.pilot_lengths)
    rows = np.asarray(partition.offsets)[rx, None, None] \
        + np.arange(partition.group_sizes[rx[0]])[:, None]
    return rows * width + np.asarray(partition.pilot_offsets)[tx, None, None] \
        + np.arange(partition.pilot_lengths[tx[0]])


def by_shape(pilots):
    """{shape: (groups, blocks stacked, antennas (n, M_g), pilot columns
    (n, L_g)), numbered group after group} over every group of each block
    shape, adjacent or not, and each group's place in its shape."""
    groups = {}
    for g, b in enumerate(pilots.blocks):
        groups.setdefault(b.shape, []).append(g)
    place = np.empty(len(pilots.blocks), dtype=int)
    for gs in groups.values():
        place[gs] = np.arange(len(gs))
    first = np.cumsum([(0, 0)] + [b.shape for b in pilots.blocks], axis=0)
    return {(m, l): (np.array(gs), np.stack([pilots[g] for g in gs]),
                     first[gs, 0, None] + np.arange(m), first[gs, 1, None] + np.arange(l))
            for (m, l), gs in groups.items()}, place


def stacked(pilots, groups):
    """The blocks P_g of groups of one block shape, stacked (P, M_g, L_g)."""
    return np.stack([pilots[g] for g in groups])


def gather(measurements, tx, rx):
    """Y_{tx[p]->rx[p]} for pairs of groups of one block shape, stacked
    (P, M_rx, L_tx)."""
    return measurements.received.ravel()[received_index(measurements.partition, tx, rx)]


def argos_ratios(measurements, partition):
    """f_k = y_{k->0} / y_{0->k} against the reference antenna 0, on the
    {reference} + rest partition (L_i = M_i, identity pilots) or on single
    antennas (unit pilots)."""
    if partition.num_groups == 2:
        to_ref = measurements.block(1, 0).ravel()
        from_ref = measurements.block(0, 1).ravel()
    else:
        k = np.arange(1, partition.num_antennas)
        ref = np.zeros_like(k)
        to_ref = gather(measurements, k, ref).ravel()
        from_ref = gather(measurements, ref, k).ravel()
    return np.concatenate(([1.0 + 0.0j], to_ref / from_ref))


def daisy_ratios(measurements):
    """f_k = f_{k-1} y_{k->k-1} / y_{k-1->k} along single antennas."""
    k = np.arange(1, measurements.partition.num_antennas)
    up = gather(measurements, k, k - 1).ravel()
    down = gather(measurements, k - 1, k).ravel()
    return np.concatenate(([1.0 + 0.0j], np.cumprod(up / down)))


def vec_transpose_perm(m: int, n: int) -> np.ndarray:
    """Permutation T with T @ vec(X) = vec(X^T) for X of shape (m, n)."""
    t = np.zeros((m * n, m * n))
    rows = np.arange(m * n) % m
    cols = np.arange(m * n) // m
    t[cols + rows * n, rows + cols * m] = 1.0
    return t


def aux_channel_blocks(imp, chan, partition):
    """Hc_{i->j} = R_j C_{i->j} R_i^T for every pair i < j (M_j x M_i each)."""
    out = {}
    rx = imp.rx_gains
    for (i, j) in partition.pairs():
        si, sj = partition.antennas_of(i), partition.antennas_of(j)
        out[(i, j)] = rx[sj, None] * chan.c[sj, si] * rx[si, None].T
    return out


def stack_h(h_blocks, partition):
    """h = [vec(Hc_{i->j})], pairs lexicographic."""
    return np.concatenate([vec(h_blocks[p]) for p in partition.pairs()])


def split_h(h, partition):
    """Inverse of stacking vec(Hc_{i->j}) blocks in lexicographic pair order."""
    out = {}
    pos = 0
    sizes = partition.group_sizes
    for (i, j) in partition.pairs():
        n = sizes[i] * sizes[j]
        out[(i, j)] = h[pos:pos + n].reshape(sizes[j], sizes[i], order="F")
        pos += n
    return out


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


def row_blocks(partition, schedule=None):
    """(slot, i, j) of each row block of Y(P), in order: slot by slot, and in
    each slot its active pairs i < j lexicographically (every pair of slot 0
    when schedule is None)."""
    if schedule is None:
        return [(0, i, j) for (i, j) in partition.pairs()]
    return [(t, i, j) for t, s in enumerate(schedule.slots)
            for a, i in enumerate(s) for j in s[a + 1:]]


def dense_y_noncoherent(slot_measurements, pilots, partition, schedule):
    """Y(P) of the schedule's active pairs, row blocks in row_blocks order."""
    return np.vstack([dense_y(slot_measurements[t], pilots, partition, [(i, j)])
                      for t, i, j in row_blocks(partition, schedule)])


def constrained_lstsq(y, g, c):
    """min ||Y f|| s.t. f^H g = c as f = f0 + V z, with V an orthonormal basis
    of g's complement and z the minimum-norm lstsq solution of (Y V) z = -Y f0.
    Also returns the rank lstsq found for Y V."""
    f0 = np.conj(c) * g / np.real(np.vdot(g, g))
    v = null_space(g.conj()[None, :])
    z, _, rank, _ = np.linalg.lstsq(y @ v, -(y @ f0), rcond=None)
    return f0 + v @ z, rank


def vec_transpose_index(m, n):
    """Index permutation t with vec(X)[t] = vec(X^T) for X of shape (m, n)."""
    return vec(np.arange(m * n).reshape(m, n, order="F").T)


class PairBatch(NamedTuple):
    """Pairs (gi[p], gj[p]), i < j, of one block shape (M_i, M_j, L_i, L_j),
    and their antenna columns cols (P, M_i + M_j), group i's first."""

    gi: np.ndarray
    gj: np.ndarray
    cols: np.ndarray


def pair_batches(partition, active=None):
    """The pairs i < j of the active groups (all when None), lexicographic,
    batched by block shape."""
    sizes, lens = np.asarray(partition.group_sizes), np.asarray(partition.pilot_lengths)
    offsets = np.asarray(partition.offsets)
    act = np.arange(sizes.size) if active is None else np.asarray(active, dtype=int)
    g = act[np.transpose(np.triu_indices(act.size, 1))]
    batches = []
    for sel in batch_indices((*sizes[g].T, *lens[g].T)):
        gi, gj = g[sel, 0], g[sel, 1]
        batches.append(PairBatch(gi, gj, np.concatenate(
            (offsets[gi, None] + np.arange(sizes[gi[0]]),
             offsets[gj, None] + np.arange(sizes[gj[0]])), axis=1)))
    return batches


def pair_gram(n, cols, ws):
    """The n x n sum of w_p^H w_p over the pairs p of the batches ws
    [(P, r, k), ...], each at its columns cols [(P, k), ...]."""
    index = np.concatenate([(c[:, :, None] * n + c[:, None, :]).ravel() for c in cols])
    val = np.concatenate([np.einsum("pri,prj->pij", w.conj(), w).ravel() for w in ws])
    out = np.empty(n * n, dtype=complex)
    out.real = np.bincount(index, val.real, n * n)
    out.imag = np.bincount(index, val.imag, n * n)
    return out.reshape(n, n)


def pair_h_block(hc, p_i, p_j):
    """The two nonzero blocks of pair p's rows of H(h, P), batched over pairs.

    hc is Hc_{i->j} (P, M_j, M_i); the blocks act on f_i for the L_i M_j rows
    vec(Y_{i->j}) and on f_j for the M_i L_j rows vec(Y_{j->i}^T).
    """
    return (khatri_rao_t(p_i, hc.transpose(0, 2, 1)),    # P x L_iM_j x M_i
            khatri_rao_t(hc, p_j))                         # P x M_iL_j x M_j


def pair_f_block(f, cols, p_i, p_j):
    """Diagonal blocks F_p of F(f, P) for a batch of pairs with antenna columns
    cols, (P, L_iM_j + M_iL_j, M_iM_j)."""
    n, mi, li = p_i.shape
    mj, lj = p_j.shape[1:]
    a_i = p_i.transpose(0, 2, 1) * f[cols[:, None, :mi]]      # P_i^T F_i
    b_j = p_j.transpose(0, 2, 1) * f[cols[:, None, mi:]]      # P_j^T F_j
    top = np.einsum("pak,bc->pabkc", a_i, np.eye(mj)).reshape(n, li * mj, mi * mj)
    bot = np.einsum("ak,pbc->pabkc", np.eye(mi), b_j).reshape(n, mi * lj, mi * mj)
    return np.concatenate((top, bot), axis=1)


def group_factors(f, pilots):
    """Full SVDs (U^H, s zero-padded to M_g, V^H, V) of every group's
    A_g = P_g^T diag(f_g), as a function stacking groups' factors in order.
    A 1 x 1 A_g = a is s = |a|, U = e^{i arg a} and V = 1 (LAPACK's
    convention), with no SVD call."""
    stacks, place = by_shape(pilots)
    svds = {}
    for (m, l), (gs, p, rows, _) in stacks.items():
        a = p.transpose(0, 2, 1) * f[rows[:, None]]
        if (m, l) == (1, 1):
            one = np.ones_like(a)
            svds[m, l] = (np.exp(-1j * np.angle(a)), np.abs(a[:, 0]), one, one)
        else:
            u, s, vh = np.linalg.svd(a)
            s = np.concatenate((s, np.zeros((gs.size, m - s.shape[1]))), axis=1)
            svds[m, l] = (u.conj().transpose(0, 2, 1), s, vh, vh.conj().transpose(0, 2, 1))
    return lambda groups: tuple(x.take(place[groups], 0) for x in svds[pilots[groups[0]].shape])


def pair_weights(s2, partition):
    """crb.pair_weights written entry by entry from the partition: W_kl = 1 /
    (s_k^2 + s_l^2) where that sum exceeds rule_kl (s_max(k)^2 + s_max(l)^2),
    s_max(k)^2 the s^2 of the first antenna of k's group, else 0.  rule_kl
    is (max(r, M_iM_j) eps)^2, r = L_iM_j + M_iL_j, for groups i != j, and 1
    inside a group."""
    sizes, lens = partition.group_sizes, partition.pilot_lengths
    group = np.repeat(np.arange(len(sizes)), sizes)
    first = np.repeat(partition.offsets, sizes)
    w = np.zeros((s2.size, s2.size))
    for k, i in enumerate(group):
        for l, j in enumerate(group):
            t = max(lens[i] * sizes[j] + sizes[i] * lens[j], sizes[i] * sizes[j]) \
                * np.finfo(float).eps
            rule = 1.0 if i == j else t * t
            den = s2[k] + s2[l]
            if den > rule * (s2[first[k]] + s2[first[l]]):
                w[k, l] = 1.0 / den
    return w


def pair_project(factors_i, factors_j, x):
    """Least squares F_p w = x, x (P, r, c), for pairs of one block shape, in
    the singular bases of their groups' stacked group_factors.

    F_p maps W (M_i x M_j, w = its rows) to (A_i W, W A_j^T).  Rotated to
    T = U_i^H X_top conj(V_j) and R = V_i^H X_bot conj(U_j), it decouples:
    W~_kl = (s_ik T_kl + s_jl R_kl) / sigma_kl^2 where F_p's singular value
    sigma_kl = (s_ik^2 + s_jl^2)^(1/2) > max(r, M_iM_j) eps sigma_max (lstsq's
    rank rule), else 0.  Returns W~ (P, M_i, M_j, c) and the rotated residual
    (P, r, c), whose Gram is that of P_perp,p x.
    """
    (uh_i, s_i, vh_i, _), (uh_j, s_j, vh_j, _) = factors_i, factors_j
    n, r, c = x.shape
    li, mi, lj, mj = uh_i.shape[2], s_i.shape[1], uh_j.shape[2], s_j.shape[1]
    t = vh_j[:, None] @ (uh_i @ x[:, :li * mj].reshape(n, li, mj * c)).reshape(n, li, mj, c)
    rot = uh_j[:, None] @ (vh_i @ x[:, li * mj:].reshape(n, mi, lj * c)).reshape(n, mi, lj, c)
    sig2 = s_i[:, :, None] ** 2 + s_j[:, None, :] ** 2
    tol = (max(r, mi * mj) * np.finfo(float).eps) ** 2 * sig2[:, :1, :1]   # s is descending
    inv = np.divide(1.0, sig2, out=np.zeros_like(sig2), where=sig2 > tol)
    s_i, s_j = s_i[:, :li, None, None], s_j[:, None, :lj, None]    # s_g = 0 past L_g
    wt = np.zeros((n, mi, mj, c), dtype=complex)
    wt[:, :li] = s_i * t[:, :mi]
    wt[:, :, :lj] += s_j * rot[:, :, :mj]
    wt *= inv[..., None]
    t[:, :mi] -= s_i * wt[:, :li]
    rot[:, :, :mj] -= s_j * wt[:, :, :lj]
    return wt, np.concatenate((t.reshape(n, li * mj, c), rot.reshape(n, mi * lj, c)), axis=1)


@dataclass
class PairContext:
    """The bilinear model y = H(h, P) f = F(f, P) h at (f, h), as pair blocks:
    for batch k of pairs, h_pairs[k] = H_p (P, r, M_i + M_j), at the batch's
    antenna columns, are each pair's rows of H, r = L_iM_j + M_iL_j."""

    f: np.ndarray
    noise_variance: float
    partition: object
    pairs: list
    pilots: object
    h_pairs: list

    @cached_property
    def v_f(self):
        return complement_basis(self.f)


def pair_context(imp, chan, pilots, partition, noise_variance, active=None):
    """Pair blocks of H at the true f = t / r and h = [vec(Hc_{i->j})], over
    the pairs of the active groups (all when None): each batch's
    Hc_{i->j} = R_j C_{i->j} R_i^T is read off R C R^T at its columns."""
    f = imp.tx_gains / imp.rx_gains
    pairs = pair_batches(partition, active)
    rcr = imp.rx_gains[:, None] * chan.c * imp.rx_gains[None, :]
    h_pairs = []
    for b in pairs:
        p_i, p_j = stacked(pilots, b.gi), stacked(pilots, b.gj)
        cols_i, cols_j = b.cols[:, :p_i.shape[1]], b.cols[:, p_i.shape[1]:]
        bi, bj = pair_h_block(rcr[cols_j[:, :, None], cols_i[:, None, :]], p_i, p_j)
        hp = np.zeros(bi.shape[:1] + (bi.shape[1] + bj.shape[1], b.cols.shape[1]), complex)
        hp[:, :bi.shape[1], :p_i.shape[1]] = bi
        hp[:, bi.shape[1]:, p_i.shape[1]:] = bj
        h_pairs.append(hp)
    return PairContext(f, float(noise_variance), partition, pairs, pilots, h_pairs)


def fim(ctx):
    """Joint FIM over (f, h): J = (1/sigma^2) [H F]^H [H F], h = [vec(Hc_{i->j})]
    with the pairs lexicographic.  Singular by scale."""
    if ctx.noise_variance <= 0:
        raise ValueError("FIM requires a positive noise variance")
    m = ctx.f.size
    # each pair's M_iM_j entries in h, and where they start: i < j row-major
    size = np.triu(np.outer(ctx.partition.group_sizes, ctx.partition.group_sizes), 1)
    h_off = np.cumsum(size).reshape(size.shape) - size
    n = m + int(size.sum())
    cols, ws = [], []
    for b, hp in zip(ctx.pairs, ctx.h_pairs):
        fp = pair_f_block(ctx.f, b.cols, stacked(ctx.pilots, b.gi),
                          stacked(ctx.pilots, b.gj))
        cols.append(np.concatenate((b.cols, m + h_off[b.gi, b.gj][:, None]
                                    + np.arange(fp.shape[2])), axis=1))
        ws.append(np.concatenate((hp, fp), axis=2))
    return pair_gram(n, cols, ws) / ctx.noise_variance


def pair_information(ctx):
    """B = H^H P_F_perp H = sum_p (P_perp,p H_p)^H (P_perp,p H_p), the Grams of
    pair_project's residuals."""
    fac = group_factors(ctx.f, ctx.pilots)
    ws = [pair_project(fac(b.gi), fac(b.gj), hp)[1] for b, hp in zip(ctx.pairs, ctx.h_pairs)]
    b = pair_gram(ctx.f.size, [b.cols for b in ctx.pairs], ws)
    return (b + b.conj().T) / 2


def pair_known_h_information(ctx):
    """H^H H = sum_p H_p^H H_p."""
    b = pair_gram(ctx.f.size, [b.cols for b in ctx.pairs], ctx.h_pairs)
    return (b + b.conj().T) / 2


def build_f_perp(f, pilots, partition):
    """Columns orthogonal to the column space of F(f, P), one L_i L_j block per pair.

    Block diagonal over pairs; signs and row order are fixed so that
    F_perp^H y reproduces the stacked residual Y(P) f exactly (including the
    noise realization).  Requires full-rank pilots.  For f without zeros,
    the columns span the whole orthogonal complement exactly when every pair
    has (L_i - M_i)(L_j - M_j) >= 0: pair p's complement has dimension
    L_iL_j - (L_i - M_i)(L_j - M_j) + d_i d_j, with d_i = max(M_i - L_i, 0),
    which exceeds its L_iL_j columns only where the signs differ.
    """
    f = np.asarray(f, dtype=complex)
    sizes = partition.group_sizes
    lens = partition.pilot_lengths
    pairs = partition.pairs()
    pilots.validate(partition)
    n_rows = sum(lens[i] * sizes[j] + sizes[i] * lens[j] for (i, j) in pairs)
    n_cols = sum(lens[i] * lens[j] for (i, j) in pairs)
    out = np.zeros((n_rows, n_cols), dtype=complex)
    r = c = 0
    for (i, j) in pairs:
        mi, mj, li, lj = sizes[i], sizes[j], lens[i], lens[j]
        a_i = pilots[i].T * f[partition.antennas_of(i)][None, :]    # P_i^T F_i
        b_j = f[partition.antennas_of(j)][:, None] * pilots[j]      # F_j P_j
        # rows of Y(P)f block as a map on [vec(Y_{i->j}); vec(Y_{j->i}^T)]
        top = -np.kron(b_j.T, np.eye(li))[:, vec_transpose_index(li, mj)]
        bot = np.kron(np.eye(lj), a_i)[:, vec_transpose_index(mi, lj)]
        blk_h = np.hstack([top, bot])                               # L_iL_j x pair rows
        out[r:r + blk_h.shape[1], c:c + blk_h.shape[0]] = blk_h.conj().T
        r += blk_h.shape[1]
        c += blk_h.shape[0]
    return out


def ml_compressed_cost(measurements, f, pilots, partition, rel_tol=1e-8):
    """y^H P_F_perp y for y = stack_observations(measurements), the pairs of
    a slot in which every group is active.

    The direct route sums the squared norms of pair_project's residuals.  Where
    build_f_perp spans the whole complement of F's columns (no pair with
    (L_i - M_i)(L_j - M_j) < 0), the cost is also evaluated through the
    weighted F_perp form, an optimally weighted LS cost on Y(P) f, and
    disagreement beyond rel_tol raises.  Elsewhere the weighted form gives a
    smaller number and only the direct route is evaluated.
    """
    f = np.asarray(f, dtype=complex)
    fac, cost_direct = group_factors(f, pilots), 0.0
    for b in pair_batches(partition, measurements.groups):
        y_p = pair_observations(measurements, b)[:, :, None]
        cost_direct += float(np.sum(np.abs(pair_project(fac(b.gi), fac(b.gj), y_p)[1]) ** 2))
    d = np.subtract(partition.pilot_lengths, partition.group_sizes)
    if np.any(np.triu(np.multiply.outer(d, d), 1) < 0):
        return cost_direct
    y = stack_observations(measurements, partition)
    fperp = build_f_perp(f, pilots, partition)
    w = fperp.conj().T @ y
    gram = fperp.conj().T @ fperp
    cost_weighted = float(np.real(w.conj() @ np.linalg.pinv(gram, hermitian=True) @ w))
    tol = rel_tol * max(abs(cost_direct), abs(cost_weighted)) \
        + 1e-12 * float(np.real(y.conj() @ y))
    if abs(cost_direct - cost_weighted) > tol:
        raise ArithmeticError(
            f"compressed-cost routes disagree: {cost_direct} vs {cost_weighted}")
    return cost_direct


def perp_projector(a):
    """Dense projector onto the orthogonal complement of a's columns."""
    q = orth(a)
    return np.eye(a.shape[0]) - q @ q.conj().T


def range_basis(a):
    """Orthonormal bases of the column spaces of a stack of matrices (P, r, n),
    as scipy.linalg.orth gives them, with the unused columns set to zero."""
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    keep = s > max(a.shape[-2:]) * np.finfo(float).eps * s[..., :1]
    return u * keep[..., None, :]


def svd_lstsq(a, b):
    """Minimum-norm lstsq solutions of a stack of systems a x = b (P, r, n)
    through an SVD of every a, with np.linalg.lstsq's rank rule: the
    reference for crb.lstsq_min_norm and crb.column_projection."""
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    keep = s > max(a.shape[-2:]) * np.finfo(float).eps * s[..., :1]
    c = np.einsum("prk,pr->pk", u.conj(), b)
    c = np.where(keep, c / np.where(keep, s, 1.0), 0.0)
    return np.einsum("pkn,pk->pn", vh.conj(), c)


def svd_pair_solve(fp, x):
    """The pair least squares through an SVD of each dense F_p (P, r, n): the
    minimum-norm lstsq solutions w (P, n, c), the residuals P_perp,p x
    (P, r, c) and the kept rank of each F_p."""
    w = np.stack([svd_lstsq(fp, x[:, :, k]) for k in range(x.shape[2])], axis=2)
    q = range_basis(fp)
    return w, x - q @ (q.conj().transpose(0, 2, 1) @ x), np.count_nonzero(q.any(axis=1), axis=1)


def pair_solve(factors_i, factors_j, x):
    """Minimum-norm solutions of F_p w = x: the rows of V_i W~ V_j^T, (P, M_iM_j, c)."""
    wt = pair_project(factors_i, factors_j, x)[0]
    n, mi, mj, c = wt.shape
    w = factors_j[3][:, None] @ (factors_i[3] @ wt.reshape(n, mi, mj * c)).reshape(n, mi, mj, c)
    return w.reshape(n, mi * mj, c)


def pair_observations(measurements, batch):
    """Pair p's entries of y, [vec(Y_{i->j}); vec(Y_{j->i}^T)], stacked over
    a batch of pairs of equal shape (a PairBatch of pair_batches),
    (P, L_iM_j + M_iL_j)."""
    n = len(batch.gi)
    return np.concatenate((gather(measurements, batch.gi, batch.gj).transpose(0, 2, 1)
                           .reshape(n, -1),
                           gather(measurements, batch.gj, batch.gi).reshape(n, -1)), axis=1)


def pairwise_aml(measurements, pilots, partition, init=None, tol=1e-6, max_iter=100):
    """Alternating ML pair by pair, from init (ones by default): the h-step
    solves each pair's observations y_p = F_p h_p (pair_solve), and the
    f-step each group's rows of H (svd_lstsq), which H's pair blocks fill
    pair by pair.  Returns (f, iterations, final cost, converged), with the
    iterates, cost and stopping rule of estimators.aml_estimate."""
    f = np.ones(partition.num_antennas, dtype=complex) if init is None \
        else np.asarray(init, dtype=complex).copy()
    m = partition.num_antennas
    stacks, place = by_shape(pilots)
    h_rows = {key: np.zeros((len(gs), key[1] * (m - key[0]), key[0]), dtype=complex)
              for key, (gs, *_) in stacks.items()}
    y_rows = {key: np.zeros(h.shape[:2], dtype=complex) for key, h in h_rows.items()}
    filled = [0] * partition.num_groups
    pairs = []
    for b in pair_batches(partition, measurements.groups):
        p_i, p_j = stacked(pilots, b.gi), stacked(pilots, b.gj)
        y_p = pair_observations(measurements, b)
        top = p_i.shape[2] * p_j.shape[1]       # L_i M_j rows act on f_i
        sides = []
        for side, y_side in ((b.gi.tolist(), y_p[:, :top]), (b.gj.tolist(), y_p[:, top:])):
            start = []
            for g in side:
                start.append(filled[g])
                filled[g] += y_side.shape[1]
            key = pilots[side[0]].shape
            dest = (place[side][:, None], np.array(start)[:, None] + np.arange(y_side.shape[1]))
            y_rows[key][dest] = y_side
            sides.append((key, dest))
        pairs.append((b.gi, b.gj, p_i, p_j, y_p[..., None], sides))
    cost, converged, it = np.inf, False, 0
    for it in range(1, max_iter + 1):
        factors = group_factors(f, pilots)
        for gi, gj, p_i, p_j, y_p, sides in pairs:
            h = pair_solve(factors(gi), factors(gj), y_p)
            hc = h.reshape(len(h), p_i.shape[1], p_j.shape[1]).transpose(0, 2, 1)
            for (key, dest), blk in zip(sides, pair_h_block(hc, p_i, p_j)):
                h_rows[key][dest] = blk
        f_new = np.empty(m, dtype=complex)
        cost = 0.0
        for key, a in h_rows.items():
            f_g = svd_lstsq(a, y_rows[key])
            f_new[stacks[key][2]] = f_g
            cost += float(np.sum(np.abs(y_rows[key] - np.einsum("prk,pk->pr", a, f_g)) ** 2))
        delta = np.linalg.norm(f_new - f) / np.linalg.norm(f)
        f = f_new
        if delta < tol:
            converged = True
            break
    return f, it, cost, converged


def numerical_rank(a):
    """Rank via singular values above max_dim * eps * sigma_max."""
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return 0
    tol = max(a.shape) * np.finfo(float).eps * s[0]
    return int(np.sum(s > tol))


def pair_count(pilot_lengths) -> int:
    return sum(a * b for a, b in combinations(pilot_lengths, 2))


def optimal_group_sizes(k: int) -> list:
    """The pilot-length allocation maximizing the pair count for K channel uses."""
    if k < 2:
        raise ValueError("need at least 2 channel uses")
    return [1] * k


def brute_force_best_pair_count(k):
    """Exhaustive max of sum_{i<j} L_i L_j over integer compositions of k."""
    best, best_comp = -1, None

    def rec(remaining, comp):
        nonlocal best, best_comp
        if remaining == 0:
            if len(comp) >= 2:
                v = pair_count(comp)
                if v > best:
                    best, best_comp = v, tuple(comp)
            return
        for nxt in range(1, remaining + 1):
            comp.append(nxt)
            rec(remaining - nxt, comp)
            comp.pop()

    rec(k, [])
    return best, best_comp


def calibration_vector(imp: RfImpairments) -> np.ndarray:
    """f_m = t_m / r_m, the diagonal case of R^{-T} T (RfImpairments has no zero gain)."""
    return imp.tx_gains / imp.rx_gains


def coherent_slot(imp, chan, pilots, partition, noise_variance):
    """A coherent trial's records, (MeasurementSet,), over chan with sigma^2 =
    noise_variance, as crb.context_from_model reads them: the noiseless
    exchange, so that no random draw is made."""
    ms = simulate_exchange(partition, pilots, imp, chan, np.inf, None)
    return (replace(ms, noise_variance=float(noise_variance)),)


def compose_digital_channel(imp_tx: RfImpairments, imp_rx: RfImpairments,
                            c: np.ndarray) -> np.ndarray:
    """Digital channel R_B C T_A for diagonal impairments (side A transmits)."""
    c = np.asarray(c, dtype=complex)
    if c.ndim != 2 or c.shape != (imp_rx.num_antennas, imp_tx.num_antennas):
        raise ValueError("channel block shape must be (rx antennas, tx antennas)")
    return imp_rx.rx_gains[:, None] * c * imp_tx.tx_gains[None, :]


def scheme_to_text(scheme: GroupScheme) -> str:
    """Structured-text serialization (label, sizes, pilot lengths, assignment)."""
    p = scheme.partition
    return "\n".join([
        f"label = {scheme.label}",
        f"group_sizes = {','.join(map(str, p.group_sizes))}",
        f"pilot_lengths = {','.join(map(str, p.pilot_lengths))}",
        f"assignment = {','.join(map(str, scheme.assignment))}",
    ]) + "\n"


def scheme_from_text(text: str) -> GroupScheme:
    fields = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        fields[key.strip()] = value.strip()
    try:
        label = fields["label"]
        sizes = tuple(int(x) for x in fields["group_sizes"].split(","))
        lens = tuple(int(x) for x in fields["pilot_lengths"].split(","))
        assignment = tuple(int(x) for x in fields["assignment"].split(","))
    except (KeyError, ValueError) as e:
        raise ValueError(f"malformed scheme text: {e}") from e
    return GroupScheme(AntennaPartition(sizes, lens), assignment, label)


def measurements_to_csv(ms: MeasurementSet, path) -> None:
    """Textual dump (pair, row, col, re, im) for cross-language comparison."""
    with open(path, "w") as fh:
        fh.write("tx_group,rx_group,row,col,re,im\n")
        for (i, j) in sorted(ms.blocks):
            for (r, c), v in np.ndenumerate(ms.block(i, j)):
                fh.write(f"{i},{j},{r},{c},{v.real:.17g},{v.imag:.17g}\n")
