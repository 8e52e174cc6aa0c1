"""Dense and per-pair references for the package's batched computations.

The package keeps only A = Y(P)^H Y(P).  dense_y and dense_y_noncoherent
build Y(P) itself, one row block per pair from pair_equation_block, in the
order row_blocks gives, so tests can check the Gram, null-space and rank
properties against the explicit matrix.  vec_transpose_perm is the dense
form of crb.vec_transpose_index.  aux_channel_blocks is each pair's
auxiliary channel Hc_{i->j}, the reference for crb.context_from_model's pair
blocks and the input of the dense H(h, P) of crb.build_h_composite; stack_h
stacks them into h, and split_h inverts stack_h.
exchange_pairs is airlink.simulate_exchange as one loop over ordered pairs.
constrained_lstsq is the linear-constraint LS of estimators.ls_estimate
solved by lstsq on the dense Y(P).  perp_projector is the dense projector
that the CRB's per-pair blocks replace, and svd_pair_solve the per-pair
route crb.pair_project and pair_solve replace: a batched SVD of every
dense F_p, solved by svd_lstsq, the SVD route crb.lstsq_min_norm replaces
for one unknown.  pair_solve is crb.pair_project's minimum-norm solution,
and pair_observations a pair batch's entries of y.  pairwise_aml is the
alternating ML of estimators.aml_estimate written pair by pair, as that
function was before it worked on the received matrix: pair_solve's h-step
on each pair's observations, and svd_lstsq's f-step on each group's rows
of H, filled pair by pair.
numerical_rank is the rank rule the tests read off dense matrices, and
brute_force_best_pair_count the exhaustive search behind
grouping.optimal_group_sizes.
"""

import numpy as np
from scipy.linalg import null_space, orth

from arraycal.airlink import noise_variance_from_snr
from arraycal.crb import group_factors, pair_h_block, pair_project, vec
from arraycal.grouping import pair_count
from arraycal.model import received_index
from arraycal.stacking import pair_equation_block


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
    reference for crb.lstsq_min_norm, including its one-unknown projection."""
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
    a batch of pairs of equal shape (a PairBatch of the slot's plan),
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
    stacks, place = pilots.by_shape
    h_rows = {key: np.zeros((len(gs), key[1] * (m - key[0]), key[0]), dtype=complex)
              for key, (gs, *_) in stacks.items()}
    y_rows = {key: np.zeros(h.shape[:2], dtype=complex) for key, h in h_rows.items()}
    filled = [0] * partition.num_groups
    pairs = []
    for b in measurements.plan.pairs:
        p_i, p_j = pilots.stacked(b.gi), pilots.stacked(b.gj)
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
