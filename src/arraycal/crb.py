"""Bilinear estimation model, Fisher information, and constrained Cramer-Rao bounds.

The received pilot blocks are linear in the calibration vector f for a fixed
auxiliary channel h, and linear in h for fixed f:

    y = H(h, P) f + n = F(f, P) h + n,

where the auxiliary (nuisance) channel per pair is the reciprocal
Hc_{i->j} = R_j C_{i->j} R_i^T.  The joint FIM is singular (scale ambiguity),
so the CRB is computed under either the first-coefficient constraint or a
norm-plus-phase / f-linear constraint.

Both composites are block structured over group pairs: F is block diagonal,
and pair p's rows of H touch only groups i and j.  F_p = [A_i kron I_{M_j};
I_{M_i} kron A_j], A_g = P_g^T diag(f_g), enters only through the SVDs of the
A_g (group_factors, pair_project); build_h_composite and build_f_composite are
test references.  A 1 x 1 A_g's SVD is its modulus and phase, and a least
squares with one unknown (AML's f-step of a single-antenna group) is a
projection; both are taken in closed form under the SVD's rank rule, so
single-antenna groups with one pilot symbol cost no LAPACK call.
By reciprocity the Hc_{i->j} are the blocks of one symmetric K = R C R^T, so
AML solves every pair's h at once, as one M x M solve for K in the groups'
singular bases (estimators.aml_estimate).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import (AntennaPartition, ChannelRealization, RfImpairments, SlotPlan,
                    received_index, slot_plan)
from .stacking import khatri_rao_t

# B's second-smallest eigenvalue relative to its largest, at or below which f
# is not identifiable: rank-deficient B reaches 4e-16 by rounding, identifiable
# B stays above 9e-8 (4,000 random partitions of 2-4 groups of 1-3 antennas).
UNIDENTIFIABLE_RTOL = 1e-12


def vec(a: np.ndarray) -> np.ndarray:
    """Column-major vectorization."""
    return np.asarray(a).reshape(-1, order="F")


def vec_transpose_index(m: int, n: int) -> np.ndarray:
    """Index permutation t with vec(X)[t] = vec(X^T) for X of shape (m, n)."""
    return vec(np.arange(m * n).reshape(m, n, order="F").T)


def stack_observations(measurements, partition: AntennaPartition) -> np.ndarray:
    """y = [vec(Y_{1->2}); vec(Y_{2->1}^T); vec(Y_{1->3}); ...] (pairs lexicographic)."""
    return np.concatenate([np.concatenate((vec(measurements.block(i, j)),
                                           measurements.block(j, i).ravel()))
                           for (i, j) in partition.pairs()])


def build_h_composite(h_blocks: dict, pilots, partition: AntennaPartition) -> np.ndarray:
    """Dense H(h, P), y = H f (test reference).  Per pair, Khatri-Rao blocks
    hit groups i and j."""
    m = partition.num_antennas
    rows = []
    for (i, j) in partition.pairs():
        hc = h_blocks[(i, j)]
        bi = khatri_rao_t(pilots[i], hc.T)          # L_i M_j x M_i
        bj = khatri_rao_t(hc, pilots[j])            # M_i L_j x M_j
        top = np.zeros((bi.shape[0], m), dtype=complex)
        top[:, partition.antennas_of(i)] = bi
        bot = np.zeros((bj.shape[0], m), dtype=complex)
        bot[:, partition.antennas_of(j)] = bj
        rows.extend([top, bot])
    return np.vstack(rows)


def build_f_composite(f: np.ndarray, pilots, partition: AntennaPartition) -> np.ndarray:
    """Dense F(f, P), y = F h (test reference).  Block diagonal over pairs in
    the h ordering."""
    f = np.asarray(f, dtype=complex)
    sizes = partition.group_sizes
    pairs = partition.pairs()
    col_off = np.cumsum([0] + [sizes[i] * sizes[j] for (i, j) in pairs])
    n_rows = sum(partition.pilot_lengths[i] * sizes[j] + sizes[i] * partition.pilot_lengths[j]
                 for (i, j) in pairs)
    out = np.zeros((n_rows, col_off[-1]), dtype=complex)
    r = 0
    for k, (i, j) in enumerate(pairs):
        pi_fi = pilots[i].T * f[partition.antennas_of(i)][None, :]   # P_i^T F_i
        pj_fj = pilots[j].T * f[partition.antennas_of(j)][None, :]
        top = np.kron(pi_fi, np.eye(sizes[j]))
        bot = np.kron(np.eye(sizes[i]), pj_fj)
        blk = np.vstack([top, bot])
        out[r:r + blk.shape[0], col_off[k]:col_off[k + 1]] = blk
        r += blk.shape[0]
    return out


def pair_gram(n: int, cols: list, ws: list) -> np.ndarray:
    """The n x n sum of w_p^H w_p over the pairs p of the batches ws
    [(P, r, k), ...], each at its columns cols [(P, k), ...].  One bincount
    per part sums every entry's terms in np.add.at's order, to the bit."""
    index = np.concatenate([(c[:, :, None] * n + c[:, None, :]).ravel() for c in cols])
    val = np.concatenate([np.einsum("pri,prj->pij", w.conj(), w).ravel() for w in ws])
    out = np.empty(n * n, dtype=complex)
    out.real = np.bincount(index, val.real, n * n)
    out.imag = np.bincount(index, val.imag, n * n)
    return out.reshape(n, n)


def pair_h_block(hc: np.ndarray, p_i: np.ndarray, p_j: np.ndarray):
    """The two nonzero blocks of pair p's rows of H(h, P), batched over pairs.

    hc is Hc_{i->j} (P, M_j, M_i); the blocks act on f_i for the L_i M_j rows
    vec(Y_{i->j}) and on f_j for the M_i L_j rows vec(Y_{j->i}^T).
    """
    return (khatri_rao_t(p_i, hc.transpose(0, 2, 1)),    # P x L_iM_j x M_i
            khatri_rao_t(hc, p_j))                         # P x M_iL_j x M_j


def pair_f_block(f: np.ndarray, cols: np.ndarray, p_i: np.ndarray,
                 p_j: np.ndarray) -> np.ndarray:
    """Diagonal blocks F_p of F(f, P) for a batch of pairs with antenna columns
    cols, (P, L_iM_j + M_iL_j, M_iM_j)."""
    n, mi, li = p_i.shape
    mj, lj = p_j.shape[1:]
    a_i = p_i.transpose(0, 2, 1) * f[cols[:, None, :mi]]      # P_i^T F_i
    b_j = p_j.transpose(0, 2, 1) * f[cols[:, None, mi:]]      # P_j^T F_j
    top = np.einsum("pak,bc->pabkc", a_i, np.eye(mj)).reshape(n, li * mj, mi * mj)
    bot = np.einsum("ak,pbc->pabkc", np.eye(mi), b_j).reshape(n, mi * lj, mi * mj)
    return np.concatenate((top, bot), axis=1)


def complement_basis(f: np.ndarray) -> np.ndarray:
    """Orthonormal basis of span{f}'s complement, M x (M-1), as null_space(f^H)."""
    return np.linalg.svd(f.conj()[None, :])[2][1:].conj().T


def lstsq_min_norm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solutions of a stack of systems a x = b,
    with np.linalg.lstsq's rank rule (rcond=None).

    A system with one unknown (a of shape (P, r, 1), the f-step of a
    single-antenna group) is a projection: x = (a / s)^H b / s with s = ||a||,
    taken as a chained hypot so it cannot overflow.  The rank rule
    s > max(r, 1) eps s keeps every s > 0, and x = 0 where s = 0.
    """
    if a.shape[-1] == 1:
        s = np.hypot.reduce(np.abs(a[..., 0]), axis=-1)
        s = np.where(s > 0, s, 1.0)     # a = 0 there, so x = 0
        return (np.einsum("pr,pr->p", (a[..., 0] / s[:, None]).conj(), b) / s)[:, None]
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    keep = s > max(a.shape[-2:]) * np.finfo(float).eps * s[..., :1]
    c = np.einsum("prk,pr->pk", u.conj(), b)
    c = np.where(keep, c / np.where(keep, s, 1.0), 0.0)
    return np.einsum("pkn,pk->pn", vh.conj(), c)


def shape_factors(f: np.ndarray, pilots) -> dict:
    """Full SVDs U_g S_g V_g^H of every group's A_g = P_g^T diag(f_g), batched by
    shape: {(M_g, L_g): (U^H, s zero-padded to M_g, V^H, V)}, each stacked over
    the shape's groups in pilots.by_shape order.

    A 1 x 1 A_g = a is its own SVD, modulus and phase: s = |a|, U = e^{i arg a}
    (1 where a = 0) and V = 1, LAPACK's convention.  Other rank-one shapes
    (M_g = 1 < L_g, L_g = 1 < M_g) need a unitary completed around one vector
    and stay on the SVD, which a batched Householder completion did not beat.
    """
    svds = {}
    for (m, l), (gs, p, rows, _) in pilots.by_shape[0].items():
        a = p.transpose(0, 2, 1) * f[rows[:, None]]
        if (m, l) == (1, 1):
            one = np.ones_like(a)
            svds[m, l] = (np.exp(-1j * np.angle(a)), np.abs(a[:, 0]), one, one)
        else:
            u, s, vh = np.linalg.svd(a)
            s = np.concatenate((s, np.zeros((gs.size, m - s.shape[1]))), axis=1)
            svds[m, l] = (u.conj().transpose(0, 2, 1), s, vh, vh.conj().transpose(0, 2, 1))
    return svds


def group_factors(f: np.ndarray, pilots):
    """shape_factors as a function stacking groups' (U^H, s, V^H, V) in order."""
    svds, place = shape_factors(f, pilots), pilots.by_shape[1]
    return lambda groups: tuple(x.take(place[groups], 0) for x in svds[pilots[groups[0]].shape])


def pair_project(factors_i, factors_j, x: np.ndarray):
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
class CrbContext:
    """The bilinear model y = H(h, P) f = F(f, P) h at (f, h), as pair blocks.

    Pairs are batched by block shape, as in the plan of the slot in which
    every group is active (model.slot_plan): for batch k of plan.pairs,
    h_pairs[k] = H_p (P, r, M_i + M_j), at the batch's antenna columns, are
    each pair's rows of H, r = L_iM_j + M_iL_j.  H, F and h are never formed.
    """

    f: np.ndarray
    noise_variance: float
    partition: AntennaPartition
    plan: SlotPlan
    pilots: object
    h_pairs: list

    @cached_property
    def v_f(self) -> np.ndarray:
        """Orthonormal complement of span{f}, M x (M-1), formed on first use."""
        return complement_basis(self.f)


@dataclass
class CrbResult:
    crb_matrix: np.ndarray
    trace: float
    constraint_kind: str


def context_from_model(imp: RfImpairments, chan: ChannelRealization, pilots,
                       partition: AntennaPartition, noise_variance: float) -> CrbContext:
    """Pair blocks of H at the true f = t / r and h = [vec(Hc_{i->j})]: each
    batch's Hc_{i->j} = R_j C_{i->j} R_i^T is R C R^T, formed once, read at
    the batch's antenna columns."""
    f = imp.tx_gains / imp.rx_gains
    plan = slot_plan(partition, tuple(range(partition.num_groups)))
    rcr = imp.rx_gains[:, None] * chan.c * imp.rx_gains[None, :]
    h_pairs = []
    for b in plan.pairs:
        p_i, p_j = pilots.stacked(b.gi), pilots.stacked(b.gj)
        cols_i, cols_j = b.cols[:, :p_i.shape[1]], b.cols[:, p_i.shape[1]:]
        bi, bj = pair_h_block(rcr[cols_j[:, :, None], cols_i[:, None, :]], p_i, p_j)
        hp = np.zeros(bi.shape[:1] + (bi.shape[1] + bj.shape[1], b.cols.shape[1]), complex)
        hp[:, :bi.shape[1], :p_i.shape[1]] = bi
        hp[:, bi.shape[1]:, p_i.shape[1]:] = bj
        h_pairs.append(hp)
    return CrbContext(f, float(noise_variance), partition, plan, pilots, h_pairs)


def fim(ctx: CrbContext) -> np.ndarray:
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
    for b, hp in zip(ctx.plan.pairs, ctx.h_pairs):
        fp = pair_f_block(ctx.f, b.cols, ctx.pilots.stacked(b.gi), ctx.pilots.stacked(b.gj))
        cols.append(np.concatenate((b.cols, m + h_off[b.gi, b.gj][:, None]
                                    + np.arange(fp.shape[2])), axis=1))
        ws.append(np.concatenate((hp, fp), axis=2))
    return pair_gram(n, cols, ws) / ctx.noise_variance


def compressed_information(ctx: CrbContext) -> np.ndarray:
    """B = H^H P_F_perp H (M x M), the information on f with h profiled out,
    times sigma^2.  F is block diagonal over pairs, so its projector splits into
    the pairs' small ones: B = sum_p (P_perp,p H_p)^H (P_perp,p H_p), the
    Grams of pair_project's residuals."""
    fac = group_factors(ctx.f, ctx.pilots)
    ws = [pair_project(fac(b.gi), fac(b.gj), hp)[1] for b, hp in zip(ctx.plan.pairs, ctx.h_pairs)]
    b = pair_gram(ctx.f.size, [b.cols for b in ctx.plan.pairs], ws)
    return (b + b.conj().T) / 2


def _constrained_inverse(b: np.ndarray, v: np.ndarray, sigma2: float) -> np.ndarray:
    inner = v.conj().T @ b @ v
    try:
        inv = np.linalg.inv(inner)
    except np.linalg.LinAlgError as e:
        raise np.linalg.LinAlgError(f"unidentifiable configuration: {e}") from e
    return sigma2 * v @ inv @ v.conj().T


def crb_f(ctx: CrbContext, constraint: str = "FCC") -> CrbResult:
    """Constrained CRB for f with h as nuisance (Stoica & Ng, IEEE SPL 1998).

    FCC uses the identity-minus-first-column subspace; NPC yields the
    pseudo-inverse of the nuisance-compressed information sigma^-2 B at its
    rank M - 1.  B always has f in its null space; a second null direction
    (lambda_2 <= UNIDENTIFIABLE_RTOL lambda_max) means f is not identifiable,
    and raises LinAlgError instead of returning a meaningless bound.
    """
    if constraint not in ("FCC", "NPC"):
        raise ValueError(f"unknown CRB constraint {constraint!r}")
    b = compressed_information(ctx)
    w, v = np.linalg.eigh(b)
    if w[1] <= UNIDENTIFIABLE_RTOL * w[-1]:
        raise np.linalg.LinAlgError(
            f"unidentifiable configuration: the compressed information has rank "
            f"< M - 1 (lambda_2 / lambda_max = {w[1] / w[-1] if w[-1] else 0.0:.2e})")
    if constraint == "FCC":
        crb = _constrained_inverse(b, np.eye(ctx.f.size)[:, 1:], ctx.noise_variance)
    else:
        crb = ctx.noise_variance * (v[:, 1:] / w[1:]) @ v[:, 1:].conj().T
    return CrbResult(crb, float(np.real(np.trace(crb))), constraint)


def crb_f_known_h(ctx: CrbContext, constraint: str = "FCC") -> CrbResult:
    """Comparison bound assuming the internal channel h is known.

    Replaces the nuisance projector by identity (B = sum_p H_p^H H_p); this
    underestimates the achievable MSE of joint estimators.
    """
    b = pair_gram(ctx.f.size, [b.cols for b in ctx.plan.pairs], ctx.h_pairs)
    b = (b + b.conj().T) / 2
    v = np.eye(ctx.f.size, dtype=complex)[:, 1:] if constraint == "FCC" else ctx.v_f
    crb = _constrained_inverse(b, v, ctx.noise_variance)
    return CrbResult(crb, float(np.real(np.trace(crb))), constraint)


def build_f_perp(f: np.ndarray, pilots, partition: AntennaPartition) -> np.ndarray:
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


def ml_compressed_cost(measurements, f: np.ndarray, pilots,
                       partition: AntennaPartition, rel_tol: float = 1e-8) -> float:
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
    fac, y, cost_direct = group_factors(f, pilots), measurements.received.ravel(), 0.0
    for b in measurements.plan.pairs:       # y_p = [vec(Y_{i->j}); vec(Y_{j->i}^T)]
        y_ij, y_ji = (y[received_index(partition, *g)] for g in ((b.gi, b.gj), (b.gj, b.gi)))
        y_p = np.concatenate((y_ij.transpose(0, 2, 1).reshape(len(b.gi), -1, 1),
                              y_ji.reshape(len(b.gi), -1, 1)), axis=1)
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
