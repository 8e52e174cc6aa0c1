"""Bilinear estimation model and constrained Cramer-Rao bounds on f.

The received pilot blocks are linear in the calibration vector f for a fixed
auxiliary channel h, and linear in h for fixed f:

    y = H(h, P) f + n = F(f, P) h + n,

where the auxiliary (nuisance) channel per pair is the reciprocal
Hc_{i->j} = R_j C_{i->j} R_i^T.  By reciprocity the Hc_{i->j} are the blocks
of one symmetric K = R C R^T, and a slot's received matrix is Y = K F P off
its self blocks (F = diag(f), P = blkdiag(P_g)).  The bound is computed from
K through B = H^H P_F_perp H, the information on f with h profiled out.  The
joint FIM is singular (scale ambiguity), so the CRB is computed under either
the first-coefficient constraint or a norm-plus-phase constraint.

Where every group sends one pilot symbol (L_g = 1), a pair of groups gives
one pair equation, whose noise has variance sigma^2 (s_i^2 + s_j^2), s_g^2 =
||f_g o p_g||^2, so B = Y_0(P)^H Omega^2 Y_0(P): the LS Gram of the noiseless
exchange with each pair weighted by 1 / (s_i^2 + s_j^2).  LS is the same
Gram unweighted, so at high SNR it reaches the bound when the pair weights
are equal.  With longer pilots B is formed in the groups' singular bases, as
AML's h-step is (_basis_information).  build_h_composite, build_f_composite
and stack_observations are the dense H(h, P), F(f, P) and y, test references.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .model import AntennaPartition, ChannelRealization, RfImpairments, batch_indices
from .stacking import khatri_rao_t, received_gram

# B's second-smallest eigenvalue relative to its largest, at or below which f
# is not identifiable: rank-deficient B reaches 4e-16 by rounding, identifiable
# B stays above 9e-8 (4,000 random partitions of 2-4 groups of 1-3 antennas).
UNIDENTIFIABLE_RTOL = 1e-12


def stack_observations(measurements, partition: AntennaPartition) -> np.ndarray:
    """y = [vec(Y_{1->2}); vec(Y_{2->1}^T); vec(Y_{1->3}); ...] (pairs lexicographic)."""
    return np.concatenate([np.concatenate((measurements.block(i, j).reshape(-1, order="F"),
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


def complement_basis(f: np.ndarray) -> np.ndarray:
    """Orthonormal basis of span{f}'s complement, M x (M-1), as null_space(f^H)."""
    return np.linalg.svd(f.conj()[None, :])[2][1:].conj().T


def lstsq_min_norm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solutions of a stack of systems a x = b,
    with np.linalg.lstsq's rank rule (rcond=None)."""
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    keep = s > max(a.shape[-2:]) * np.finfo(float).eps * s[..., :1]
    c = np.einsum("prk,pr->pk", u.conj(), b)
    c = np.where(keep, c / np.where(keep, s, 1.0), 0.0)
    return np.einsum("pkn,pk->pn", vh.conj(), c)


def column_projection(k: np.ndarray, w: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """AML's f-step of single-antenna groups, one per column of k = K, w = W =
    Y P^H and p2 = ||p_g||^2: the rows f_g K[a, g] p_g^T of Y[a, cols_g] are
    one column, so f_g = sum_a conj(K[a, g]) W[a, g] / (p2 sum_a |K[a, g]|^2)
    (K[g, g] = W[g, g] = 0).  The squared norms are one plain sum, accurate
    to rounding for K's entries within 1e-150 to 1e150 in magnitude; lstsq's
    rank rule keeps every norm > 0, and f_g = 0 if K[:, g] = 0."""
    kc = np.conj(k)
    s = np.add.reduce(kc * k).real
    s[s == 0] = 1.0                             # k = 0 there, so f_g = 0
    return np.add.reduce(kc * w) / (s * p2)


def shape_factors(f: np.ndarray, pilots):
    """Every group's A_g = P_g^T diag(f_g), batched by run of equal shape
    (PilotSet.runs, read through each run's row slice): its squared singular
    values s^2 on the M antennas (descending in a group, 0 past rank), and
    for M_g > 1 the bases {run index: (V^H, V)} of A_g = U_g S_g V_g^H,
    stacked in the run's group order.  A single-antenna group has s^2 =
    |f_g|^2 ||p_g||^2 and V_g = 1, in closed form for any L_g."""
    s2, bases = np.empty(f.size), {}
    for k, (p, _, _, r, _) in enumerate(pilots.runs):
        if p.shape[1] == 1:
            np.add.reduce(np.abs(p[:, 0] * f[r, None]) ** 2, axis=1, out=s2[r])
            continue
        s, vh = np.linalg.svd(p.transpose(0, 2, 1) * f[r].reshape(len(p), 1, -1))[1:]
        s2r = s2[r].reshape(len(p), -1)
        s2r[:, :s.shape[1]], s2r[:, s.shape[1]:] = s ** 2, 0.0
        bases[k] = (vh, vh.conj().transpose(0, 2, 1))
    return s2, bases


@lru_cache(maxsize=32)
def rank_rule(partition: AntennaPartition):
    """Per pair of antennas k, l (rows of the groups' singular bases): the
    pair (g(k), g(l))'s lstsq rank rule (max(r, M_iM_j) eps)^2, r = L_iM_j +
    M_iL_j (1 inside a group); whether they are in different groups; per
    antenna, the first antenna of its group, or None where every group has
    one antenna.  Read-only; pair_weights takes the first and the last."""
    sizes, lens = np.asarray(partition.group_sizes), np.asarray(partition.pilot_lengths)
    m_a, l_a = np.repeat(sizes, sizes), np.repeat(lens, sizes)
    rule = (np.maximum(np.outer(l_a, m_a) + np.outer(m_a, l_a), np.outer(m_a, m_a))
            * np.finfo(float).eps) ** 2
    group = np.repeat(np.arange(sizes.size), sizes)
    off = group[:, None] != group
    rule[~off] = 1.0
    first = np.repeat(partition.offsets, sizes)
    rule.flags.writeable = off.flags.writeable = first.flags.writeable = False
    return rule, off, first if sizes.max() > 1 else None


@lru_cache(maxsize=32)
def _group_pairs(partition: AntennaPartition) -> tuple:
    """The ordered pairs (g, h), g != h, of groups, batched by their ranks
    r = min(M, L): per batch, the antennas of g and of h (P, max M_g),
    padded with the index M, and the first r_g and r_h of them, the rank
    rows of the groups' singular bases.  Read-only."""
    sizes, lens = np.asarray(partition.group_sizes), np.asarray(partition.pilot_lengths)
    offsets, rank, m = np.asarray(partition.offsets), np.minimum(sizes, lens), int(sizes.sum())
    g, h = np.nonzero(~np.eye(sizes.size, dtype=bool))

    def antennas(x, n):
        return np.where(np.arange(n) < sizes[x, None], offsets[x, None] + np.arange(n), m)

    batches = []
    for sel in batch_indices((rank[g], rank[h])):
        gs, hs = g[sel], h[sel]
        batches.append((antennas(gs, sizes[gs].max()), antennas(hs, sizes[hs].max()),
                        antennas(gs, rank[gs[0]]), antennas(hs, rank[hs[0]])))
    for x in (x for batch in batches for x in batch):
        x.flags.writeable = False
    return tuple(batches)


def pair_weights(s2: np.ndarray, rule: np.ndarray, first: np.ndarray | None) -> np.ndarray:
    """W_kl = 1 / (s_k^2 + s_l^2), M x M, with s_k^2 the k-th squared singular
    value of its group's A_g (shape_factors): the inverse of F(f, P)^H F(f, P)
    in the groups' singular bases.  The pair's F_p has singular values (s_k^2
    + s_l^2)^(1/2); one at or below max(r, M_iM_j) eps sigma_max counts as
    zero (lstsq's rank rule on F_p), and so does every weight inside a
    group's diagonal block, where K has no unknowns: there the rule is 1 and
    s_k^2 + s_l^2 <= 2 s_max^2, as s is descending in a group.  rule and
    first are rank_rule's (first None: sigma_max^2 is s_k^2 + s_l^2)."""
    den = s2[:, None] + s2
    top = den if first is None else s2[first][:, None] + s2[first]     # sigma_max^2
    den[den <= rule * top] = np.inf             # so that its weight is 1 / inf = 0
    return np.divide(1.0, den, out=den)


@dataclass
class CrbContext:
    """The model Y = K F P (off its self blocks) at the true f and K = R C R^T."""

    f: np.ndarray
    noise_variance: float
    partition: AntennaPartition
    pilots: object
    k: np.ndarray

    @cached_property
    def v_f(self) -> np.ndarray:
        """Orthonormal complement of span{f}, M x (M-1), formed on first use."""
        return complement_basis(self.f)


@dataclass
class CrbResult:
    """A bound's trace; its matrix is formed on first read."""

    trace: float
    constraint_kind: str
    _matrix: Callable = field(repr=False)

    @cached_property
    def crb_matrix(self) -> np.ndarray:
        return self._matrix()


def context_from_model(imp: RfImpairments, chan: ChannelRealization, pilots,
                       partition: AntennaPartition, noise_variance: float) -> CrbContext:
    """The model at the true f = t / r and K = R C R^T."""
    k = imp.rx_gains[:, None] * chan.c * imp.rx_gains[None, :]
    return CrbContext(imp.tx_gains / imp.rx_gains, float(noise_variance), partition, pilots, k)


def known_h_information(k: np.ndarray, pilots, partition: AntennaPartition) -> np.ndarray:
    """H^H H (M x M), from the channel K (its group blocks are ignored):
    dY/df_a = u_a P[a, :] with u_a = K[:, a] off g(a), so H^H H is block
    diagonal, conj(P_g P_g^H) o (U_g^H U_g) with U_g = K's columns of group g
    off its block."""
    u = np.where(rank_rule(partition)[1], k, 0)
    b = np.zeros(u.shape, dtype=complex)
    for p, rows, *_ in pilots.runs:
        ug = u[:, rows].transpose(1, 0, 2)                  # (n, M, M_g)
        b[rows[:, :, None], rows[:, None, :]] = (p.conj() @ p.transpose(0, 2, 1)) \
            * (ug.conj().transpose(0, 2, 1) @ ug)
    return b


def compressed_information(f: np.ndarray, k: np.ndarray, pilots,
                           partition: AntennaPartition) -> np.ndarray:
    """B = H^H P_F_perp H (M x M), the information on f with K profiled out,
    times sigma^2, from the M x M channel K (its group blocks are ignored; a
    group's rows and columns set to zero leave it out, as an idle group).
    f has no zeros, as the model's f = t / r.

    Where every L_g = 1, B is stacking's received_gram of Y_0 o Omega, Y_0 =
    K F P off its self blocks and Omega[a, g] = (s_g(a)^2 + s_g^2)^-1/2, or 0
    where s_g(a)^2 + s_g^2 = 0 (pair_weights' rank rule at L = 1).
    """
    if max(partition.pilot_lengths) > 1:
        return _basis_information(f, k, pilots, partition)
    offsets, sizes = partition.offsets, partition.group_sizes
    fp = f * np.concatenate([p.ravel() for p, *_ in pilots.runs])     # f_g o p_g
    y = np.add.reduceat(k * fp, offsets, axis=1)                        # K F P
    y[np.arange(f.size), np.repeat(np.arange(len(sizes)), sizes)] = 0   # off its self blocks
    s2 = np.add.reduceat(np.abs(fp) ** 2, offsets)
    den = np.sqrt(s2[:, None] + s2)
    y *= np.repeat(np.divide(1.0, den, out=np.zeros_like(den), where=den > 0), sizes, axis=0)
    b = received_gram(y, pilots)[0]
    return (b + b.conj().T) / 2


def _basis_information(f: np.ndarray, k: np.ndarray, pilots,
                       partition: AntennaPartition) -> np.ndarray:
    """compressed_information's B for any pilot lengths.  F^H takes dY/df_a
    = u_a P[a, :] (u_a = K[:, a] off g(a)) to Z_a = X_a + X_a^T, X_a = u_a
    q_a^T with q_a[s] = (P P^H)[a, s] conj(f_s), supported on g(a).  In the
    groups' singular bases (V = blkdiag(V_g)) F^H F is the weight 1 / W
    (pair_weights), so B = H^H H - C with C_ab = 1/2 sum_kl
    conj(Z~_a)_kl (Z~_b)_kl W_kl, Z~_a = V^H Z_a conj(V) = u~_a q~_a^T +
    q~_a u~_a^T, u~ = V^H u, and Q~_g = V_g^H A_g^H P_g^T = S_g^T U_g^H P_g^T,
    whose rows past rank r_g = min(M_g, L_g) are zero.  As W is symmetric and
    zero in group blocks, with k and l running over rank rows only:
      a, b in one group g: H^H H's block conj(P_g P_g^H) o (U_g^H U_g) is
        sum_{k in g, l outside g} conj(Q~[k, a] U~[l, a]) Q~[k, b] U~[l, b]
        / s_k^2 (U_g^H P_g^T has no rows past rank, as f_g has no zeros),
        and C's block the same sum weighted by W_kl, so B's block is the sum
        weighted by (1 - s_k^2 W_kl) / s_k^2 = s_l^2 W_kl / s_k^2 (1 / s_k^2
        where the rank rule drops W_kl), formed with no cancellation;
      other groups: -C_ab = -sum_{k in g(a), l in g(b)} W_kl conj(Q~[k, a])
        Q~[l, b] conj(U~[l, a]) U~[k, b].
    The first is one batched product per run of equal shape, the second one
    per ordered pair of groups, batched by the pair's ranks (_group_pairs);
    each costs what the pair blocks of F would.
    """
    m = f.size
    rule, off, first = rank_rule(partition)
    s2, bases = shape_factors(f, pilots)
    w = pair_weights(s2, rule, first)
    # U~ and Q~ (Q~[k, a], k a rank row of a's group), and B, each with a
    # zero row and column M, the padding of _group_pairs
    ut = np.zeros((m + 1, m + 1), dtype=complex)
    ut[:m, :m] = np.where(off, k, 0)
    qt, b, shapes = np.zeros_like(ut), np.zeros_like(ut), []
    for key, (p, rows, *_) in enumerate(pilots.runs):
        q = np.conj(f[rows])[:, :, None] * (p.conj() @ p.transpose(0, 2, 1))
        if key in bases:
            ut[rows] = bases[key][0] @ ut[rows]
            q = bases[key][0] @ q
        q = q[:, :min(p.shape[1:])]
        qt[rows[:, :q.shape[1], None], rows[:, None, :]] = q
        shapes.append((rows, q))
    for rows, q in shapes:                      # the group diagonal blocks
        (n, r, mg), l = q.shape, m - rows.shape[1]
        out = np.arange(l) + mg * (np.arange(l) >= rows[:, :1])     # the antennas outside g
        x = (q[:, :, None, :] * ut[out[:, :, None], rows[:, None, :]][:, None]).reshape(n, -1, mg)
        wkl = w[rows[:, :r, None], out[:, None, :]]
        wkl = np.divide(np.where(wkl > 0, wkl * s2[out][:, None, :], 1.0),
                        s2[rows[:, :r]][:, :, None], out=np.zeros_like(wkl),
                        where=s2[rows[:, :r]][:, :, None] > 0)
        b[rows[:, :, None], rows[:, None, :]] = (wkl.reshape(n, -1, 1) * x.conj()) \
            .transpose(0, 2, 1) @ x                 # x: Q~[k, a] U~[l, a]
    for ag, ah, kg, kh in _group_pairs(partition):      # off the group blocks, -C
        n, ka, la = len(ag), kg[:, None, :, None], kh[:, None, None, :]
        x = (qt[ka, ag[:, :, None, None]] * ut[la, ag[:, :, None, None]]).conj() \
            * w[kg[:, None, :, None], kh[:, None, None, :]]    # conj(Q~[k, a] U~[l, a]) W_kl
        y = qt[la, ah[:, :, None, None]] * ut[ka, ah[:, :, None, None]]     # Q~[l, b] U~[k, b]
        b[ag[:, :, None], ah[:, None, :]] = -np.einsum(
            "pax,pbx->pab", x.reshape(n, ag.shape[1], -1), y.reshape(n, ah.shape[1], -1))
    b = b[:m, :m]
    return (b + b.conj().T) / 2


def _subspace_bound(b: np.ndarray, v: np.ndarray | None, sigma2: float,
                    constraint: str) -> CrbResult:
    """sigma^2 V (V^H B V)^-1 V^H, with V the columns 1.. of I where v is None
    (FCC), and its trace, sigma^2 tr((V^H B V)^-1)."""
    try:
        inv = np.linalg.inv(b[1:, 1:] if v is None else v.conj().T @ b @ v)
    except np.linalg.LinAlgError as e:
        raise np.linalg.LinAlgError(f"unidentifiable configuration: {e}") from e
    v = np.eye(b.shape[0])[:, 1:] if v is None else v
    return CrbResult(sigma2 * float(np.real(np.trace(inv))), constraint,
                     lambda: sigma2 * v @ inv @ v.conj().T)


def crb_f(ctx: CrbContext, constraint: str = "FCC") -> CrbResult:
    """Constrained CRB for f with h as nuisance (Stoica & Ng, IEEE SPL 1998).

    FCC inverts B without its first row and column; NPC is the pseudo-inverse
    of the nuisance-compressed information sigma^-2 B at its rank M - 1, whose
    trace is sigma^2 sum_{i >= 1} 1 / lambda_i.  B always has f in its null
    space; a second null direction (lambda_2 <= UNIDENTIFIABLE_RTOL
    lambda_max) means f is not identifiable, and raises LinAlgError instead of
    returning a meaningless bound.
    """
    if constraint not in ("FCC", "NPC"):
        raise ValueError(f"unknown CRB constraint {constraint!r}")
    b = compressed_information(ctx.f, ctx.k, ctx.pilots, ctx.partition)
    w = np.linalg.eigvalsh(b)
    if w[1] <= UNIDENTIFIABLE_RTOL * w[-1]:
        raise np.linalg.LinAlgError(
            f"unidentifiable configuration: the compressed information has rank "
            f"< M - 1 (lambda_2 / lambda_max = {w[1] / w[-1] if w[-1] else 0.0:.2e})")
    sigma2 = ctx.noise_variance
    if constraint == "FCC":
        return _subspace_bound(b, None, sigma2, constraint)

    def matrix():
        lam, v = np.linalg.eigh(b)
        return sigma2 * (v[:, 1:] / lam[1:]) @ v[:, 1:].conj().T

    return CrbResult(sigma2 * float(np.sum(1.0 / w[1:])), constraint, matrix)


def crb_f_known_h(ctx: CrbContext, constraint: str = "FCC") -> CrbResult:
    """Comparison bound assuming the internal channel h is known.

    Replaces the nuisance projector by identity (B = H^H H); this
    underestimates the achievable MSE of joint estimators.
    """
    b = known_h_information(ctx.k, ctx.pilots, ctx.partition)
    b = (b + b.conj().T) / 2
    return _subspace_bound(b, None if constraint == "FCC" else ctx.v_f,
                           ctx.noise_variance, constraint)
