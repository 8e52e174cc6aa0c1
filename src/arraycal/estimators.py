"""Calibration estimators: constrained LS, Argos, Rogalin, daisy chain, Avalanche, AML.

Every estimator reads the slot's received matrix Y.  All but AML solve the
pair equations Y(P) f = 0 of stacking, on different pairs: LS and Rogalin
(LS on single antennas) every pair jointly, from the Gram matrix built on Y;
Argos and the daisy chain the trees {(0, c)} and {(c - 1, c)}, whose edges'
blocks they read from Y (tree_estimate); Avalanche each group against all
earlier ones, from slices of Y.

All estimators determine f only up to one complex scale; a ConstraintSpec
resolves the ambiguity.  FCC pins the first coefficient to 1; NPC pins the
norm of f to that of f_true and the phase of f_hat^H f_true to 0.  Every
estimator returns an EstimationReport whose f satisfies the constraint it
was given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import AntennaPartition, batch_indices, shape_runs
from . import crb as _crb
from .stacking import StackedSystem, build_stacked, pair_equation_block

FCC = "FCC"
NPC = "NPC"

# Margin of the Cholesky certificate over lstsq's rank rule n eps, n = M - 1
# (see _certified_inverse_factor).
CHOLESKY_MARGIN = 1e3


@dataclass(frozen=True)
class ConstraintSpec:
    """FCC, or NPC against the trial's true f."""

    kind: str
    true_f: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in (FCC, NPC):
            raise ValueError(f"unknown constraint kind {self.kind!r}")
        if self.kind == NPC and self.true_f is None:
            raise ValueError("NPC requires the reference vector for phase alignment")

    @staticmethod
    def fcc() -> "ConstraintSpec":
        return ConstraintSpec(FCC)

    @staticmethod
    def npc(true_f: np.ndarray) -> "ConstraintSpec":
        return ConstraintSpec(NPC, np.asarray(true_f, dtype=complex))


@dataclass
class EstimationReport:
    """An estimator's result: f in the estimator's constraint, its
    iterations, whether it converged, and the cost it stopped at (nan where
    none is formed)."""

    f: np.ndarray
    iterations: int = 1
    converged: bool = True
    final_cost: float = math.nan


def normalize_for_constraint(f: np.ndarray, constraint: ConstraintSpec | None) -> np.ndarray:
    """Rescale an estimate (defined up to scale) to satisfy the constraint;
    None leaves it as it is."""
    f = np.asarray(f, dtype=complex)
    if constraint is None:
        return f
    if constraint.kind == FCC:
        out = f / f[0]
        out[0] = 1.0                          # f[0] / f[0] may land an ulp off
        return out
    fu = f / np.linalg.norm(f)                # NPC
    c = float(np.linalg.norm(constraint.true_f) ** 2)
    phi = np.angle(fu.conj() @ constraint.true_f)
    return np.sqrt(c) * np.exp(1j * phi) * fu


def _rank_tol(w: np.ndarray) -> float:
    """lstsq's rank rule on a Hermitian matrix's eigenvalues: |w| <= n eps
    max|w| counts as zero."""
    return w.size * np.finfo(float).eps * np.max(np.abs(w))


def _smallest_eigvec(a: np.ndarray):
    """Eigenvector for the smallest eigenvalue of a Hermitian PSD matrix, and
    whether it is unique: the second eigenvalue passes the rank rule and does
    not tie with the first.  The vector is two solves of inverse iteration
    from all ones, shifted just below eigvalsh's smallest eigenvalue (one
    solve left residuals up to 1e4 times eigh's); eigh's if a solve fails."""
    w = np.linalg.eigvalsh(a)
    n, eps = a.shape[0], np.finfo(float).eps
    unique = n == 1 or bool(abs(w[1]) > _rank_tol(w)
                            and w[1] - w[0] > n * eps * max(w[-1], 1.0))
    shifted, x = a - (w[0] - n * eps * max(abs(w[0]), abs(w[-1]), 1.0)) * np.eye(n), np.ones(n)
    try:
        for _ in range(2):
            x = np.linalg.solve(shifted, x)
            x /= np.linalg.norm(x)
    except np.linalg.LinAlgError:
        x = np.linalg.eigh(a)[1][:, 0].copy()
    return x, unique


def _lower_inverse(l: np.ndarray) -> np.ndarray:
    """L^{-1} of a lower-triangular L, by the block form [[A, 0], [C, D]]^{-1}
    = [[A^{-1}, 0], [-D^{-1} C A^{-1}, D^{-1}]].  np.linalg.inv, a general LU,
    runs only on diagonal blocks of at most 32 rows; the rounding its row
    pivoting leaves above their diagonal is dropped, so the upper triangle is
    exactly zero."""
    n = l.shape[0]
    if n <= 32:
        return np.tril(np.linalg.inv(l))
    k = n // 2
    a, d = _lower_inverse(l[:k, :k]), _lower_inverse(l[k:, k:])
    out = np.zeros_like(l)
    out[:k, :k] = a
    out[k:, k:] = d
    out[k:, :k] = -d @ (l[k:, :k] @ a)
    return out


def _certified_inverse_factor(b: np.ndarray):
    """L^{-1} for B = L L^H when B is certified well enough conditioned that
    lstsq's rank rule keeps all its eigenvalues; else None.

    c = 1 / (tr(B) ||L^{-1}||_F^2) bounds lambda_min / lambda_max from below,
    since ||L^{-1}||_F^2 = tr(B^{-1}) >= 1 / lambda_min and tr(B) >= lambda_max.
    eigh's eigenvalues carry a backward error of a modest multiple of
    eps ||B||, so c > CHOLESKY_MARGIN n eps leaves every computed eigenvalue
    far above the rule's n eps max|w|; the margin also covers the rounding in
    c itself, whose relative size is at most about n eps / c.
    """
    try:
        li = _lower_inverse(np.linalg.cholesky(b))
    except np.linalg.LinAlgError:
        return None
    bound = 1.0 / (np.real(np.trace(b)) * np.real(np.vdot(li, li)))
    return li if bound > CHOLESKY_MARGIN * b.shape[0] * np.finfo(float).eps else None


def _solve_fcc(sys: StackedSystem):
    """min f^H A f s.t. f_0 = 1, robust to a singular Gram matrix A; also
    returns whether B = A[1:, 1:] has full rank.  Equal to the closed form
    A^{-1} e_0 / (A^{-1})_00 whenever A is invertible.

    f = e_0 + [0, z], so only z = f[1:] is solved for, through B.  A
    Cholesky factor of B, certified to be far from singular
    (_certified_inverse_factor), gives B^{-1}.
    Otherwise one eigendecomposition of B gives its pseudo-inverse, with the
    eigenvalues that lstsq's rank rule would drop left out: f stays the
    minimum-norm solution, and is exact in the noiseless (singular-A) case.
    A solve with A squares cond(Y(P)); three refinement steps, A x from the
    residuals (StackedSystem.apply_gram), recover a least-squares solve's
    accuracy.  After Cholesky the first reads A e_0 from A, and they stop
    once a step moves f by at most 4 eps ||f||.  After eigh they also refine
    the dropped eigenvectors (tilted by about eps ||B|| / lambda towards the
    kept ones), and f's part in their span is removed.
    """
    f = np.eye(1, sys.m, dtype=complex)[0]    # e_0
    # B from A^H, Hermitian: cholesky and eigh read its lower triangle
    b = sys.gram[1:, 1:].conj().T
    li = _certified_inverse_factor(b)
    if li is not None:                        # B^{-1} = p diag(d) q
        p, d, q, null = li.conj().T, 1.0, li, []
    else:
        w, e = np.linalg.eigh(b)
        # B's rank is at most Y(P)'s row count, whatever rounding lifts above the rule
        keep = (np.abs(w) > _rank_tol(w)) & (np.arange(w.size) >= w.size - sys.rows)
        p, d, q = e[:, keep], 1.0 / w[keep], e[:, keep].conj().T
        null = [np.concatenate(([0.0], n)) for n in e[:, ~keep].T]         # [0, n]

    def step(x, ax=None):                     # x - [0, B^+ (A x)[1:]], A x from the residuals
        ax = sys.apply_gram(x) if ax is None else ax
        return x - np.concatenate(([0.0], p @ (d * (q @ ax[1:]))))

    ax, rtol = (None, -1.0) if li is None else (sys.gram[:, 0], 4 * np.finfo(float).eps)
    for _ in range(3):                        # after eigh, rtol < 0: all three steps
        f, prev, null, ax = step(f, ax), f, [step(n) for n in null], None
        if np.linalg.norm(f - prev) <= rtol * np.linalg.norm(f):
            break
    if null:                                  # the minimum-norm f has no part in B's null space
        n = np.linalg.qr(np.stack(null, axis=1))[0]
        f = f - n @ (n.conj().T @ f)
    return f, not null


def ls_estimate(sys: StackedSystem, constraint: ConstraintSpec) -> EstimationReport:
    """Constrained least-squares over the stacked system, from its Gram matrix A.

    FCC solves the equality-constrained quadratic program; NPC rescales A's
    smallest eigenvector in norm and phase against the true f.  Each solution
    is kept on sys, per constraint kind, so estimators sharing one system (LS,
    Rogalin, AML's start) solve it once.

    converged is False when the solve found f not unique: B dropped an
    eigenvalue, A's second-smallest eigenvalue failed the same rank rule or
    tied with the smallest, or Y(P) has fewer than M - 1 rows (rounding in A
    can lift a zero eigenvalue past the rank rule, but not past that bound).
    That catches a noiseless or structurally singular system; a noisy system
    whose structure is deficient (CUSTOM sizes 1,2, lengths 2,1 at 30 dB,
    where B's smallest eigenvalue is of order 1e-4 of its largest) is
    check_identifiability's to reject.
    """
    kind = constraint.kind
    if kind not in sys.solutions:
        sys.solutions[kind] = _solve_fcc(sys) if kind == FCC else _smallest_eigvec(sys.gram)
    f, unique = sys.solutions[kind]
    f = f.copy() if kind == FCC else normalize_for_constraint(f, constraint)
    return EstimationReport(f, converged=unique and sys.rows >= sys.m - 1)


def require_full_slot(measurements, who: str) -> None:
    """The rule of the estimators that read one slot whole: all groups active."""
    if len(measurements.groups) < measurements.partition.num_groups:
        raise ValueError(f"{who} needs a slot in which every group is active")


def star(partition: AntennaPartition) -> np.ndarray:
    """Argos's tree: group c's parent is group 0 (parent[0] = -1, the root)."""
    return np.minimum(np.arange(partition.num_groups) - 1, 0)


def chain(partition: AntennaPartition) -> np.ndarray:
    """The daisy chain's tree: group c's parent is group c - 1."""
    return np.arange(partition.num_groups) - 1


def require_tree(partition: AntennaPartition, parent: np.ndarray, who: str) -> None:
    """tree_estimate's rule: a single-antenna group 0 (f_0 = 1 fixes the
    scale), and on each edge (p, c), p = parent[c] < c, the pair's
    min(L_p, M_p) min(L_c, M_c) independent equations reach M_c."""
    m = np.asarray(partition.group_sizes)
    if m[0] != 1:
        raise ValueError(f"{who} fixes f_0 = 1, so group 0 needs a single antenna")
    r = np.minimum(partition.pilot_lengths, m)
    short = np.flatnonzero(r[parent[1:]] * r[1:] < m[1:]) + 1
    if short.size:
        p, c = parent[short[0]], short[0]
        raise ValueError(f"{who}: the exchange of groups {p} and {c} gives {r[p] * r[c]} "
                         f"independent equations for the {m[c]} antennas of group {c}")


@lru_cache(maxsize=32)
def tree_edges(partition: AntennaPartition, parent: tuple) -> tuple:
    """A tree's edges (parent[c], c), batched by the runs of equal block
    shape (model.shape_runs, as PilotSet.runs) of parent and child: per
    batch (parents, children, the two runs, and each group's place in its
    run), read-only, once per tree."""
    parent = np.asarray(parent)
    require_tree(partition, parent, "tree_estimate")
    run, place = np.empty((2, partition.num_groups), dtype=int)
    for k, gs in enumerate(shape_runs(zip(partition.group_sizes, partition.pilot_lengths))):
        run[gs], place[gs] = k, np.arange(len(gs))
    child, edges = np.arange(1, partition.num_groups), []
    for sel in batch_indices((run[parent[child]], run[child])):
        gc = child[sel]
        gp = parent[gc]
        edges.append((gp, gc, int(run[gp[0]]), int(run[gc[0]]), place[gp], place[gc]))
    for a in (x for e in edges for x in e if isinstance(x, np.ndarray)):
        a.flags.writeable = False
    return tuple(edges)


def _edge_transfers(b_p: np.ndarray, b_c: np.ndarray):
    """T = -B_c^+ B_p for a stack of tree edges, and whether each B_c passes
    tree_estimate's rank test.  Modified Gram-Schmidt on the columns of
    [B_c B_p; I 0], with inner products over B's rows, turns it into
    [Q, B_p - Q R_12; R^-1, T] (Q's columns left unnormalised, which changes
    neither T nor the test): B_p rides along, as in Bjorck's backward stable
    least squares (BIT 1967), and the identity collects R^-1.  Each step is
    one numpy operation over the stack, where a LAPACK QR costs a call per
    edge; a zero column is left zero, so its R_kk = 0 fails the test."""
    (e, r, n), n_p = b_c.shape, b_p.shape[2]
    a = np.zeros((e, r + n, n + n_p), dtype=complex)
    a[:, :r, :n], a[:, :r, n:], a[:, r:] = b_c, b_p, np.eye(n, n + n_p)
    d2 = np.empty((e, n))                     # R_kk^2
    for k in range(n):
        g = np.einsum("pr,prc->pc", a[:, :r, k].conj(), a[:, :r, k:])
        d2[:, k] = g[:, 0].real
        a[:, :, k + 1:] -= a[:, :, k, None] * (g[:, None, 1:] / np.where(
            d2[:, k] > 0, d2[:, k], 1.0)[:, None, None])
    return a[:, r:, n:], d2.min(axis=1) > (max(r, n) * np.finfo(float).eps) ** 2 * d2.max(axis=1)


def tree_estimate(measurements, pilots, parent: np.ndarray,
                  constraint: ConstraintSpec | None = None) -> EstimationReport:
    """The pair equations of a spanning tree of groups, solved by substitution,
    from f_0 = 1 and then rescaled to the constraint.

    Edge (p, c) is the pair equation B_p f_p + B_c f_c = 0 (pair_equation_block),
    so f_c = T_c f_p, T_c = -B_c^+ B_p, from f_0 = 1.  No other edge constrains
    f_c, so where every edge has M_c rows this is the tree's joint LS.  An edge
    with some |R_kk| <= max(r, M_c) eps max|R_kk| raises LinAlgError: as
    sigma_min <= min|R_kk| and max|R_kk| <= sigma_max, lstsq's rank rule
    rejects it too, and for M_c = 1 the rules are the same.  The T_c, zero-padded
    to K x K (K = max M_g), are composed by pointer jumping: each round sets
    T_c <- T_c T_a(c) and a(c) <- a(a(c)), so a path of G groups takes log2 G
    batched products (G K^3 work and G K^2 memory per round).
    """
    partition = measurements.partition
    parent = np.asarray(parent)
    require_full_slot(measurements, "the tree solve")
    sizes = np.asarray(partition.group_sizes)
    t = np.zeros((sizes.size, sizes.max(), sizes.max()), dtype=complex)
    t[0, 0, 0] = 1.0                        # f_0 = 1; group 0 is its own parent
    y = measurements.received
    for gp, gc, run_p, run_c, at_p, at_c in tree_edges(partition, tuple(parent.tolist())):
        p_p, rows_p, cols_p = pilots.runs[run_p][:3]
        p_c, rows_c, cols_c = pilots.runs[run_c][:3]
        t_c, full = _edge_transfers(*pair_equation_block(
            y[rows_p[at_p, :, None], cols_c[at_c, None, :]],        # Y_{c->p}
            y[rows_c[at_c, :, None], cols_p[at_p, None, :]], p_p[at_p], p_c[at_c]))
        if not full.all():
            e = np.argmin(full)
            raise np.linalg.LinAlgError(f"tree edge {gp[e]}-{gc[e]}: the pair "
                                        f"equations have rank < M_{gc[e]}")
        t[gc, :t_c.shape[1], :t_c.shape[2]] = t_c
    a = np.maximum(parent, 0)
    while a.any():
        t, a = t @ t[a], a[a]
    f = t[:, :, 0][np.arange(t.shape[1]) < sizes[:, None]]
    return EstimationReport(normalize_for_constraint(f, constraint))


def argos_estimate(measurements, pilots, partition: AntennaPartition,
                   constraint: ConstraintSpec | None = None) -> EstimationReport:
    """Argos (Shepard et al., MobiCom 2012): the tree solve on the star, each
    group from its exchange with the single-antenna reference group 0."""
    return tree_estimate(measurements, pilots, star(partition), constraint)


def require_single_antenna_groups(partition: AntennaPartition, who: str) -> None:
    """Rogalin's rule: one antenna per group."""
    if any(s != 1 for s in partition.group_sizes):
        raise ValueError(f"{who} needs single-antenna groups")


def rogalin_gram(measurements, pilots, partition: AntennaPartition) -> StackedSystem:
    """The stacked system of the all-singleton partition; with unit pilots its
    Gram matrix A = Y(P)^H Y(P) has

    A[i,i] = sum_{k != i} |y_{k->i}|^2,  A[i,j] = -conj(y_{j->i}) y_{i->j}.
    """
    require_single_antenna_groups(partition, "rogalin")
    return build_stacked(measurements, pilots)


def rogalin_estimate(measurements, pilots, partition: AntennaPartition,
                     constraint: ConstraintSpec) -> EstimationReport:
    """Joint estimation from round-robin single-antenna broadcasts: the joint
    LS of ls_estimate on single-antenna groups."""
    return ls_estimate(rogalin_gram(measurements, pilots, partition), constraint)


def daisy_chain_estimate(measurements, pilots, partition: AntennaPartition,
                         constraint: ConstraintSpec | None = None) -> EstimationReport:
    """The daisy chain: the tree solve on the path, each group from its
    exchange with the group before it."""
    return tree_estimate(measurements, pilots, chain(partition), constraint)


def require_avalanche_partition(partition: AntennaPartition, who: str) -> None:
    """avalanche_estimate's rule: L_i = 1, M_0 = 1 and M_g <= g for g >= 1."""
    if any(l != 1 for l in partition.pilot_lengths):
        raise ValueError(f"{who} uses single-channel-use pilots (L_i = 1)")
    if partition.group_sizes[0] != 1:
        raise ValueError(f"{who} seeds the recursion with a single-antenna group")
    for g, sz in enumerate(partition.group_sizes[1:], 1):
        if sz > g:
            raise ValueError(f"{who}: group {g} has {sz} antennas > {g} calibrated equations")


def avalanche_estimate(measurements, pilots, partition: AntennaPartition,
                       constraint: ConstraintSpec | None = None) -> EstimationReport:
    """Online recursion: each group is solved from already-calibrated groups,
    and f is then rescaled to the constraint.

    Requires L_i = 1 pilots, a single-antenna first group seeding f_1 = 1, and
    M_i <= i-1 so each group's LS subproblem is (at least) exactly determined.
    With L = 1, column j of the received matrix Y is group j's pilot: group
    g's rows are Y[rows_g, :g]^T diag(p_g), and its right side the sums of
    p_a f_a Y[a, g] over each earlier group's antennas a.
    """
    require_avalanche_partition(partition, "avalanche")
    require_full_slot(measurements, "avalanche")
    y, p = measurements.received, np.concatenate([b[:, 0] for b in pilots.blocks])
    f = np.ones(partition.num_antennas, dtype=complex)      # f_0 = 1
    for g in range(1, partition.num_groups):
        rows = partition.antennas_of(g)
        rhs = np.add.reduceat((p * f * y[:, g])[:rows.start], partition.offsets[:g])
        f[rows], _, rank, _ = np.linalg.lstsq(y[rows, :g].T * p[rows], rhs, rcond=None)
        if rank < partition.group_sizes[g]:
            raise np.linalg.LinAlgError(f"avalanche: rank-deficient system at group {g}")
    return EstimationReport(normalize_for_constraint(f, constraint))


def require_aml_settings(tol: float, max_iter: int) -> None:
    """aml_estimate's rule: a positive tolerance and at least one iteration."""
    if not tol > 0:
        raise ValueError("AML tolerance must be positive")
    if max_iter < 1:
        raise ValueError("AML needs max_iter >= 1")


def aml_estimate(measurements, pilots, partition: AntennaPartition,
                 init: np.ndarray | None = None, tol: float = 1e-6,
                 max_iter: int = 100,
                 constraint: ConstraintSpec | None = None) -> EstimationReport:
    """Alternating maximum likelihood on the bilinear model y = H(h) f = F(f) h.

    Each half-step is an exact minimum-norm least squares, so the cost
    ||y - H f||^2 is non-increasing and a singular F^H F is tolerated;
    non-convergence is reported, not raised.  Both work on the received
    matrix Y = K F P (off its self blocks): K = R C R^T is symmetric by
    reciprocity, F = diag(f) and P = blkdiag(P_g).  The h-step solves every
    pair's block of K at once: with A_g = P_g^T F_g = U_g S_g V_g^H
    (crb.shape_factors) and Z = X + X^T, X = W conj(F) (W = Y P^H from
    build_stacked), the normal equations K A^T conj(A) + A^H A K = Z
    decouple in the V_g bases, so K~ = V^H Z conj(V) o W_ab with the weights
    W_ab = 1 / (s_a^2 + s_b^2) of crb.pair_weights (0 where the pair's lstsq
    rank rule drops s_a^2 + s_b^2), and K = V K~ V^T.  With single antennas
    only it is one division, K = Z / (s_a^2 + s_b^2), s_a^2 = ||p_a||^2
    |f_a|^2: the rule drops only the diagonal and s_a^2 + s_b^2 = 0, where Z
    is 0.  The f-step solves g's rows P_g^T diag(K[a, rows_g]) against Y[a,
    cols_g] (a outside g) by crb.column_projection, or per run of M_g > 1 by
    crb.lstsq_min_norm.  The cost ||Y - K F P||_F^2 follows the last iteration.
    """
    require_aml_settings(tol, max_iter)
    require_full_slot(measurements, "AML")
    m, y = partition.num_antennas, measurements.received
    f = np.ones(m, dtype=complex) if init is None else np.array(init, dtype=complex)
    if not np.any(f):
        raise ValueError("init must be nonzero")
    yp = build_stacked(measurements, pilots).slots[0][2]      # W = Y P^H
    rule, _, first = _crb.rank_rule(partition)
    p2, runs = np.ones(m), []                   # ||p_g||^2 on single antennas
    for key, (p, rows, cols, r, _) in enumerate(pilots.runs):
        mg = p.shape[1]
        if mg == 1:
            p2[r] = np.sum(np.abs(p[:, 0]) ** 2, axis=1)
            continue
        out = np.arange(m - mg) + mg * (np.arange(m - mg) >= rows[:, :1])   # a outside g
        runs.append((key, rows, out[:, :, None] * m + rows[:, None, :],
                     p.transpose(0, 2, 1)[:, None],
                     y[out[:, :, None], cols[:, None, :]].reshape(len(p), -1)))

    def rotate(z, bases, which):                # blkdiag(V_g^H or V_g) z, in place
        for key, rows, *_ in runs:
            z[rows] = bases[key][which] @ z[rows]
        return z

    for it in range(1, max_iter + 1):          # max_iter >= 1: k and converged are set
        k = yp * f.conj()
        k = k + k.T                             # Z, symmetric: Z^T is Z
        if runs:                                # V (V^H Z conj(V) o W) V^T, in C order
            s2, bases = _crb.shape_factors(f, pilots)
            k = rotate(rotate(k.T, bases, 0).T, bases, 0)
            k *= _crb.pair_weights(s2, rule, first)
            k = rotate(rotate(k, bases, 1).T, bases, 1).T
        else:                                   # Z / (s_a^2 + s_b^2), 0 where both are 0
            s2 = p2 * np.abs(f) ** 2
            den = s2[:, None] + s2
            np.divide(k, den, out=k, where=den > 0)
        # every column's projection; the lstsq overwrites multi-antenna groups
        f_new = _crb.column_projection(k, yp, p2)
        for _, rows, k_at, pt, rhs in runs:
            a = (k.ravel()[k_at][:, :, None] * pt).reshape(rhs.shape + (-1,))
            f_new[rows] = _crb.lstsq_min_norm(a, rhs)
        d = f_new - f
        converged = math.sqrt(np.vdot(d, d).real / np.vdot(f, f).real) < tol
        f = f_new
        if converged:
            break
    r, kf = y.copy(), k * f                     # Y - K F P, zero on the self blocks
    for p, rows, cols, *_ in pilots.runs:
        r[:, cols] -= np.einsum("anm,nml->anl", kf[:, rows], p)
    return EstimationReport(normalize_for_constraint(f, constraint), it, converged,
                            float(np.vdot(r, r).real))


def mse(f_hat: np.ndarray, f_true: np.ndarray) -> float:
    """Squared Euclidean error ||f_hat - f_true||^2 (one trial's contribution)."""
    if f_hat.shape != f_true.shape:
        raise ValueError("estimate and reference must have the same length")
    return float(np.linalg.norm(f_hat - f_true) ** 2)
