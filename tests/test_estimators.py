from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dense_oracle import (argos_ratios, calibration_vector, constrained_lstsq, daisy_ratios,
                          dense_y)
from arraycal.airlink import (MeasurementSet, NoncoherentSchedule, default_pilots,
                              require_pilot_kind, simulate_exchange, simulate_noncoherent)
from arraycal.estimators import (
    CHOLESKY_MARGIN,
    ConstraintSpec,
    _lower_inverse,
    aml_estimate,
    argos_estimate,
    avalanche_estimate,
    chain,
    daisy_chain_estimate,
    ls_estimate,
    mse,
    normalize_for_constraint,
    require_tree,
    rogalin_estimate,
    rogalin_gram,
    star,
    tree_estimate,
)
from arraycal.model import (
    AntennaPartition,
    IID_RAYLEIGH,
    RfImpairments,
    gen_channel,
    gen_impairments,
)
from arraycal import estimators
from arraycal.bench import CONSTRAINTS, ESTIMATORS, ExperimentConfig, Trial, run_experiment
from arraycal.grouping import make_scheme
from arraycal.stacking import StackedSystem, build_stacked, check_identifiability

DELTA = 0.5        # amplitude spread of the drawn impairments


def _instance(part, rng, snr=np.inf, kind="ALL_ONES", imp=None):
    pilots = default_pilots(part, kind, rng)
    if imp is None:
        imp = gen_impairments(DELTA, part.num_antennas, rng)
    chan = gen_channel(part.num_antennas, IID_RAYLEIGH, rng)
    ms = simulate_exchange(part, pilots, imp, chan, snr, rng)
    return pilots, imp, chan, ms


def test_ls_identity_impairments():
    rng = np.random.default_rng(0)
    part = AntennaPartition.singleton(6)
    imp = RfImpairments(np.ones(6), np.ones(6))
    pilots, imp, chan, ms = _instance(part, rng, imp=imp)
    ss = build_stacked(ms)
    f = ls_estimate(ss, ConstraintSpec.fcc()).f
    assert np.max(np.abs(f - 1.0)) < 1e-10


def test_ls_matches_pairwise_ratio_oracle():
    rng = np.random.default_rng(1)
    part = AntennaPartition.singleton(4)
    pilots, imp, chan, ms = _instance(part, rng)
    ss = build_stacked(ms)
    f = ls_estimate(ss, ConstraintSpec.fcc()).f
    oracle = np.array([1.0 + 0.0j] + [
        ms.block(i, 0).item() / ms.block(0, i).item() for i in range(1, 4)])
    assert np.max(np.abs(f - oracle)) < 1e-10
    assert np.max(np.abs(f - calibration_vector(imp))) < 1e-10


def test_ls_reports_unidentifiable():
    rng = np.random.default_rng(4)
    part = AntennaPartition((3, 3), (1, 1))   # 1 row for 5 unknown directions
    pilots, imp, chan, ms = _instance(part, rng)
    ss = build_stacked(ms)
    rep = ls_estimate(ss, ConstraintSpec.fcc())
    assert not rep.converged


@pytest.mark.parametrize("sizes, lens, snr, kind", [
    ((1, 2), (2, 1), np.inf, "UNIT_PHASE_RANDOM"),       # MSE 8.56 at seed 0
    ((1, 1, 1, 1, 5), (1, 1, 1, 1, 1), 30.0, "ALL_ONES"),
])
def test_ls_converged_follows_the_solve_rank(sizes, lens, snr, kind):
    # both have rows >= M - 1, which the row-count rule took as converged;
    # the last group gets fewer independent equations than antennas, so B = V^H A V
    # is singular with or without noise
    part = AntennaPartition(sizes, lens)
    pilots, imp, chan, ms = _instance(part, np.random.default_rng(0), snr=snr, kind=kind)
    ss = build_stacked(ms)
    assert ss.rows >= part.num_antennas - 1
    assert not ls_estimate(ss, ConstraintSpec.fcc()).converged
    if np.isinf(snr):       # A's null space is two-dimensional
        assert not ls_estimate(ss, ConstraintSpec.npc(calibration_vector(imp))).converged


@st.composite
def _constrained_cases(draw):
    g = draw(st.integers(2, 5))
    sizes = tuple(draw(st.integers(1, 3)) for _ in range(g))
    lens = tuple(draw(st.integers(1, 3)) for _ in range(g))
    snr = draw(st.sampled_from([0.0, 20.0, 60.0, np.inf]))
    return AntennaPartition(sizes, lens), snr, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=120, deadline=None)
@given(_constrained_cases())
@example((AntennaPartition((3, 3), (1, 1)), np.inf, 0))        # singular B
@example((AntennaPartition((1, 2), (2, 1)), 20.0, 1))
@example((AntennaPartition((1, 1, 1, 1, 5), (1,) * 5), 30.0, 2))
@example((AntennaPartition((1, 2), (1, 1)), 0.0, 160275))   # one row, B's zero rounds up
# two rows, kept eigenvalues 1.4e-7 and 20: eigh's null vector is tilted by 3e-8
@example((AntennaPartition((3, 1), (1, 2)), 60.0, 499))
def test_linear_constrained_ls_equals_dense_lstsq(case):
    # the eigendecomposition of B = A[1:, 1:] against lstsq on the dense Y(P) V
    # with V = null_space(e_0^H): the same minimum-norm f, the same rank.
    # Over 9,000 random cases f agreed to 2.1e-12 at full rank and 1.1e-12
    # at rank-deficient ones; the tolerance is 1e-8 of |f|
    part, snr, seed = case
    rng = np.random.default_rng(seed)
    pilots, imp, chan, ms = _instance(part, rng, snr=snr, kind="UNIT_PHASE_RANDOM")
    m = part.num_antennas
    g, c = np.eye(m, dtype=complex)[0], 1.0 + 0.0j
    rep = ls_estimate(build_stacked(ms), ConstraintSpec.fcc())
    f_ref, rank = constrained_lstsq(dense_y(ms, pilots, part), g, c)
    f = rep.f
    assert rep.converged == (rank == m - 1)
    assert np.linalg.norm(f - f_ref) <= 1e-8 * np.linalg.norm(f_ref)
    assert abs(np.vdot(f, g) - c) <= 1e-12 * np.linalg.norm(f) * np.linalg.norm(g)


def _spy(monkeypatch, name, record):
    """Replace np.linalg.<name> by a wrapper that appends its argument to record."""
    real = getattr(np.linalg, name)

    def spied(a, *args, **kwargs):
        record.append(a)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, spied)


@pytest.mark.parametrize("part, snr", [(make_scheme("SINGLETON", 16).partition, 40.0),
                                       (AntennaPartition((3, 3), (1, 1)), np.inf),   # singular B
                                       (AntennaPartition((1, 3), (3, 1)), 80.0)])
def test_fcc_refinement_stops_once_f_settles(monkeypatch, part, snr):
    # after a certified Cholesky factor, the first step reads A e_0 from the
    # Gram matrix and the second, a residual product A x, always runs; the
    # third runs only if rho times the second's move exceeds 4 eps ||f||, as
    # rho bounds the next move relative to the last.  After eigh, f and each
    # dropped eigenvector take 3 steps.  Either way f is the dense lstsq
    # solution, as in test_linear_constrained_ls_equals_dense_lstsq
    products, eighs, real = [], [], StackedSystem.apply_gram
    monkeypatch.setattr(StackedSystem, "apply_gram",
                        lambda self, x: products.append(x) or real(self, x))
    _spy(monkeypatch, "eigh", eighs)
    certificates, certify = [], estimators._certified_inverse_factor
    monkeypatch.setattr(estimators, "_certified_inverse_factor",
                        lambda b: certificates.append(certify(b)) or certificates[-1])
    m = part.num_antennas
    pilots, imp, chan, ms = _instance(part, np.random.default_rng(0), snr=snr,
                                      kind="UNIT_PHASE_RANDOM")
    rep = ls_estimate(build_stacked(ms), ConstraintSpec.fcc())
    f_ref, rank = constrained_lstsq(dense_y(ms, pilots, part), np.eye(m)[0], 1.0 + 0.0j)
    assert np.linalg.norm(rep.f - f_ref) <= 1e-8 * np.linalg.norm(f_ref)
    if np.isfinite(snr):
        # rho = (M - 1) eps / c, c the certificate: about 1.7e-12 at singleton
        # 16, where the first residual product settles f, and about 5.5e-6 at
        # sizes 1, 3 with lengths 3, 1 (structurally deficient, so B's
        # conditioning follows the SNR), where the second still runs
        rho = (m - 1) * np.finfo(float).eps / certificates[0][1]
        well = rho < 1e-10
        assert rank == m - 1 and not eighs and len(products) == (1 if well else 2)
        assert well or 1e-6 < rho < 1e-4
    else:
        assert certificates == [None]
        assert rank < m - 1 and len(eighs) == 1 and len(products) == 3 * (m - rank)


def test_one_factorisation_per_system_and_constraint(monkeypatch):
    # a factorisation is a Cholesky factor, an eigendecomposition or
    # eigenvalues alone (NPC's, whose vector comes from inverse iteration)
    factored = []
    for name in ("cholesky", "eigh", "eigvalsh"):
        _spy(monkeypatch, name, factored)

    def calls():
        return [a.shape for a in factored]

    rng = np.random.default_rng(20)
    part = AntennaPartition.singleton(6)
    pilots, imp, chan, ms = _instance(part, rng, snr=20.0)
    ss = build_stacked(ms)
    f_ls = ls_estimate(ss, ConstraintSpec.fcc()).f
    f_rog = rogalin_estimate(ms, ConstraintSpec.fcc()).f
    assert np.array_equal(f_ls, f_rog) and f_ls is not f_rog
    assert calls() == [(5, 5)]
    # NPC takes A's eigenvalues once, for its smallest eigenvector, whatever
    # the true f
    f_true = calibration_vector(imp)
    f_npc = [ls_estimate(ss, ConstraintSpec.npc(f_true)).f for _ in range(2)]
    assert np.array_equal(*f_npc) and calls() == [(5, 5), (6, 6)]
    ls_estimate(ss, ConstraintSpec.npc(2.0 * f_true))
    assert calls() == [(5, 5), (6, 6)]
    # a run solves once per trial for LS, Rogalin and AML's LS start
    factored.clear()
    run_experiment(ExperimentConfig(m=5, pilots="ALL_ONES", snr_db=(20.0,), trials=3,
                                    estimators=("ls", "rogalin", "aml"), constraint="FCC",
                                    crb=False))
    assert calls() == [(4, 4)] * 3


def _singular(*args, **kwargs):
    raise np.linalg.LinAlgError("Singular matrix")


@pytest.mark.parametrize("scheme, m, g, snr", [("FC_II", 64, 12, 20.0), ("SINGLETON", 16, None, 10.0),
                                                ("FC_I", 29, 8, 40.0)])
def test_npc_eigenvector_by_inverse_iteration(monkeypatch, scheme, m, g, snr):
    # NPC's vector from two inverse-iteration solves is an eigenvector of A
    # to within n eps ||A|| (over 100 draws per case it stayed within 0.2 n
    # eps ||A||), along eigh's; where a solve finds the shifted A singular,
    # it is eigh's vector
    part = make_scheme(scheme, m, g).partition
    for seed in range(3):
        pilots, imp, chan, ms = _instance(part, np.random.default_rng(seed), snr=snr,
                                          kind="UNIT_PHASE_RANDOM")
        ss = build_stacked(ms)
        a, spec = ss.gram, ConstraintSpec.npc(calibration_vector(imp))
        f = ls_estimate(ss, spec).f
        x, lam, (w, v) = f / np.linalg.norm(f), np.linalg.eigvalsh(a)[0], np.linalg.eigh(a)
        assert np.linalg.norm(a @ x - lam * x) <= m * np.finfo(float).eps * np.linalg.norm(a, 2)
        assert abs(abs(np.vdot(v[:, 0], x)) - 1) <= 1e-9
        with monkeypatch.context() as mp:
            mp.setattr(np.linalg, "solve", _singular)
            ss.solutions.clear()
            rep = ls_estimate(ss, spec)
        assert np.array_equal(rep.f, normalize_for_constraint(v[:, 0], spec))
        assert rep.converged


@pytest.mark.parametrize("part, kind", [
    (AntennaPartition.singleton(16), "ALL_ONES"),
    (make_scheme("FC_II", 24, 8).partition, "UNIT_PHASE_RANDOM"),
    (AntennaPartition((1, 2, 1, 1, 1), (2, 1, 3, 1, 2)), "UNIT_PHASE_RANDOM"),
])
def test_fcc_complement_gram_is_the_full_householder_route(monkeypatch, part, kind):
    # FCC's reflector u = 2 e_0 leaves A^H's rows and columns 1.. as they are,
    # so B = (H A^H H)[1:, 1:], updated on row and column 0 alone, is bit for
    # bit the two full M x M reflections of the dense route
    factored = []
    _spy(monkeypatch, "cholesky", factored)
    pilots, imp, chan, ms = _instance(part, np.random.default_rng(5), snr=30.0, kind=kind)
    ss = build_stacked(ms)
    ls_estimate(ss, ConstraintSpec.fcc())
    u = np.zeros(part.num_antennas, dtype=complex)
    u[0] = 2.0

    def reflect(x):
        return x - np.multiply.outer(u, u.conj() @ x / 2.0)

    assert len(factored) == 1
    assert np.array_equal(factored[0], reflect(reflect(ss.gram).conj().T)[1:, 1:])


def test_lower_inverse_matches_inv():
    # the blocked inverse of a lower-triangular factor with a positive
    # diagonal, as Cholesky gives, at every size from one leaf block to
    # several levels of blocks, odd splits included
    rng = np.random.default_rng(21)
    for n in range(1, 301):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        factor = np.tril(a, -1) + np.diag(np.sqrt(n) + rng.uniform(0.0, 1.0, n))
        ref = np.linalg.inv(factor)
        li = _lower_inverse(factor)
        assert np.all(np.triu(li, 1) == 0)
        assert np.max(np.abs(li - ref)) <= 1e-13 * np.max(np.abs(ref))


def _ill_conditioned_partition(g):
    # FC_I's exactly determined shape, sizes 1, 1, 2, ..., g-1 with L_i = 1:
    # acceptance 7 (g = 12) draws B with condition numbers up to ~1e13
    return AntennaPartition((1,) + tuple(range(1, g)), (1,) * g)


@st.composite
def _solve_cases(draw):
    if draw(st.booleans()):
        part, kind = _ill_conditioned_partition(draw(st.integers(4, 9))), "ALL_ONES"
    else:
        g = draw(st.integers(2, 5))
        part = AntennaPartition(tuple(draw(st.integers(1, 3)) for _ in range(g)),
                                tuple(draw(st.integers(1, 3)) for _ in range(g)))
        kind = "UNIT_PHASE_RANDOM"
    snr = draw(st.sampled_from([0.0, 20.0, 30.0, 60.0, np.inf]))
    return part, kind, snr, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(_solve_cases())
@example((AntennaPartition((3, 3), (1, 1)), "UNIT_PHASE_RANDOM", np.inf, 0))   # singular B
@example((AntennaPartition((1, 1, 1, 1, 5), (1,) * 5), "ALL_ONES", 30.0, 2))
@example((_ill_conditioned_partition(12), "ALL_ONES", 30.0, 7))
@example((AntennaPartition((3, 1), (1, 3)), "UNIT_PHASE_RANDOM", 60.0, 89))  # deficient
def test_certified_cholesky_solve_matches_eigh_solve(case):
    # the Cholesky path runs exactly when its certificate c = 1 / (tr(B)
    # ||L^-1||_F^2) exceeds CHOLESKY_MARGIN n eps, and then gives the f and
    # the converged flag of the eigendecomposition path it replaces
    part, kind, snr, seed = case
    rng = np.random.default_rng(seed)
    pilots, imp, chan, ms = _instance(part, rng, snr=snr, kind=kind)
    m = part.num_antennas
    spec = ConstraintSpec.fcc()
    ss = build_stacked(ms)
    factored, decomposed = [], []
    with pytest.MonkeyPatch.context() as mp:
        _spy(mp, "cholesky", factored)
        _spy(mp, "eigh", decomposed)
        rep = ls_estimate(ss, spec)
    (b,) = factored
    try:
        li = np.linalg.inv(np.linalg.cholesky(b))
        cert = 1.0 / (np.real(np.trace(b)) * np.sum(np.abs(li) ** 2))
    except np.linalg.LinAlgError:
        cert = 0.0
    fallback = cert <= CHOLESKY_MARGIN * (m - 1) * np.finfo(float).eps
    assert len(decomposed) == fallback

    def refuse(a, *args, **kwargs):
        raise np.linalg.LinAlgError("forced fallback")

    ss.solutions.clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "cholesky", refuse)
        ref = ls_estimate(ss, spec)
    assert rep.converged == ref.converged
    if fallback:
        assert np.array_equal(rep.f, ref.f)
        return
    assert rep.converged
    # Identifiable partitions agree to 1e-12 (at most 1.3e-13 over 5,335
    # random certified draws).  A structurally deficient one at finite SNR
    # has B's small eigenvalues set by noise alone, and f is determined only
    # to about eps cond(B)^(1/2), the forward error of a backward-stable LS
    # solve on Y(P) V: there one more refinement step moves either path's f
    # by as much.  Over 8,100 such draws the paths differed by at most 0.81
    # of that; the bound is twice it
    w = np.linalg.eigvalsh(b)
    tol = 1e-12 if check_identifiability(part)["ok"] else \
        max(1e-12, 2 * np.finfo(float).eps * np.sqrt(w[-1] / w[0]))
    f, f_ref = rep.f, ref.f
    assert np.linalg.norm(f - f_ref) <= tol * np.linalg.norm(f_ref)


def test_argos_both_partition_flavors():
    rng = np.random.default_rng(5)
    m = 6
    imp = gen_impairments(DELTA, m, rng)
    f_true = calibration_vector(imp)
    part2 = AntennaPartition((1, m - 1), (1, m - 1))
    pilots2 = default_pilots(part2, "IDENTITY", rng)
    chan = gen_channel(m, IID_RAYLEIGH, rng)
    ms2 = simulate_exchange(part2, pilots2, imp, chan, np.inf, rng)
    f2 = argos_estimate(ms2).f
    parts = AntennaPartition.singleton(m)
    pilotss = default_pilots(parts, "ALL_ONES", rng)
    mss = simulate_exchange(parts, pilotss, imp, chan, np.inf, rng)
    fs = argos_estimate(mss).f
    assert np.max(np.abs(f2 - f_true)) < 1e-10
    assert np.max(np.abs(fs - f_true)) < 1e-10
    # ratio structure, explicitly
    assert abs(fs[3] - mss.block(3, 0).item() / mss.block(0, 3).item()) < 1e-14


def test_argos_rejects_general_partition():
    rng = np.random.default_rng(6)
    part = AntennaPartition((2, 2), (2, 2))
    pilots, imp, chan, ms = _instance(part, rng, kind="IDENTITY")
    with pytest.raises(ValueError, match="group 0 needs a single antenna"):
        argos_estimate(ms)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12), st.sampled_from([np.inf, 0.0, 20.0]), st.integers(0, 2**32 - 1))
def test_tree_equals_ratio_oracles(m, snr, seed):
    # with unit pilots the tree solve is the ratio formulas: the star's on
    # single antennas and on the {reference} + rest partition, the path's on
    # single antennas (on {reference} + rest the path is the star)
    rng = np.random.default_rng(seed)
    single = AntennaPartition.singleton(m)
    pilots, imp, chan, ms = _instance(single, rng, snr=snr)
    argos = AntennaPartition((1, m - 1), (1, m - 1))
    pilots_a, _, _, ms_a = _instance(argos, rng, snr=snr, kind="IDENTITY")
    for f, oracle in ((argos_estimate(ms), argos_ratios(ms, single)),
                      (daisy_chain_estimate(ms), daisy_ratios(ms)),
                      (argos_estimate(ms_a), argos_ratios(ms_a, argos)),
                      (daisy_chain_estimate(ms_a), argos_ratios(ms_a, argos))):
        assert f.f[0] == 1
        assert np.max(np.abs(f.f - oracle) / np.abs(oracle)) <= 1e-12


@st.composite
def _trees(draw):
    """A random tree of 2-5 groups (parent[c] < c) with M_0 = 1 and a
    partition on it with L_0 = 1, L_c in 1..2 and M_c = L_p L_c, so every
    edge has exactly M_c rows."""
    g = draw(st.integers(2, 5))
    parent = np.array([-1] + [draw(st.integers(0, c - 1)) for c in range(1, g)])
    lens = [1] + [draw(st.integers(1, 2)) for _ in range(1, g)]
    sizes = [1] + [lens[parent[c]] * lens[c] for c in range(1, g)]
    return AntennaPartition(tuple(sizes), tuple(lens)), parent, draw(st.integers(0, 2**32 - 1))


@st.composite
def _admitted_trees(draw):
    """A pilot kind, a random tree of 2-5 groups and a partition on it that
    the kind and require_tree admit: L_g from the kind (1 for ALL_ONES, M_g
    for IDENTITY, else 1..3), M_0 = 1, and each child's M_c in 1..3 at most
    L_c r_p, r_p = min(L_p, M_p), which is require_tree's edge rule
    min(L_c, M_c) r_p >= M_c."""
    kind = draw(st.sampled_from(["UNIT_PHASE_RANDOM", "ALL_ONES", "IDENTITY"]))
    g = draw(st.integers(2, 5))
    parent = np.array([-1] + [draw(st.integers(0, c - 1)) for c in range(1, g)])
    sizes, lens = [1], [1 if kind != "UNIT_PHASE_RANDOM" else draw(st.integers(1, 3))]
    for c in range(1, g):
        if kind == "IDENTITY":
            lens.append(draw(st.integers(1, 3)))
            sizes.append(lens[-1])
        else:
            lens.append(1 if kind == "ALL_ONES" else draw(st.integers(1, 3)))
            r_p = min(lens[parent[c]], sizes[parent[c]])
            sizes.append(draw(st.integers(1, min(3, lens[-1] * r_p))))
    part = AntennaPartition(tuple(sizes), tuple(lens))
    return part, parent, kind, draw(st.integers(0, 2**32 - 1))


def _tree_pairs(parent):
    return [(int(parent[c]), c) for c in range(1, len(parent))]


@settings(max_examples=150, deadline=None)
@given(_trees(), st.sampled_from([10.0, 30.0]))
def test_tree_equals_ls_on_the_tree_pairs(case, snr):
    # each edge gives its child exactly M_c equations, so the substitution is
    # the joint LS of the tree's pair equations, with random pilots and noise.
    # Either side is within about cond eps of the exact solution of the square
    # system (the tree solve at most 1.3 cond eps over 3,000 draws), so the
    # bound is 1e-12 up to cond = 1,100 and 4 cond eps beyond
    part, parent, seed = case
    rng = np.random.default_rng(seed)
    pilots, imp, chan, ms = _instance(part, rng, snr=snr, kind="UNIT_PHASE_RANDOM")
    y = dense_y(ms, pilots, part, _tree_pairs(parent))
    # the received matrix with the blocks off the tree zeroed stacks the
    # tree's pair equations and zero rows
    tree_only = ms.received.copy()
    for i in range(part.num_groups):
        for j in range(part.num_groups):
            if i != j and parent[i] != j and parent[j] != i:
                tree_only[part.antennas_of(j), part.pilot_columns(i)] = 0.0
    tree_system = build_stacked(MeasurementSet(tree_only, part, pilots, ms.noise_variance,
                                               ms.plan))
    f_ls = ls_estimate(tree_system, ConstraintSpec.fcc()).f
    f = tree_estimate(ms, parent).f
    tol = max(1e-12, 4 * np.finfo(float).eps * np.linalg.cond(y[:, 1:]))
    assert np.linalg.norm(f - f_ls) <= tol * np.linalg.norm(f_ls)


@settings(max_examples=300, deadline=None)
@given(_admitted_trees())
# the star's edges span three runs of equal shape
@example((AntennaPartition((1, 1, 2, 1, 1), (1, 1, 2, 1, 1)), np.array([-1, 0, 0, 0, 0]),
          "IDENTITY", 0))
def test_tree_recovers_f_where_the_rule_admits(case):
    # no partition that require_tree admits has been found whose noiseless
    # edges the solve rejects
    part, parent, kind, seed = case
    require_tree(part, parent, "tree")
    require_pilot_kind(part, kind)
    rng = np.random.default_rng(seed)
    pilots, imp, chan, ms = _instance(part, rng, kind=kind)
    f_true = calibration_vector(imp)
    f = tree_estimate(ms, parent).f
    assert np.linalg.norm(f - f_true) <= 1e-10 * np.linalg.norm(f_true)


@pytest.mark.parametrize("estimate", [argos_estimate, daisy_chain_estimate])
def test_tree_rejects_a_zeroed_edge(estimate):
    # a zero sample on a link of the tree leaves the child's equations rank 0;
    # a link off the tree changes nothing
    rng = np.random.default_rng(16)
    part = AntennaPartition.singleton(5)
    pilots, imp, chan, ms = _instance(part, rng, snr=30.0)
    f = estimate(ms).f
    parent = star(part) if estimate is argos_estimate else chain(part)
    for tx, rx in ((0, 2), (1, 2), (1, 3)):
        received = ms.received.copy()
        received[part.antennas_of(rx), part.pilot_columns(tx)] = 0.0
        zeroed = MeasurementSet(received, part, pilots, ms.noise_variance, ms.plan)
        if parent[rx] == tx:
            with pytest.raises(np.linalg.LinAlgError, match=f"tree edge {tx}-{rx}"):
                estimate(zeroed)
        else:
            assert np.array_equal(estimate(zeroed).f, f)


def test_rogalin_gram_entries():
    rng = np.random.default_rng(7)
    part = AntennaPartition.singleton(4)
    pilots, imp, chan, ms = _instance(part, rng, snr=10.0)
    a = rogalin_gram(ms).gram
    d0 = sum(abs(ms.block(k, 0).item()) ** 2 for k in range(1, 4))
    assert abs(a[0, 0] - d0) < 1e-12
    expect = -np.conj(ms.block(2, 1).item()) * ms.block(1, 2).item()
    assert abs(a[1, 2] - expect) < 1e-12
    # it really is the Gram matrix of the stacked system
    ss = build_stacked(ms)
    assert np.max(np.abs(a - ss.gram)) < 1e-12


def test_rogalin_equals_generic_ls():
    rng = np.random.default_rng(8)
    part = AntennaPartition.singleton(6)
    for kind in ("ALL_ONES", "UNIT_PHASE_RANDOM"):
        pilots, imp, chan, ms = _instance(part, rng, snr=20.0, kind=kind)
        ss = build_stacked(ms)
        for spec in (ConstraintSpec.fcc(), ConstraintSpec.npc(calibration_vector(imp))):
            f_r = rogalin_estimate(ms, spec).f
            f_ls = ls_estimate(ss, spec).f
            assert np.max(np.abs(f_r - f_ls)) < 1e-12


def test_daisy_chain_telescopes():
    rng = np.random.default_rng(9)
    part = AntennaPartition.singleton(5)
    pilots, imp, chan, ms = _instance(part, rng)
    f = daisy_chain_estimate(ms).f
    assert np.max(np.abs(f - calibration_vector(imp))) < 1e-10
    prod = 1.0
    for i in range(1, 5):
        prod *= ms.block(i, i - 1).item() / ms.block(i - 1, i).item()
    assert abs(f[4] - prod) < 1e-12


def test_daisy_chain_noisier_than_rogalin():
    rng = np.random.default_rng(10)
    part = AntennaPartition.singleton(16)
    err_d, err_r = 0.0, 0.0
    for _ in range(200):
        pilots, imp, chan, ms = _instance(part, rng, snr=20.0)
        f_true = calibration_vector(imp)
        err_d += mse(daisy_chain_estimate(ms).f, f_true)
        err_r += mse(rogalin_estimate(ms, ConstraintSpec.fcc()).f,
                     f_true)
    assert err_d >= err_r  # error accumulates along the chain


def test_avalanche_structure_and_recovery():
    rng = np.random.default_rng(11)
    part = AntennaPartition((1, 1, 2, 3), (1, 1, 1, 1))
    assert part.num_antennas == 7
    pilots, imp, chan, ms = _instance(part, rng)
    f = avalanche_estimate(ms).f
    assert np.max(np.abs(f - calibration_vector(imp))) < 1e-10


def test_avalanche_preconditions():
    rng = np.random.default_rng(12)
    part = AntennaPartition((1, 1, 2), (1, 1, 2))       # L_i != 1
    with pytest.raises(ValueError):
        avalanche_estimate(_instance(part, rng, kind="UNIT_PHASE_RANDOM")[3])
    part_big = AntennaPartition((1, 2, 1), (1, 1, 1))   # group 1 too large
    with pytest.raises(ValueError):
        avalanche_estimate(_instance(part_big, rng)[3])
    part_seed = AntennaPartition((2, 2), (1, 1))        # first group not scalar
    with pytest.raises(ValueError):
        avalanche_estimate(_instance(part_seed, rng)[3])


def test_aml_fixed_point_and_monotone_cost():
    rng = np.random.default_rng(13)
    part = AntennaPartition.singleton(6)
    pilots, imp, chan, ms = _instance(part, rng)
    f_true = calibration_vector(imp)
    rep = aml_estimate(ms, init=f_true, max_iter=5)
    assert rep.converged and rep.iterations == 1
    assert rep.final_cost < 1e-20
    # noisy: the alternating cost never increases
    pilots, imp, chan, ms = _instance(part, rng, snr=5.0)
    costs = [aml_estimate(ms, init=None, tol=1e-300, max_iter=k).final_cost
             for k in range(1, 7)]
    assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))


def test_aml_constraint_applied():
    rng = np.random.default_rng(14)
    part = AntennaPartition.singleton(5)
    pilots, imp, chan, ms = _instance(part, rng, snr=25.0)
    rep = aml_estimate(ms, constraint=ConstraintSpec.fcc())
    assert abs(rep.f[0] - 1.0) < 1e-12
    # a slot with an idle group has no rows for it: refused, not zero-filled
    some = simulate_exchange(part, pilots, imp, chan, 25.0, rng, groups=(0, 1, 2, 3))
    with pytest.raises(ValueError, match="every group"):
        aml_estimate(some)


@pytest.mark.parametrize("estimate, scheme", [(argos_estimate, "SINGLETON"),
                                              (aml_estimate, "AVALANCHE"),
                                              (avalanche_estimate, "AVALANCHE")])
def test_whole_slot_estimators_refuse_an_idle_group(estimate, scheme):
    # a slot without group 5 holds zeros where its blocks would be: the tree
    # solve, AML and Avalanche refuse it (Avalanche once raised a bare
    # KeyError), and run on the slot in which every group is active
    part = ExperimentConfig(m=6 if scheme == "SINGLETON" else 16, scheme=scheme,
                            g=6 if scheme == "AVALANCHE" else None, crb=False
                            ).group_scheme.partition
    rng = np.random.default_rng(17)
    pilots, imp, chan, ms = _instance(part, rng, snr=30.0)
    some = simulate_exchange(part, pilots, imp, chan, 30.0, rng, groups=(0, 1, 2, 3, 4))
    with pytest.raises(ValueError, match="needs a slot in which every group is active"):
        estimate(some)
    assert np.all(np.isfinite(estimate(ms).f))


@st.composite
def _estimator_cases(draw):
    """An ESTIMATORS entry, an experiment constraint and a CUSTOM partition
    of 2-5 groups that the entry's rule admits: single antennas for rogalin;
    L_g = 1, M_0 = 1 and M_g <= g for avalanche; M_0 = 1 and M_c <= L_c for
    the tree solves (every edge of the star and the path then has M_c
    rows); M_g and L_g in 1..3 otherwise."""
    name = draw(st.sampled_from(sorted(ESTIMATORS)))
    g = draw(st.integers(2, 5))
    lens = [1 if name == "avalanche" else draw(st.integers(1, 3)) for _ in range(g)]
    top = {"rogalin": [1] * g, "avalanche": range(g), "argos": [1] + lens[1:],
           "daisy": [1] + lens[1:]}.get(name, [3] * g)
    sizes = [draw(st.integers(1, max(t, 1))) for t in top]
    return (name, draw(st.sampled_from(sorted(CONSTRAINTS))), AntennaPartition(sizes, lens),
            draw(st.sampled_from([20.0, 40.0])), draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=200, deadline=None)
@given(_estimator_cases())
def test_every_estimator_returns_f_in_the_trials_constraint(case):
    # the harness's call of each entry, as run_experiment makes it
    name, kind, part, snr, seed = case
    assume(check_identifiability(part)["ok"])
    cfg = ExperimentConfig(m=part.num_antennas, scheme="CUSTOM", group_sizes=part.group_sizes,
                           pilot_lengths=part.pilot_lengths, estimators=(name,),
                           constraint=kind, crb=False)
    pilots, imp, _, ms = _instance(part, np.random.default_rng(seed), snr=snr,
                                   kind="UNIT_PHASE_RANDOM")
    f_true = calibration_vector(imp)
    spec = CONSTRAINTS[kind](f_true)
    f = ESTIMATORS[name].call(Trial(cfg, spec, (ms,))).f
    assert f.shape == f_true.shape
    if kind == "FCC":
        assert f[0] == 1
    else:
        c = np.vdot(f_true, f_true).real
        assert abs(np.vdot(f, f).real - c) <= 1e-12 * c
        inner = np.vdot(f, f_true)
        assert inner.real >= 0 and abs(inner.imag) <= 1e-12 * abs(inner)


def test_normalize_for_constraint():
    rng = np.random.default_rng(15)
    f_true = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    scaled = (0.3 - 1.7j) * f_true
    out = normalize_for_constraint(scaled, ConstraintSpec.fcc())
    assert abs(out[0] - 1.0) < 1e-14
    spec = ConstraintSpec.npc(f_true)
    out = normalize_for_constraint(scaled, spec)
    assert abs(np.linalg.norm(out) ** 2 - np.linalg.norm(f_true) ** 2) < 1e-10
    assert abs(np.imag(out.conj() @ f_true)) < 1e-10
    # phase picked to minimize distance, so the match is exact here
    assert np.max(np.abs(out - f_true)) < 1e-10


def test_constraint_spec_validation():
    with pytest.raises(ValueError):
        ConstraintSpec("WHATEVER")
    for kind in ("LINEAR", "UNIT_NORM"):
        with pytest.raises(ValueError):
            ConstraintSpec(kind)
    with pytest.raises(ValueError):
        ConstraintSpec("NPC")


def test_mse_values():
    f = np.array([1.0 + 0.0j, 1j]) / np.sqrt(2)
    assert mse(f, f) == 0.0
    assert abs(mse(-f, f) - 4.0) < 1e-14
    e = np.zeros(2, dtype=complex)
    e[0] = 1e-3
    assert abs(mse(f + e, f) - 1e-6) < 1e-18
    with pytest.raises(ValueError):
        mse(np.ones(3), np.ones(2))


def test_no_estimator_reads_the_channel():
    # the channel on a record is the simulator's truth, for the bound only:
    # every estimator, and LS on a schedule's stack, gives the same f bit for
    # bit from records that do not carry it
    rng = np.random.default_rng(29)
    part = AntennaPartition.singleton(6)
    pilots, imp, _, ms = _instance(part, rng, snr=20.0)
    spec = ConstraintSpec.fcc()
    schedule = ((0, 1, 2), (2, 3, 4), (4, 5, 0))
    slots = simulate_noncoherent(part, NoncoherentSchedule(schedule), pilots, imp, 20.0, rng)
    cases = [(name, ExperimentConfig(m=6, pilots="ALL_ONES", estimators=(name,), crb=False),
              (ms,)) for name in ("ls", "rogalin", "argos", "daisy", "avalanche", "aml")]
    cases.append(("ls", ExperimentConfig(m=6, pilots="ALL_ONES", crb=False,
                                         noncoherent_slots=schedule), slots))
    for name, cfg, data in cases:
        blind = tuple(replace(x, channel=None) for x in data)
        assert all(x.channel is not None for x in data)
        f = ESTIMATORS[name].call(Trial(cfg, spec, tuple(replace(x) for x in data))).f
        assert ESTIMATORS[name].call(Trial(cfg, spec, blind)).f.tobytes() == f.tobytes(), name
