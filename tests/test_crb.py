import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dense_oracle import dense_y, perp_projector, split_h, vec_transpose_perm
from arraycal import crb
from arraycal.airlink import PilotSet, default_pilots, simulate_exchange
from arraycal.bench import parse_config, run_experiment
from arraycal.crb import (
    UNIDENTIFIABLE_RTOL,
    aux_channel_blocks,
    build_f_composite,
    build_f_perp,
    build_h_composite,
    context_from_model,
    compressed_information,
    crb_f,
    crb_f_known_h,
    fim,
    ml_compressed_cost,
    stack_h,
    stack_observations,
    vec,
    vec_transpose_index,
)
from arraycal.estimators import ConstraintSpec, aml_estimate, ls_estimate, mse
from arraycal.model import (
    AntennaPartition,
    IID_RAYLEIGH,
    ImpairmentConfig,
    calibration_vector,
    gen_channel,
    gen_impairments,
)
from arraycal.stacking import build_stacked

CFG = ImpairmentConfig(0.5, fix_first_to_one=True)


def _instance(part, rng, snr=np.inf, kind="UNIT_PHASE_RANDOM"):
    pilots = default_pilots(part, kind, rng)
    imp = gen_impairments(CFG, part.num_antennas, rng)
    chan = gen_channel(part.num_antennas, IID_RAYLEIGH, rng)
    ms = simulate_exchange(part, pilots, imp, chan, snr, rng)
    return pilots, imp, chan, ms


def _square_pilots(part, rng):
    return PilotSet(tuple(np.exp(1j * rng.uniform(-np.pi, np.pi, (m, m)))
                          for m in part.group_sizes))


def test_vec_and_transpose_permutation():
    x = np.arange(6.0).reshape(2, 3)
    assert np.array_equal(vec(x), x.reshape(-1, order="F"))
    t = vec_transpose_perm(2, 3)
    assert np.array_equal(t @ vec(x), vec(x.T))
    assert np.array_equal(vec(x)[vec_transpose_index(2, 3)], vec(x.T))
    a = np.arange(36.0).reshape(6, 6)
    assert np.array_equal(a @ t, a[:, vec_transpose_index(3, 2)])


def test_split_stack_roundtrip():
    rng = np.random.default_rng(0)
    part = AntennaPartition((1, 2, 3), (1, 1, 1))
    pilots, imp, chan, _ = _instance(part, rng, kind="ALL_ONES")
    hb = aux_channel_blocks(imp, chan, part)
    assert hb[(1, 2)].shape == (3, 2)
    h = stack_h(hb, part)
    back = split_h(h, part)
    for p in part.pairs():
        assert np.array_equal(back[p], hb[p])


def test_bilinear_identity_and_observation_match():
    rng = np.random.default_rng(1)
    part = AntennaPartition((1, 2, 3), (2, 2, 1))
    pilots, imp, chan, ms = _instance(part, rng)
    f = calibration_vector(imp).f
    hb = aux_channel_blocks(imp, chan, part)
    hm = build_h_composite(hb, pilots, part)
    fm = build_f_composite(f, pilots, part)
    h = stack_h(hb, part)
    assert np.max(np.abs(hm @ f - fm @ h)) < 1e-10
    y = stack_observations(ms, part)
    assert np.max(np.abs(y - hm @ f)) < 1e-10


def test_smallest_case_composite_shape():
    rng = np.random.default_rng(2)
    part = AntennaPartition.singleton(2)
    pilots, imp, chan, ms = _instance(part, rng, kind="ALL_ONES")
    hb = aux_channel_blocks(imp, chan, part)
    hm = build_h_composite(hb, pilots, part)
    assert hm.shape == (2, 2)
    assert hm[0, 1] == 0 and hm[1, 0] == 0


def test_fim_properties():
    rng = np.random.default_rng(3)
    part = AntennaPartition((2, 2, 1), (2, 1, 1))
    pilots, imp, chan, _ = _instance(part, rng)
    ctx = context_from_model(imp, chan, pilots, part, 1e-2)
    j = fim(ctx)
    assert np.max(np.abs(j - j.conj().T)) < 1e-12
    null = np.concatenate([ctx.f, -ctx.h])
    assert np.linalg.norm(j @ null) / np.linalg.norm(j) < 1e-10
    ctx2 = context_from_model(imp, chan, pilots, part, 2e-2)
    assert np.max(np.abs(fim(ctx2) - j / 2)) < 1e-10 * np.max(np.abs(j))
    with pytest.raises(ValueError):
        fim(context_from_model(imp, chan, pilots, part, 0.0))


def test_crb_hermitian_psd_and_sigma_linearity():
    rng = np.random.default_rng(4)
    part = AntennaPartition.singleton(6)
    pilots, imp, chan, _ = _instance(part, rng, kind="ALL_ONES")
    for kind in ("FCC", "NPC"):
        ctx = context_from_model(imp, chan, pilots, part, 1e-3)
        r = crb_f(ctx, kind)
        m = r.crb_matrix
        assert np.max(np.abs(m - m.conj().T)) < 1e-12
        w = np.linalg.eigvalsh(m)
        assert w.min() >= -1e-10 * max(w.max(), 1e-300)
        ctx2 = context_from_model(imp, chan, pilots, part, 2e-3)
        assert abs(crb_f(ctx2, kind).trace - 2 * r.trace) < 1e-8 * r.trace


def test_npc_crb_annihilates_f():
    rng = np.random.default_rng(5)
    part = AntennaPartition((1, 2, 2), (2, 2, 1))
    pilots, imp, chan, _ = _instance(part, rng)
    ctx = context_from_model(imp, chan, pilots, part, 1e-2)
    r = crb_f(ctx, "NPC")
    f = calibration_vector(imp).f
    assert np.max(np.abs(r.crb_matrix @ f)) < 1e-10 * r.trace


def test_npc_crb_basis_form_equivalence():
    # pseudo-inverse form vs explicit V (orthonormal complement of f) form
    rng = np.random.default_rng(6)
    part = AntennaPartition.singleton(5)
    pilots, imp, chan, _ = _instance(part, rng, kind="ALL_ONES")
    ctx = context_from_model(imp, chan, pilots, part, 1e-2)
    r = crb_f(ctx, "NPC")
    hm = build_h_composite(aux_channel_blocks(imp, chan, part), pilots, part)
    b = hm.conj().T @ perp_projector(build_f_composite(ctx.f, pilots, part)) @ hm
    v = ctx.v_f
    alt = ctx.noise_variance * v @ np.linalg.inv(v.conj().T @ b @ v) @ v.conj().T
    assert np.max(np.abs(alt - r.crb_matrix)) < 1e-8 * np.max(np.abs(r.crb_matrix))


@pytest.mark.parametrize("text", [
    # perfbench's singleton16-aml-crb and fc2-64-ls-crb workloads
    "m = 16\nscheme = SINGLETON\npilots = ALL_ONES\nconstraint = FCC\n"
    "estimators = aml, rogalin, argos\naml_max_iter = 50\nsnr_db = 10, 40\ntrials = 2\n",
    "m = 64\nscheme = FC_II\ng = 12\npilots = UNIT_PHASE_RANDOM\nconstraint = NPC\n"
    "estimators = ls\nsnr_db = 20, 40\ntrials = 1\n",
])
def test_crb_runs_form_no_complement_of_f(monkeypatch, text):
    # ctx.v_f (crb.complement_basis) is formed on first use, and only the NPC
    # known-h bound reads it
    def refuse(*args, **kwargs):
        raise AssertionError("complement_basis called")

    monkeypatch.setattr(crb, "complement_basis", refuse)
    table = run_experiment(parse_config(text + "crb = true\n"))
    assert all(np.isfinite(r.crb_trace) for r in table.rows)


def test_known_h_bound_below_full():
    rng = np.random.default_rng(7)
    part = AntennaPartition.singleton(8)
    pilots, imp, chan, _ = _instance(part, rng, kind="ALL_ONES")
    ctx = context_from_model(imp, chan, pilots, part, 1e-2)
    assert crb_f_known_h(ctx, "FCC").trace < crb_f(ctx, "FCC").trace


def test_f_perp_orthogonality_and_residual():
    rng = np.random.default_rng(9)
    # both thin (L < M) and fat (L > M) pilot blocks
    part = AntennaPartition((1, 2, 3), (2, 2, 1))
    pilots, imp, chan, ms = _instance(part, rng)
    f = calibration_vector(imp).f
    fperp = build_f_perp(f, pilots, part)
    fm = build_f_composite(f, pilots, part)
    num = np.linalg.norm(fm.conj().T @ fperp)
    assert num / (np.linalg.norm(fm) * np.linalg.norm(fperp)) < 1e-12
    y = stack_observations(ms, part)
    assert np.max(np.abs(fperp.conj().T @ y - dense_y(ms, pilots, part) @ f)) < 1e-10


def test_f_perp_completeness_full_pilots():
    # with L_i = M_i the two column spaces together span everything
    rng = np.random.default_rng(10)
    part = AntennaPartition((2, 3, 2), (2, 3, 2))
    pilots = _square_pilots(part, rng)
    imp = gen_impairments(CFG, part.num_antennas, rng)
    f = calibration_vector(imp).f
    hb = aux_channel_blocks(imp, gen_channel(7, IID_RAYLEIGH, rng), part)
    fm = build_f_composite(f, pilots, part)
    fperp = build_f_perp(f, pilots, part)
    assert (np.linalg.matrix_rank(fm) + np.linalg.matrix_rank(fperp)
            == fm.shape[0])


def test_f_perp_rejects_rank_deficient_pilots():
    part = AntennaPartition((2, 2), (2, 2))
    pilots = PilotSet((np.ones((2, 2)), np.eye(2)))
    with pytest.raises(ValueError):
        build_f_perp(np.ones(4, dtype=complex), pilots, part)


def test_compressed_cost_zero_in_column_space():
    rng = np.random.default_rng(11)
    part = AntennaPartition((2, 2), (2, 2))
    pilots = _square_pilots(part, rng)
    imp = gen_impairments(CFG, 4, rng)
    chan = gen_channel(4, IID_RAYLEIGH, rng)
    ms = simulate_exchange(part, pilots, imp, chan, np.inf, rng)
    y = stack_observations(ms, part)   # noiseless y = F h, in the column space
    f = calibration_vector(imp).f
    cost = ml_compressed_cost(ms, f, pilots, part)
    assert abs(cost) < 1e-10 * np.real(y.conj() @ y)


def test_compressed_cost_routes_agree_noisy():
    rng = np.random.default_rng(12)
    part = AntennaPartition((2, 3, 2), (2, 3, 2))
    pilots = _square_pilots(part, rng)
    imp = gen_impairments(CFG, 7, rng)
    chan = gen_channel(7, IID_RAYLEIGH, rng)
    for snr in (20.0, 0.0):
        ms = simulate_exchange(part, pilots, imp, chan, snr, rng)
        cost = ml_compressed_cost(ms, calibration_vector(imp).f, pilots, part)
        assert cost > 0   # agreement is asserted inside; disagreement raises


@pytest.mark.parametrize("sizes, lens", [((2, 3), (3, 1)),        # no square P_i
                                         ((1, 2, 2), (2, 1, 2)),   # two groups L_i != M_i
                                         ((2, 3, 1), (2, 1, 1))])  # one: routes checked
def test_compressed_cost_equals_projector_form(sizes, lens):
    # the cost is y^H P_F_perp y whatever the pilot lengths; the weighted
    # F_perp route is only equal to it where at most one group has L_i != M_i
    rng = np.random.default_rng(14)
    part = AntennaPartition(sizes, lens)
    pilots, imp, chan = _instance(part, rng)[:3]
    ms = simulate_exchange(part, pilots, imp, chan, 20.0, rng)
    f = calibration_vector(imp).f
    y = stack_observations(ms, part)
    dense = float(np.real(y.conj() @ perp_projector(build_f_composite(f, pilots, part)) @ y))
    cost = ml_compressed_cost(ms, f, pilots, part)
    assert abs(cost - dense) <= 1e-10 * dense
    fperp = build_f_perp(f, pilots, part)
    w = fperp.conj().T @ y
    weighted = float(np.real(w.conj() @ np.linalg.pinv(fperp.conj().T @ fperp) @ w))
    squares = sum(l == m for l, m in zip(lens, sizes))
    if squares >= len(sizes) - 1:
        assert abs(weighted - dense) <= 1e-8 * dense
    else:
        assert weighted < dense * (1 - 1e-3)


def test_compressed_cost_weighting_identity_case():
    # all-singleton groups, unit pilots, unit-modulus f: the weighting
    # matrix F_perp^H F_perp collapses to a multiple of identity
    rng = np.random.default_rng(13)
    part = AntennaPartition.singleton(4)
    pilots = default_pilots(part, "ALL_ONES", None)
    f = np.exp(1j * rng.uniform(-np.pi, np.pi, 4))
    fperp = build_f_perp(f, pilots, part)
    w = fperp.conj().T @ fperp
    assert np.max(np.abs(w - 2.0 * np.eye(w.shape[0]))) < 1e-12


def test_crb_fc2_below_fc1():
    # more equitable grouping gives a lower bound, averaged over channels
    rng = np.random.default_rng(14)
    fc1 = AntennaPartition((1, 1, 2, 3, 4, 5), (1,) * 6)
    fc2 = AntennaPartition((2, 2, 3, 3, 3, 3), (1,) * 6)
    sigma2 = 10 ** (-20 / 10)
    tr1 = tr2 = 0.0
    for _ in range(100):
        imp = gen_impairments(CFG, 16, rng)
        chan = gen_channel(16, IID_RAYLEIGH, rng)
        p1 = default_pilots(fc1, "UNIT_PHASE_RANDOM", rng)
        p2 = default_pilots(fc2, "UNIT_PHASE_RANDOM", rng)
        tr1 += crb_f(context_from_model(imp, chan, p1, fc1, sigma2), "NPC").trace
        tr2 += crb_f(context_from_model(imp, chan, p2, fc2, sigma2), "NPC").trace
    assert tr2 <= tr1


def test_aml_reaches_crb_at_high_snr():
    rng = np.random.default_rng(15)
    part = AntennaPartition.singleton(8)
    sq_err = 0.0
    traces = 0.0
    n = 60
    for _ in range(n):
        pilots, imp, chan, ms = _instance(part, rng, snr=40.0, kind="ALL_ONES")
        f_true = calibration_vector(imp).f
        init = ls_estimate(build_stacked(ms, pilots),
                           ConstraintSpec.fcc()).f_hat.f
        rep = aml_estimate(ms, pilots, part, init=init,
                           constraint=ConstraintSpec.fcc(), max_iter=50)
        sq_err += mse(rep.f_hat.f, f_true)
        sigma2 = 10 ** (-40 / 10)
        traces += crb_f(context_from_model(imp, chan, pilots, part, sigma2),
                        "FCC").trace
    ratio = sq_err / traces
    assert 1.0 - 0.2 <= ratio <= 2.0


def test_crb_rejects_rank_deficient_information():
    # sizes (1, 2), lengths (2, 1): rows = 2 = M - 1, but rank(B) = 1 < M - 1
    rng = np.random.default_rng(16)
    part = AntennaPartition((1, 2), (2, 1))
    pilots, imp, chan, _ = _instance(part, rng)
    ctx = context_from_model(imp, chan, pilots, part, 1e-3)
    assert np.linalg.matrix_rank(compressed_information(ctx)) == 1
    for kind in ("FCC", "NPC"):
        with pytest.raises(np.linalg.LinAlgError, match="unidentifiable configuration"):
            crb_f(ctx, kind)


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@st.composite
def _partitions(draw):
    g = draw(st.integers(2, 4))
    sizes = tuple(draw(st.integers(1, 3)) for _ in range(g))
    lens = tuple(draw(st.integers(1, 3)) for _ in range(g))
    return AntennaPartition(sizes, lens), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=80, deadline=None)
@given(_partitions())
@example((AntennaPartition((1, 2, 3), (2, 2, 1)), 0))      # L > M, L = M, L < M
@example((AntennaPartition((3, 1, 2, 2), (3, 1, 3, 1)), 1))
def test_pair_blocks_equal_dense_oracle(case):
    # B, the bounds, the FIM and one AML iteration from the pair blocks equal
    # the same quantities built from the dense H(h, P) and F(f, P)
    part, seed = case
    rng = np.random.default_rng(seed)
    pilots, imp, chan, ms = _instance(part, rng, snr=20.0)
    sigma2 = 10 ** -rng.uniform(0, 4)
    ctx = context_from_model(imp, chan, pilots, part, sigma2)
    hm = build_h_composite(aux_channel_blocks(imp, chan, part), pilots, part)
    fm = build_f_composite(ctx.f, pilots, part)
    b = hm.conj().T @ perp_projector(fm) @ hm
    assert _rel(compressed_information(ctx), b) <= 1e-10
    j = np.hstack([hm, fm])
    assert _rel(fim(ctx), j.conj().T @ j / sigma2) <= 1e-10

    # rank-deficient B has lambda_2 / lambda_max <= 4e-16 and identifiable B
    # >= 9e-8 (4,000 random partitions).  A bound's relative rounding error is
    # at most 3.3e-15 times the condition number of the matrix it inverts
    # (2,331 identifiable random partitions), so traces are compared to 1e-10
    # where that condition number is <= 1e4.
    m = part.num_antennas
    w = np.linalg.eigvalsh(b)
    if w[1] <= UNIDENTIFIABLE_RTOL * w[-1]:
        for kind in ("FCC", "NPC"):
            with pytest.raises(np.linalg.LinAlgError, match="unidentifiable"):
                crb_f(ctx, kind)
    for kind, v in (("FCC", np.eye(m)[:, 1:]), ("NPC", ctx.v_f)):
        for bound, info in ((crb_f, b), (crb_f_known_h, hm.conj().T @ hm)):
            inner = v.conj().T @ info @ v
            if np.linalg.cond(inner) <= 1e4:
                tr = sigma2 * np.trace(v @ np.linalg.inv(inner) @ v.conj().T).real
                assert abs(bound(ctx, kind).trace - tr) <= 1e-10 * abs(tr)

    y = stack_observations(ms, part)
    f0 = ctx.f * (1 + 0.1 * rng.standard_normal(m))
    h, *_ = np.linalg.lstsq(build_f_composite(f0, pilots, part), y, rcond=None)
    hm1 = build_h_composite(split_h(h, part), pilots, part)
    f1, *_ = np.linalg.lstsq(hm1, y, rcond=None)
    rep = aml_estimate(ms, pilots, part, init=f0, max_iter=1)
    assert _rel(rep.f_hat.f, f1) <= 1e-10
    cost = np.linalg.norm(y - hm1 @ f1) ** 2     # 0 up to rounding if exactly determined
    assert abs(rep.final_cost - cost) <= 1e-10 * max(cost, 1e-10 * np.vdot(y, y).real)
