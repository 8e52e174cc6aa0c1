import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dense_oracle import (aux_channel_blocks, build_f_perp, calibration_vector, dense_y, fim,
                          group_factors, ml_compressed_cost, numerical_rank, pair_context,
                          pair_f_block, pair_weights, vec,
                          pair_h_block, pair_information, pair_known_h_information,
                          pair_project, pair_solve, pairwise_aml, perp_projector, split_h,
                          stack_h, stacked, svd_pair_solve, vec_transpose_index, vec_transpose_perm)
from arraycal import crb
from arraycal.airlink import MeasurementSet, PilotSet, default_pilots, simulate_exchange
from arraycal.bench import parse_config, run_experiment
from arraycal.crb import (
    UNIDENTIFIABLE_RTOL,
    build_f_composite,
    build_h_composite,
    context_from_model,
    compressed_information,
    crb_f,
    crb_f_known_h,
    known_h_information,
    stack_observations,
)
from arraycal.estimators import ConstraintSpec, aml_estimate, ls_estimate, mse
from arraycal.grouping import make_scheme
from arraycal.model import (
    AntennaPartition,
    IID_RAYLEIGH,
    ImpairmentConfig,
    gen_channel,
    gen_impairments,
)
from arraycal.stacking import build_stacked, check_identifiability

CFG = ImpairmentConfig(0.5)


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
    f = calibration_vector(imp)
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
    ctx = pair_context(imp, chan, pilots, part, 1e-2)
    j = fim(ctx)
    assert np.max(np.abs(j - j.conj().T)) < 1e-12
    null = np.concatenate([ctx.f, -stack_h(aux_channel_blocks(imp, chan, part), part)])
    assert np.linalg.norm(j @ null) / np.linalg.norm(j) < 1e-10
    ctx2 = pair_context(imp, chan, pilots, part, 2e-2)
    assert np.max(np.abs(fim(ctx2) - j / 2)) < 1e-10 * np.max(np.abs(j))
    with pytest.raises(ValueError):
        fim(pair_context(imp, chan, pilots, part, 0.0))


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
    f = calibration_vector(imp)
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
    f = calibration_vector(imp)
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
    f = calibration_vector(imp)
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
    f = calibration_vector(imp)
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
        cost = ml_compressed_cost(ms, calibration_vector(imp), pilots, part)
        assert cost > 0   # agreement is asserted inside; disagreement raises


@pytest.mark.parametrize("sizes, lens", [((2, 3), (3, 1)),        # no square P_i
                                         ((1, 2, 2), (2, 1, 2)),   # L - M of signs +, -
                                         ((2, 3, 1), (2, 1, 1))])  # one: routes checked
def test_compressed_cost_equals_projector_form(sizes, lens):
    # the cost is y^H P_F_perp y whatever the pilot lengths; the weighted
    # F_perp route is only equal to it where no pair has (L_i - M_i)(L_j - M_j) < 0
    rng = np.random.default_rng(14)
    part = AntennaPartition(sizes, lens)
    pilots, imp, chan = _instance(part, rng)[:3]
    ms = simulate_exchange(part, pilots, imp, chan, 20.0, rng)
    f = calibration_vector(imp)
    y = stack_observations(ms, part)
    dense = float(np.real(y.conj() @ perp_projector(build_f_composite(f, pilots, part)) @ y))
    cost = ml_compressed_cost(ms, f, pilots, part)
    assert abs(cost - dense) <= 1e-10 * dense
    fperp = build_f_perp(f, pilots, part)
    w = fperp.conj().T @ y
    weighted = float(np.real(w.conj() @ np.linalg.pinv(fperp.conj().T @ fperp) @ w))
    d = np.subtract(lens, sizes)
    if all(d[i] * d[j] >= 0 for (i, j) in part.pairs()):
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
        f_true = calibration_vector(imp)
        init = ls_estimate(build_stacked(ms, pilots),
                           ConstraintSpec.fcc()).f
        rep = aml_estimate(ms, pilots, part, init=init,
                           constraint=ConstraintSpec.fcc(), max_iter=50)
        sq_err += mse(rep.f, f_true)
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
    assert np.linalg.matrix_rank(compressed_information(ctx.f, ctx.k, pilots, part)) == 1
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
    assert _rel(compressed_information(ctx.f, ctx.k, pilots, part), b) <= 1e-10
    assert _rel(pair_information(pair_context(imp, chan, pilots, part, sigma2)), b) <= 1e-10
    j = np.hstack([hm, fm])
    assert _rel(fim(pair_context(imp, chan, pilots, part, sigma2)), j.conj().T @ j / sigma2) \
        <= 1e-10

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
    assert _rel(rep.f, f1) <= 1e-10
    cost = np.linalg.norm(y - hm1 @ f1) ** 2     # 0 up to rounding if exactly determined
    assert abs(rep.final_cost - cost) <= 1e-10 * max(cost, 1e-10 * np.vdot(y, y).real)


@settings(max_examples=80, deadline=None)
@given(_partitions())
@example((AntennaPartition((1, 2, 3), (2, 2, 1)), 0))
@example((AntennaPartition((2, 1, 2, 1), (1, 3, 1, 3)), 2))   # a batch of three pairs
def test_context_pair_blocks_equal_per_pair_oracle_to_the_bit(case):
    # each batch's H_p, read off R C R^T at its columns, is the per-pair
    # aux_channel_blocks' Hc_{i->j} put through pair_h_block and zero-padded
    part, seed = case
    rng = np.random.default_rng(seed)
    pilots, imp, chan, _ = _instance(part, rng)
    ctx = pair_context(imp, chan, pilots, part, 1e-2)
    hb = aux_channel_blocks(imp, chan, part)
    assert len(ctx.h_pairs) == len(ctx.pairs)
    for b, hp in zip(ctx.pairs, ctx.h_pairs):
        p_i, p_j = stacked(pilots, b.gi), stacked(pilots, b.gj)
        bi, bj = pair_h_block(np.stack([hb[p] for p in zip(b.gi.tolist(), b.gj.tolist())]),
                              p_i, p_j)
        ref = np.zeros((len(b.gi), bi.shape[1] + bj.shape[1], b.cols.shape[1]), complex)
        ref[:, :bi.shape[1], :p_i.shape[1]] = bi
        ref[:, bi.shape[1]:, p_i.shape[1]:] = bj
        assert np.array_equal(hp, ref)



@st.composite
def _information_cases(draw):
    """2-5 groups of 1-3 antennas, random pilots with L_g in 1..3 (so L_g <
    M_g, L_g = M_g and L_g > M_g all occur) or IDENTITY pilots (L_g = M_g),
    and a group to leave idle."""
    kind = draw(st.sampled_from(["UNIT_PHASE_RANDOM", "IDENTITY"]))
    g = draw(st.integers(2, 5))
    sizes = tuple(draw(st.integers(1, 3)) for _ in range(g))
    lens = sizes if kind == "IDENTITY" else tuple(draw(st.integers(1, 3)) for _ in range(g))
    return (AntennaPartition(sizes, lens), kind, draw(st.integers(0, g - 1)),
            draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=100, deadline=None)
@given(_information_cases())
@example((AntennaPartition((1, 2, 3), (2, 2, 1)), "UNIT_PHASE_RANDOM", 1, 0))
@example((AntennaPartition((3, 3, 2, 1, 2), (3, 3, 2, 1, 2)), "IDENTITY", 4, 1))
@example((AntennaPartition((1, 1, 1), (1, 1, 1)), "UNIT_PHASE_RANDOM", 0, 2))
@example((AntennaPartition((1, 2), (2, 1)), "UNIT_PHASE_RANDOM", 0, 3))     # rank(B) < M - 1
@example((AntennaPartition((1, 2, 1, 2), (1, 2, 1, 2)), "UNIT_PHASE_RANDOM", 0, 5))   # split runs
def test_information_from_k_equals_pair_oracle(case):
    # B and H^H H from the M x M channel K equal the pair route's sums over
    # pair blocks, also with an idle group's rows and columns of K set to
    # zero, against the pairs of the slot without that group
    part, kind, idle, seed = case
    rng = np.random.default_rng(seed)
    pilots, imp, chan, _ = _instance(part, rng, kind=kind)
    ctx = context_from_model(imp, chan, pilots, part, 1e-2)
    oracle = pair_context(imp, chan, pilots, part, 1e-2)

    def close(b, ref):
        return np.max(np.abs(b - ref)) <= 1e-12 * np.linalg.norm(ref, 2)

    assert close(compressed_information(ctx.f, ctx.k, pilots, part), pair_information(oracle))
    assert close(known_h_information(ctx.k, pilots, part), pair_known_h_information(oracle))
    if part.num_groups > 2:
        active = tuple(g for g in range(part.num_groups) if g != idle)
        k = ctx.k.copy()
        k[part.antennas_of(idle)] = k[:, part.antennas_of(idle)] = 0
        ref = pair_information(pair_context(imp, chan, pilots, part, 1e-2, active))
        assert close(compressed_information(ctx.f, k, pilots, part), ref)


@settings(max_examples=60, deadline=None)
@given(_information_cases())
@example((AntennaPartition((1, 2, 3), (2, 2, 1)), "UNIT_PHASE_RANDOM", 0, 0))
def test_bound_trace_equals_trace_of_its_matrix(case):
    # crb_f's trace, sigma^2 tr((B[1:, 1:])^-1) for FCC and sigma^2 sum 1/lambda_i
    # (eigvalsh) for NPC, is the trace of the matrix formed on first read.
    # The NPC matrix takes its eigenvalues from eigh, which differ from
    # eigvalsh's by about eps ||B||, so 1 / lambda_1 moves by about eps
    # lambda_max / lambda_1 relative: compared where that is <= 1e-12
    part, kind, _, seed = case
    rng = np.random.default_rng(seed)
    pilots, imp, chan, _ = _instance(part, rng, kind=kind)
    ctx = context_from_model(imp, chan, pilots, part, 10 ** -rng.uniform(0, 4))
    w = np.linalg.eigvalsh(compressed_information(ctx.f, ctx.k, pilots, part))
    assume(w[1] > UNIDENTIFIABLE_RTOL * w[-1])
    for kind in ("FCC", "NPC"):
        r = crb_f(ctx, kind)
        if kind == "FCC" or w[-1] / w[1] <= 1e3:
            assert abs(np.trace(r.crb_matrix).real - r.trace) <= 1e-12 * r.trace


def _cgauss(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@st.composite
def _pair_cases(draw):
    mi, mj, li, lj, n, c = (draw(st.integers(1, 3)) for _ in range(6))
    zero = draw(st.lists(st.booleans(), min_size=n * (mi + mj), max_size=n * (mi + mj)))
    return mi, mj, li, lj, n, c, np.array(zero), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(_pair_cases())
@example((2, 3, 3, 1, 2, 2, np.zeros(10, dtype=bool), 0))     # L > M and L < M
@example((2, 2, 1, 1, 1, 1, np.array([0, 1, 0, 1], dtype=bool), 1))   # f_i, f_j half zero
@example((1, 1, 1, 1, 2, 1, np.array([1, 1, 0, 1], dtype=bool), 2))   # F_p = 0
@example((1, 1, 1, 1, 3, 2, np.array([0, 0, 1, 0, 0, 1], dtype=bool), 3))   # 1 x 1 groups
@example((1, 1, 2, 3, 2, 1, np.array([0, 1, 0, 0], dtype=bool), 4))   # M = 1 < L
def test_pair_solve_equals_svd_of_each_f_block(case):
    # the rotated solve on the group SVDs gives the minimum-norm solution, the
    # residual Gram and the kept rank of an SVD of every dense F_p, including
    # F_p that are rank deficient through L < M or zeros in f, and 1 x 1
    # groups, whose factors are a modulus and a phase
    mi, mj, li, lj, n, c, zero, seed = case
    rng = np.random.default_rng(seed)
    part = AntennaPartition((mi, mj) * n, (li, lj) * n)
    pilots = PilotSet(tuple(_cgauss(rng, (m, l)) for m, l in zip(part.group_sizes,
                                                                 part.pilot_lengths)))
    f = np.where(zero, 0.0, _cgauss(rng, zero.size))
    gi, gj = np.arange(0, 2 * n, 2), np.arange(1, 2 * n, 2)
    cols = np.arange(f.size).reshape(n, mi + mj)
    fp = pair_f_block(f, cols, stacked(pilots, gi), stacked(pilots, gj))
    r = fp.shape[1]
    x = _cgauss(rng, (n, r, c))
    fac = group_factors(f, pilots)
    w, res = pair_solve(fac(gi), fac(gj), x), pair_project(fac(gi), fac(gj), x)[1]
    w_ref, res_ref, rank_ref = svd_pair_solve(fp, x)
    assert np.max(np.abs(w - w_ref), initial=0) <= 1e-12 * np.max(np.abs(w_ref), initial=0)
    gram = np.einsum("prk,prl->pkl", res.conj(), res)
    gram_ref = np.einsum("prk,prl->pkl", res_ref.conj(), res_ref)
    scale = np.einsum("prk,prk->p", x.conj(), x).real[:, None, None]
    assert np.all(np.abs(gram - gram_ref) <= 1e-12 * scale)
    # the residual Gram of x = I is the projector off F_p's kept columns
    eye = np.broadcast_to(np.eye(r, dtype=complex), (n, r, r))
    res_eye = pair_project(fac(gi), fac(gj), eye)[1]
    rank = r - np.rint(np.einsum("prk,prk->p", res_eye.conj(), res_eye).real).astype(int)
    assert np.array_equal(rank, rank_ref)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(1, 6), st.integers(1, 3), st.integers(-150, 150),
       st.integers(-150, 150), st.integers(0, 2**32 - 1))
@example(3, 4, 2, -150, 150, 0)
@example(3, 4, 1, 150, -150, 1)
def test_one_unknown_lstsq_is_a_projection(n, r, l, k_exp, y_exp, seed):
    # the f-step of n single-antenna groups, each one unknown f_g behind the
    # rows Y[a, cols_g] = f_g K[a, g] p_g^T, is lstsq's solution at any scale,
    # and exactly 0 where K's column is 0
    rng = np.random.default_rng(seed)
    k = 10.0 ** k_exp * _cgauss(rng, (r, n)) * (rng.random((r, n)) < 0.8)
    k[:, rng.random(n) < 0.3] = 0
    p = _cgauss(rng, (n, l))
    y = 10.0 ** y_exp * _cgauss(rng, (r, n, l))
    x = crb.column_projection(k, np.einsum("agl,gl->ag", y, p.conj()),
                              np.sum(np.abs(p) ** 2, axis=1))
    ref = np.array([np.linalg.lstsq((k[:, g, None] * p[g]).reshape(-1, 1), y[:, g].ravel(),
                                    rcond=None)[0][0] for g in range(n)])
    assert np.all(x[~k.any(axis=0)] == 0)
    assert np.all(np.abs(x - ref) <= 1e-12 * np.abs(ref))


@st.composite
def _two_three_groups(draw):
    g = draw(st.integers(2, 3))
    sizes = tuple(draw(st.integers(1, 3)) for _ in range(g))
    lens = tuple(draw(st.integers(1, 3)) for _ in range(g))
    return AntennaPartition(sizes, lens), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=100, deadline=None)
@given(_two_three_groups())
@example((AntennaPartition((2, 2), (3, 3)), 0))        # both L > M: F_perp spans
@example((AntennaPartition((2, 2), (3, 1)), 0))        # opposite signs: it does not
def test_f_perp_spans_complement_iff_same_sign(case):
    # F_perp spans F's complement iff every pair has (L_i - M_i)(L_j - M_j) >= 0;
    # there the weighted route gives the direct cost, elsewhere its rank falls short
    part, seed = case
    rng = np.random.default_rng(seed)
    pilots, imp, chan, ms = _instance(part, rng, snr=20.0)
    f = calibration_vector(imp)
    fperp = build_f_perp(f, pilots, part)
    complement = fperp.shape[0] - numerical_rank(build_f_composite(f, pilots, part))
    d = np.subtract(part.pilot_lengths, part.group_sizes)
    if all(d[i] * d[j] >= 0 for (i, j) in part.pairs()):
        assert numerical_rank(fperp) == complement
        y = stack_observations(ms, part)
        w = fperp.conj().T @ y
        weighted = float(np.real(w.conj() @ np.linalg.pinv(fperp.conj().T @ fperp) @ w))
        cost = ml_compressed_cost(ms, f, pilots, part)
        assert abs(cost - weighted) <= 1e-8 * cost
    else:
        assert numerical_rank(fperp) < complement


@st.composite
def _aml_cases(draw):
    """An identifiable partition of 2-4 groups of 1-3 antennas, random or
    IDENTITY pilots (L_g = M_g; else L_g in 1..3, so L_g < M_g, L_g = M_g
    and L_g > M_g all occur), an SNR of 10 or 30 dB, and the ones or the LS
    start."""
    kind = draw(st.sampled_from(["UNIT_PHASE_RANDOM", "IDENTITY"]))
    g = draw(st.integers(2, 4))
    sizes = tuple(draw(st.integers(1, 3)) for _ in range(g))
    lens = sizes if kind == "IDENTITY" else tuple(draw(st.integers(1, 3)) for _ in range(g))
    part = AntennaPartition(sizes, lens)
    assume(check_identifiability(part)["ok"])
    return (part, kind, draw(st.sampled_from([10.0, 30.0])), draw(st.sampled_from(["ones", "ls"])),
            draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=80, deadline=None)
@given(_aml_cases())
@example((AntennaPartition((1, 2, 3), (2, 2, 1)), "UNIT_PHASE_RANDOM", 30.0, "ones", 0))
@example((AntennaPartition((1, 1, 1, 1), (1, 1, 1, 1)), "UNIT_PHASE_RANDOM", 30.0, "ones", 0))
@example((AntennaPartition((1, 1, 1), (2, 1, 3)), "UNIT_PHASE_RANDOM", 30.0, "ones", 0))
@example((make_scheme("FC_II", 24, 8).partition, "UNIT_PHASE_RANDOM", 30.0, "ls", 3))
@example((AntennaPartition((1, 2, 3, 1), (2, 2, 1, 3)), "UNIT_PHASE_RANDOM", 10.0, "ls", 1))
# both shapes split into two runs of PilotSet.runs
@example((AntennaPartition((1, 2, 1, 2), (1, 2, 1, 2)), "UNIT_PHASE_RANDOM", 30.0, "ls", 0))
# the benchmark's AML: single antennas only, so no rotation
@example((make_scheme("SINGLETON", 16).partition, "ALL_ONES", 10.0, "ls", 0))
# single-antenna runs split by a multi-antenna group with L_g > 1
@example((AntennaPartition((1, 1, 2, 1, 1), (2, 2, 1, 3, 3)), "UNIT_PHASE_RANDOM", 10.0, "ls", 0))
def test_aml_takes_the_pairwise_path(case):
    # AML's one M x M h-step on the received matrix and its f-step per group
    # give the iterations, convergence, estimate and cost of the pair-by-pair
    # h-step and the SVD f-step (dense_oracle.pairwise_aml); FC_II's rank-one
    # groups run for about 100 iterations.  The cost's floor is relative to
    # ||y||^2, since an exactly determined system has a cost of about 0
    part, kind, snr, start, seed = case
    rng = np.random.default_rng(seed)
    pilots, imp, chan, ms = _instance(part, rng, snr=snr, kind=kind)
    init = None if start == "ones" else \
        ls_estimate(build_stacked(ms, pilots), ConstraintSpec.fcc()).f
    rep = aml_estimate(ms, pilots, part, init=init)
    f, iterations, cost, converged = pairwise_aml(ms, pilots, part, init=init)
    assert (rep.iterations, rep.converged) == (iterations, converged)
    assert _rel(rep.f, f) <= 1e-10
    assert abs(rep.final_cost - cost) <= 1e-10 * np.vdot(ms.received, ms.received).real


@st.composite
def _weight_cases(draw):
    """A partition of 2-6 groups, of single antennas only or of 1-3
    antennas, random pilots with L_g in 1..3 (L_g < M_g leaves s^2 = 0),
    and a seed for f, whose entries are zero or span 40 decades."""
    g = draw(st.integers(2, 6))
    sizes = (1,) * g if draw(st.booleans()) else tuple(draw(st.integers(1, 3)) for _ in range(g))
    lens = tuple(draw(st.integers(1, 3)) for _ in range(g))
    return AntennaPartition(sizes, lens), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(_weight_cases())
@example((make_scheme("SINGLETON", 16).partition, 0))
@example((AntennaPartition((3, 1, 2), (1, 2, 1)), 1))
def test_pair_weights_equal_the_formula_entry_by_entry(case):
    # pair_weights on rank_rule's thresholds, computed once by its caller,
    # is the rule written out per entry, bit for bit; rank_rule gives no
    # first antennas where every group has one antenna
    part, seed = case
    rng = np.random.default_rng(seed)
    m = part.num_antennas
    pilots = default_pilots(part, "UNIT_PHASE_RANDOM", rng)
    f = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) * 10.0 ** rng.uniform(-20, 20, m)
    f[rng.random(m) < 0.2] = 0
    s2 = crb.shape_factors(f, pilots)[0]
    rule, _, first = crb.rank_rule(part)
    assert (first is None) == (max(part.group_sizes) == 1)
    assert np.array_equal(crb.pair_weights(s2, rule, first), pair_weights(s2, part))


@st.composite
def _single_antenna_cases(draw):
    """2-6 single-antenna groups with L_g in 1..3, random or ALL_ONES (L_g =
    1) pilots, a seed for f as _weight_cases draws it, and maybe a silent
    group, whose row and columns of Y are zero."""
    g = draw(st.integers(2, 6))
    kind = draw(st.sampled_from(["UNIT_PHASE_RANDOM", "ALL_ONES"]))
    lens = (1,) * g if kind == "ALL_ONES" else tuple(draw(st.integers(1, 3)) for _ in range(g))
    return (AntennaPartition((1,) * g, lens), kind, draw(st.none() | st.integers(0, g - 1)),
            draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=150, deadline=None)
@given(_single_antenna_cases())
@example((make_scheme("SINGLETON", 16).partition, "ALL_ONES", None, 0))
@example((AntennaPartition((1,) * 4, (2, 1, 3, 1)), "UNIT_PHASE_RANDOM", 2, 1))   # K[:, 2] = 0
def test_single_antenna_h_step_is_one_division(case):
    # with one antenna per group, AML's K = Z / (s_a^2 + s_b^2), s^2 = p2 |f|^2,
    # is Z o pair_weights(s^2) to rounding, and exactly 0 where s_a^2 + s_b^2
    # = 0; a zero column of K gives f_g = 0.  The closed form s^2 is
    # shape_factors' to the rounding of the two (5.4 eps at most over 20,000
    # draws of this test's cases)
    part, kind, silent, seed = case
    rng = np.random.default_rng(seed)
    m = part.num_antennas
    pilots, imp, chan, ms = _instance(part, rng, snr=20.0, kind=kind)
    if silent is not None:
        y = ms.received.copy()
        y[silent], y[:, part.pilot_columns(silent)] = 0, 0
        ms = MeasurementSet(y, part, ms.noise_variance, ms.plan)
    f = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) * 10.0 ** rng.uniform(-20, 20, m)
    f[rng.random(m) < 0.2] = 0
    assume(f.any())
    seen, real = [], crb.column_projection
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(crb, "column_projection", lambda k, *a: seen.append(k.copy()) or real(k, *a))
        rep = aml_estimate(ms, pilots, part, init=f, max_iter=1)
    k = seen[0]
    z = build_stacked(ms, pilots).slots[0][2] * f.conj()
    s2, eps = np.array([np.sum(np.abs(b) ** 2) for b in pilots.blocks]) * np.abs(f) ** 2, \
        np.finfo(float).eps
    assert np.all(np.abs(s2 - crb.shape_factors(f, pilots)[0]) <= 10 * eps * s2)
    ref = (z + z.T) * crb.pair_weights(s2, *crb.rank_rule(part)[::2])
    assert np.all(np.abs(k - ref) <= 4 * eps * np.abs(ref))
    assert np.all(k[(s2[:, None] + s2) == 0] == 0)
    assert np.all(rep.f[~k.any(axis=0)] == 0)
    if silent is not None:
        assert not k[:, silent].any() and rep.f[silent] == 0


def test_single_antenna_aml_and_crb_take_no_svd(monkeypatch):
    # a single-antenna group's factor s^2 = |f_g|^2 ||p_g||^2 and its f-step
    # are closed form for any pilot length; where every L_g = 1, B is the
    # weighted Gram of the noiseless exchange, whatever the group sizes
    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    for part, aml in ((make_scheme("SINGLETON", 8).partition, True),
                      (AntennaPartition((1, 1, 1), (2, 1, 3)), True),
                      (make_scheme("FC_II", 24, 8).partition, False),
                      (AntennaPartition((1, 2, 1, 3, 2), (1,) * 5), False)):
        pilots, imp, chan, ms = _instance(part, np.random.default_rng(5), snr=30.0)
        ctx = context_from_model(imp, chan, pilots, part, 1e-3)
        init = ls_estimate(build_stacked(ms, pilots), ConstraintSpec.fcc()).f
        with monkeypatch.context() as mp:
            mp.setattr(np.linalg, "svd", no_svd)
            if aml:
                rep = aml_estimate(ms, pilots, part, init=init)
                assert rep.converged and np.all(np.isfinite(rep.f))
            assert all(np.isfinite(crb_f(ctx, c).trace) for c in ("FCC", "NPC"))


@st.composite
def _single_use_cases(draw):
    """2-6 groups of 1-4 antennas, each sending one pilot symbol, random or
    ALL_ONES pilots, and a group to leave idle."""
    sizes = tuple(draw(st.integers(1, 4)) for _ in range(draw(st.integers(2, 6))))
    return (AntennaPartition(sizes, (1,) * len(sizes)),
            draw(st.sampled_from(["UNIT_PHASE_RANDOM", "ALL_ONES"])),
            draw(st.integers(0, len(sizes) - 1)), draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=150, deadline=None)
@given(_single_use_cases())
@example((AntennaPartition((1, 1), (1, 1)), "ALL_ONES", 0, 0))
@example((AntennaPartition((4, 4, 4, 4, 4, 4), (1,) * 6), "UNIT_PHASE_RANDOM", 5, 1))
@example((AntennaPartition((1, 2, 3), (1, 1, 1)), "ALL_ONES", 1, 2))
def test_single_use_information_is_the_weighted_gram(case):
    # at L_g = 1, B = Y_0(P)^H Omega^2 Y_0(P) equals the singular-basis route
    # and the pair route's sums over pair blocks, also with an idle group's
    # rows and columns of K set to zero; over 3,000 draws the largest
    # difference was 1.5e-15 ||B||_2
    part, kind, idle, seed = case
    rng = np.random.default_rng(seed)
    pilots, imp, chan, _ = _instance(part, rng, kind=kind)
    ctx = context_from_model(imp, chan, pilots, part, 1e-2)
    k, active = ctx.k.copy(), None
    for _ in range(2 if part.num_groups > 2 else 1):
        b = compressed_information(ctx.f, k, pilots, part)
        ref = pair_information(pair_context(imp, chan, pilots, part, 1e-2, active))
        tol = 1e-12 * np.linalg.norm(ref, 2)
        assert np.max(np.abs(b - ref)) <= tol
        assert np.max(np.abs(b - crb._basis_information(ctx.f, k, pilots, part))) <= tol
        active = tuple(g for g in range(part.num_groups) if g != idle)
        k[part.antennas_of(idle)] = k[:, part.antennas_of(idle)] = 0
