"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line so the suite output doubles as a
checklist.  Monte Carlo checks use fixed seeds and the same deterministic
trial streams as the benchmark harness.
"""

import time

import numpy as np

from dense_oracle import (aux_channel_blocks, brute_force_best_pair_count, build_f_perp,
                          calibration_vector, coherent_slot, dense_y, fim, ml_compressed_cost, pair_context, perp_projector,
                          stack_h)
from arraycal.airlink import (
    NoncoherentSchedule,
    PilotSet,
    default_pilots,
    noise_variance_from_snr,
    simulate_exchange,
    simulate_noncoherent,
)
from arraycal.bench import ExperimentConfig, run_experiment
from arraycal.crb import (
    build_f_composite,
    context_from_model,
    crb_f,
    crb_f_known_h,
    stack_observations,
)
from arraycal.estimators import (
    ConstraintSpec,
    aml_estimate,
    argos_estimate,
    avalanche_estimate,
    daisy_chain_estimate,
    ls_estimate,
    mse,
    rogalin_estimate,
)
from arraycal.grouping import make_scheme, max_calibratable
from arraycal.model import (
    AntennaPartition,
    GEOMETRIC,
    GeometryConfig,
    IID_RAYLEIGH,
    gen_channel,
    gen_impairments,
    permute_channel,
)
from arraycal.stacking import build_stacked, build_stacked_noncoherent, check_identifiability

DELTA = 0.5        # amplitude spread of the drawn impairments


def _report(num, desc, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance {num}: {desc}")
    assert ok, f"acceptance {num} failed: {desc}"


def _simulate(part, rng, snr=np.inf, kind="UNIT_PHASE_RANDOM", delta=0.5):
    pilots = default_pilots(part, kind, rng)
    imp = gen_impairments(delta, part.num_antennas, rng)
    chan = gen_channel(part.num_antennas, IID_RAYLEIGH, rng)
    ms = simulate_exchange(part, pilots, imp, chan, snr, rng)
    return pilots, imp, chan, ms


def _random_partition(rng, m_cap=16):
    g = int(rng.integers(2, 6))
    sizes = [int(rng.integers(1, 4)) for _ in range(g)]
    while sum(sizes) > m_cap:
        sizes = sizes[:-1] if len(sizes) > 2 else [1, 1]
    lens = [int(rng.integers(1, s + 2)) for s in sizes]   # both L<M and L>=M occur
    return AntennaPartition(tuple(sizes), tuple(lens))


def _rel_err(f_hat, f_true):
    return np.linalg.norm(f_hat - f_true) / np.linalg.norm(f_true)


def test_acceptance_01_noiseless_exact_recovery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(100)
    errs = {}

    part = make_scheme("ARGOS", 16).partition
    pilots, imp, chan, ms = _simulate(part, rng, kind="IDENTITY")
    errs["argos"] = _rel_err(argos_estimate(ms).f, calibration_vector(imp))

    part = AntennaPartition.singleton(16)
    pilots, imp, chan, ms = _simulate(part, rng, kind="ALL_ONES")
    f_true = calibration_vector(imp)
    errs["rogalin"] = _rel_err(
        rogalin_estimate(ms, ConstraintSpec.fcc()).f, f_true)
    errs["daisy"] = _rel_err(daisy_chain_estimate(ms).f, f_true)

    part = make_scheme("AVALANCHE", 22, 7).partition
    pilots, imp, chan, ms = _simulate(part, rng, kind="ALL_ONES")
    errs["avalanche"] = _rel_err(avalanche_estimate(ms).f,
                                 calibration_vector(imp))

    part = make_scheme("FC_II", 24, 8).partition
    pilots, imp, chan, ms = _simulate(part, rng)
    ss = build_stacked(ms)
    errs["group ls"] = _rel_err(ls_estimate(ss, ConstraintSpec.fcc()).f,
                                calibration_vector(imp))

    part = AntennaPartition.singleton(12)
    pilots, imp, chan, ms = _simulate(part, rng, kind="ALL_ONES")
    init = ls_estimate(build_stacked(ms), ConstraintSpec.fcc()).f
    rep = aml_estimate(ms, init=init, constraint=ConstraintSpec.fcc())
    errs["aml"] = _rel_err(rep.f, calibration_vector(imp))

    elapsed = time.perf_counter() - t0
    worst = max(errs.values())
    _report(1, f"noiseless exact recovery, worst rel err {worst:.2e}, {elapsed:.1f}s",
            worst < 1e-8 and elapsed < 10.0)


def test_acceptance_02_identifiability_counts():
    p64 = make_scheme("FC_I", 64, 12).partition
    p67 = make_scheme("FC_I", 67, 12).partition
    p68 = make_scheme("FC_II", 68, 12).partition
    a = check_identifiability(p64)
    b = check_identifiability(p67)
    c = check_identifiability(p68)
    ok = (a == {"rows": 66, "needed": 63, "ok": True}
          and b == {"rows": 66, "needed": 66, "ok": True}
          and c["rows"] == 66 and c["needed"] == 67 and not c["ok"])
    _report(2, f"equation counts 66/63, 66/66, 66/67-rejected: {a}, {b}, {c}", ok)


def test_acceptance_03_optimal_grouping():
    t0 = time.perf_counter()
    ok = max_calibratable(12, 1) == 67
    for k in range(3, 8):
        best, comp = brute_force_best_pair_count(k)
        ok = ok and comp == (1,) * k and best == k * (k - 1) // 2
    elapsed = time.perf_counter() - t0
    _report(3, f"all-ones grouping optimal for K=3..7, max(12 uses)=67, {elapsed:.2f}s",
            ok and elapsed < 1.0)


def test_acceptance_04_fim_null_space():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(50):
        part = _random_partition(rng)
        pilots, imp, chan, _ = _simulate(part, rng)
        ctx = pair_context(imp, chan, pilots, part, 10 ** (-rng.uniform(0, 4)))
        j = fim(ctx)
        null = np.concatenate([ctx.f, -stack_h(aux_channel_blocks(imp, chan, part), part)])
        worst = max(worst, np.linalg.norm(j @ null) / np.linalg.norm(j))
    _report(4, f"FIM null vector residual over 50 configs, worst {worst:.2e}",
            worst < 1e-10)


def test_acceptance_05_f_perp_construction():
    rng = np.random.default_rng(105)
    worst_orth, worst_res = 0.0, 0.0
    for _ in range(50):
        part = _random_partition(rng)
        pilots, imp, chan, ms = _simulate(part, rng)
        f = calibration_vector(imp)
        fperp = build_f_perp(f, pilots, part)
        fm = build_f_composite(f, pilots, part)
        orth = (np.linalg.norm(fm.conj().T @ fperp)
                / (np.linalg.norm(fm) * np.linalg.norm(fperp)))
        y = stack_observations(ms, part)
        res = np.max(np.abs(fperp.conj().T @ y - dense_y(ms, pilots, part) @ f))
        worst_orth = max(worst_orth, orth)
        worst_res = max(worst_res, res)
    _report(5, f"F-perp orthogonality {worst_orth:.2e}, stacked residual {worst_res:.2e}",
            worst_orth < 1e-12 and worst_res < 1e-10)


def _mse_by_snr(table, estimator):
    return {r.snr_db: r.mse for r in table.rows if r.estimator == estimator}


def test_acceptance_06_grouping_comparison_m64():
    t0 = time.perf_counter()
    grid = (10.0, 20.0, 30.0, 40.0, 50.0)
    base = dict(m=64, g=12, delta=0.5, snr_db=grid, trials=500,
                constraint="NPC", crb=False, seed=2024)
    t_fc1 = run_experiment(ExperimentConfig(scheme="FC_I",
                                            estimators=("ls", "avalanche"), **base))
    t_fc2 = run_experiment(ExperimentConfig(scheme="FC_II", estimators=("ls",), **base))
    t_fcc = run_experiment(ExperimentConfig(
        m=64, g=12, scheme="FC_I", delta=0.5, snr_db=(20.0,), trials=500,
        constraint="FCC", estimators=("avalanche",), crb=False, seed=2024))
    fc1 = _mse_by_snr(t_fc1, "ls")
    aval = _mse_by_snr(t_fc1, "avalanche")
    fc2 = _mse_by_snr(t_fc2, "ls")
    ordering = all(fc2[s] <= fc1[s] <= aval[s] for s in (30.0, 40.0, 50.0))
    aval_fcc_20 = _mse_by_snr(t_fcc, "avalanche")[20.0]
    blowup = all(aval_fcc_20 > v[20.0] for v in (fc1, fc2, aval))
    elapsed = time.perf_counter() - t0
    _report(6, "FC-II <= FC-I <= Avalanche at >=30 dB "
               f"(30 dB: {fc2[30.0]:.2e}/{fc1[30.0]:.2e}/{aval[30.0]:.2e}), "
               f"Avalanche-FCC blows up at 20 dB ({aval_fcc_20:.2e}), {elapsed:.0f}s",
            ordering and blowup and elapsed < 300.0)


def test_acceptance_07_exactly_determined_m67():
    rng_seed = 2077
    part = make_scheme("FC_I", 67, 12).partition
    worst, converged = 0.0, True
    for trial in range(200):
        rng = np.random.default_rng(np.random.SeedSequence([rng_seed, trial]))
        pilots, imp, chan, ms = _simulate(part, rng, snr=30.0, kind="ALL_ONES")
        f_av = avalanche_estimate(ms).f
        rep = ls_estimate(build_stacked(ms), ConstraintSpec.fcc())
        worst = max(worst, _rel_err(f_av, rep.f))
        # B's smallest eigenvalue ratio reaches 8.1e-14 here, above the rank
        # rule's 66 eps = 1.5e-14
        converged = converged and rep.converged
    base = dict(m=67, g=12, delta=0.5, snr_db=(30.0,), trials=200,
                constraint="NPC", estimators=("ls",), crb=False, seed=2077)
    mse1 = run_experiment(ExperimentConfig(scheme="FC_I", **base)).rows[0].mse
    mse2 = run_experiment(ExperimentConfig(scheme="FC_II", **base)).rows[0].mse
    gap_db = 10 * np.log10(mse1 / mse2)
    _report(7, f"Avalanche == joint LS (worst rel diff {worst:.2e}, all converged: "
               f"{converged}), FC-II beats FC-I by {gap_db:.1f} dB at 30 dB",
            worst < 1e-8 and converged and gap_db >= 10.0)


def test_acceptance_08_single_antenna_estimators_vs_crb():
    cfg = ExperimentConfig(m=16, scheme="SINGLETON", delta=0.5, pilots="ALL_ONES",
                           snr_db=(10.0, 40.0, 50.0), trials=200,
                           estimators=("aml", "rogalin", "argos"), constraint="FCC",
                           crb=True, crb_trials=200, aml_max_iter=50, seed=2088)
    table = run_experiment(cfg)
    aml = _mse_by_snr(table, "aml")
    rog = _mse_by_snr(table, "rogalin")
    arg = _mse_by_snr(table, "argos")
    crb = {r.snr_db: r.crb_trace for r in table.rows if r.estimator == "aml"}
    order_10 = aml[10.0] <= rog[10.0] <= arg[10.0]
    gaps = [10 * np.log10(aml[s] / crb[s]) for s in (40.0, 50.0)]
    tight = all(g <= 3.0 for g in gaps)
    # known-h comparison bound sits strictly below the full bound
    rng = np.random.default_rng(2089)
    part = AntennaPartition.singleton(16)
    below = True
    for _ in range(20):
        pilots, imp, chan, _ = _simulate(part, rng, kind="ALL_ONES")
        ctx = context_from_model(imp, coherent_slot(imp, chan, pilots, part, 1e-3))
        below = below and crb_f_known_h(ctx, "FCC").trace < crb_f(ctx, "FCC").trace
    _report(8, f"AML<=Rogalin<=Argos at 10 dB, AML-CRB gap {max(gaps):.2f} dB, "
               "known-h CRB strictly lower",
            order_10 and tight and below)


def test_acceptance_09_interleaved_grouping_gain():
    # Interleaved groups on a 4x16 grid beat contiguous ones by what the CRB
    # predicts.  The reference is the NPC crb_f gap on the first CRB_DRAWS
    # draws of the 30 dB trial stream: same impairments, pilots and grid
    # channel under both assignments.  crb_f is linear in sigma^2
    # (test_crb_hermitian_psd_and_sigma_linearity), so one gap serves every SNR.
    #
    # GAIN_SLACK_DB = 1.0 covers, on this geometric channel at seed 2099:
    #  - LS's excess over the bound, 0.4-0.5 dB on the contiguous grid against
    #    about 0 dB on the interleaved one, which biases the LS gain upwards;
    #  - three standard deviations of the random part, 0.45 dB: the 200-trial
    #    Monte Carlo spread of the LS gain (0.10 dB) and the spread of an
    #    8-draw CRB gap (0.11 dB), added in quadrature.
    base = dict(m=64, g=16, delta=0.5, channel="geometric", rows=4, cols=16,
                spacing=0.5, snr_db=(30.0, 40.0, 50.0), trials=200,
                estimators=("ls",), constraint="NPC", crb=False, seed=2099)
    CRB_DRAWS, GAIN_SLACK_DB = 8, 1.0
    cfgs = [ExperimentConfig(scheme=s, **base) for s in ("INTERLEAVED", "NON_INTERLEAVED")]
    inter, non = (_mse_by_snr(run_experiment(c), "ls") for c in cfgs)
    gains = {s: 10 * np.log10(non[s] / inter[s]) for s in inter}

    schemes = [c.group_scheme for c in cfgs]
    part, geometry = schemes[0].partition, cfgs[0].geometry()
    bounds = np.empty((2, CRB_DRAWS))
    for k in range(CRB_DRAWS):
        rng = np.random.default_rng(np.random.SeedSequence([base["seed"], 0, k]))
        imp = gen_impairments(DELTA, 64, rng)
        chan = gen_channel(64, GEOMETRIC, rng, geometry)
        pilots = default_pilots(part, "UNIT_PHASE_RANDOM", rng)
        sigma2 = noise_variance_from_snr(30.0, chan)
        for a, scheme in enumerate(schemes):
            slot = coherent_slot(imp, permute_channel(chan, scheme.permutation), pilots, part,
                                 sigma2)
            ctx = context_from_model(imp, slot)
            bounds[a, k] = crb_f(ctx, "NPC").trace
    lower_every_draw = bool(np.all(bounds[0] < bounds[1]))
    crb_gap = 10 * np.log10(bounds[1].sum() / bounds[0].sum())
    _report(9, f"CRB lower on all {CRB_DRAWS} draws: {lower_every_draw}; CRB gap "
               f"{crb_gap:.2f} dB; LS gain (dB) "
               + ", ".join(f"{s:.0f}:{g:.2f}" for s, g in sorted(gains.items()))
               + f", each within {GAIN_SLACK_DB} dB of the CRB gap",
            lower_every_draw
            and all(abs(g - crb_gap) <= GAIN_SLACK_DB for g in gains.values()))


def test_acceptance_10_low_snr_saturation():
    part = AntennaPartition.singleton(16)
    pilots = default_pilots(part, "ALL_ONES", None)
    mse_at = {}
    bounded = True
    for si, snr in enumerate((-20.0, -10.0)):
        errs = []
        for trial in range(200):
            rng = np.random.default_rng(np.random.SeedSequence([2100, si, trial]))
            imp = gen_impairments(DELTA, 16, rng)
            chan = gen_channel(16, IID_RAYLEIGH, rng)
            ms = simulate_exchange(part, pilots, imp, chan, snr, rng)
            f_true = calibration_vector(imp)
            spec = ConstraintSpec.npc(f_true)
            f = ls_estimate(build_stacked(ms), spec).f
            e = mse(f, f_true)
            bounded = bounded and e <= 4 * np.linalg.norm(f_true) ** 2 + 1e-9
            errs.append(e)
        mse_at[snr] = np.mean(errs)
    flat_db = abs(10 * np.log10(mse_at[-10.0] / mse_at[-20.0]))
    _report(10, f"NPC errors bounded by 4c, MSE(-10)-MSE(-20) = {flat_db:.2f} dB",
            bounded and flat_db < 1.0)


def test_acceptance_11_noncoherent_consistency():
    rng = np.random.default_rng(2111)
    part = AntennaPartition((1, 2, 3), (1, 2, 2))
    pilots = default_pilots(part, "UNIT_PHASE_RANDOM", rng)
    imp = gen_impairments(DELTA, 6, rng)
    chan = gen_channel(6, IID_RAYLEIGH, rng)
    sched = NoncoherentSchedule((tuple(range(3)),) * 3)
    slots = simulate_noncoherent(part, sched, pilots, imp, np.inf, rng,
                                 channels=[chan] * 3)
    f_nc = ls_estimate(build_stacked_noncoherent(slots),
                       ConstraintSpec.fcc()).f
    coherent = simulate_exchange(part, pilots, imp, chan, np.inf, rng)
    f_c = ls_estimate(build_stacked(coherent),
                      ConstraintSpec.fcc()).f
    same = np.max(np.abs(f_nc - f_c)) < 1e-10

    # independent channels, pairwise two-antenna slots: T*K(K-1)/2 = 21 >= 6
    part7 = AntennaPartition.singleton(7)
    pil7 = default_pilots(part7, "ALL_ONES", None)
    imp7 = gen_impairments(DELTA, 7, rng)
    pairs = [(i, j) for i in range(7) for j in range(i + 1, 7)]
    sched7 = NoncoherentSchedule(tuple(pairs))
    slots7 = simulate_noncoherent(part7, sched7, pil7, imp7, np.inf, rng)
    f7 = ls_estimate(build_stacked_noncoherent(slots7),
                     ConstraintSpec.fcc()).f
    exact = _rel_err(f7, calibration_vector(imp7)) < 1e-10
    _report(11, "non-coherent stack: identical channels match coherent LS, "
                "independent slots recover exactly", same and exact)


def test_acceptance_12_compressed_cost_agreement():
    rng = np.random.default_rng(2112)
    worst = 0.0
    for _ in range(50):
        g = int(rng.integers(2, 5))
        sizes = tuple(int(rng.integers(1, 4)) for _ in range(g))
        part = AntennaPartition(sizes, sizes)   # full-length pilots per group
        pilots = PilotSet(tuple(np.exp(1j * rng.uniform(-np.pi, np.pi, (m, m)))
                                for m in sizes))
        imp = gen_impairments(DELTA, part.num_antennas, rng)
        chan = gen_channel(part.num_antennas, IID_RAYLEIGH, rng)
        snr = float(rng.uniform(0, 30))
        ms = simulate_exchange(part, pilots, imp, chan, snr, rng)
        y = stack_observations(ms, part)
        f = calibration_vector(imp)
        direct = float(np.real(y.conj() @ (perp_projector(
            build_f_composite(f, pilots, part)) @ y)))
        # the library call cross-checks both routes and raises on mismatch
        ml_compressed_cost(ms, f, pilots, part)
        fperp = build_f_perp(f, pilots, part)
        w = fperp.conj().T @ y
        weighted = float(np.real(w.conj() @ np.linalg.solve(
            fperp.conj().T @ fperp, w)))
        worst = max(worst, abs(direct - weighted) / max(abs(direct), abs(weighted)))
    _report(12, f"compressed ML cost routes agree, worst rel diff {worst:.2e}",
            worst < 1e-8)
