import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import khatri_rao

from dense_oracle import (calibration_vector, constrained_lstsq, dense_y, dense_y_noncoherent,
                          numerical_rank, row_blocks)
from arraycal.airlink import NoncoherentSchedule, default_pilots, simulate_exchange, simulate_noncoherent
from arraycal.model import (
    AntennaPartition,
    IID_RAYLEIGH,
    gen_channel,
    gen_impairments,
)
from arraycal.estimators import ConstraintSpec, ls_estimate, normalize_for_constraint
from arraycal.stacking import (
    TILE,
    build_stacked,
    build_stacked_noncoherent,
    check_identifiability,
    group_components,
    independent_equations,
    pair_equation_block,
)

DELTA = 0.5        # amplitude spread of the drawn impairments


def _instance(part, rng, snr=np.inf, kind="UNIT_PHASE_RANDOM"):
    pilots = default_pilots(part, kind, rng)
    imp = gen_impairments(DELTA, part.num_antennas, rng)
    chan = gen_channel(part.num_antennas, IID_RAYLEIGH, rng)
    ms = simulate_exchange(part, pilots, imp, chan, snr, rng)
    return pilots, imp, chan, ms


def test_two_scalar_groups_single_row():
    rng = np.random.default_rng(0)
    part = AntennaPartition.singleton(2)
    pilots, imp, chan, ms = _instance(part, rng, kind="ALL_ONES")
    ss = build_stacked(ms)
    y = dense_y(ms, pilots, part)
    assert y.shape == (1, 2) and ss.rows == 1
    y21 = ms.block(1, 0).item()
    y12 = ms.block(0, 1).item()
    row = np.array([y21, -y12])
    assert np.allclose(y[0], row)
    assert np.allclose(ss.gram, np.outer(row.conj(), row))


def test_null_space_contains_f():
    rng = np.random.default_rng(1)
    part = AntennaPartition((1, 2, 3, 2), (2, 2, 1, 2))
    pilots, imp, chan, ms = _instance(part, rng)
    ss = build_stacked(ms)
    f = calibration_vector(imp)
    assert np.linalg.norm(dense_y(ms, pilots, part) @ f) / np.linalg.norm(f) < 1e-10
    assert (np.linalg.norm(ss.gram @ f)
            / (np.linalg.norm(ss.gram, 2) * np.linalg.norm(f))) < 1e-12
    assert row_blocks(part)[0] == (0, 0, 1)


def test_rank_of_stacked_matrix():
    rng = np.random.default_rng(2)
    # overdetermined: rank capped at M-1
    part = AntennaPartition.singleton(5)
    _, _, _, ms = _instance(part, rng, kind="ALL_ONES")
    pilots = default_pilots(part, "ALL_ONES", rng)
    ss = build_stacked(ms)
    assert ss.rows == 10
    assert numerical_rank(dense_y(ms, pilots, part)) == 4
    # underdetermined: full row rank on a generic draw
    part = AntennaPartition((4, 4), (2, 2))
    pilots, imp, chan, ms = _instance(part, rng)
    ss = build_stacked(ms)
    assert ss.rows == 4
    assert numerical_rank(dense_y(ms, pilots, part)) == 4


def test_gram_matches_matrix():
    rng = np.random.default_rng(3)
    part = AntennaPartition.singleton(4)
    pilots, imp, chan, ms = _instance(part, rng, snr=10.0, kind="ALL_ONES")
    ss = build_stacked(ms)
    y = dense_y(ms, pilots, part)
    assert np.allclose(ss.gram, y.conj().T @ y)


def test_noncoherent_single_slot_equals_coherent():
    rng = np.random.default_rng(4)
    part = AntennaPartition.singleton(4)
    pilots = default_pilots(part, "ALL_ONES", rng)
    imp = gen_impairments(DELTA, 4, rng)
    sched = NoncoherentSchedule((tuple(range(4)),))
    slots = simulate_noncoherent(part, sched, pilots, imp, np.inf, rng)
    ss_nc = build_stacked_noncoherent(slots)
    ss_c = build_stacked(slots[0])
    assert np.array_equal(ss_nc.gram, ss_c.gram)
    assert ss_nc.rows == ss_c.rows


def test_noncoherent_row_counts_add_up():
    rng = np.random.default_rng(5)
    part = AntennaPartition.singleton(4)
    pilots = default_pilots(part, "ALL_ONES", rng)
    imp = gen_impairments(DELTA, 4, rng)
    sched = NoncoherentSchedule(((0, 1), (2, 3)))
    slots = simulate_noncoherent(part, sched, pilots, imp, np.inf, rng)
    ss = build_stacked_noncoherent(slots)
    assert ss.rows == 2
    assert row_blocks(part, sched) == [(0, 0, 1), (1, 2, 3)]
    y = dense_y_noncoherent(slots, pilots, part, sched)
    assert y.shape == (2, 4) and np.allclose(ss.gram, y.conj().T @ y)


def test_noncoherent_pairwise_recovery_matches_ratios():
    # three single antennas calibrated over three pairwise slots; the LS
    # solution must reproduce the closed-form ratios f_i/f_j = y_{j->i}/y_{i->j}
    rng = np.random.default_rng(6)
    part = AntennaPartition.singleton(3)
    pilots = default_pilots(part, "ALL_ONES", rng)
    imp = gen_impairments(DELTA, 3, rng)
    sched = NoncoherentSchedule(((0, 1), (0, 2), (1, 2)))
    slots = simulate_noncoherent(part, sched, pilots, imp, np.inf, rng)
    ss = build_stacked_noncoherent(slots)
    f = calibration_vector(imp)
    assert np.linalg.norm(dense_y_noncoherent(slots, pilots, part, sched) @ f) < 1e-10
    assert np.linalg.norm(ss.gram @ f) < 1e-10
    y01 = slots[0].block(0, 1).item()
    y10 = slots[0].block(1, 0).item()
    assert abs(f[1] / f[0] - y10 / y01) < 1e-12


def test_noncoherent_slots_stack_each_with_its_own_pilots():
    # three slots, each under its own draw of random pilots: the Gram, A f
    # and the FCC and NPC solves equal those of the dense Y(P) summed over the
    # slots, each slot's rows built with that slot's pilots
    rng = np.random.default_rng(9)
    part = AntennaPartition((1, 2, 1, 2), (2, 1, 2, 2))
    imp = gen_impairments(DELTA, part.num_antennas, rng)
    sched = NoncoherentSchedule(((0, 1, 2), (1, 2, 3), (0, 3)))
    assert check_identifiability(part, sched)["ok"]
    slots = [simulate_exchange(part, default_pilots(part, "UNIT_PHASE_RANDOM", rng), imp,
                               gen_channel(part.num_antennas, IID_RAYLEIGH, rng), 20.0, rng,
                               groups=groups) for groups in sched.slots]
    ss = build_stacked_noncoherent(slots)
    y = np.vstack([dense_y(slots[t], slots[t].pilots, part, [(i, j)])
                   for t, i, j in row_blocks(part, sched)])
    a = y.conj().T @ y
    assert ss.rows == y.shape[0] == 20
    assert np.max(np.abs(ss.gram - a)) <= 1e-13 * np.max(np.abs(a))
    # one pilot set for every slot gives another Gram
    a0 = dense_y_noncoherent(slots, slots[0].pilots, part, sched)
    assert np.max(np.abs(a0.conj().T @ a0 - a)) > 0.1 * np.max(np.abs(a))
    x = rng.standard_normal(part.num_antennas) + 1j * rng.standard_normal(part.num_antennas)
    ax = y.conj().T @ (y @ x)
    assert np.max(np.abs(ss.apply_gram(x) - ax)) <= 1e-13 * np.max(np.abs(ax))
    e0 = np.eye(part.num_antennas)[0]
    f_ref, rank = constrained_lstsq(y, e0, 1.0)
    assert rank == part.num_antennas - 1
    f = ls_estimate(ss, ConstraintSpec.fcc()).f
    assert np.linalg.norm(f - f_ref) <= 1e-10 * np.linalg.norm(f_ref)
    npc = ConstraintSpec.npc(calibration_vector(imp))
    f_ref = normalize_for_constraint(np.linalg.svd(y)[2][-1].conj(), npc)
    f = ls_estimate(ss, npc).f
    assert np.linalg.norm(f - f_ref) <= 1e-10 * np.linalg.norm(f_ref)


def test_identifiability_counting():
    p64 = AntennaPartition((1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 8), (1,) * 12)
    assert check_identifiability(p64) == {"rows": 66, "needed": 63, "ok": True}
    p67 = AntennaPartition((1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11), (1,) * 12)
    assert check_identifiability(p67) == {"rows": 66, "needed": 66, "ok": True}
    sizes68 = (5,) * 4 + (6,) * 8
    p68 = AntennaPartition(sizes68, (1,) * 12)
    out = check_identifiability(p68)
    assert out["rows"] == 66 and out["needed"] == 67 and not out["ok"]


def test_identifiability_with_schedule():
    part = AntennaPartition.singleton(4)
    sched = NoncoherentSchedule(((0, 1), (1, 2), (2, 3)))
    out = check_identifiability(part, sched)
    assert out == {"rows": 3, "needed": 3, "ok": True}


def test_identifiability_counts_independent_equations():
    # sizes (1, 2), lengths (2, 1): the pair's 2 rows have rank 1
    part = AntennaPartition((1, 2), (2, 1))
    assert check_identifiability(part) == {"rows": 1, "needed": 2, "ok": False}
    assert list(independent_equations(part)[1]) == [1, 1] and group_components(part) == [(0, 1)]
    # enough rows, but two slots that never link {0, 1} with {2, 3}
    part = AntennaPartition((1,) * 4, (2,) * 4)
    sched = NoncoherentSchedule(((2, 3), (0, 1)))
    assert group_components(part, sched) == [(0, 1), (2, 3)]
    assert check_identifiability(part, sched) == {"rows": 2, "needed": 3, "ok": False}
    assert group_components(part, NoncoherentSchedule(((2, 3), (0, 1), (1, 2)))) \
        == [(0, 1, 2, 3)]
    # rows 10 >= 8, but group 4's five antennas enter only four equations
    part = AntennaPartition((1, 1, 1, 1, 5), (1,) * 5)
    assert check_identifiability(part) == {"rows": 10, "needed": 8, "ok": False}
    assert list(independent_equations(part)[1]) == [4, 4, 4, 4, 4]


def test_empty_slot_list_rejected():
    part = AntennaPartition.singleton(3)
    pilots = default_pilots(part, "ALL_ONES", None)
    with pytest.raises(ValueError):
        build_stacked_noncoherent([])


def test_pair_equation_block_is_khatri_rao():
    # the documented Khatri-Rao form, pair by pair and for a stacked batch
    rng = np.random.default_rng(7)
    cplx = lambda *shp: rng.standard_normal(shp) + 1j * rng.standard_normal(shp)
    mi, mj, li, lj = 2, 3, 3, 2
    y_ji, y_ij, p_i, p_j = cplx(4, mi, lj), cplx(4, mj, li), cplx(4, mi, li), cplx(4, mj, lj)
    bi, bj = pair_equation_block(y_ji, y_ij, p_i, p_j)
    for k in range(4):
        ci, cj = pair_equation_block(y_ji[k], y_ij[k], p_i[k], p_j[k])
        np.testing.assert_allclose(ci, khatri_rao(y_ji[k].T, p_i[k].T), rtol=1e-15)
        np.testing.assert_allclose(cj, -khatri_rao(p_j[k].T, y_ij[k].T), rtol=1e-15)
        np.testing.assert_array_equal(bi[k], ci)
        np.testing.assert_array_equal(bj[k], cj)


@st.composite
def _partitions_and_schedules(draw):
    g = draw(st.integers(2, 5))
    sizes = tuple(draw(st.integers(1, 3)) for _ in range(g))
    lens = tuple(draw(st.integers(1, 3)) for _ in range(g))
    slots = None
    if draw(st.booleans()):
        groups = st.sets(st.integers(0, g - 1), min_size=2)
        slots = [tuple(s) for s in draw(st.lists(groups, min_size=1, max_size=3))]
        if not NoncoherentSchedule(slots).covers(g):
            slots.append(tuple(range(g)))
        slots = NoncoherentSchedule(tuple(slots))
    return AntennaPartition(sizes, lens), slots, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(_partitions_and_schedules())
@example((AntennaPartition.singleton(16), None, 1))      # the ALL_ONES partition, L_g = 1
@example((AntennaPartition((2, 1, 3, 1, 2), (1, 2, 1, 3, 2)),
          NoncoherentSchedule(((0, 1, 2), (2, 3), (0, 3, 4))), 5))   # idle groups per slot
@example((AntennaPartition((1, 2, 1, 1, 1), (2, 1, 3, 1, 2)), None, 6))   # shape order not Y's
@example((AntennaPartition.singleton(2 * TILE + 6), None, 7))   # a last, partial tile
@example((AntennaPartition((2,) * (TILE // 2 + 4), (2,) * (TILE // 2 + 4)), None, 8))  # 2 tiles
def test_gram_equals_dense_oracle(case):
    # the pair-by-pair Gram and A f equal the products of the dense Y(P)
    part, sched, seed = case
    rng = np.random.default_rng(seed)
    pilots = default_pilots(part, "UNIT_PHASE_RANDOM", rng)
    imp = gen_impairments(DELTA, part.num_antennas, rng)
    if sched is None:
        chan = gen_channel(part.num_antennas, IID_RAYLEIGH, rng)
        ms = simulate_exchange(part, pilots, imp, chan, 10.0, rng)
        ss = build_stacked(ms)
        y = dense_y(ms, pilots, part)
    else:
        slots = simulate_noncoherent(part, sched, pilots, imp, 10.0, rng)
        ss = build_stacked_noncoherent(slots)
        y = dense_y_noncoherent(slots, pilots, part, sched)
    a = y.conj().T @ y
    assert ss.rows == y.shape[0] and ss.gram.shape == a.shape
    assert np.max(np.abs(ss.gram - a)) <= 1e-13 * np.max(np.abs(a))
    x = rng.standard_normal(part.num_antennas) + 1j * rng.standard_normal(part.num_antennas)
    ax = y.conj().T @ (y @ x)
    assert np.max(np.abs(ss.apply_gram(x) - ax)) <= 1e-13 * np.max(np.abs(ax))


@settings(max_examples=80, deadline=None)
@given(_partitions_and_schedules())
# the triangle slot's three rows have rank 2: 5 rows counted, rank 4 < M - 1
@example((AntennaPartition((2, 1, 1, 1, 1), (1,) * 5),
          NoncoherentSchedule(((0, 1), (0, 4), (1, 2, 3))), 0))
def test_identifiability_matches_numerical_rank(case):
    # the count, connectivity and per-group rules say ok iff the noiseless
    # Y(P) has rank M - 1
    part, sched, seed = case
    rng = np.random.default_rng(seed)
    pilots = default_pilots(part, "UNIT_PHASE_RANDOM", rng)
    imp = gen_impairments(DELTA, part.num_antennas, rng)
    if sched is None:
        chan = gen_channel(part.num_antennas, IID_RAYLEIGH, rng)
        y = dense_y(simulate_exchange(part, pilots, imp, chan, np.inf, rng), pilots, part)
    else:
        slots = simulate_noncoherent(part, sched, pilots, imp, np.inf, rng)
        y = dense_y_noncoherent(slots, pilots, part, sched)
    full = numerical_rank(y) == part.num_antennas - 1
    assert check_identifiability(part, sched)["ok"] == full
