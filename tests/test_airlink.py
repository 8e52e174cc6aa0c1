import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from arraycal.airlink import (
    ALL_ONES,
    IDENTITY,
    UNIT_PHASE_RANDOM,
    MeasurementSet,
    NoncoherentSchedule,
    PilotSet,
    default_pilots,
    noise_variance_from_snr,
    simulate_exchange,
    simulate_noncoherent,
)
from arraycal.model import (
    AntennaPartition,
    ChannelRealization,
    GEOMETRIC,
    GeometryConfig,
    IID_RAYLEIGH,
    ImpairmentConfig,
    RfImpairments,
    gen_channel,
    gen_impairments,
    shape_runs,
    slot_plan,
)
from arraycal.bench import ExperimentConfig
from arraycal.grouping import make_scheme
from arraycal.stacking import build_stacked
from dense_oracle import (calibration_vector, dense_y, exchange_pairs, gather,
                          measurements_to_csv)

CFG = ImpairmentConfig(0.5)


def _setup(part, rng, pilot_kind="ALL_ONES"):
    pilots = default_pilots(part, pilot_kind, rng)
    imp = gen_impairments(CFG, part.num_antennas, rng)
    chan = gen_channel(part.num_antennas, IID_RAYLEIGH, rng)
    return pilots, imp, chan


def test_default_pilots_kinds():
    part = AntennaPartition((3, 2), (1, 2))
    p = default_pilots(AntennaPartition((3, 2), (1, 1)), "ALL_ONES", None)
    assert np.array_equal(p[0], np.ones((3, 1)))
    p = default_pilots(AntennaPartition((2, 2), (2, 2)), "IDENTITY", None)
    assert np.array_equal(p[1], np.eye(2))
    rng = np.random.default_rng(0)
    p = default_pilots(part, "UNIT_PHASE_RANDOM", rng)
    assert p[1].shape == (2, 2)
    assert np.allclose(np.abs(p[0]), 1.0)
    with pytest.raises(ValueError):
        default_pilots(part, "ALL_ONES", None)      # L=2 block
    with pytest.raises(ValueError):
        default_pilots(part, "SOMETHING", None)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 4)), min_size=2, max_size=12),
       st.integers(0, 2**32 - 1))
@example([(5, 1)] * 8 + [(6, 1)] * 4, 1)               # FC_II 64/12
def test_random_pilots_are_the_per_group_draws(shapes, seed):
    # one draw of sum M_g L_g phases, split into the groups' blocks, gives
    # each group's own draw bit for bit and leaves the generator where they do
    part = AntennaPartition(*zip(*shapes))
    ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    pilots = default_pilots(part, UNIT_PHASE_RANDOM, ours)
    assert len(pilots.blocks) == len(shapes)
    for block, shape in zip(pilots.blocks, shapes):
        expect = np.exp(1j * ref.uniform(-np.pi, np.pi, size=shape))
        assert block.shape == shape and block.tobytes() == expect.tobytes()
    assert ours.bit_generator.state == ref.bit_generator.state


def test_pilot_validation():
    part = AntennaPartition((2, 2), (2, 2))
    bad = PilotSet((np.ones((2, 2)), np.eye(2)))    # rank-1 first block
    with pytest.raises(ValueError):
        bad.validate(part)
    with pytest.raises(ValueError):
        PilotSet((np.eye(2),)).validate(part)


def test_pilot_rank_is_checked_once_per_object(monkeypatch):
    part = AntennaPartition((2, 2, 1), (2, 2, 1))
    svds = []
    real = np.linalg.matrix_rank
    monkeypatch.setattr(np.linalg, "matrix_rank", lambda a: svds.append(a.shape) or real(a))
    pilots = PilotSet(tuple(np.eye(m) for m in part.group_sizes))
    for _ in range(3):
        pilots.validate(part)
    assert svds == [(2, 2, 2)]              # the (1, 1) run is a vector: no SVD
    with pytest.raises(ValueError, match="shape"):        # shapes are checked every call
        pilots.validate(AntennaPartition((2, 1, 2), (2, 1, 2)))


@pytest.mark.parametrize("shape", [(1, 3), (4, 1), (1, 1), (3, 2)])
def test_vector_blocks_rank_as_matrix_rank_does(shape):
    # a block with one row or one column has full rank iff some entry is
    # nonzero, with no SVD; every verdict is matrix_rank's, also on blocks
    # scaled to 1e-300, zero blocks and blocks with one tiny entry
    rng = np.random.default_rng(0)
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    tiny = np.zeros(shape, dtype=complex)
    tiny[-1, -1] = 1e-300
    blocks = [z, 1e-300 * z, np.zeros(shape), tiny, np.outer(z[:, 0], z[0])]   # last: rank 1
    for b in blocks:
        full = np.linalg.matrix_rank(b) >= min(shape)
        assert PilotSet((b,))._full_rank == full
        assert PilotSet((z, b, z))._full_rank == full        # one run of three groups


def test_runs_are_the_maximal_runs_of_equal_shape_in_group_order():
    # each run of PilotSet.runs is a slice of the received matrix's rows and
    # columns, at the partition's offsets; equal shapes apart are two runs
    cases = ((AntennaPartition((1, 2, 1, 2), (1, 2, 1, 2)), 4),
             (AntennaPartition((2, 2, 1), (2, 2, 1)), 2),
             (AntennaPartition.singleton(5), 1),
             (make_scheme("FC_I", 64, 12).partition, 11))
    for part, count in cases:
        shapes = list(zip(part.group_sizes, part.pilot_lengths))
        runs = shape_runs(shapes)
        assert len(runs) == count
        assert [g for gs in runs for g in gs] == list(range(part.num_groups))
        assert all(len({shapes[g] for g in gs}) == 1 for gs in runs)
        assert all(shapes[a[-1]] != shapes[b[0]] for a, b in zip(runs, runs[1:]))
        ants = np.append(part.offsets, part.num_antennas)
        cols = np.append(part.pilot_offsets, sum(part.pilot_lengths))
        pilots = default_pilots(part, "UNIT_PHASE_RANDOM", np.random.default_rng(0))
        assert len(pilots.runs) == count
        for gs, (p, rows_g, cols_g, r, c) in zip(runs, pilots.runs):
            assert np.array_equal(p, np.stack([pilots[g] for g in gs]))
            assert (r, c) == (slice(ants[gs.start], ants[gs.stop]),
                              slice(cols[gs.start], cols[gs.stop]))
            assert np.array_equal(rows_g, [np.arange(ants[g], ants[g + 1]) for g in gs])
            assert np.array_equal(cols_g, [np.arange(cols[g], cols[g + 1]) for g in gs])


def test_fixed_pilots_are_built_once_per_partition():
    part = AntennaPartition((2, 2, 1), (2, 2, 1))
    pilots = default_pilots(part, "IDENTITY")
    assert default_pilots(AntennaPartition((2, 2, 1), (2, 2, 1)), "IDENTITY") is pilots
    assert not any(b.flags.writeable for b in pilots.blocks)
    with pytest.raises(ValueError):
        pilots[0][0, 0] = 2.0
    ones = default_pilots(AntennaPartition.singleton(3), "ALL_ONES")
    assert ones is default_pilots(AntennaPartition.singleton(3), "ALL_ONES")
    assert all(np.array_equal(b, np.ones((1, 1))) for b in ones.blocks)
    rng = np.random.default_rng(0)
    assert default_pilots(part, "UNIT_PHASE_RANDOM", rng) \
        is not default_pilots(part, "UNIT_PHASE_RANDOM", rng)


def test_block_shapes_and_identity_case():
    part = AntennaPartition((2, 3), (2, 3))
    pilots = default_pilots(part, "IDENTITY", None)
    imp = RfImpairments(np.ones(5), np.ones(5))
    rng = np.random.default_rng(1)
    chan = gen_channel(5, IID_RAYLEIGH, rng)
    ms = simulate_exchange(part, pilots, imp, chan, np.inf, rng)
    y = ms.block(0, 1)
    assert y.shape == (3, 2)            # M_j x L_i
    # T = R = I, P = I, no noise: the raw channel block comes out
    assert np.allclose(y, chan.c[2:5, 0:2])
    assert list(ms.blocks) == [(0, 1), (1, 0)]


def test_pair_equation_residual_noiseless():
    rng = np.random.default_rng(2)
    part = AntennaPartition((2, 3, 1), (2, 2, 1))
    pilots, imp, chan = _setup(part, rng, "UNIT_PHASE_RANDOM")
    ms = simulate_exchange(part, pilots, imp, chan, np.inf, rng)
    f = calibration_vector(imp)
    for (i, j) in part.pairs():
        fi = np.diag(f[part.antennas_of(i)])
        fj = np.diag(f[part.antennas_of(j)])
        resid = pilots[i].T @ fi.T @ ms.block(j, i) - ms.block(i, j).T @ fj @ pilots[j]
        assert np.linalg.norm(resid) < 1e-10


def test_noise_variance_from_snr():
    rng = np.random.default_rng(3)
    chan = gen_channel(8, IID_RAYLEIGH, rng)
    assert noise_variance_from_snr(np.inf, chan) == 0.0
    assert abs(noise_variance_from_snr(10.0, chan) - 0.1) < 1e-15
    geo = GeometryConfig(2, 4, 0.5)
    gchan = gen_channel(8, GEOMETRIC, rng, geo)
    ref = 1.0 / (2.0 * np.pi)
    assert abs(noise_variance_from_snr(0.0, gchan) - ref**2) < 1e-15


def test_noise_level_matches_sigma():
    rng = np.random.default_rng(4)
    part = AntennaPartition((4, 4), (4, 4))
    pilots, imp, chan = _setup(part, rng, "IDENTITY")
    clean = simulate_exchange(part, pilots, imp, chan, np.inf, rng)
    noisy = [simulate_exchange(part, pilots, imp, chan, 0.0, rng) for _ in range(400)]
    diffs = np.concatenate([(n.block(0, 1) - clean.block(0, 1)).ravel() for n in noisy])
    assert abs(np.mean(np.abs(diffs) ** 2) - 1.0) < 0.1


def test_schedule_validation_and_pairs():
    with pytest.raises(ValueError):
        NoncoherentSchedule(((0,),))
    sched = NoncoherentSchedule(((0, 1), (1, 2)))
    assert sched.covers(3)
    assert not sched.covers(4)


def test_noncoherent_fresh_channels_and_override():
    rng = np.random.default_rng(5)
    part = AntennaPartition.singleton(4)
    pilots, imp, chan = _setup(part, rng)
    sched = NoncoherentSchedule(((0, 1, 2, 3), (0, 1, 2, 3)))
    slots = simulate_noncoherent(part, sched, pilots, imp, np.inf, rng)
    assert len(slots) == 2
    assert [s.groups for s in slots] == list(sched.slots)
    # independent draws differ
    assert not np.allclose(slots[0].block(0, 1), slots[1].block(0, 1))
    # forcing the channel list makes the slots identical (noiseless)
    forced = simulate_noncoherent(part, sched, pilots, imp, np.inf, rng,
                                  channels=[chan, chan])
    assert np.allclose(forced[0].block(0, 1), forced[1].block(0, 1))


def test_noncoherent_coverage_check():
    rng = np.random.default_rng(6)
    part = AntennaPartition.singleton(4)
    pilots, imp, _ = _setup(part, rng)
    sched = NoncoherentSchedule(((0, 1), (1, 2)))   # antenna 3 never active
    with pytest.raises(ValueError):
        simulate_noncoherent(part, sched, pilots, imp, np.inf, rng)


def test_partial_activation():
    rng = np.random.default_rng(7)
    part = AntennaPartition.singleton(5)
    pilots, imp, chan = _setup(part, rng)
    ms = simulate_exchange(part, pilots, imp, chan, np.inf, rng, groups=(0, 2, 4))
    assert ms.groups == (0, 2, 4)
    assert (0, 2) in ms.blocks and (0, 1) not in ms.blocks
    with pytest.raises(KeyError):
        ms.block(0, 1)


@pytest.mark.parametrize("groups", [(0, 0, 1), (-1, 2), (0, 5)])
def test_simulate_exchange_rejects_bad_groups(groups):
    # a repeated group, a negative one and one past the last are named, not
    # built into a plan with a pair twice, wrapped round or indexed out of range
    rng = np.random.default_rng(12)
    part = AntennaPartition.singleton(3)
    pilots, imp, chan = _setup(part, rng)
    with pytest.raises(ValueError, match=rf"groups \({groups[0]}, {groups[1]}"):
        simulate_exchange(part, pilots, imp, chan, 20.0, rng, groups=groups)


@pytest.mark.parametrize("count", [1, 3])
def test_simulate_noncoherent_needs_one_channel_per_slot(count):
    rng = np.random.default_rng(13)
    part = AntennaPartition.singleton(3)
    pilots, imp, chan = _setup(part, rng)
    sched = NoncoherentSchedule(((0, 1), (1, 2)))
    with pytest.raises(ValueError, match=f"{count} channels for 2 slots"):
        simulate_noncoherent(part, sched, pilots, imp, 20.0, rng, channels=[chan] * count)


def test_measurements_csv(tmp_path):
    rng = np.random.default_rng(8)
    part = AntennaPartition((1, 2), (1, 2))
    pilots, imp, chan = _setup(part, rng, "UNIT_PHASE_RANDOM")
    ms = simulate_exchange(part, pilots, imp, chan, 20.0, rng)
    path = tmp_path / "meas.csv"
    measurements_to_csv(ms, path)
    lines = path.read_text().splitlines()
    n_entries = sum(b.size for b in ms.blocks.values())
    assert lines[0] == "tx_group,rx_group,row,col,re,im"
    assert len(lines) == 1 + n_entries
    i, j, r, c, re, im = lines[1].split(",")
    # first entry round-trips at full precision
    v = ms.block(int(i), int(j))[int(r), int(c)]
    assert complex(float(re), float(im)) == v


def _pair_loop_csv(blocks, path) -> None:
    """measurements_to_csv's format, written from a {(i, j): block} dict."""
    with open(path, "w") as fh:
        fh.write("tx_group,rx_group,row,col,re,im\n")
        for (i, j) in sorted(blocks):
            y = blocks[(i, j)]
            for r in range(y.shape[0]):
                for c in range(y.shape[1]):
                    v = y[r, c]
                    fh.write(f"{i},{j},{r},{c},{v.real:.17g},{v.imag:.17g}\n")


def test_measurements_csv_matches_pair_loop(tmp_path):
    # the dump of the received matrix is byte for byte the per-pair dump
    part = AntennaPartition((1, 2, 3), (2, 1, 3))
    pilots, imp, chan = _setup(part, np.random.default_rng(9), "UNIT_PHASE_RANDOM")
    ms = simulate_exchange(part, pilots, imp, chan, 20.0, np.random.default_rng(10))
    measurements_to_csv(ms, tmp_path / "new.csv")
    _pair_loop_csv(exchange_pairs(part, pilots, imp, chan, 20.0, np.random.default_rng(10)),
                   tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@st.composite
def _exchanges(draw):
    g = draw(st.integers(2, 5))
    sizes = tuple(draw(st.integers(1, 4)) for _ in range(g))
    lens = tuple(draw(st.integers(1, 4)) for _ in range(g))
    kinds = [UNIT_PHASE_RANDOM] + [ALL_ONES] * all(l == 1 for l in lens) \
        + [IDENTITY] * (lens == sizes)
    kind = draw(st.sampled_from(kinds))
    snr = draw(st.one_of(st.just(np.inf), st.floats(-10.0, 40.0)))
    groups = draw(st.one_of(st.none(), st.sets(st.integers(0, g - 1), min_size=2)))
    return AntennaPartition(sizes, lens), kind, snr, groups, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(_exchanges())
@example((AntennaPartition((2, 3, 1, 2), (3, 3, 2, 1)), UNIT_PHASE_RANDOM, 20.0, None, 1))
@example((AntennaPartition((1,) * 5, (1,) * 5), ALL_ONES, np.inf, {0, 2, 4}, 2))
@example((AntennaPartition((2, 3), (2, 3)), IDENTITY, 0.0, None, 3))
# single antennas with L = 1, 2, 3 beside a two-antenna group; groups 0 and 4
# share a shape, so the shape order is not Y's own
@example((AntennaPartition((1, 2, 1, 1, 1), (2, 1, 3, 1, 2)), UNIT_PHASE_RANDOM, 20.0, None, 4))
def test_simulate_exchange_equals_pair_loop(case):
    # every block bit for bit, and the rest of the trial's random stream intact
    part, kind, snr, groups, seed = case
    rng = np.random.default_rng(seed)
    pilots, imp, chan = _setup(part, rng, kind)
    ours, ref_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    ms = simulate_exchange(part, pilots, imp, chan, snr, ours, groups=groups)
    ref = exchange_pairs(part, pilots, imp, chan, snr, ref_rng, groups=groups)
    assert list(ms.blocks) == list(ref) and len(ms.blocks) == len(ref)
    for (i, j), y in ref.items():
        assert np.array_equal(ms.block(i, j), y)
    assert ours.bit_generator.state == ref_rng.bit_generator.state
    for i in range(part.num_groups):
        with pytest.raises(KeyError):
            ms.block(i, i)


@settings(max_examples=60, deadline=None)
@given(_exchanges())
def test_plans_are_shared_read_only_and_match_gather(case):
    part, kind, snr, groups, seed = case
    everyone = tuple(range(part.num_groups))
    active = everyone if groups is None else tuple(sorted(groups))
    # two freshly built configs share one partition (schemes are made once
    # per set of arguments), and equal partitions share one plan
    configs = [ExperimentConfig(m=part.num_antennas, scheme="CUSTOM", crb=False,
                                group_sizes=part.group_sizes,
                                pilot_lengths=part.pilot_lengths) for _ in range(2)]
    assert configs[0].group_scheme.partition is configs[1].group_scheme.partition
    parts = [part, AntennaPartition(part.group_sizes, part.pilot_lengths)]
    assert parts[0] is not parts[1]
    plan = slot_plan(parts[0], everyone)
    assert slot_plan(parts[1], everyone) is plan
    some = slot_plan(parts[1], active)
    assert (some is plan) == (active == everyone)
    for p in (plan, some):
        assert not p.noise_index.flags.writeable
        with pytest.raises(ValueError):
            p.noise_index.flat[0] = 0
    # each position of the slot's draw is read exactly once, and no
    # self-block or inactive entry reads one (they read noise_size)
    index, n = some.noise_index, some.noise_size
    assert index.shape == some.shape + (2,) and np.all(index <= n)
    assert np.array_equal(np.bincount(index.ravel(), minlength=n + 1)[:n], np.ones(n, int))
    group = np.repeat(everyone, part.group_sizes)[:, None]
    sender = np.repeat(everyone, part.pilot_lengths)
    idle = (group == sender) | ~np.isin(group, active) | ~np.isin(sender, active)
    assert np.array_equal(index == n, np.repeat(idle[:, :, None], 2, axis=2))
    # the draw is read block after block in the pair loop's order
    # (transmitters then receivers ascending, real part then imaginary part),
    # into the entries that gather reads
    where = MeasurementSet(np.arange(index.size // 2).reshape(some.shape), part, 0.0, some)
    expected, start = np.full((where.received.size, 2), n), 0
    for i in active:
        for j in active:
            if i != j:
                at = gather(where, [i], [j]).ravel()
                expected[at] = start + np.arange(2 * at.size).reshape(2, -1).T
                start += 2 * at.size
    assert start == n and np.array_equal(index.reshape(-1, 2), expected)
    # the exchange adds the draw there and leaves zeros elsewhere
    rng = np.random.default_rng(seed)
    pilots, imp, chan = _setup(part, rng, kind)
    ms = simulate_exchange(part, pilots, imp, chan, snr, np.random.default_rng(seed), plan=some)
    clean = simulate_exchange(part, pilots, imp, chan, np.inf, rng, plan=some)
    assert ms.plan is some and ms.groups == active
    assert not np.any(ms.received[idle])
    if np.isfinite(snr):
        sd = np.sqrt(noise_variance_from_snr(snr, chan) / 2)
        draw = sd * np.random.default_rng(seed).standard_normal(n)
        noise = (ms.received - clean.received)[~idle]
        np.testing.assert_allclose(np.stack((noise.real, noise.imag), axis=1),
                                   draw[index[~idle]],
                                   rtol=0, atol=1e-12 * np.max(np.abs(ms.received)))


def test_build_stacked_is_reused_per_measurement_set():
    rng = np.random.default_rng(11)
    part = AntennaPartition((1, 2, 2, 1), (1, 2, 1, 2))
    pilots, imp, chan = _setup(part, rng, "UNIT_PHASE_RANDOM")
    ms = simulate_exchange(part, pilots, imp, chan, 20.0, rng)
    first = build_stacked(ms, pilots)
    assert build_stacked(ms, pilots) is first
    # the kept system is keyed on the pilots object: another one, even with
    # equal blocks, rebuilds
    other = build_stacked(ms, PilotSet(pilots.blocks))
    assert other is not first and np.array_equal(other.gram, first.gram)
    # the kept system belongs to this slot's measurements only
    again = simulate_exchange(part, pilots, imp, chan, 20.0, rng)
    assert build_stacked(again, pilots) is not first
    # a partially active slot stacks its own pairs, (0, 1), (0, 3) and (1, 3)
    some = simulate_exchange(part, pilots, imp, chan, 20.0, rng, groups=(0, 1, 3))
    ss = build_stacked(some, pilots)
    y = dense_y(some, pilots, part, [(0, 1), (0, 3), (1, 3)])
    a = y.conj().T @ y
    assert ss.rows == y.shape[0] == 2 + 2 + 4
    assert np.max(np.abs(ss.gram - a)) <= 1e-13 * np.max(np.abs(a))
