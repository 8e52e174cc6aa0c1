import numpy as np
import pytest

from dense_oracle import calibration_vector, compose_digital_channel
from arraycal.model import (
    AntennaPartition,
    GEOMETRIC,
    GeometryConfig,
    IID_RAYLEIGH,
    ImpairmentConfig,
    RfImpairments,
    gen_channel,
    gen_impairments,
)


def test_partition_basic():
    p = AntennaPartition((1, 2, 3), (1, 1, 2))
    assert p.num_groups == 3
    assert p.num_antennas == 6
    assert p.offsets == (0, 1, 3)
    assert p.antennas_of(2) == slice(3, 6)
    assert p.pairs() == [(0, 1), (0, 2), (1, 2)]


def test_partition_validation():
    with pytest.raises(ValueError):
        AntennaPartition((2, 2), (1,))
    with pytest.raises(ValueError):
        AntennaPartition((4,), (1,))
    with pytest.raises(ValueError):
        AntennaPartition((1, 0), (1, 1))


def test_singleton_partition():
    p = AntennaPartition.singleton(5)
    assert p.group_sizes == (1,) * 5
    assert p.pilot_lengths == (1,) * 5


def test_impairments_zero_spread_unit_amplitude():
    rng = np.random.default_rng(0)
    imp = gen_impairments(ImpairmentConfig(0.0), 16, rng)
    assert np.allclose(np.abs(imp.tx_gains), 1.0)
    assert np.allclose(np.abs(imp.rx_gains), 1.0)
    # phases should actually vary
    assert np.std(np.angle(imp.tx_gains)) > 0.1


def test_impairments_fix_first_and_ratio_bounds():
    rng = np.random.default_rng(1)
    d = 0.1
    imp = gen_impairments(ImpairmentConfig(d), 64, rng)
    f = calibration_vector(imp)
    assert f[0] == 1.0 + 0.0j
    lo, hi = (1 - d) / (1 + d), (1 + d) / (1 - d)
    assert np.all(np.abs(f) >= lo - 1e-12)
    assert np.all(np.abs(f) <= hi + 1e-12)


def test_impairments_amplitude_spread_empirical():
    rng = np.random.default_rng(2)
    amps = []
    for _ in range(10**4 // 16):
        imp = gen_impairments(ImpairmentConfig(0.5), 16, rng)
        amps.append(np.abs(imp.tx_gains))
    a = np.concatenate(amps)
    assert a.min() >= 0.5 and a.max() <= 1.5
    assert a.min() < 0.52 and a.max() > 1.48  # the range is actually exercised


def test_calibration_vector_trivia():
    imp = RfImpairments(np.ones(4), np.ones(4))
    assert np.allclose(calibration_vector(imp), 1.0)
    imp = RfImpairments(np.array([2.0, 1.0]), np.array([1.0, 2.0]))
    assert np.allclose(calibration_vector(imp), [2.0, 0.5])


def test_channel_symmetry_and_variance():
    rng = np.random.default_rng(3)
    chan = gen_channel(12, IID_RAYLEIGH, rng)
    assert np.array_equal(chan.c, chan.c.T)
    assert np.all(np.diag(chan.c) == 0)
    # unit variance of the off-diagonal entries, Monte Carlo check
    vals = []
    for _ in range(200):
        c = gen_channel(10, IID_RAYLEIGH, rng).c
        iu = np.triu_indices(10, 1)
        vals.append(c[iu])
    v = np.mean(np.abs(np.concatenate(vals)) ** 2)
    assert abs(v - 1.0) < 0.05


def test_geometric_channel_adjacent_gain():
    rng = np.random.default_rng(4)
    geo = GeometryConfig(4, 16, 0.5)
    chan = gen_channel(64, GEOMETRIC, rng, geo)
    assert np.array_equal(chan.c, chan.c.T)
    # adjacent antennas in the same column sit half a wavelength apart
    expected = 1.0 / (2.0 * np.pi)
    assert abs(abs(chan.c[1, 0]) - expected) < 1e-12
    assert abs(chan.ref_gain - expected) < 1e-12


def test_geometry_positions_column_major():
    geo = GeometryConfig(3, 2, 0.5)
    pos = geo.positions()
    assert pos.shape == (6, 2)
    # index runs down the first column before moving on
    assert np.allclose(pos[0], [0.0, 0.0])
    assert np.allclose(pos[1], [0.5, 0.0])
    assert np.allclose(pos[3], [0.0, 0.5])


def test_geometric_requires_geometry():
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError):
        gen_channel(8, GEOMETRIC, rng)


def test_compose_digital_channel_trivia():
    imp = RfImpairments(np.ones(3), np.ones(3))
    c = np.arange(9.0).reshape(3, 3)
    assert np.allclose(compose_digital_channel(imp, imp, c), c)
    a = RfImpairments(np.array([2.0]), np.array([1.0]))
    b = RfImpairments(np.array([1.0]), np.array([3.0]))
    assert np.allclose(compose_digital_channel(a, b, np.array([[1.0]])), [[6.0]])


def test_reciprocity_identity():
    # H_{A->B} = F_B^{-T} H_{B->A}^T F_A for diagonal impairments
    rng = np.random.default_rng(6)
    na, nb = 3, 4
    imp_a = gen_impairments(ImpairmentConfig(0.5), na, rng)
    imp_b = gen_impairments(ImpairmentConfig(0.5), nb, rng)
    c_ab = rng.standard_normal((nb, na)) + 1j * rng.standard_normal((nb, na))
    h_ab = compose_digital_channel(imp_a, imp_b, c_ab)
    h_ba = compose_digital_channel(imp_b, imp_a, c_ab.T)
    f_a = np.diag(calibration_vector(imp_a))
    f_b = np.diag(calibration_vector(imp_b))
    lhs = h_ab
    rhs = np.linalg.inv(f_b.T) @ h_ba.T @ f_a
    assert np.max(np.abs(lhs - rhs)) < 1e-12
