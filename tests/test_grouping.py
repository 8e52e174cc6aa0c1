import numpy as np
import pytest

from dense_oracle import (brute_force_best_pair_count, optimal_group_sizes, pair_count,
                          scheme_from_text, scheme_to_text)
from arraycal.grouping import GroupScheme, custom_scheme, make_scheme, max_calibratable
from arraycal.model import AntennaPartition, GeometryConfig
from arraycal.stacking import check_identifiability


def test_optimal_group_sizes():
    assert optimal_group_sizes(2) == [1, 1]
    assert optimal_group_sizes(12) == [1] * 12
    with pytest.raises(ValueError):
        optimal_group_sizes(1)


def test_max_calibratable():
    assert max_calibratable(12, 1) == 67
    assert max_calibratable(2, 1) == 2
    assert max_calibratable(2, 2) == 3
    assert max_calibratable(4, 3) == 19


def test_brute_force_confirms_all_ones():
    for k in range(3, 8):
        best, comp = brute_force_best_pair_count(k)
        assert comp == (1,) * k
        assert best == k * (k - 1) // 2
        assert best == pair_count(optimal_group_sizes(k))


def test_fc1_sizes():
    s = make_scheme("FC_I", 64, 12)
    assert s.partition.group_sizes == (1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 8)
    s = make_scheme("FC_I", 67, 12)
    assert s.partition.group_sizes == (1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)
    with pytest.raises(ValueError):
        make_scheme("FC_I", 68, 12)


def test_fc2_sizes():
    s = make_scheme("FC_II", 64, 12)
    assert s.partition.group_sizes == (5,) * 8 + (6,) * 4
    s = make_scheme("FC_II", 67, 12)
    assert s.partition.group_sizes == (5,) * 5 + (6,) * 7


def test_avalanche_scheme():
    s = make_scheme("AVALANCHE", 7, 4)
    assert s.partition.group_sizes == (1, 1, 2, 3)
    assert s.partition.num_antennas == 7
    with pytest.raises(ValueError):
        make_scheme("AVALANCHE", 8, 4)


def test_singleton_and_argos_schemes():
    s = make_scheme("SINGLETON", 5)
    assert s.partition.group_sizes == (1,) * 5
    s = make_scheme("ARGOS", 8)
    assert s.partition.group_sizes == (1, 7)
    assert s.partition.pilot_lengths == (1, 7)


def test_interleaved_vs_non_interleaved():
    geo = GeometryConfig(4, 16, 0.5)
    inter = make_scheme("INTERLEAVED", 64, 16, geo)
    non = make_scheme("NON_INTERLEAVED", 64, 16, geo)
    assert inter.partition.group_sizes == non.partition.group_sizes == (4,) * 16
    assert inter.assignment != non.assignment
    # non-interleaved groups are contiguous runs; interleaved are strided
    assert non.assignment[:4] == (0, 0, 0, 0)
    assert inter.assignment[:4] == (0, 1, 2, 3)
    # each group collects one antenna per 16-antenna stride
    members = [a for a, g in enumerate(inter.assignment) if g == 0]
    assert members == [0, 16, 32, 48]
    with pytest.raises(ValueError):
        make_scheme("INTERLEAVED", 64, 16)          # geometry missing
    with pytest.raises(ValueError):
        make_scheme("INTERLEAVED", 64, 5, geo)      # m not divisible by g


def test_permutation_makes_groups_contiguous():
    geo = GeometryConfig(2, 4, 0.5)
    s = make_scheme("INTERLEAVED", 8, 2, geo)
    perm = s.permutation
    sorted_assignment = np.asarray(s.assignment)[perm]
    assert np.all(np.diff(sorted_assignment) >= 0)


def test_all_shipped_schemes_identifiable():
    geo = GeometryConfig(4, 16, 0.5)
    schemes = [
        make_scheme("FC_I", 64, 12),
        make_scheme("FC_II", 64, 12),
        make_scheme("SINGLETON", 16),
        make_scheme("ARGOS", 16),
        make_scheme("AVALANCHE", 7, 4),
        make_scheme("INTERLEAVED", 64, 16, geo),
        make_scheme("NON_INTERLEAVED", 64, 16, geo),
    ]
    for s in schemes:
        assert sum(s.partition.group_sizes) == s.partition.num_antennas
        assert check_identifiability(s.partition)["ok"], s.label


def test_assignment_consistency_enforced():
    part = AntennaPartition((1, 2), (1, 1))
    with pytest.raises(ValueError):
        GroupScheme(part, (0, 0, 1), "CUSTOM")
    with pytest.raises(ValueError):
        GroupScheme(part, (0, 1, 1), "NOT_A_LABEL")


def test_custom_scheme_defaults():
    s = custom_scheme((2, 3), (1, 2))
    assert s.partition.pilot_lengths == (1, 2)
    s = custom_scheme((2, 3))
    assert s.partition.pilot_lengths == (1, 1)


def test_scheme_text_roundtrip():
    geo = GeometryConfig(2, 4, 0.5)
    s = make_scheme("INTERLEAVED", 8, 4, geo)
    text = scheme_to_text(s)
    back = scheme_from_text(text)
    assert back == s
    with pytest.raises(ValueError):
        scheme_from_text("label = FC_I\n")           # missing fields
    with pytest.raises(ValueError):
        scheme_from_text(text.replace("2,2,2,2", "2,2,x,2"))
