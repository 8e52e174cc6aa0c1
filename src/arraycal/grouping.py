"""Antenna group schemes and the calibration capacity of a channel-use budget.

For a fixed budget of K channel uses, the pair count sum_{i<j} L_i L_j is
maximized by K single-channel-use groups, so up to K(K-1)/2 + 1 antennas can
be calibrated in K uses (T times more over T non-coherent slots).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import AntennaPartition, GeometryConfig

FC_I = "FC_I"
FC_II = "FC_II"
SINGLETON = "SINGLETON"
ARGOS = "ARGOS"
AVALANCHE = "AVALANCHE"
INTERLEAVED = "INTERLEAVED"
NON_INTERLEAVED = "NON_INTERLEAVED"
CUSTOM = "CUSTOM"

SCHEME_LABELS = (FC_I, FC_II, SINGLETON, ARGOS, AVALANCHE, INTERLEAVED, NON_INTERLEAVED, CUSTOM)


@dataclass(frozen=True)
class GroupScheme:
    partition: AntennaPartition
    assignment: tuple       # per-antenna group index (grid/global numbering)
    label: str

    def __post_init__(self):
        if self.label not in SCHEME_LABELS:
            raise ValueError(f"unknown scheme label {self.label!r}")
        assignment = tuple(int(a) for a in self.assignment)
        object.__setattr__(self, "assignment", assignment)
        counts = np.bincount(assignment, minlength=self.partition.num_groups)
        if tuple(counts) != self.partition.group_sizes:
            raise ValueError("assignment inconsistent with group sizes")

    @property
    def permutation(self) -> np.ndarray:
        """Antenna ordering that makes groups contiguous (stable within a group)."""
        return np.argsort(np.asarray(self.assignment), kind="stable")


def max_calibratable(k: int, t: int = 1) -> int:
    """Most antennas calibratable with k channel uses per slot over t slots."""
    if k < 2 or t < 1:
        raise ValueError("need k >= 2 channel uses and t >= 1 slots")
    return t * k * (k - 1) // 2 + 1


def _fc1_sizes(m: int, g: int) -> tuple:
    """Avalanche-style sizes (1, 1, 2, ..., g-1), capped from the end to sum to m."""
    sizes = [max(1, i) for i in range(g)]
    if sum(sizes) < m:
        raise ValueError(f"{g} groups can cover at most {sum(sizes)} antennas")
    if g > m:
        raise ValueError("cannot reduce group sizes to match antenna count")
    for idx in reversed(range(g)):
        sizes[idx] -= min(sum(sizes) - m, sizes[idx] - 1)
    return tuple(sizes)


def _fc2_sizes(m: int, g: int) -> tuple:
    """As equal as possible, smaller groups first."""
    base, extra = divmod(m, g)
    if base < 1:
        raise ValueError("more groups than antennas")
    return tuple([base] * (g - extra) + [base + 1] * extra)


@lru_cache(maxsize=32)
def make_scheme(label: str, m: int, g: int | None = None,
                geometry: GeometryConfig | None = None) -> GroupScheme:
    """Construct one of the named grouping schemes for m antennas.

    FC_I/FC_II need g; INTERLEAVED/NON_INTERLEAVED need g and a grid geometry
    (same size vectors, assignments differ: interleaved spreads each group
    across the grid in column-major stride-g fashion, non-interleaved takes
    column-contiguous runs).  All schemes use one channel use per group.
    """
    if label in (INTERLEAVED, NON_INTERLEAVED):
        if g is None or geometry is None:
            raise ValueError(f"{label} needs a group count and a grid geometry")
        if geometry.num_antennas != m or m % g:
            raise ValueError("grid size must match m and m must be divisible by g")
        idx = np.arange(m)              # column-major grid numbering
        assignment = idx % g if label == INTERLEAVED else idx // (m // g)
        return GroupScheme(AntennaPartition((m // g,) * g, (1,) * g), assignment, label)
    if label == SINGLETON:
        sizes = lens = (1,) * m
    elif label == ARGOS:
        sizes = lens = (1, m - 1)
    elif label in (AVALANCHE, FC_I, FC_II) and g is None:
        raise ValueError(f"{label} needs the group count")
    elif label == AVALANCHE:
        sizes, lens = tuple(max(1, i) for i in range(g)), (1,) * g
        if sum(sizes) != m:
            raise ValueError(f"avalanche with {g} groups covers {sum(sizes)} antennas, not {m}")
    elif label in (FC_I, FC_II):
        sizes = _fc1_sizes(m, g) if label == FC_I else _fc2_sizes(m, g)
        lens = (1,) * g
    else:
        raise ValueError(f"unsupported scheme label {label!r}")
    # groups take contiguous runs of antennas
    return GroupScheme(AntennaPartition(sizes, lens), np.repeat(np.arange(len(sizes)), sizes),
                       label)


@lru_cache(maxsize=32)
def custom_scheme(sizes: tuple, pilot_lengths: tuple | None = None) -> GroupScheme:
    part = AntennaPartition(sizes, (1,) * len(sizes) if pilot_lengths is None else pilot_lengths)
    return GroupScheme(part, np.repeat(np.arange(part.num_groups), part.group_sizes), CUSTOM)
