"""Domain types and random generation of RF impairments and intra-array channels.

The digital channel between two antenna subsets A and B is the cascade
H_{A->B} = R_B C_{A->B} T_A, where T and R are the diagonal Tx/Rx front-end
responses and C is the reciprocal over-the-air propagation channel
(C_{A->B} = C_{B->A}^T).  The calibration vector is f_m = t_m / r_m; it maps
the two link directions onto each other and is identifiable up to one complex
scale.  slot_plan compiles the index structure of one slot of pilot exchanges,
which depends only on the antenna partition and the active groups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, groupby

import numpy as np

IID_RAYLEIGH = "IID_RAYLEIGH"
GEOMETRIC = "GEOMETRIC"


@dataclass(frozen=True)
class AntennaPartition:
    """Partition of M antennas into G groups with per-group pilot lengths."""

    group_sizes: tuple
    pilot_lengths: tuple
    # start index of each group in the global antenna ordering, and of its
    # pilot columns in the concatenation of all groups' L_i channel uses
    offsets: tuple = field(init=False, repr=False, compare=False)
    pilot_offsets: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.group_sizes)
        lens = tuple(int(l) for l in self.pilot_lengths)
        object.__setattr__(self, "group_sizes", sizes)
        object.__setattr__(self, "pilot_lengths", lens)
        if len(sizes) != len(lens):
            raise ValueError("group_sizes and pilot_lengths must have equal length")
        if len(sizes) < 2:
            raise ValueError("need at least two antenna groups")
        if any(s < 1 for s in sizes) or any(l < 1 for l in lens):
            raise ValueError("group sizes and pilot lengths must be positive")
        object.__setattr__(self, "offsets", tuple(accumulate(sizes[:-1], initial=0)))
        object.__setattr__(self, "pilot_offsets", tuple(accumulate(lens[:-1], initial=0)))

    @property
    def num_groups(self) -> int:
        return len(self.group_sizes)

    @property
    def num_antennas(self) -> int:
        return sum(self.group_sizes)

    def antennas_of(self, i: int) -> slice:
        o = self.offsets[i]
        return slice(o, o + self.group_sizes[i])

    def pilot_columns(self, i: int) -> slice:
        o = self.pilot_offsets[i]
        return slice(o, o + self.pilot_lengths[i])

    def pairs(self):
        """All group pairs (i, j) with i < j, in lexicographic order."""
        g = self.num_groups
        return [(i, j) for i in range(g) for j in range(i + 1, g)]

    @staticmethod
    def singleton(m: int, pilot_length: int = 1) -> "AntennaPartition":
        return AntennaPartition((1,) * m, (pilot_length,) * m)


def batch_indices(keys) -> list:
    """Indices 0..n-1 grouped by equal keys, given as k integer arrays of
    length n (the key's parts): one index array per distinct key, in order of
    first appearance, each in ascending order."""
    code = np.ravel_multi_index(keys, [int(k.max()) + 1 for k in keys])
    out = []
    todo = np.ones(code.size, dtype=bool)
    while todo.any():
        sel = np.flatnonzero(code == code[np.argmax(todo)])
        todo[sel] = False
        out.append(sel)
    return out


@dataclass(frozen=True, eq=False)
class SlotPlan:
    """One slot's index structure, for the active groups (ascending).  Its
    noise is one draw of noise_size values, ordered pair by ordered pair
    (transmitters, then receivers, ascending), each M_j x L_i block of
    Y_{i->j} row-major, real part first; noise_index (M, sum(L_i), 2) holds
    each received entry's places in it, or noise_size in self blocks and
    inactive groups.  rows counts the rows of Y(P).  Read-only."""

    groups: tuple
    noise_size: int
    noise_index: np.ndarray
    shape: tuple
    rows: int


def shape_runs(shapes) -> list:
    """The maximal runs of consecutive groups of equal block shape (M_g, L_g),
    given one shape per group, in group order: a range of groups each."""
    stops = list(accumulate(len(list(run)) for _, run in groupby(shapes)))
    return [range(a, b) for a, b in zip([0] + stops, stops)]


@lru_cache(maxsize=32)
def slot_plan(partition: AntennaPartition, active: tuple) -> SlotPlan:
    """The plan of a slot in which the groups active (ascending) exchange,
    built once per partition and active groups: equal arguments give the same
    object."""
    sizes, lens = np.asarray(partition.group_sizes), np.asarray(partition.pilot_lengths)
    offsets, act = np.asarray(partition.offsets), np.asarray(active, dtype=int)
    # Y_{i->j} has size[i, j] entries, whose noise starts at start[i, j] in the draw
    on = np.isin(np.arange(sizes.size), act)
    size = np.outer(lens, sizes) * (on[:, None] & on & ~np.eye(sizes.size, dtype=bool))
    start = (np.cumsum(2 * size) - 2 * size.ravel()).reshape(size.shape)
    rx = np.repeat(np.arange(sizes.size), sizes)[:, None]       # each row's group
    tx = np.repeat(np.arange(sizes.size), lens)                 # each column's group
    block = size[tx, rx]                                        # each entry's block size
    re = start[tx, rx] + (np.arange(rx.size)[:, None] - offsets[rx]) * lens[tx] \
        + np.arange(tx.size) - np.asarray(partition.pilot_offsets)[tx]
    noise_size = 2 * int(size.sum())
    noise_index = np.where(block[:, :, None] > 0, np.stack((re, re + block), axis=2), noise_size)
    g = act[np.transpose(np.triu_indices(act.size, 1))]
    noise_index.flags.writeable = False
    return SlotPlan(tuple(active), noise_size, noise_index, noise_index.shape[:2],
                    int(np.sum(lens[g[:, 0]] * lens[g[:, 1]])))


@dataclass(frozen=True)
class RfImpairments:
    """Diagonals of the Tx and Rx front-end response matrices."""

    tx_gains: np.ndarray
    rx_gains: np.ndarray

    def __post_init__(self):
        tx = np.asarray(self.tx_gains, dtype=complex)
        rx = np.asarray(self.rx_gains, dtype=complex)
        object.__setattr__(self, "tx_gains", tx)
        object.__setattr__(self, "rx_gains", rx)
        if tx.shape != rx.shape or tx.ndim != 1:
            raise ValueError("tx_gains and rx_gains must be 1-d and of equal length")
        if np.any(tx == 0) or np.any(rx == 0):
            raise ValueError("front-end gains must be nonzero")

    @property
    def num_antennas(self) -> int:
        return self.tx_gains.size


@dataclass(frozen=True)
class GeometryConfig:
    """Rectangular antenna grid; spacing given in wavelengths (d / lambda)."""

    rows: int
    cols: int
    spacing_over_wavelength: float

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid dimensions must be positive")
        if self.spacing_over_wavelength <= 0:
            raise ValueError("antenna spacing must be positive")

    @property
    def num_antennas(self) -> int:
        return self.rows * self.cols

    def positions(self) -> np.ndarray:
        """(M, 2) coordinates in wavelengths, column-major antenna numbering."""
        d = self.spacing_over_wavelength
        cc, rr = np.meshgrid(np.arange(self.cols), np.arange(self.rows))
        # column-major: antenna index runs down each column first
        return np.stack([rr.ravel(order="F") * d, cc.ravel(order="F") * d], axis=1)


@dataclass(frozen=True)
class ImpairmentConfig:
    """Amplitude spread delta in [0, 1); phases are always uniform in [-pi, pi]."""

    amplitude_spread: float = 0.1

    def __post_init__(self):
        if not (0.0 <= self.amplitude_spread < 1.0):
            raise ValueError("amplitude spread must lie in [0, 1)")


@dataclass(frozen=True)
class ChannelRealization:
    """Reciprocal intra-array channel: c is symmetric (c = c^T, not Hermitian).

    ref_gain is the magnitude of the strongest link; the SNR definition of the
    simulator is referenced to it (for the geometric model this is the gain at
    the receive antenna nearest to the transmitter).
    """

    c: np.ndarray
    model_tag: str
    ref_gain: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "c", np.asarray(self.c, dtype=complex))
        if self.model_tag not in (IID_RAYLEIGH, GEOMETRIC):
            raise ValueError(f"unknown channel model {self.model_tag!r}")

    @property
    def num_antennas(self) -> int:
        return self.c.shape[0]


def gen_impairments(config: ImpairmentConfig, m: int, rng: np.random.Generator) -> RfImpairments:
    """Draw Tx/Rx gains with amplitude uniform in [1-delta, 1+delta] and uniform phase.

    The first Rx gain is tied to the first Tx gain, so that f[0] = t_0 / r_0
    = 1 exactly (amplitudes stay in range), as the first-coefficient
    constraint's truth needs.
    """
    if m < 2:
        raise ValueError("need at least 2 antennas")
    d = config.amplitude_spread
    tx, rx = (rng.uniform(1.0 - d, 1.0 + d, m) * np.exp(1j * rng.uniform(-np.pi, np.pi, m))
              for _ in range(2))                # amplitudes, then phases; tx, then rx
    rx[0] = tx[0]
    return RfImpairments(tx, rx)


def gen_channel(m: int, model: str, rng: np.random.Generator,
                geometry: GeometryConfig | None = None) -> ChannelRealization:
    """Draw one reciprocal intra-array channel realization.

    IID_RAYLEIGH: upper-triangle entries are unit-variance circularly-symmetric
    complex Gaussian, mirrored.  GEOMETRIC: |c_ij| = lambda / (4 pi d_ij) with
    i.i.d. uniform phases, mirrored.  The diagonal is unused and left at zero.
    """
    if model == IID_RAYLEIGH:
        c = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2)
        ref = 1.0
    elif model == GEOMETRIC:
        if geometry is None:
            raise ValueError("geometric channel model requires a GeometryConfig")
        if geometry.num_antennas != m:
            raise ValueError("geometry grid size does not match antenna count")
        pos = geometry.positions()
        dist = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)
        with np.errstate(divide="ignore"):
            mag = 1.0 / (4.0 * np.pi * dist)
        np.fill_diagonal(mag, 0.0)
        c = mag * np.exp(1j * rng.uniform(-np.pi, np.pi, size=(m, m)))
        ref = 1.0 / (4.0 * np.pi * dist[dist > 0].min())
    else:
        raise ValueError(f"unknown channel model {model!r}")
    c = np.triu(c, 1)
    return ChannelRealization(c + c.T, model, ref_gain=ref)


def permute_channel(chan: ChannelRealization, perm: np.ndarray | None) -> ChannelRealization:
    """The channel with antennas renumbered by perm: entry (a, b) is c[perm[a], perm[b]].

    With a GroupScheme's permutation, antenna a of the contiguous group ordering
    sits at grid position perm[a].  None leaves the channel as it is.
    """
    if perm is None:
        return chan
    return ChannelRealization(chan.c[np.ix_(perm, perm)], chan.model_tag, chan.ref_gain)
