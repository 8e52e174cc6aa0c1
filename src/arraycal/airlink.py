"""Bidirectional pilot exchanges between antenna groups.

Each group i transmits its pilot block P_i (M_i x L_i) while every other
group listens; the block received at group j is

    Y_{i->j} = R_j C_{i->j} T_i P_i + N_{i->j},   N ~ CN(0, sigma^2) per entry.

A MeasurementSet holds one coherent slot as a single received matrix (row
block j is what group j's antennas heard, column block i group i's L_i pilot
channel uses) and the partition and pilots behind it.  Non-coherent
operation draws a fresh channel per slot; the hardware impairments stay fixed.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .model import (
    AntennaPartition,
    ChannelRealization,
    GeometryConfig,
    IID_RAYLEIGH,
    RfImpairments,
    SlotPlan,
    gen_channel,
    permute_channel,
    shape_runs,
    slot_plan,
)

UNIT_PHASE_RANDOM = "UNIT_PHASE_RANDOM"
ALL_ONES = "ALL_ONES"
IDENTITY = "IDENTITY"


@dataclass(frozen=True)
class PilotSet:
    """Per-group pilot matrices P_i of shape M_i x L_i, held as read-only
    copies: a caller's later edit reaches neither them nor their runs."""

    blocks: tuple

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(np.array(b, dtype=complex) for b in self.blocks))
        for b in self.blocks:
            b.flags.writeable = False

    def __getitem__(self, i: int) -> np.ndarray:
        return self.blocks[i]

    @cached_property
    def runs(self) -> tuple:
        """One entry per maximal run of consecutive groups of equal block
        shape (model.shape_runs), in group order: (P_g stacked (n, M_g,
        L_g), the antennas (n, M_g), the pilot columns (n, L_g), and the
        run's row and column slices of the received matrix)."""
        first = np.cumsum([(0, 0)] + [b.shape for b in self.blocks], axis=0)
        out = []
        for gs in shape_runs(b.shape for b in self.blocks):
            (r0, c0), (r1, c1) = first[gs.start], first[gs.stop]
            p = np.stack(self.blocks[gs.start:gs.stop])
            p.flags.writeable = False
            out.append((p, np.arange(r0, r1).reshape(len(gs), -1),
                        np.arange(c0, c1).reshape(len(gs), -1), slice(r0, r1), slice(c0, c1)))
        return tuple(out)

    @cached_property
    def _full_rank(self) -> bool:
        """Whether every block has full rank, checked once per object.  A
        vector block (one row or column) has it when some entry is nonzero
        (unit phases are), matrix_rank's verdict on a finite vector, with no SVD."""
        return all("_unit_phase" in self.__dict__ or p.any((1, 2)).all() if 1 in p.shape[1:] else
                   (np.linalg.matrix_rank(p) >= min(p.shape[1:])).all() for p, *_ in self.runs)

    def validate(self, partition: AntennaPartition) -> None:
        """ValueError unless the blocks fit partition; shapes are checked once per partition."""
        if self.__dict__.get("_checked_partition") is not partition:
            if len(self.blocks) != partition.num_groups:
                raise ValueError("one pilot block per group required")
            for b, m, l in zip(self.blocks, partition.group_sizes, partition.pilot_lengths):
                if b.shape != (m, l):
                    raise ValueError(f"pilot block shape {b.shape} != ({m}, {l})")
            self.__dict__["_checked_partition"] = partition
        if not self._full_rank:
            raise ValueError("pilot block is rank deficient")


class _PairBlocks(Mapping):
    """Read-only (i, j) -> Y_{i->j} view over a slot's ordered active pairs."""

    def __init__(self, ms: "MeasurementSet"):
        self._ms = ms

    def __getitem__(self, pair) -> np.ndarray:
        return self._ms.block(*pair)

    def __iter__(self):
        act = self._ms.groups
        return ((i, j) for i in act for j in act if j != i)

    def __len__(self) -> int:
        return len(self._ms.groups) * (len(self._ms.groups) - 1)


@dataclass
class MeasurementSet:
    """One slot's received samples as a single M x sum(L_i) matrix, with the
    partition and pilots that produced them: all an estimator reads.

    Y_{i->j} = received[antennas of j, pilot columns of i] (M_j x L_i).  Self
    blocks and the rows and columns of inactive groups hold zeros, so every
    estimator reads the matrix whole.  plan is the slot's model.slot_plan;
    channel is simulate_exchange's, the simulator's truth, for the bound only.
    build_stacked keeps its result, the slot's StackedSystem, in stacked.
    """

    received: np.ndarray
    partition: AntennaPartition
    pilots: PilotSet = field(repr=False)
    noise_variance: float
    plan: SlotPlan = field(repr=False)
    channel: ChannelRealization | None = field(default=None, repr=False, compare=False)
    stacked: object = field(default=None, init=False, repr=False, compare=False)

    @property
    def groups(self) -> tuple:
        """The active groups, ascending."""
        return self.plan.groups

    @property
    def blocks(self) -> Mapping:
        return _PairBlocks(self)

    def block(self, i: int, j: int) -> np.ndarray:
        """Y_{i->j}, a view into received."""
        if i == j or i not in self.groups or j not in self.groups:
            raise KeyError(f"no measurement block for pair {i}->{j}")
        return self.received[self.partition.antennas_of(j), self.partition.pilot_columns(i)]


@dataclass(frozen=True)
class NoncoherentSchedule:
    """Active group subsets per coherent slot; each slot needs >= 2 distinct groups."""

    slots: tuple
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        slots = tuple(tuple(sorted(s)) for s in self.slots)
        object.__setattr__(self, "slots", slots)
        if not slots:
            raise ValueError("schedule must contain at least one slot")
        for s in slots:
            if len(s) < 2:
                raise ValueError("each slot must activate at least two groups")
            if len(set(s)) < len(s):
                raise ValueError(f"slot {s} lists a group more than once")

    def covers(self, num_groups: int) -> bool:
        return set().union(*self.slots) == set(range(num_groups))

    def plans(self, partition: AntennaPartition) -> tuple:
        """Each slot's plan (model.slot_plan), built once per schedule and
        partition: a schedule of more slots than slot_plan's cache holds
        would otherwise rebuild every plan in every trial."""
        if partition not in self._plans:
            self._plans[partition] = tuple(slot_plan(partition, s) for s in self.slots)
        return self._plans[partition]


def require_pilot_kind(partition: AntennaPartition, kind: str) -> None:
    """default_pilots' rule: a known kind; L_i = 1 for ALL_ONES, L_i = M_i for IDENTITY."""
    if kind not in (UNIT_PHASE_RANDOM, ALL_ONES, IDENTITY):
        raise ValueError(f"unknown pilot kind {kind!r}")
    if kind == ALL_ONES and any(l != 1 for l in partition.pilot_lengths):
        raise ValueError("all-ones pilots use a single channel use (L_i = 1)")
    if kind == IDENTITY and partition.pilot_lengths != partition.group_sizes:
        raise ValueError("identity pilots require L_i = M_i")


@lru_cache(maxsize=32)
def _fixed_pilots(partition: AntennaPartition, kind: str) -> PilotSet:
    """The ALL_ONES or IDENTITY pilots of a partition, or for UNIT_PHASE_RANDOM
    zero blocks, whose runs lay out every draw; built once."""
    return PilotSet(tuple(np.ones((m, 1)) if kind == ALL_ONES else np.identity(m)
                          if kind == IDENTITY else np.zeros((m, l))
                          for m, l in zip(partition.group_sizes, partition.pilot_lengths)))


def default_pilots(partition: AntennaPartition, kind: str,
                   rng: np.random.Generator | None = None) -> PilotSet:
    """Standard pilot choices: unit-modulus random phases, all-ones columns,
    identity (built once per partition).  The random phases are one read-only
    draw, laid out as the partition's zero blocks: each run's P and each block
    is a view of it, with the values of one draw per group."""
    require_pilot_kind(partition, kind)
    if kind != UNIT_PHASE_RANDOM:
        return _fixed_pilots(partition, kind)
    if rng is None:
        raise ValueError("random pilots need an rng")
    layout = _fixed_pilots(partition, kind).runs
    ends = np.cumsum([p.size for p, *_ in layout])
    phases = np.exp(1j * rng.uniform(-np.pi, np.pi, size=int(ends[-1])))
    phases.flags.writeable = False
    runs = tuple((phases[e - p.size:e].reshape(p.shape), *index)
                 for e, (p, *index) in zip(ends, layout))
    pilots = object.__new__(PilotSet)      # its blocks are read-only views: not copied
    pilots.__dict__.update(blocks=tuple(b for p, *_ in runs for b in p), runs=runs,
                           _checked_partition=partition, _unit_phase=True)
    return pilots


def require_snr_db(snr_db) -> None:
    """simulate_exchange's rule: snr_db (one value or several) is finite or +inf."""
    if not np.all(np.isfinite(snr_db) | np.isposinf(snr_db)):
        raise ValueError("snr_db must be finite or +inf")


def noise_variance_from_snr(snr_db: float, chan: ChannelRealization) -> float:
    """sigma^2 such that the SNR at the strongest link equals snr_db.

    For the unit-variance i.i.d. Rayleigh model this reduces to 1 / SNR; for
    the geometric model the reference is the receive antenna nearest to the
    transmitter.
    """
    if np.isinf(snr_db):
        return 0.0
    return float(chan.ref_gain**2 / 10.0 ** (snr_db / 10.0))


def simulate_exchange(partition: AntennaPartition, pilots: PilotSet,
                      imp: RfImpairments, chan: ChannelRealization,
                      snr_db: float, rng: np.random.Generator,
                      groups: tuple | None = None,
                      plan: SlotPlan | None = None) -> MeasurementSet:
    """One coherent slot of bidirectional exchanges between the given groups
    (distinct, of 0..G-1; all by default), or those of plan, their slot_plan,
    if the caller holds it (NoncoherentSchedule.plans).

    snr_db = +inf gives the exact noiseless blocks.  Y = R C T P is formed
    run by run of groups of equal shape (PilotSet.runs), each a slice of Y's
    columns: a single-antenna transmit run is one broadcast product
    (R C T)[:, a_g] P_g over all receive rows, in place, and a multi-antenna
    one a stacked product per receive run.  Self blocks (a group does not
    hear itself) and inactive groups are zeroed, and the noise added through
    plan.noise_index.
    """
    pilots.validate(partition)
    if imp.num_antennas != partition.num_antennas or chan.num_antennas != partition.num_antennas:
        raise ValueError("impairments/channel size does not match partition")
    require_snr_db(snr_db)
    if plan is None:
        g = partition.num_groups
        active = tuple(range(g)) if groups is None else tuple(sorted(groups))
        if len(set(active)) < len(active) or not set(active) <= set(range(g)):
            raise ValueError(f"groups {tuple(groups)} are not distinct groups of 0..{g - 1}")
        if len(active) < 2:
            raise ValueError("at least two groups must be active")
        plan = slot_plan(partition, active)
    sigma2 = noise_variance_from_snr(snr_db, chan)
    gain = imp.rx_gains[:, None] * chan.c
    gain *= imp.tx_gains                           # R C T
    received = np.empty(plan.shape, dtype=complex)
    for p, rows_t, _, r, c in pilots.runs:
        n, m, l = p.shape
        y_t = received[:, c].reshape(-1, n, l)      # the run's columns, (M, n, L_g)
        if m == 1:
            np.einsum("at,tl->atl", gain[:, r], p[:, 0, :], out=y_t)
        else:
            for _, rows_r, *_ in pilots.runs:
                y_t[rows_r] = (gain[rows_r[:, None, :, None], rows_t[:, None, :]] @ p
                               ).transpose(0, 2, 1, 3)
        y_t[rows_t, np.arange(n)[:, None]] = 0.0    # self blocks
    for g in set(range(partition.num_groups)) - set(plan.groups):
        received[partition.antennas_of(g)] = 0.0
        received[:, partition.pilot_columns(g)] = 0.0
    if sigma2 > 0:
        noise = np.zeros(plan.noise_size + 1)       # the draw, and a zero for the rest
        rng.standard_normal(out=noise[:-1])
        noise *= np.sqrt(sigma2 / 2.0)
        received.view(float).reshape(plan.noise_index.shape)[...] += noise[plan.noise_index]
    received.flags.writeable = False
    return MeasurementSet(received, partition, pilots, sigma2, plan, chan)


def simulate_noncoherent(partition: AntennaPartition, schedule: NoncoherentSchedule,
                         pilots: PilotSet, imp: RfImpairments, snr_db: float,
                         rng: np.random.Generator, channel_model: str = IID_RAYLEIGH,
                         geometry: GeometryConfig | None = None,
                         channels: list | None = None,
                         permutation: np.ndarray | None = None) -> tuple:
    """One record per coherent slot of a schedule, with a fresh channel per slot.

    Impairments are held constant across slots.  A caller may supply the list
    of per-slot ChannelRealization objects (e.g. to force equal channels);
    otherwise they are drawn independently.  permutation (a GroupScheme's
    antenna ordering, see permute_channel) is applied to every slot's channel,
    so that grouped antennas keep their grid positions in each slot.
    """
    if not schedule.covers(partition.num_groups):
        raise ValueError("every group must be active in at least one slot")
    if channels is not None and len(channels) != len(schedule.slots):
        raise ValueError(f"{len(channels)} channels for {len(schedule.slots)} slots")
    out = []
    for t, plan in enumerate(schedule.plans(partition)):
        chan = channels[t] if channels is not None else \
            gen_channel(partition.num_antennas, channel_model, rng, geometry)
        out.append(simulate_exchange(partition, pilots, imp, permute_channel(chan, permutation),
                                     snr_db, rng, plan=plan))
    return tuple(out)
