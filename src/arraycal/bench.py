"""Monte Carlo benchmark harness: MSE vs SNR per estimator, grouping and constraint.

Experiments are driven by a flat key = value config file and are fully
deterministic given (config, seed): every random draw is keyed by
(seed, snr index, trial index).  Results go to a plot-ready CSV with one row
per (estimator, snr) cell, including the averaged constrained CRB trace.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
import time
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import crb as crb_mod
from .airlink import (
    UNIT_PHASE_RANDOM,
    NoncoherentSchedule,
    PilotSet,
    default_pilots,
    noise_variance_from_snr,
    require_pilot_kind,
    require_snr_db,
    simulate_exchange,
    simulate_noncoherent,
)
from .estimators import (
    ConstraintSpec,
    aml_estimate,
    argos_estimate,
    avalanche_estimate,
    chain,
    daisy_chain_estimate,
    ls_estimate,
    mse,
    require_aml_settings,
    require_avalanche_partition,
    require_single_antenna_groups,
    require_tree,
    rogalin_estimate,
    star,
)
from .grouping import (
    ARGOS,
    CUSTOM,
    SCHEME_LABELS,
    SINGLETON,
    GroupScheme,
    custom_scheme,
    make_scheme,
)
from .model import (
    GEOMETRIC,
    AntennaPartition,
    GeometryConfig,
    IID_RAYLEIGH,
    ImpairmentConfig,
    gen_channel,
    gen_impairments,
    permute_channel,
)
from .stacking import (
    StackedSystem,
    build_stacked,
    build_stacked_noncoherent,
    check_identifiability,
    group_components,
    independent_equations,
)


class UnidentifiableError(ValueError):
    """Raised when the configured scheme cannot determine all coefficients."""


@dataclass
class Trial:
    """What every estimator of a trial sees; data is a MeasurementSet, or a list
    of one per slot on a non-coherent schedule."""

    config: ExperimentConfig
    spec: ConstraintSpec
    data: object
    pilots: PilotSet
    partition: AntennaPartition

    def system(self) -> StackedSystem:
        if self.config.slot_schedule is None:
            return build_stacked(self.data, self.pilots)
        return build_stacked_noncoherent(self.data, self.pilots)


@dataclass(frozen=True)
class Estimator:
    """call(trial) gives an EstimationReport in the trial's constraint.
    noncoherent: stacks a schedule's slots.  partition: its partition rule
    (partition, who), raising ValueError."""

    call: Callable
    noncoherent: bool = False
    partition: Callable | None = None


def _aml(t: Trial):
    cfg = t.config
    init = None if cfg.aml_init == "ones" else \
        ls_estimate(t.system(), ConstraintSpec.fcc()).f
    return aml_estimate(t.data, t.pilots, t.partition, init=init, tol=cfg.aml_tol,
                        max_iter=cfg.aml_max_iter, constraint=t.spec)


# The calls go through this module's globals, so a wrapper put there (a
# tracer, a test's monkeypatch) sees them.
ESTIMATORS = {
    "ls": Estimator(lambda t: ls_estimate(t.system(), t.spec), noncoherent=True),
    "argos": Estimator(lambda t: argos_estimate(t.data, t.pilots, t.partition, t.spec),
                       partition=lambda p, who: require_tree(p, star(p), who)),
    "rogalin": Estimator(lambda t: rogalin_estimate(t.data, t.pilots, t.partition, t.spec),
                         partition=require_single_antenna_groups),
    "daisy": Estimator(lambda t: daisy_chain_estimate(t.data, t.pilots, t.partition, t.spec),
                       partition=lambda p, who: require_tree(p, chain(p), who)),
    "avalanche": Estimator(lambda t: avalanche_estimate(t.data, t.pilots, t.partition, t.spec),
                           partition=require_avalanche_partition),
    "aml": Estimator(_aml),
}

# The experiment constraints, as a ConstraintSpec of the trial's true f.
CONSTRAINTS = {
    "FCC": lambda f_true: ConstraintSpec.fcc(),
    "NPC": ConstraintSpec.npc,
    "UNIT_NORM": lambda f_true: ConstraintSpec.unit_norm(),
}


@dataclass(frozen=True)
class ExperimentConfig:
    m: int
    scheme: str = "SINGLETON"
    g: int | None = None
    group_sizes: tuple | None = None       # for CUSTOM schemes
    pilot_lengths: tuple | None = None
    channel: str = "iid"                   # iid | geometric
    rows: int | None = None
    cols: int | None = None
    spacing: float = 0.5
    delta: float = 0.1
    snr_db: tuple = (10.0, 20.0, 30.0)
    trials: int = 50
    estimators: tuple = ("ls",)
    constraint: str = "NPC"
    seed: int = 0
    pilots: str = "UNIT_PHASE_RANDOM"
    crb: bool = True
    crb_trials: int = 50
    crb_known_h: bool = False
    aml_tol: float = 1e-6
    aml_max_iter: int = 100
    aml_init: str = "ls"                   # ls | ones
    noncoherent_slots: tuple | None = None  # tuple of group tuples
    timing: bool = False

    def __post_init__(self):
        """Every rule a run depends on, checked before check or run_experiment
        draws anything.  Identifiability is theirs to report (exit 3)."""
        if self.trials < 1 or not self.snr_db:
            raise ValueError("need trials >= 1 and a non-empty snr grid")
        require_snr_db(self.snr_db)
        if self.channel not in ("iid", "geometric"):
            raise ValueError("channel must be iid or geometric")
        if self.channel == "geometric" and self.geometry().num_antennas != self.m:
            raise ValueError(f"a {self.rows} x {self.cols} grid does not hold m = {self.m}")
        ImpairmentConfig(self.delta)               # delta in [0, 1)
        if self.constraint not in CONSTRAINTS:
            raise ValueError(f"unsupported experiment constraint {self.constraint!r}")
        if self.aml_init not in ("ls", "ones"):
            raise ValueError(f"aml_init must be ls or ones, not {self.aml_init!r}")
        require_aml_settings(self.aml_tol, self.aml_max_iter)
        if self.crb and self.crb_trials < 1:
            raise ValueError("crb = true needs crb_trials >= 1")
        if self.g is not None and self.scheme in (SINGLETON, ARGOS, CUSTOM):
            raise ValueError(f"scheme {self.scheme} takes no g")
        if self.scheme != CUSTOM and (self.group_sizes, self.pilot_lengths) != (None, None):
            raise ValueError(f"group_sizes and pilot_lengths are for CUSTOM schemes only, "
                             f"not {self.scheme}")
        partition = self.group_scheme.partition
        require_pilot_kind(partition, self.pilots)
        for k, name in enumerate(self.estimators):
            est = ESTIMATORS.get(name)
            if est is None:
                raise ValueError(f"unknown estimator {name!r}")
            if name in self.estimators[:k]:
                raise ValueError(f"estimator {name!r} is listed twice")
            if self.slot_schedule is not None and not est.noncoherent:
                raise ValueError(f"estimator {name!r} does not support non-coherent schedules")
            if est.partition is not None:
                est.partition(partition, f"estimator {name!r}")

    def geometry(self) -> GeometryConfig | None:
        if self.channel != "geometric":
            return None
        if self.rows is None or self.cols is None:
            raise ValueError("geometric channel needs rows and cols")
        return GeometryConfig(self.rows, self.cols, self.spacing)

    @cached_property
    def group_scheme(self) -> GroupScheme:
        if self.scheme != CUSTOM:
            return make_scheme(self.scheme, self.m, self.g, self.geometry())
        if self.group_sizes is None or sum(self.group_sizes) != self.m:
            raise ValueError(f"CUSTOM scheme needs group_sizes summing to m = {self.m}, "
                             f"not {self.group_sizes}")
        return custom_scheme(self.group_sizes, self.pilot_lengths)

    @cached_property
    def slot_schedule(self) -> NoncoherentSchedule | None:
        """The non-coherent schedule, its slots checked against groups 0..g-1."""
        if self.noncoherent_slots is None:
            return None
        g = self.group_scheme.partition.num_groups
        bad = sorted({k for slot in self.noncoherent_slots for k in slot if not 0 <= k < g})
        if bad:
            raise ValueError(f"noncoherent_slots name groups {bad} outside 0..{g - 1}")
        return NoncoherentSchedule(self.noncoherent_slots)


@dataclass
class ResultRow:
    estimator: str
    constraint: str
    snr_db: float
    mse: float
    crb_trace: float
    trials: int
    wall_time: float
    unconverged: int = 0      # of trials, reported by cli_main; not a CSV column


@dataclass
class ResultTable:
    rows: list = field(default_factory=list)
    # (estimator, snr_db, exception class name) -> count
    skipped: Counter = field(default_factory=Counter)


_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _bool(s: str) -> bool:
    if s.lower() not in _BOOL:
        raise ValueError(f"expected one of {', '.join(_BOOL)}, not {s!r}")
    return _BOOL[s.lower()]


def _tuple_of(conv):
    return lambda s: tuple(conv(x.strip()) for x in s.split(","))


# One converter per ExperimentConfig field; the defaults are the dataclass's.
_CONVERTERS = {
    "m": int, "scheme": str, "g": int,
    "group_sizes": _tuple_of(int), "pilot_lengths": _tuple_of(int),
    "channel": str, "rows": int, "cols": int, "spacing": float, "delta": float,
    "snr_db": _tuple_of(float), "trials": int, "estimators": _tuple_of(str),
    "constraint": str, "seed": int, "pilots": str,
    "crb": _bool, "crb_trials": int, "crb_known_h": _bool,
    "aml_tol": float, "aml_max_iter": int, "aml_init": str,
    "noncoherent_slots": lambda s: tuple(tuple(int(x) for x in grp.split())
                                         for grp in s.split(";")),
    "timing": _bool,
}


def parse_config(text: str, seed: int | None = None, crb_sweep: bool = False) -> ExperimentConfig:
    """Parse the flat key = value format (',' lists, ';'-separated slot lists).

    seed, if given, replaces the config's; crb_sweep makes it the CRB-only
    sweep of `arraycal crb`, LS alone on crb_trials draws per SNR.  Both apply
    to the parsed values, so the config's checks and grouping scheme run once.
    """
    kv, lines = {}, {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {ln}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in lines:
            raise ValueError(f"config key {key!r} is set twice, on lines {lines[key]} and {ln}")
        kv[key], lines[key] = value.strip(), ln

    if "m" not in kv:
        raise ValueError("config must set m")
    unknown = sorted(set(kv) - set(_CONVERTERS))
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")
    values = {}
    for key, raw in kv.items():
        try:
            values[key] = _CONVERTERS[key](raw)
        except (TypeError, ValueError) as e:
            raise ValueError(f"config key {key!r}: {e}") from e
    if seed is not None:
        values["seed"] = seed
    if crb_sweep:
        values.update(estimators=("ls",), crb=True,
                      trials=values.get("crb_trials", ExperimentConfig.crb_trials))
    return ExperimentConfig(**values)


def run_experiment(config: ExperimentConfig) -> ResultTable:
    """Per (snr, trial): fresh impairments, channel, pilots and noise; all
    configured estimators see the same measurements.  The CRB is averaged over
    the first crb_trials realizations of the same stream; it is not computed
    for non-coherent schedules (crb_trace is nan).  A configuration whose CRB
    finds f unidentifiable raises UnidentifiableError.
    """
    scheme, schedule = config.group_scheme, config.slot_schedule
    partition = scheme.partition
    if not check_identifiability(partition, schedule)["ok"]:
        raise UnidentifiableError("unidentifiable configuration: scheme not identifiable: "
                                  + identifiability_summary(partition, schedule))
    geometry = config.geometry()
    model = GEOMETRIC if config.channel == "geometric" else IID_RAYLEIGH
    perm = scheme.permutation
    if np.array_equal(perm, np.arange(config.m)):
        perm = None
    imp_cfg = ImpairmentConfig(config.delta)
    # ALL_ONES and IDENTITY pilots draw nothing: one set serves every trial
    fixed_pilots = None if config.pilots == UNIT_PHASE_RANDOM \
        else default_pilots(partition, config.pilots)

    table = ResultTable()
    crb_kind = "FCC" if config.constraint == "FCC" else "NPC"
    for si, snr in enumerate(config.snr_db):
        sq_err = {e: [] for e in config.estimators}
        unconverged = Counter()
        wall = dict.fromkeys(config.estimators, 0.0)
        crb_traces = []
        for trial in range(config.trials):
            rng = np.random.default_rng(np.random.SeedSequence([config.seed, si, trial]))
            imp = gen_impairments(imp_cfg, config.m, rng)
            chan = permute_channel(gen_channel(config.m, model, rng, geometry), perm)
            pilots = fixed_pilots if fixed_pilots is not None \
                else default_pilots(partition, config.pilots, rng)
            if schedule is not None:
                data = simulate_noncoherent(partition, schedule, pilots, imp, snr,
                                            rng, model, geometry, permutation=perm)
            else:
                data = simulate_exchange(partition, pilots, imp, chan, snr, rng)
            f_true = imp.tx_gains / imp.rx_gains
            spec = CONSTRAINTS[config.constraint](f_true)
            inputs = Trial(config, spec, data, pilots, partition)
            for est in config.estimators:
                t0 = time.perf_counter()
                try:
                    out = ESTIMATORS[est].call(inputs)
                except (np.linalg.LinAlgError, ArithmeticError) as e:
                    table.skipped[(est, snr, type(e).__name__)] += 1
                else:
                    sq_err[est].append(mse(out.f, f_true))
                    unconverged[est] += not out.converged
                if config.timing:
                    wall[est] += time.perf_counter() - t0
            if config.crb and schedule is None and trial < config.crb_trials:
                sigma2 = noise_variance_from_snr(snr, chan)
                if sigma2 > 0:
                    ctx = crb_mod.context_from_model(imp, chan, pilots, partition, sigma2)
                    try:
                        bound = (crb_mod.crb_f_known_h(ctx, crb_kind) if config.crb_known_h
                                 else crb_mod.crb_f(ctx, crb_kind))
                    except np.linalg.LinAlgError as e:
                        raise UnidentifiableError(str(e)) from e
                    crb_traces.append(bound.trace)
        crb_mean = float(np.mean(crb_traces)) if crb_traces else float("nan")
        for est in config.estimators:
            errs = sq_err[est]
            table.rows.append(ResultRow(
                estimator=est, constraint=config.constraint, snr_db=float(snr),
                mse=float(np.mean(errs)) if errs else float("nan"),
                crb_trace=crb_mean, trials=len(errs), wall_time=wall[est],
                unconverged=unconverged[est]))
    return table


def identifiability_summary(partition, schedule=None) -> str:
    """check_identifiability's counts, the connected groups (listed when there
    are several components), the groups with fewer independent equations than
    antennas, if any, and the verdict."""
    ident = check_identifiability(partition, schedule)
    comps = group_components(partition, schedule)
    words = [f"rows={ident['rows']}", f"needed={ident['needed']}", f"components={len(comps)}"]
    if len(comps) > 1:
        words += ["[" + " ".join(map(str, c)) + "]" for c in comps]
    per_group = independent_equations(partition, schedule)[1]
    short = [str(g) for g, m in enumerate(partition.group_sizes) if per_group[g] < m]
    if short:
        words.append("short_groups=" + ",".join(short))
    return " ".join(words + ["ok" if ident["ok"] else "not ok"])


def emit_csv(table: ResultTable, path) -> None:
    """Stable column order; floats printed with 12+ significant digits.  A
    regular file is written over in place and cut to length, not truncated to
    zero first (on ext4 that costs a flush on close); a FIFO is written as is."""
    if not table.rows:
        raise ValueError("empty result table")
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w") as fh:
        fh.write("estimator,constraint,snr_db,mse,crb_trace,trials,wall_time\n" + "".join(
            f"{r.estimator},{r.constraint},{r.snr_db:.12g},{r.mse:.12e},"
            f"{r.crb_trace:.12e},{r.trials},{r.wall_time:.12e}\n" for r in table.rows))
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once for every cli_main call of the process."""
    parser = argparse.ArgumentParser(prog="arraycal",
                                     description="Reciprocity calibration benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (("run", "run the Monte Carlo sweep of a config"),
                       ("crb", "CRB-only sweep of a config"),
                       ("check", "identifiability report for a config")):
        p = sub.add_parser(name, help=text)
        p.add_argument("config")
        if name != "check":
            p.add_argument("--out", required=name == "run", default=None)
            p.add_argument("--seed", type=int, default=None)
    sub.add_parser("schemes", help="list known grouping schemes").add_argument(
        "--list", action="store_true")
    return parser


def cli_main(argv=None) -> int:
    args = _parser().parse_args(argv)

    if args.command == "schemes":
        print("\n".join(SCHEME_LABELS))
        return 0
    try:
        with open(args.config) as fh:
            cfg = parse_config(fh.read(), getattr(args, "seed", None), args.command == "crb")
    except (OSError, ValueError, KeyError) as e:
        print(f"error: cannot parse config: {e}", file=sys.stderr)
        return 2

    if args.command == "check":
        partition, schedule = cfg.group_scheme.partition, cfg.slot_schedule
        print(identifiability_summary(partition, schedule))
        return 0 if check_identifiability(partition, schedule)["ok"] else 3

    if cfg.noncoherent_slots is not None and (cfg.crb or args.command == "crb"):
        why = "the CRB is not computed for non-coherent schedules"
        if args.command == "crb":
            print(f"error: {why}", file=sys.stderr)
            return 2
        print(f"warning: {why}; crb_trace is nan", file=sys.stderr)
    try:
        table = run_experiment(cfg)
    except UnidentifiableError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    causes = {}
    for (est, snr, cause), n in sorted(table.skipped.items()):
        causes.setdefault((est, snr), {})[cause] = n
    for (est, snr), by_cause in causes.items():
        print(f"warning: {sum(by_cause.values())} skipped trials for {est} at {snr} dB ("
              + ", ".join(f"{c}: {n}" for c, n in by_cause.items()) + ")", file=sys.stderr)
    for r in table.rows:
        if r.unconverged:
            print(f"warning: {r.estimator} did not converge on {r.unconverged} of {r.trials} "
                  f"trials at {r.snr_db} dB", file=sys.stderr)
    if args.command == "crb" and args.out is None:
        for r in table.rows:
            print(f"snr_db={r.snr_db:g} crb_trace={r.crb_trace:.12e}")
    else:
        emit_csv(table, args.out)
    return 0


def cli_entry() -> None:
    raise SystemExit(cli_main())
