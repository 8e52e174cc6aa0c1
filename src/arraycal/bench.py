"""Monte Carlo benchmark harness: MSE vs SNR per estimator, grouping and constraint.

Experiments are driven by a flat key = value config file and are fully
deterministic given (config, seed): every random draw is keyed by
(seed, snr index, trial index).  Results go to a plot-ready CSV with one row
per (estimator, snr) cell, including the averaged constrained CRB trace.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import crb as crb_mod
from .airlink import (
    UNIT_PHASE_RANDOM,
    NoncoherentSchedule,
    default_pilots,
    noise_variance_from_snr,
    simulate_exchange,
    simulate_noncoherent,
)
from .estimators import (
    ConstraintSpec,
    aml_estimate,
    argos_estimate,
    avalanche_estimate,
    daisy_chain_estimate,
    ls_estimate,
    mse,
    normalize_for_constraint,
    rogalin_estimate,
)
from .grouping import GroupScheme, custom_scheme, make_scheme
from .model import (
    GEOMETRIC,
    GeometryConfig,
    IID_RAYLEIGH,
    ImpairmentConfig,
    gen_channel,
    gen_impairments,
    permute_channel,
)
from .stacking import (
    build_stacked,
    build_stacked_noncoherent,
    check_identifiability,
    group_components,
    independent_equations,
)

KNOWN_ESTIMATORS = ("ls", "argos", "rogalin", "daisy", "avalanche", "aml")


class UnidentifiableError(ValueError):
    """Raised when the configured scheme cannot determine all coefficients."""


@dataclass
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
        if self.trials < 1 or not self.snr_db:
            raise ValueError("need trials >= 1 and a non-empty snr grid")
        if self.channel not in ("iid", "geometric"):
            raise ValueError("channel must be iid or geometric")
        for e in self.estimators:
            if e not in KNOWN_ESTIMATORS:
                raise ValueError(f"unknown estimator {e!r}")
            # ratio estimators read received samples as channel gains
            if e in ("argos", "daisy") and self.pilots == UNIT_PHASE_RANDOM:
                raise ValueError(f"estimator {e!r} ignores pilots; set pilots = ALL_ONES "
                                 "or IDENTITY")
            if e != "ls" and self.noncoherent_slots is not None:
                raise ValueError(f"estimator {e!r} does not support non-coherent schedules")

    def geometry(self) -> GeometryConfig | None:
        if self.channel != "geometric":
            return None
        if self.rows is None or self.cols is None:
            raise ValueError("geometric channel needs rows and cols")
        return GeometryConfig(self.rows, self.cols, self.spacing)

    def resolve_scheme(self) -> GroupScheme:
        if self.scheme == "CUSTOM":
            if self.group_sizes is None:
                raise ValueError("CUSTOM scheme requires group_sizes")
            return custom_scheme(self.group_sizes, self.pilot_lengths)
        return make_scheme(self.scheme, self.m, self.g, self.geometry())

    def schedule(self, partition) -> NoncoherentSchedule | None:
        """The non-coherent schedule, its slots checked against the partition's
        group indices 0..g-1."""
        if self.noncoherent_slots is None:
            return None
        g = partition.num_groups
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


@dataclass
class ResultTable:
    rows: list = field(default_factory=list)
    skipped: dict = field(default_factory=dict)   # (estimator, snr_db) -> count


_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _tuple_of(conv):
    return lambda s: tuple(conv(x.strip()) for x in s.split(","))


# One converter per ExperimentConfig field; the defaults are the dataclass's.
_CONVERTERS = {
    "m": int, "scheme": str, "g": int,
    "group_sizes": _tuple_of(int), "pilot_lengths": _tuple_of(int),
    "channel": str, "rows": int, "cols": int, "spacing": float, "delta": float,
    "snr_db": _tuple_of(float), "trials": int, "estimators": _tuple_of(str),
    "constraint": str, "seed": int, "pilots": str,
    "crb": lambda s: _BOOL[s.lower()], "crb_trials": int,
    "crb_known_h": lambda s: _BOOL[s.lower()],
    "aml_tol": float, "aml_max_iter": int, "aml_init": str,
    "noncoherent_slots": lambda s: tuple(tuple(int(x) for x in grp.split())
                                         for grp in s.split(";")),
    "timing": lambda s: _BOOL[s.lower()],
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat key = value format (',' lists, ';'-separated slot lists)."""
    kv = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {ln}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        kv[key.strip()] = value.strip()

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
    return ExperimentConfig(**values)


def _constraint_spec(kind: str, f_true: np.ndarray) -> ConstraintSpec:
    if kind == "FCC":
        return ConstraintSpec.fcc()
    if kind == "NPC":
        return ConstraintSpec.npc(f_true)
    if kind == "UNIT_NORM":
        return ConstraintSpec.unit_norm()
    raise ValueError(f"unsupported experiment constraint {kind!r}")


def _estimate_one(est: str, cfg: ExperimentConfig, spec: ConstraintSpec,
                  ms_or_slots, pilots, partition, schedule) -> np.ndarray:
    if est == "ls":
        if schedule is not None:
            sys_ = build_stacked_noncoherent(ms_or_slots, pilots, partition, schedule)
        else:
            sys_ = build_stacked(ms_or_slots, pilots, partition)
        return ls_estimate(sys_, spec).f_hat.f
    ms = ms_or_slots
    if est == "argos":
        f = argos_estimate(ms, partition).f
    elif est == "daisy":
        f = daisy_chain_estimate(ms, partition).f
    elif est == "avalanche":
        f = avalanche_estimate(ms, pilots, partition).f
    elif est == "rogalin":
        return rogalin_estimate(ms, pilots, partition, spec).f_hat.f
    elif est == "aml":
        init = None
        if cfg.aml_init == "ls":
            init = ls_estimate(build_stacked(ms, pilots, partition),
                               ConstraintSpec.fcc()).f_hat.f
        return aml_estimate(ms, pilots, partition, init=init, tol=cfg.aml_tol,
                            max_iter=cfg.aml_max_iter, constraint=spec).f_hat.f
    else:
        raise ValueError(f"unknown estimator {est!r}")
    # ratio-type estimators are FCC-native; rescale for other constraints
    if spec.kind != "FCC":
        f = normalize_for_constraint(f, spec)
    return f


def run_experiment(config: ExperimentConfig) -> ResultTable:
    """Per (snr, trial): fresh impairments, channel, pilots and noise; all
    configured estimators see the same measurements.  The CRB is averaged over
    the first crb_trials realizations of the same stream; it is not computed
    for non-coherent schedules (crb_trace is nan).  A configuration whose CRB
    finds f unidentifiable raises UnidentifiableError.
    """
    scheme = config.resolve_scheme()
    partition = scheme.partition
    schedule = config.schedule(partition)
    if not check_identifiability(partition, schedule)["ok"]:
        raise UnidentifiableError("unidentifiable configuration: scheme not identifiable: "
                                  + identifiability_summary(partition, schedule))
    geometry = config.geometry()
    model = GEOMETRIC if config.channel == "geometric" else IID_RAYLEIGH
    perm = scheme.permutation
    if np.array_equal(perm, np.arange(config.m)):
        perm = None
    imp_cfg = ImpairmentConfig(config.delta, fix_first_to_one=True)

    table = ResultTable()
    crb_kind = "FCC" if config.constraint == "FCC" else "NPC"
    for si, snr in enumerate(config.snr_db):
        sq_err = {e: [] for e in config.estimators}
        wall = dict.fromkeys(config.estimators, 0.0)
        crb_traces = []
        for trial in range(config.trials):
            rng = np.random.default_rng(np.random.SeedSequence([config.seed, si, trial]))
            imp = gen_impairments(imp_cfg, config.m, rng)
            chan = permute_channel(gen_channel(config.m, model, rng, geometry), perm)
            pilots = default_pilots(partition, config.pilots, rng)
            if schedule is not None:
                data = simulate_noncoherent(partition, schedule, pilots, imp, snr,
                                            rng, model, geometry, permutation=perm)
            else:
                data = simulate_exchange(partition, pilots, imp, chan, snr, rng)
            f_true = imp.tx_gains / imp.rx_gains
            spec = _constraint_spec(config.constraint, f_true)
            for est in config.estimators:
                t0 = time.perf_counter()
                try:
                    f_hat = _estimate_one(est, config, spec, data, pilots,
                                          partition, schedule)
                except (np.linalg.LinAlgError, ZeroDivisionError, ArithmeticError):
                    key = (est, snr)
                    table.skipped[key] = table.skipped.get(key, 0) + 1
                else:
                    sq_err[est].append(mse(f_hat, f_true))
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
                crb_trace=crb_mean, trials=len(errs), wall_time=wall[est]))
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
    """Stable column order; floats printed with 12+ significant digits."""
    if not table.rows:
        raise ValueError("empty result table")
    with open(path, "w") as fh:
        fh.write("estimator,constraint,snr_db,mse,crb_trace,trials,wall_time\n")
        for r in table.rows:
            fh.write(f"{r.estimator},{r.constraint},{r.snr_db:.12g},{r.mse:.12e},"
                     f"{r.crb_trace:.12e},{r.trials},{r.wall_time:.12e}\n")


def _load_config(path, seed_override=None) -> ExperimentConfig:
    with open(path) as fh:
        cfg = parse_config(fh.read())
    if seed_override is not None:
        cfg = replace(cfg, seed=seed_override)
    return cfg


def cli_main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="arraycal",
                                     description="Reciprocity calibration benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run the Monte Carlo sweep of a config")
    p_run.add_argument("config")
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_crb = sub.add_parser("crb", help="CRB-only sweep of a config")
    p_crb.add_argument("config")
    p_crb.add_argument("--out", default=None)
    p_crb.add_argument("--seed", type=int, default=None)
    p_check = sub.add_parser("check", help="identifiability report for a config")
    p_check.add_argument("config")
    p_schemes = sub.add_parser("schemes", help="list known grouping schemes")
    p_schemes.add_argument("--list", action="store_true")
    args = parser.parse_args(argv)

    if args.command == "schemes":
        for name in ("FC_I", "FC_II", "SINGLETON", "ARGOS", "AVALANCHE",
                     "INTERLEAVED", "NON_INTERLEAVED", "CUSTOM"):
            print(name)
        return 0
    try:
        cfg = _load_config(args.config, getattr(args, "seed", None))
    except (OSError, ValueError, KeyError) as e:
        print(f"error: cannot parse config: {e}", file=sys.stderr)
        return 2

    if args.command == "check":
        try:
            scheme = cfg.resolve_scheme()
            schedule = cfg.schedule(scheme.partition)
        except ValueError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        print(identifiability_summary(scheme.partition, schedule))
        return 0 if check_identifiability(scheme.partition, schedule)["ok"] else 3

    if cfg.noncoherent_slots is not None and (cfg.crb or args.command == "crb"):
        why = "the CRB is not computed for non-coherent schedules"
        if args.command == "crb":
            print(f"error: {why}", file=sys.stderr)
            return 2
        print(f"warning: {why}; crb_trace is nan", file=sys.stderr)
    try:
        if args.command == "crb":
            cfg = replace(cfg, estimators=("ls",), trials=cfg.crb_trials, crb=True)
        table = run_experiment(cfg)
    except UnidentifiableError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    for (est, snr), n in sorted(table.skipped.items()):
        print(f"warning: {n} skipped trials for {est} at {snr} dB", file=sys.stderr)
    if args.command == "crb" and args.out is None:
        for r in table.rows:
            print(f"snr_db={r.snr_db:g} crb_trace={r.crb_trace:.12e}")
    else:
        emit_csv(table, args.out)
    return 0


def cli_entry() -> None:
    raise SystemExit(cli_main())
