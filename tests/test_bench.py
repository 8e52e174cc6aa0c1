import os
import re
import subprocess
import sys
import threading
from dataclasses import fields
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from arraycal import airlink, bench
from arraycal.airlink import simulate_exchange
from arraycal.bench import (
    ESTIMATORS,
    ExperimentConfig,
    UnidentifiableError,
    cli_main,
    emit_csv,
    parse_config,
    run_experiment,
)
from arraycal.model import slot_plan
from arraycal.stacking import check_identifiability

FC1_CONFIG = """
# Fig-5 style sweep on the FC-I grouping
m = 64
scheme = FC_I
g = 12
snr_db = 10, 30
trials = 3
estimators = ls
constraint = NPC
seed = 42
crb = false
"""

SMALL_CONFIG = """
m = 6
scheme = SINGLETON
pilots = ALL_ONES
snr_db = inf
trials = 2
estimators = ls, argos, rogalin, daisy
constraint = FCC
crb = false
seed = 7
"""


def test_parse_config_defaults_and_lists():
    cfg = parse_config(FC1_CONFIG)
    assert cfg.m == 64 and cfg.g == 12 and cfg.scheme == "FC_I"
    assert cfg.snr_db == (10.0, 30.0)
    assert cfg.estimators == ("ls",)
    assert cfg.crb is False
    assert cfg.delta == 0.1          # default


def test_parse_config_defaults_are_the_dataclass_defaults():
    assert parse_config("m = 4\n") == ExperimentConfig(m=4)
    # every field can be set from a config file
    assert set(bench._CONVERTERS) == {f.name for f in fields(ExperimentConfig)}


def test_parse_config_errors():
    with pytest.raises(ValueError):
        parse_config("scheme = FC_I\n")               # m missing
    with pytest.raises(ValueError):
        parse_config("m = 8\nbogus_key = 1\n")
    with pytest.raises(ValueError):
        parse_config("m = 8\ntrials = zero\n")
    with pytest.raises(ValueError):
        parse_config("m = 8\njust a line\n")
    with pytest.raises(ValueError):
        parse_config("m = 8\nestimators = ls, nope\n")
    with pytest.raises(ValueError):
        parse_config("m = 8\nchannel = rician\n")
    # AML always starts from the FCC LS estimate: the ones start, unconverged
    # on every trial of FC_II m = 24, g = 8 at 40 dB, is no longer a choice
    with pytest.raises(ValueError, match=re.escape("unknown config keys: ['aml_init']")):
        parse_config("m = 8\naml_init = ones\n")


def test_parse_noncoherent_slots():
    cfg = parse_config("m = 4\nnoncoherent_slots = 0 1; 1 2; 2 3\n")
    assert cfg.noncoherent_slots == ((0, 1), (1, 2), (2, 3))


def test_noiseless_run_has_tiny_mse():
    cfg = parse_config(SMALL_CONFIG)
    table = run_experiment(cfg)
    assert len(table.rows) == 4
    for r in table.rows:
        assert r.mse < 1e-16
        assert r.trials == 2
    assert not table.skipped


def test_unidentifiable_config_rejected():
    cfg = ExperimentConfig(m=68, scheme="FC_II", g=12, crb=False, trials=1,
                           snr_db=(10.0,), estimators=("ls",))
    with pytest.raises(UnidentifiableError):
        run_experiment(cfg)


def test_determinism_and_csv_roundtrip(tmp_path):
    cfg = parse_config(FC1_CONFIG)
    t1 = run_experiment(cfg)
    t2 = run_experiment(cfg)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(t1, p1)
    emit_csv(t2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == "estimator,constraint,snr_db,mse,crb_trace,trials,wall_time"
    assert len(lines) == 1 + len(t1.rows)
    est, con, snr, mse_, crb_, trials, wall = lines[1].split(",")
    assert est == "ls" and con == "NPC"
    assert float(snr) == t1.rows[0].snr_db
    assert float(mse_) == pytest.approx(t1.rows[0].mse, rel=1e-11)
    assert int(trials) == 3


def test_seed_changes_results(tmp_path):
    cfg = parse_config(FC1_CONFIG)
    from dataclasses import replace
    t1 = run_experiment(cfg)
    t2 = run_experiment(replace(cfg, seed=43))
    assert t1.rows[0].mse != t2.rows[0].mse


def test_crb_column_filled():
    cfg = parse_config("m = 6\nscheme = SINGLETON\npilots = ALL_ONES\n"
                       "snr_db = 20\ntrials = 5\nestimators = ls\n"
                       "constraint = FCC\ncrb = true\ncrb_trials = 5\n")
    table = run_experiment(cfg)
    assert table.rows[0].crb_trace > 0
    # estimator-independent within the cell
    cfg2 = parse_config("m = 6\nscheme = SINGLETON\npilots = ALL_ONES\n"
                        "snr_db = 20\ntrials = 5\nestimators = ls, rogalin\n"
                        "constraint = FCC\ncrb = true\ncrb_trials = 5\n")
    t2 = run_experiment(cfg2)
    assert t2.rows[0].crb_trace == t2.rows[1].crb_trace


@pytest.mark.parametrize("kind, draws", [("ALL_ONES", False), ("UNIT_PHASE_RANDOM", True)])
def test_fixed_pilots_are_built_once_per_run(monkeypatch, kind, draws):
    # pilots that draw nothing from the trial's stream are one set, built once,
    # that serves every trial; each trial asks for its own
    made = []

    def recording(*args):
        made.append(airlink.default_pilots(*args))
        return made[-1]

    monkeypatch.setattr(bench, "default_pilots", recording)
    cfg = ExperimentConfig(m=4, pilots=kind, snr_db=(10.0, 20.0), trials=3, crb=False)
    seen = []
    real = bench.simulate_exchange
    monkeypatch.setattr(bench, "simulate_exchange",
                        lambda part, pilots, *a: seen.append(pilots) or real(part, pilots, *a))
    run_experiment(cfg)
    assert len(made) == 6
    assert len({id(p) for p in made}) == (6 if draws else 1)
    assert [id(p) for p in seen] == [id(p) for p in made]


def test_noncoherent_experiment_runs():
    cfg = parse_config("m = 4\nscheme = SINGLETON\npilots = ALL_ONES\n"
                       "snr_db = inf\ntrials = 2\nestimators = ls\n"
                       "constraint = FCC\ncrb = false\n"
                       "noncoherent_slots = 0 1; 0 2; 0 3; 1 2; 1 3; 2 3\n")
    table = run_experiment(cfg)
    assert table.rows[0].mse < 1e-16


@pytest.mark.parametrize("slots", [None, ((0, 1, 2, 3, 4, 5),) * 2])
def test_grid_assignment_reaches_every_slot_channel(monkeypatch, slots):
    # INTERLEAVED on a 2x6 grid: antenna a of the contiguous group ordering sits
    # at grid position perm[a], so every channel a slot sees must follow the
    # distance law of the permuted positions, coherent or not.
    cfg = ExperimentConfig(m=12, scheme="INTERLEAVED", g=6, channel="geometric",
                           rows=2, cols=6, snr_db=(30.0,), trials=1, crb=False,
                           noncoherent_slots=slots)
    seen = []

    def recording(partition, pilots, imp, chan, *args, **kwargs):
        seen.append(np.abs(chan.c))
        return simulate_exchange(partition, pilots, imp, chan, *args, **kwargs)

    monkeypatch.setattr(airlink, "simulate_exchange", recording)
    monkeypatch.setattr(bench, "simulate_exchange", recording)
    run_experiment(cfg)

    perm = cfg.group_scheme.permutation
    assert not np.array_equal(perm, np.arange(12))
    pos = cfg.geometry().positions()[perm]
    dist = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)
    np.fill_diagonal(dist, np.inf)
    assert len(seen) == (1 if slots is None else len(slots))
    for mag in seen:
        np.testing.assert_allclose(mag, 1.0 / (4.0 * np.pi * dist), rtol=1e-12)


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_cli_check_prints_counts(tmp_path, capsys):
    path = _write(tmp_path, "fc1.cfg", "m = 64\nscheme = FC_I\ng = 12\n")
    assert cli_main(["check", path]) == 0
    assert capsys.readouterr().out.strip() == "rows=66 needed=63 components=1 ok"
    path = _write(tmp_path, "fc1b.cfg", "m = 67\nscheme = FC_I\ng = 12\n")
    assert cli_main(["check", path]) == 0
    assert capsys.readouterr().out.strip() == "rows=66 needed=66 components=1 ok"
    path = _write(tmp_path, "fc2.cfg", "m = 68\nscheme = FC_II\ng = 12\n")
    assert cli_main(["check", path]) == 3
    assert "not ok" in capsys.readouterr().out


@pytest.mark.parametrize("text, report", [
    ("m = 3\nscheme = CUSTOM\ngroup_sizes = 1, 2\npilot_lengths = 2, 1\n",
     "rows=1 needed=2 components=1 short_groups=1 not ok"),
    ("m = 4\nscheme = CUSTOM\ngroup_sizes = 1, 1, 1, 1\npilot_lengths = 2, 2, 2, 2\n"
     "noncoherent_slots = 0 1; 2 3\n", "rows=2 needed=3 components=2 [0 1] [2 3] not ok"),
])
def test_cli_check_and_run_reject_rank_deficient_schemes(tmp_path, capsys, text, report):
    # both used to pass the raw row count (2 >= 2 and 8 >= 3)
    cfg = _write(tmp_path, "rank.cfg", text + "snr_db = 40\ntrials = 2\nconstraint = FCC\n"
                 "crb = false\n")
    assert cli_main(["check", cfg]) == 3
    assert capsys.readouterr().out.strip() == report
    assert cli_main(["run", cfg, "--out", str(tmp_path / "r.csv")]) == 3
    assert "not identifiable" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("slots, error", [
    ("0 1; 2 5", "groups [5] outside 0..3"),          # was an IndexError traceback
    ("0 -1; 1 2 3", "groups [-1] outside 0..3"),      # was taken as group 3, exit 3
    ("0 0; 0 1 2 3", "lists a group more than once"),  # check said ok, run failed mid-trial
    ("0; 1 2 3", "at least two groups"),              # check died with a traceback
])
def test_cli_check_and_run_reject_bad_slot_groups(tmp_path, capsys, slots, error):
    cfg = _write(tmp_path, "slots.cfg", f"m = 4\nnoncoherent_slots = {slots}\n"
                 "snr_db = 40\ntrials = 2\nconstraint = FCC\ncrb = false\n")
    assert cli_main(["check", cfg]) == 2
    assert error in capsys.readouterr().err
    assert cli_main(["run", cfg, "--out", str(tmp_path / "r.csv")]) == 2
    assert error in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_cli_run_deterministic_and_seed_override(tmp_path):
    path = _write(tmp_path, "run.cfg", SMALL_CONFIG)
    out1, out2, out3 = (str(tmp_path / n) for n in ("r1.csv", "r2.csv", "r3.csv"))
    assert cli_main(["run", path, "--out", out1]) == 0
    assert cli_main(["run", path, "--out", out2]) == 0
    with open(out1, "rb") as a, open(out2, "rb") as b:
        assert a.read() == b.read()
    assert cli_main(["run", path, "--seed", "99", "--out", out3]) == 0
    with open(out1) as a, open(out3) as b:
        assert a.read() != b.read()


def test_cli_exit_codes(tmp_path, capsys):
    bad = _write(tmp_path, "bad.cfg", "m = 64\nwrong = key\n")
    assert cli_main(["run", bad, "--out", str(tmp_path / "x.csv")]) == 2
    assert "cannot parse" in capsys.readouterr().err
    unident = _write(tmp_path, "u.cfg",
                     "m = 68\nscheme = FC_II\ng = 12\ntrials = 1\nsnr_db = 10\n")
    assert cli_main(["run", unident, "--out", str(tmp_path / "y.csv")]) == 3
    assert "not identifiable" in capsys.readouterr().err
    missing = str(tmp_path / "nope.cfg")
    assert cli_main(["check", missing]) == 2


def test_cli_schemes_and_crb(tmp_path, capsys):
    assert cli_main(["schemes", "--list"]) == 0
    out = capsys.readouterr().out
    for name in ("FC_I", "FC_II", "SINGLETON", "AVALANCHE", "INTERLEAVED"):
        assert name in out
    cfg = _write(tmp_path, "crb.cfg",
                 "m = 6\nscheme = SINGLETON\npilots = ALL_ONES\nsnr_db = 20\n"
                 "trials = 3\ncrb_trials = 3\nconstraint = FCC\n")
    assert cli_main(["crb", cfg]) == 0
    out = capsys.readouterr().out
    assert "crb_trace=" in out and "snr_db=20" in out


def test_cli_builds_the_config_once(tmp_path, monkeypatch):
    # --seed and crb's sweep replace parsed values, so each call checks the
    # config and makes its grouping scheme once (the seed and the sweep were
    # applied with dataclasses.replace, which made the scheme again)
    made, real = [], bench.make_scheme
    monkeypatch.setattr(bench, "make_scheme", lambda *a: made.append(a) or real(*a))
    cfg = _write(tmp_path, "once.cfg", "m = 4\nscheme = SINGLETON\npilots = ALL_ONES\n"
                 "snr_db = 20\ntrials = 1\ncrb_trials = 2\nconstraint = FCC\n")
    assert cli_main(["run", cfg, "--out", str(tmp_path / "r.csv"), "--seed", "3"]) == 0
    assert cli_main(["crb", cfg, "--seed", "3"]) == 0
    assert len(made) == 2


def test_partition_rules_run_once_per_partition(monkeypatch):
    # the pilot kind's and the estimators' partition rules read only the
    # partition and their argument, so a parse runs each once per (partition,
    # argument) while it passes; a failing rule fires on every parse
    kinds, real = [], bench.require_pilot_kind
    monkeypatch.setattr(bench, "require_pilot_kind",
                        lambda p, k: kinds.append(k) or real(p, k))
    text = "m = 40\nscheme = SINGLETON\npilots = ALL_ONES\nestimators = ls, rogalin, daisy\n"
    for _ in range(3):
        parse_config(text)
    assert kinds == ["ALL_ONES"]
    for _ in range(2):
        with pytest.raises(ValueError, match="needs single-antenna groups"):
            parse_config("m = 40\nscheme = FC_II\ng = 8\nestimators = rogalin\n")
        with pytest.raises(ValueError, match="all-ones pilots use a single channel use"):
            parse_config("m = 40\nscheme = ARGOS\npilots = ALL_ONES\n")


def test_repeated_cli_calls_share_no_state(tmp_path):
    # cli_main builds its parser, schemes and verdicts once per process; no
    # call, failed or not, may change what a later call does or writes
    cfg = _write(tmp_path, "run.cfg", SMALL_CONFIG)
    before, after = tmp_path / "before.csv", tmp_path / "after.csv"
    assert cli_main(["run", cfg, "--out", str(before)]) == 0
    unident = _write(tmp_path, "u.cfg", "m = 3\nscheme = CUSTOM\ngroup_sizes = 1, 2\n"
                     "pilot_lengths = 2, 1\nsnr_db = 40\ntrials = 2\nconstraint = FCC\n"
                     "crb = false\n")
    assert cli_main(["check", cfg]) == 0
    with pytest.raises(SystemExit) as exc:
        cli_main(["run", cfg])                      # --out missing: an argparse error
    assert exc.value.code == 2
    assert cli_main(["crb", cfg, "--seed", "5"]) == 0
    assert cli_main(["schemes"]) == 0
    bad = _write(tmp_path, "bad.cfg", SMALL_CONFIG + "wrong = key\n")
    assert cli_main(["run", bad, "--out", str(after)]) == 2
    assert cli_main(["check", unident]) == 3
    for path, code in ((cfg, 0), (unident, 3)):
        with open(path) as fh:
            text = fh.read()
        scheme = parse_config(text).group_scheme
        assert parse_config(text, seed=9).group_scheme is scheme
        verdict = check_identifiability(scheme.partition)
        with pytest.raises(TypeError):
            verdict["ok"] = not verdict["ok"]
        assert cli_main(["check", path]) == code
    # a shorter CSV over a longer file leaves no stale tail
    after.write_bytes(b"x" * 10 * before.stat().st_size)
    assert cli_main(["run", cfg, "--out", str(after)]) == 0
    assert after.read_bytes() == before.read_bytes()
    # a FIFO is written, not truncated (which it cannot be)
    fifo, got = tmp_path / "pipe.csv", []
    os.mkfifo(fifo)
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()))
    reader.start()
    try:
        assert cli_main(["run", cfg, "--out", str(fifo)]) == 0
    finally:
        try:                                        # free a reader still waiting to open
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        except OSError:
            pass
        reader.join(timeout=60)
    assert not reader.is_alive() and got == [before.read_bytes()]


@pytest.mark.parametrize("text", [
    "m = 8\nestimators = ls, argos\n",
    "m = 8\nestimators = daisy\nconstraint = FCC\n",
    "m = 8\nscheme = ARGOS\nestimators = argos\n",
])
def test_cli_runs_tree_estimators_with_random_pilots(tmp_path, capsys, text):
    # argos and daisy solve the pair equations, which carry the pilots; they
    # exited 2 on random pilots when they read samples as channel gains
    cfg = _write(tmp_path, "tree.cfg", text + "snr_db = 40\ntrials = 2\ncrb = false\n")
    out = tmp_path / "r.csv"
    assert cli_main(["run", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = out.read_text().splitlines()[1:]
    assert rows and all(row.split(",")[5] == "2" for row in rows)


def test_tree_estimators_are_ls_on_the_argos_partition():
    # {reference} + rest has the one pair (0, 1), which is the star, the path
    # and the whole stacked system: all three solve the same square system
    table = run_experiment(ExperimentConfig(
        m=8, scheme="ARGOS", estimators=("ls", "argos", "daisy"), constraint="FCC",
        snr_db=(10.0, 40.0), trials=5, crb=False, seed=3))
    mse = {(r.estimator, r.snr_db): r.mse for r in table.rows}
    for snr in (10.0, 40.0):
        for name in ("argos", "daisy"):
            assert abs(mse[(name, snr)] - mse[("ls", snr)]) <= 1e-12 * mse[("ls", snr)]


NONCOHERENT_CONFIG = ("m = 6\nscheme = SINGLETON\npilots = ALL_ONES\nsnr_db = 20\n"
                      "trials = 2\nconstraint = FCC\n"
                      "noncoherent_slots = 0 1 2; 2 3 4; 4 5 0\n")


def test_cli_noncoherent_crb_is_reported(tmp_path, capsys):
    # the bound of a schedule sums its slots' information: crb prints finite
    # traces, and run writes them with no warning and the mse of crb = false
    with_crb = _write(tmp_path, "nc.cfg", NONCOHERENT_CONFIG + "crb = true\n")
    assert cli_main(["crb", with_crb]) == 0
    captured = capsys.readouterr()
    traces = [float(w.split("=")[1]) for w in captured.out.split() if w.startswith("crb_trace=")]
    assert captured.err == "" and len(traces) == 1 and np.isfinite(traces[0]) and traces[0] > 0

    out_crb, out_plain = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(["run", with_crb, "--out", str(out_crb)]) == 0
    assert capsys.readouterr().err == ""
    without_crb = _write(tmp_path, "nc0.cfg", NONCOHERENT_CONFIG + "crb = false\n")
    assert cli_main(["run", without_crb, "--out", str(out_plain)]) == 0
    assert capsys.readouterr().err == ""
    rows = [[line.split(",") for line in out.read_text().splitlines()[1:]]
            for out in (out_crb, out_plain)]
    assert [r[3] for r in rows[0]] == [r[3] for r in rows[1]]            # mse
    assert all(np.isfinite(float(r[4])) for r in rows[0])                # crb_trace
    assert all(r[4] == "nan" for r in rows[1])


@pytest.mark.parametrize("estimators", ["ls, aml", "rogalin", "ls, argos, daisy"])
def test_cli_check_and_run_reject_noncoherent_estimators(tmp_path, capsys, estimators):
    # only ls stacks the slots of a non-coherent schedule; check said ok and
    # run exited 2 from inside the first trial
    cfg = _write(tmp_path, "nc.cfg", NONCOHERENT_CONFIG + f"estimators = {estimators}\n"
                 "crb = false\n")
    assert cli_main(["check", cfg]) == 2
    assert "does not support non-coherent schedules" in capsys.readouterr().err
    assert cli_main(["run", cfg, "--out", str(tmp_path / "r.csv")]) == 2
    assert "does not support non-coherent schedules" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("constraint", ["FCC", "NPC"])
def test_cli_run_rejects_rank_deficient_crb(tmp_path, capsys, constraint):
    # rows = 2 = M - 1 passes the row count, but the bound's information has
    # rank 1 < M - 1: no CRB is reported for it
    cfg = _write(tmp_path, "rank.cfg",
                 "m = 3\nscheme = CUSTOM\ngroup_sizes = 1, 2\npilot_lengths = 2, 1\n"
                 f"snr_db = 30\ntrials = 2\nconstraint = {constraint}\n")
    assert cli_main(["run", cfg, "--out", str(tmp_path / "r.csv")]) == 3
    assert "unidentifiable configuration" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("changes, message", [
    (dict(scheme="FC_II", g=4, estimators=("ls", "daisy")), "group 0 needs a single antenna"),
    (dict(estimators=("ls", "nope")), "unknown estimator"),
    (dict(channel="rician"), "channel must be"),
    (dict(trials=0), "trials >= 1"),
    (dict(snr_db=()), "non-empty snr grid"),
    (dict(estimators=("ls", "aml"), noncoherent_slots=((0, 1), (1, 2))),
     "does not support non-coherent"),
])
def test_config_checks_apply_without_parsing(changes, message):
    # a config built in code gets the same checks as a parsed one
    base = dict(m=8, constraint="FCC", crb=False, trials=20, snr_db=(40.0,))
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(**dict(base, **changes))


def _config_text(values):
    return "".join(f"{k} = {', '.join(map(str, v)) if isinstance(v, tuple) else v}\n"
                   for k, v in values.items())


REJECT_BASE = dict(m=8, trials=2, snr_db=(30.0,))


@pytest.mark.parametrize("changes, message", [
    # each passed check (exit 0) and then failed inside run (exit 2)
    (dict(scheme="FC_II", g=5, estimators=("rogalin",)), "needs single-antenna groups"),
    (dict(scheme="FC_II", g=5, estimators=("daisy",), pilots="ALL_ONES"),
     "groups 1 and 2 gives 1 independent equations for the 2 antennas of group 2"),
    (dict(scheme="FC_II", g=5, estimators=("argos",), pilots="ALL_ONES"),
     "groups 0 and 2 gives 1 independent equations for the 2 antennas of group 2"),
    (dict(scheme="FC_II", g=5, estimators=("ls",), pilots="IDENTITY"),
     "identity pilots require L_i = M_i"),
    (dict(scheme="ARGOS", estimators=("argos",), pilots="ALL_ONES"),
     "all-ones pilots use a single channel use"),
    (dict(pilots="FOO"), "unknown pilot kind"),
    (dict(constraint="LINEAR"), "unsupported experiment constraint"),
    (dict(delta=1.5), "amplitude spread"),
    (dict(estimators=("aml",), aml_tol=0.0), "tolerance must be positive"),
    (dict(snr_db=(float("nan"),)), "snr_db must be finite or +inf"),
    # each ran to the end with a wrong or silently altered result
    (dict(estimators=("ls", "ls")), "listed twice"),              # two rows of 4 trials
    (dict(delta=-0.1), "amplitude spread"),       # would draw amplitudes from [0.9, 1.1]
    (dict(estimators=("aml",), aml_max_iter=0), "max_iter >= 1"),  # start reported as AML
    (dict(m=9, scheme="CUSTOM", group_sizes=(2, 3)), "summing to m = 9"),  # ran with M = 5
    (dict(crb_trials=0), "crb = true needs crb_trials >= 1"),     # crb_trace = nan
    (dict(g=4), "scheme SINGLETON takes no g"),                    # g ignored
    (dict(scheme="ARGOS", g=2), "scheme ARGOS takes no g"),
    (dict(scheme="CUSTOM", group_sizes=(4, 4), g=2), "scheme CUSTOM takes no g"),
    (dict(m=6, pilot_lengths=(2,) * 6), "are for CUSTOM schemes only"),   # ran with L_i = 1
    (dict(scheme="FC_II", g=4, group_sizes=(2,) * 4), "are for CUSTOM schemes only"),
    # a unit-norm f scored against the true f, beside the NPC bound
    (dict(constraint="UNIT_NORM"), "unsupported experiment constraint"),
])
def test_rules_fire_before_the_first_draw(tmp_path, capsys, changes, message):
    # the rule fires when the config is built, so check and run exit 2 and
    # no trial is drawn
    values = dict(REJECT_BASE, **changes)
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentConfig(**values)
    cfg = _write(tmp_path, "bad.cfg", _config_text(values))
    assert cli_main(["check", cfg]) == 2
    assert message in capsys.readouterr().err
    out = tmp_path / "r.csv"
    assert cli_main(["run", cfg, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("where", ["missing/r.csv", "."])
def test_unwritable_out_exits_2_before_the_first_draw(tmp_path, capsys, monkeypatch, where):
    # --out in a missing directory ran the whole sweep and then died in
    # emit_csv with a FileNotFoundError traceback (exit 1)
    def draw(*args, **kwargs):
        raise AssertionError("a trial was drawn")

    monkeypatch.setattr(bench, "gen_impairments", draw)
    cfg = _write(tmp_path, "ok.cfg", SMALL_CONFIG)
    out = str(tmp_path / where)
    assert cli_main(["run", cfg, "--out", out]) == 2
    assert capsys.readouterr().err == f"error: cannot write --out {out}\n"


@pytest.mark.parametrize("constraint", ["LINEAR", "UNIT_NORM"])
def test_only_fcc_and_npc_reach_a_draw(tmp_path, capsys, monkeypatch, constraint):
    # the CRB is defined under FCC and NPC alone: a unit-norm f, scored
    # against a true f of norm about sqrt(m), would sit far above any bound
    def draw(*args, **kwargs):
        raise AssertionError("a trial was drawn")

    monkeypatch.setattr(bench, "gen_impairments", draw)
    cfg = _write(tmp_path, "c.cfg", _config_text(dict(REJECT_BASE, constraint=constraint)))
    out = tmp_path / "r.csv"
    for argv in (["check", cfg], ["run", cfg, "--out", str(out)], ["crb", cfg]):
        assert cli_main(argv) == 2
        assert "unsupported experiment constraint" in capsys.readouterr().err
    assert not out.exists()


def test_timing_fills_wall_time_only_when_on(tmp_path):
    text = ("m = 6\nscheme = SINGLETON\npilots = ALL_ONES\nsnr_db = 20, 40\ntrials = 2\n"
            "estimators = ls, argos\nconstraint = FCC\ncrb = false\n")
    outs = []
    for name, timing in (("on", "true"), ("off1", "false"), ("off2", "false")):
        cfg = _write(tmp_path, f"{name}.cfg", text + f"timing = {timing}\n")
        outs.append(tmp_path / f"{name}.csv")
        assert cli_main(["run", cfg, "--out", str(outs[-1])]) == 0
    rows = [[line.split(",") for line in out.read_text().splitlines()[1:]] for out in outs]
    assert len(rows[0]) == 4
    assert all(float(r[6]) > 0 for r in rows[0])
    assert all(float(r[6]) == 0.0 for r in rows[1])
    # the clock changes nothing else
    assert [r[:6] for r in rows[0]] == [r[:6] for r in rows[1]]
    assert outs[1].read_bytes() == outs[2].read_bytes()


def test_bad_boolean_is_a_config_error(tmp_path, capsys):
    # it escaped as a bare KeyError('maybe'), printed without the key
    message = "config key 'crb': expected one of true, false, 1, 0, yes, no, not 'maybe'"
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_config("m = 8\ncrb = maybe\n")
    cfg = _write(tmp_path, "bool.cfg", "m = 8\ncrb = maybe\n")
    assert cli_main(["check", cfg]) == 2
    assert message in capsys.readouterr().err


def test_skipped_trials_are_reported_by_cause(tmp_path, capsys, monkeypatch):
    real = bench.argos_estimate
    causes = [np.linalg.LinAlgError("forced"), ZeroDivisionError("forced"),
              np.linalg.LinAlgError("forced")]

    def flaky(*args, **kwargs):
        if causes:
            raise causes.pop()
        return real(*args, **kwargs)

    monkeypatch.setattr(bench, "argos_estimate", flaky)
    cfg = _write(tmp_path, "skip.cfg", SMALL_CONFIG.replace("snr_db = inf", "snr_db = 30")
                 .replace("trials = 2", "trials = 4"))
    out = tmp_path / "r.csv"
    assert cli_main(["run", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ("warning: 3 skipped trials for argos at 30.0 dB "
                                       "(LinAlgError: 2, ZeroDivisionError: 1)\n")
    trials = {line.split(",")[0]: line.split(",")[5] for line in out.read_text().splitlines()}
    assert trials["argos"] == "1" and trials["ls"] == "4"


def test_unconverged_estimator_calls_are_reported(tmp_path, capsys):
    # one AML iteration never meets aml_tol; LS's unique solves and the tree
    # estimators count as converged, and the CSV keeps its columns
    cfg = _write(tmp_path, "aml.cfg", SMALL_CONFIG.replace("snr_db = inf", "snr_db = 20, 40")
                 .replace("trials = 2", "trials = 3").replace("daisy", "daisy, aml")
                 + "aml_max_iter = 1\n")
    out = tmp_path / "r.csv"
    assert cli_main(["run", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().err == "".join(
        f"warning: aml did not converge on 3 of 3 trials at {snr} dB\n"
        for snr in ("20.0", "40.0"))
    header, *rows = out.read_text().splitlines()
    assert header == "estimator,constraint,snr_db,mse,crb_trace,trials,wall_time"
    assert len(rows) == 10 and all(r.split(",")[5] == "3" for r in rows)


def test_schedule_plans_are_built_once_per_run():
    # 66 pairwise slots cycle slot_plan's cache of 32 plans: every trial
    # rebuilt every slot's plan (0 hits, 1,320 misses in 20 trials)
    base = dict(m=12, noncoherent_slots=tuple(combinations(range(12), 2)),
                estimators=("ls",), crb=False, snr_db=(30.0,), constraint="FCC")
    misses = []
    for trials in (1, 3):
        slot_plan.cache_clear()
        run_experiment(ExperimentConfig(trials=trials, **base))
        misses.append(slot_plan.cache_info().misses)
    assert misses == [66, 66]


def test_repeated_config_key_is_rejected(tmp_path, capsys):
    # a second m would otherwise silently win (check printed rows=28 for m = 8)
    text = "m = 6\nscheme = SINGLETON\ncrb = false\n# comment\nm = 8\nsnr_db = 30\ntrials = 2\n"
    message = "config key 'm' is set twice, on lines 1 and 5"
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_config(text)
    cfg = _write(tmp_path, "twice.cfg", text)
    assert cli_main(["check", cfg]) == 2
    assert message in capsys.readouterr().err
    out = tmp_path / "r.csv"
    assert cli_main(["run", cfg, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_import_loads_no_scipy():
    src = Path(bench.__file__).resolve().parents[1]
    code = "import sys, arraycal; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={"PYTHONPATH": str(src)}).stdout
    assert out.strip() == "[]"


# m = 7 fits every scheme: AVALANCHE and FC_I with g = 4 are 1, 1, 2, 3; CUSTOM
# has L_i = M_i, so IDENTITY pilots apply to it
MATRIX_SCHEMES = {
    "SINGLETON": "", "ARGOS": "", "AVALANCHE": "g = 4\n", "FC_I": "g = 4\n",
    "FC_II": "g = 4\n", "CUSTOM": "group_sizes = 1, 3, 3\npilot_lengths = 1, 3, 3\n",
}


@pytest.mark.parametrize("pilots", ["UNIT_PHASE_RANDOM", "ALL_ONES", "IDENTITY"])
@pytest.mark.parametrize("scheme", list(MATRIX_SCHEMES))
@pytest.mark.parametrize("estimator", list(ESTIMATORS))
def test_check_rejects_exactly_what_run_rejects(tmp_path, capsys, estimator, scheme, pilots):
    cfg = _write(tmp_path, "m.cfg", f"m = 7\nscheme = {scheme}\n{MATRIX_SCHEMES[scheme]}"
                 f"pilots = {pilots}\nestimators = {estimator}\nconstraint = FCC\n"
                 "snr_db = 30\ntrials = 3\ncrb = false\naml_max_iter = 20\n")
    out = tmp_path / "r.csv"
    checked = cli_main(["check", cfg])
    ran = cli_main(["run", cfg, "--out", str(out)])
    assert checked == ran, capsys.readouterr().err
    assert out.exists() == (ran == 0)
    if checked == 0:
        lines = out.read_text().splitlines()[1:]
        assert lines and all(line.split(",")[5] == "3" for line in lines)
