"""Tests of the benchmark's own logic: span arithmetic, wrapper restoration,
the reference check and the failure count."""

import json
import sys

import pytest

import run as perfrun
from tracer import TRACED, Span, Tracer, layer_metrics, self_times

if str(perfrun.SRC) not in sys.path:
    sys.path.insert(0, str(perfrun.SRC))

import arraycal.airlink  # noqa: E402
import arraycal.bench  # noqa: E402
import arraycal.crb  # noqa: E402
import arraycal.estimators  # noqa: E402
import arraycal.stacking  # noqa: E402

TINY = {"m": 4, "scheme": "SINGLETON", "pilots": "ALL_ONES", "constraint": "FCC",
        "estimators": "ls, rogalin, argos", "crb": "true", "snr_db": "20", "trials": 2}


def _run(tmp_path, keys, seed=5, tag="a"):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(perfrun.config_text(keys))
    out = tmp_path / f"{tag}.csv"
    assert arraycal.bench.cli_main(["run", str(cfg), "--out", str(out),
                                    "--seed", str(seed)]) == 0
    return out.read_text()


def test_self_time_subtracts_direct_children_only():
    spans = [Span("a", 0.0, 10.0, None), Span("b", 1.0, 4.0, 0),
             Span("c", 2.0, 3.0, 1), Span("d", 5.0, 6.0, 0), Span("e", 11.0, 12.0, None)]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0, 1.0])


def test_layer_metrics_sum_self_time_per_function_and_module():
    spans = [Span("bench.run_experiment", 0.0, 8.0, None),
             Span("crb.crb_f", 1.0, 4.0, 0),
             Span("crb.build_f_composite", 2.0, 3.0, 1),
             Span("crb.build_f_composite", 5.0, 6.0, 0, error=True)]
    m = layer_metrics(spans, {}, [], wall_s=10.0, trials=2)
    assert m["bench.run_experiment.self_s"] == pytest.approx(4.0 / 2)
    assert m["crb.crb_f.self_s"] == pytest.approx(2.0 / 2)
    assert m["crb.build_f_composite.calls"] == pytest.approx(1.0)
    assert m["crb.build_f_composite.self_s"] == pytest.approx(1.0)
    assert m["crb.self_s"] == pytest.approx(2.0)
    assert m["crb.share"] == pytest.approx(0.4)
    assert m["crb.errors"] == pytest.approx(0.5)


def test_traced_run_matches_untraced_and_restores_every_wrapper(tmp_path):
    sites = [(arraycal.bench, "simulate_exchange"), (arraycal.airlink, "simulate_exchange"),
             (arraycal.airlink, "gen_channel"), (arraycal.stacking, "build_stacked"),
             (arraycal.bench, "build_stacked"), (arraycal.crb, "build_f_composite"),
             (arraycal.estimators, "rogalin_gram"), (arraycal.bench, "run_experiment")]
    originals = [getattr(mod, key) for mod, key in sites]
    validate = arraycal.airlink.PilotSet.__dict__["validate"]
    plain = _run(tmp_path, TINY, tag="plain")
    with Tracer() as tracer:
        assert all(getattr(mod, key) is not orig
                   for (mod, key), orig in zip(sites, originals))
        traced = _run(tmp_path, TINY, tag="traced")
    assert traced == plain
    assert all(getattr(mod, key) is orig for (mod, key), orig in zip(sites, originals))
    assert arraycal.airlink.PilotSet.__dict__["validate"] is validate
    assert tracer.absent == []
    by_name = {}
    for sp in tracer.spans:
        by_name.setdefault(sp.name, []).append(sp)
    assert len(by_name["estimators.rogalin_gram"]) == 2
    parent = tracer.spans[by_name["estimators.rogalin_gram"][0].parent]
    assert parent.name == "estimators.rogalin_estimate"
    assert len(by_name["airlink.PilotSet.validate"]) == 2
    assert tracer.counts["airlink.simulate_exchange.blocks"] == 2 * 12


def test_missing_function_is_reported_absent(monkeypatch):
    original = arraycal.estimators.rogalin_gram
    monkeypatch.delattr(arraycal.estimators, "rogalin_gram")
    tracer = Tracer()
    for _ in range(2):                       # reinstalling does not repeat the report
        with tracer:
            pass
    assert tracer.absent == ["estimators.rogalin_gram"]
    monkeypatch.undo()
    assert arraycal.estimators.rogalin_gram is original


def _reference_csv(workload, seed):
    stored = json.loads(perfrun.REFERENCE.read_text())[workload][str(seed)]
    return stored, "estimator,constraint,snr_db,mse,crb_trace,trials,wall_time\n" \
        + "".join(line + "\n" for line in stored)


def _perturb(line, column, factor):
    cols = line.split(",")
    cols[column] = f"{float(cols[column]) * factor:.12e}"
    return ",".join(cols)


def test_reference_check_catches_a_perturbed_cell():
    name = "singleton16-aml-crb"
    shape = perfrun.Shape(perfrun.WORKLOADS[name])
    stored, text = _reference_csv(name, perfrun.REFERENCE_SEEDS["default"])
    assert perfrun.check_csv(text, shape, stored) == (shape.ops_per_call, 0, [])

    lines = text.splitlines()
    lines[2] = _perturb(lines[2], 3, 1 + 1e-8)          # within tolerance
    attempted, failed, _ = perfrun.check_csv("\n".join(lines) + "\n", shape, stored)
    assert failed == 0

    lines[2] = _perturb(lines[2], 3, 1 + 1e-5)          # mse of rogalin @ 10 dB
    attempted, failed, problems = perfrun.check_csv("\n".join(lines) + "\n", shape, stored)
    assert (attempted, failed) == (shape.ops_per_call, shape.trials)
    assert len(problems) == 1 and problems[0].startswith("rogalin @ 10 dB")

    lines = text.splitlines()
    lines[4] = _perturb(lines[4], 4, 1 - 1e-5)          # crb_trace @ 40 dB
    _, failed, problems = perfrun.check_csv("\n".join(lines) + "\n", shape, stored)
    assert failed == shape.crb_evals and "crb_trace @ 40 dB" in problems[0]


def test_skipped_trial_counts_as_failed(tmp_path, monkeypatch):
    real = arraycal.bench.argos_estimate
    calls = []

    def flaky(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise ZeroDivisionError("forced")
        return real(*args, **kwargs)

    monkeypatch.setattr(arraycal.bench, "argos_estimate", flaky)
    text = _run(tmp_path, TINY)
    shape = perfrun.Shape(TINY)
    attempted, failed, problems = perfrun.check_csv(text, shape)
    assert attempted == 3 * 2 + 2
    assert failed == 1
    assert problems == ["argos @ 20 dB: 1 skipped trials"]


def test_every_declared_metric_is_produced():
    spec = json.loads((perfrun.ROOT / "BENCHMARK.json").read_text())
    produced = set(layer_metrics([], {}, [], 1.0, 1)) | {"trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} <= produced
    assert {f"{n}.calls" for n in TRACED} <= {m["name"] for m in spec["per_layer"]}
    assert {m["name"] for m in spec["end_to_end"]} == {"trials_per_s", "setup_s",
                                                        "peak_rss_mb"}
    assert set(perfrun.WORKLOADS) == {w["name"] for w in spec["workloads"]}
