"""Tests of the benchmark's own machinery: failure counting, span
wrapping and aggregation, metric names and the compare verdicts.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import itertools
import json
import types

import pytest

import compare
import run
import spans
import speed
import worker
import workloads
from pwlab import fourier, hardy
from pwlab.fourier import ConvergenceError
from pwlab.geometry import GeometryError


def raiser(exc):
    def run_():
        raise exc
    return run_


def test_run_item_counts_lab_errors_and_oracle_misses_as_failed():
    tally = workloads.Tally()
    for item in [workloads.Item("ok", lambda: True),
                 workloads.Item("miss", lambda: False),
                 workloads.Item("conv", raiser(ConvergenceError("no settle"))),
                 workloads.Item("geom", raiser(GeometryError("bad body"))),
                 workloads.Item("value", raiser(ValueError("bad input")))]:
        workloads.run_item(item, tally)
    assert (tally.attempted, tally.failed) == (5, 4)
    assert tally.failures[0] == "miss: oracle miss"
    assert tally.failures[1].startswith("conv: ConvergenceError")


def test_run_item_lets_other_exceptions_crash():
    with pytest.raises(ZeroDivisionError):
        workloads.run_item(workloads.Item("bug", lambda: 1 / 0), workloads.Tally())


def test_measure_reports_failures_and_run_exits_nonzero(monkeypatch, tmp_path, capsys):
    fake = workloads.Workload(
        warmup=workloads.Item("warm", lambda: True),
        items=[workloads.Item("good", lambda: True),
               workloads.Item("bad", raiser(GeometryError("empty")))])
    result = worker.measure(fake, seconds=0.0, trace=False)
    assert result["attempted"] == 3 and result["failed"] == 1 and not result["correct"]

    result.update(setup_s=1.0, raw_setup_s=1.0, setup_runs_s=[1.0], peak_rss_mb=10.0,
                  failed_frac=1 / 3,
                  workload="polytope_omega", seed=0, seconds=0.0, trace=0)
    monkeypatch.setattr(run, "run_workload", lambda *args: dict(result))
    code = run.main(["--workload", "polytope_omega", "--seed", "0", "--seconds", "1",
                     "--out", str(tmp_path)])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False and (last["attempted"], last["failed"]) == (3, 1)
    assert set(last["metrics"]) == {"wall_s", "setup_s", "peak_rss_mb"}


def test_timed_pass_scales_each_item_by_the_gaps_around_it(monkeypatch):
    clock = itertools.count()                             # every item takes 1 s
    monkeypatch.setattr(speed, "time", types.SimpleNamespace(perf_counter=lambda: next(clock)))
    # the first gap ran at the reference speed, the later ones at half of it
    gaps = iter([(5 * speed.SLICE_REF_S, 5)] + [(20 * speed.SLICE_REF_S, 10)] * 2)
    monkeypatch.setattr(speed, "gap", lambda seconds: next(gaps))
    items = [workloads.Item("a", lambda: True), workloads.Item("b", lambda: True)]
    wall, scaled = worker.timed_pass(items, workloads.Tally(), speed.Scaler())
    # item a: slowdown (5 + 20) / (5 + 10) = 5/3; item b: (20 + 20) / (10 + 10) = 2
    assert wall == 2 and scaled == pytest.approx(3 / 5 + 1 / 2)


def test_checkpoint_hook_runs_after_every_binding_and_is_undone():
    original = fourier.synthesize_on_grid
    calls = []
    with spans.after_each_call(["fourier.synthesize_on_grid"], lambda: calls.append(1)):
        assert hardy.synthesize_on_grid is fourier.synthesize_on_grid is not original
        hardy.tent_ratio(1, freq_points=2000)
    assert hardy.synthesize_on_grid is fourier.synthesize_on_grid is original
    assert len(calls) >= 2


def test_benchmark_names_every_layer_metric():
    bench = run.load_benchmark()
    functions = worker.load_layers()["functions"]
    derived = []
    for entry in functions:
        derived += [f"{entry['name']}.{k}" for k in ("calls", "total_s", "self_s")]
        derived += [f"{entry['name']}.{c}" for c in entry["counts"]]
    assert [m["name"] for m in bench["per_layer"]] == derived + ["traced_wall_s",
                                                                 "trace_overhead_s"]
    counted = {f"{e['name']}.{c}" for e in functions for c in e["counts"]}
    assert counted == set(spans.COUNTERS)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert set(workloads.BUILDERS) == set(run.WORKLOADS)


def test_wrapping_reaches_every_binding_and_is_undone():
    functions = [{"name": "fourier.synthesize_on_grid", "counts": ["exp_terms"]},
                 {"name": "fourier.synthesize_l1", "counts": []},
                 {"name": "hardy.tent_ratio", "counts": []},
                 {"name": "hankel.HankelMatrix.build", "counts": ["entries"]}]
    original = fourier.synthesize_on_grid
    recorder = spans.Recorder()
    with spans.wrapped(recorder, functions):
        assert hardy.synthesize_on_grid is fourier.synthesize_on_grid is not original
        hardy.tent_ratio(1, freq_points=2000)
    assert hardy.synthesize_on_grid is fourier.synthesize_on_grid is original
    metrics = spans.layer_metrics(recorder, functions)
    assert metrics["hardy.tent_ratio.calls"] == 1
    assert metrics["fourier.synthesize_l1.calls"] == 1
    calls = metrics["fourier.synthesize_on_grid.calls"]
    assert calls >= 2
    # tent_l1_factor starts at L = 4 with 20 points per unit: 160 spatial nodes
    assert metrics["fourier.synthesize_on_grid.exp_terms"] >= 2000 * 160 * calls
    assert metrics["hankel.HankelMatrix.build.calls"] == 0
    outer = metrics["hardy.tent_ratio.total_s"]
    assert 0 < metrics["hardy.tent_ratio.self_s"] < outer
    assert metrics["fourier.synthesize_l1.total_s"] <= outer


def test_self_time_subtracts_children_and_total_skips_reentry():
    rec = spans.Recorder()
    ns = 1_000_000_000
    rec.spans = [["f", 0, 10 * ns, -1],
                 ["g", 1 * ns, 4 * ns, 0],
                 ["f", 5 * ns, 7 * ns, 0],      # f re-entered inside f
                 ["g", 6 * ns, 7 * ns, 2]]
    m = spans.layer_metrics(rec, [{"name": "f", "counts": []}, {"name": "g", "counts": []}])
    assert m["f.calls"] == 2 and m["g.calls"] == 2
    assert m["f.total_s"] == pytest.approx(10.0)
    assert m["f.self_s"] == pytest.approx((10 - 3 - 2) + (2 - 1))
    assert m["g.self_s"] == pytest.approx(4.0)


def test_compare_verdicts():
    parent = {s: 10.0 + 0.1 * (s % 3) for s in range(10)}
    def scaled(factor):
        return {s: v * factor for s, v in parent.items()}
    assert compare.verdict(parent, scaled(0.5), "lower", 0.1) == "better"
    assert compare.verdict(parent, scaled(1.5), "lower", 0.1) == "worse"
    assert compare.verdict(parent, scaled(1.05), "lower", 0.1) == "within bound"
    assert compare.verdict(parent, scaled(2.0), "higher", 0.1) == "better"
    noisy = {s: 10.0 * (1 + (s % 2)) for s in range(10)}
    assert compare.verdict(parent, noisy, "lower", 0.1) == "unresolved"


def test_compare_reads_result_directories(tmp_path):
    for side, scale in (("a", 1.0), ("b", 1.02)):
        folder = tmp_path / side / "hardy_halfline"
        folder.mkdir(parents=True)
        for seed in range(4):
            doc = {"workload": "hardy_halfline", "seed": seed, "trace": 0, "failed": 0,
                   "attempted": 11, "wall_s": scale * (2.0 + 0.01 * seed),
                   "setup_s": 1.5, "peak_rss_mb": 170.0}
            (folder / f"seed{seed}-trace0.json").write_text(json.dumps(doc))
        (folder / "seed0-trace1.json").write_text(json.dumps(dict(doc, trace=1, wall_s=99.0)))
    rows = compare.compare(str(tmp_path / "a"), str(tmp_path / "b"))
    by_metric = {row["metric"]: row for row in rows}
    assert by_metric["wall_s"]["runs"] == (4, 4)
    assert by_metric["wall_s"]["verdict"] == "within bound"
    assert by_metric["setup_s"]["verdict"] == "within bound"
