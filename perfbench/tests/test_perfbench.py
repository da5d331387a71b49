"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench/tests``."""

import json
from pathlib import Path

import pytest

from quantes import cli

from perfbench import bench, tracing
from perfbench.workloads import WORKLOADS, CheckFailed, CliFailed, Workload, _run_cli

ROOT = Path(__file__).resolve().parents[2]


def _span(name, start, end, parent=None):
    return tracing.Span(name, "op0", start, end, parent)


def test_merged_length_counts_overlap_once():
    assert tracing.merged_length([]) == 0.0
    assert tracing.merged_length([(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)]) == 5.0
    assert tracing.merged_length([(0.0, 4.0), (1.0, 2.0)]) == 4.0


def test_self_time_is_duration_minus_child_cover():
    spans = [
        _span("parent", 0.0, 10.0),
        _span("a", 1.0, 3.0, parent=0),
        _span("b", 2.0, 5.0, parent=0),  # overlaps a: covered once
        _span("c", 7.0, 8.0, parent=0),
        _span("a.inner", 1.5, 2.5, parent=1),  # grandchild: not the parent's
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx([5.0, 1.0, 3.0, 1.0, 1.0])


def test_self_time_clips_children_to_the_parent():
    spans = [_span("parent", 0.0, 2.0), _span("late", 1.0, 4.0, parent=0)]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_tail_percentile_needs_ten_samples_beyond():
    assert tracing.tail_percentile(list(range(19))) is None
    assert tracing.tail_percentile(list(range(20)))[0] == 50.0
    assert tracing.tail_percentile(list(range(40)))[0] == 75.0
    assert tracing.tail_percentile(list(range(1000)))[0] == 99.0


def test_instrument_records_nested_spans_and_restores_on_error():
    class Mod:
        @staticmethod
        def outer(fn):
            return fn()

        @staticmethod
        def inner():
            raise ValueError("inner failed")

    tracer = tracing.Tracer()
    original = Mod.outer
    with pytest.raises(ValueError):
        with tracing.instrument(tracer, [(Mod, "outer", "outer"), (Mod, "inner", "inner")]):
            Mod.outer(Mod.inner)
    assert Mod.outer is original
    assert [(s.name, s.parent, s.error) for s in tracer.spans] == [
        ("outer", None, "ValueError"),
        ("inner", 0, "ValueError"),
    ]


class _Raising(Workload):
    name = "raising"
    setup_repeats = 2
    quality_names = ("fit_loglik",)

    def setup(self, seed, size, workdir):
        return None

    def op(self, inputs, opdir):
        raise RuntimeError("boom")


class _WrongOutput(_Raising):
    def op(self, inputs, opdir):
        return 1

    def check(self, inputs, out):
        raise CheckFailed("output is wrong")


@pytest.mark.parametrize(
    "workload, error",
    [(_Raising(), "RuntimeError: boom"), (_WrongOutput(), "CheckFailed: output is wrong")],
)
def test_failed_operation_gives_failed_share_one_and_no_samples(workload, error, tmp_path):
    result = bench.run_workload(workload, 0, 0.0, False, "tiny", tmp_path)
    assert result["attempted"] == result["failed"] == 1
    assert result["metrics"]["failed_share"]["value"] == 1.0
    assert "wall_s" not in result["metrics"]
    assert "wall_rel" not in result["metrics"]
    assert "fit_loglik" not in result["metrics"]
    assert result["samples"]["wall_s"] == []
    assert set(result["missing"]) == {"wall_s", "wall_rel", "fit_loglik"}
    assert result["errors"] == [{"error": error, "count": 1}]
    line = bench.result_line([result], bench.load_benchmark(ROOT))
    assert line["correct"] is False
    assert line["failed"] == line["attempted"] == 1
    assert "wall_rel" not in line["metrics"]
    assert "setup_s" in line["metrics"]


def test_nonzero_cli_exit_is_a_failure(tmp_path):
    with pytest.raises(CliFailed, match="exited 2"):
        _run_cli(["backtest", "--forecasts", str(tmp_path / "missing.csv")])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_smoke(name, tmp_path):
    workload = WORKLOADS[name]
    result = bench.run_workload(workload, 1, 0.0, False, "tiny", tmp_path)
    assert result["attempted"] >= 1
    metrics = result["metrics"]
    assert metrics["setup_s"]["value"] > 0.0
    if result["failed"]:
        assert result["errors"] and "wall_s" not in metrics
    else:
        assert metrics["wall_s"]["value"] > 0.0
        assert metrics["wall_rel"]["value"] > 0.0
        for quality in workload.quality_names:
            assert quality in metrics
    if name in ("rescore", "allocate"):
        assert result["failed"] == 0, result["errors"]


def test_traced_rescore_reports_every_per_layer_metric(tmp_path):
    benchmark = bench.load_benchmark(ROOT)
    original = cli.main
    result = bench.run_workload(WORKLOADS["rescore"], 2, 0.0, True, "tiny", tmp_path)
    assert cli.main is original
    assert result["failed"] == 0 and result["attempted"] == 2
    line = bench.result_line([result], benchmark)
    wanted = {m["name"] for m in benchmark["per_layer"]}
    assert set(line["metrics"]) == wanted
    layers = result["layers"]
    assert layers["pipeline.emit_reports.bytes"]["value"] > 0
    assert layers["scoring.per_asset.s"]["value"] > 0.0
    assert layers["portfolio.smv_weights.calls"]["value"] == 0
    assert result["spans"]["cli.main"]["calls"] == 1


def test_benchmark_json_agrees_with_the_runner():
    benchmark = bench.load_benchmark(ROOT)
    for metric in benchmark["end_to_end"]:
        unit, better, _ = bench.END_TO_END[metric["name"]]
        assert (metric["unit"], metric["better"]) == (unit, better)
        assert 0.0 < metric["bound"] <= 0.25
    for metric in benchmark["per_layer"]:
        assert metric["name"] in bench.LAYER_MAP
        assert metric["unit"] == bench.unit_of(metric["name"])
    for workload in benchmark["workloads"]:
        assert WORKLOADS[workload["name"]].why == workload["why"]


def _result_file(wall, failed=0):
    return {"workloads": [{
        "workload": "rescore", "attempted": 10, "failed": failed,
        "metrics": {"wall_rel": {"value": wall, "unit": "ref"},
                    "failed_share": {"value": failed / 10, "unit": "failed/attempted"}},
    }]}


def test_compare_flags_only_what_is_beyond_its_bound():
    benchmark = bench.load_benchmark(ROOT)
    bound = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}["wall_rel"]
    lines = []
    assert bench.compare(_result_file(1.0), _result_file(1.0 + bound / 2), benchmark,
                         lines.append) == 0
    assert bench.compare(_result_file(1.0), _result_file(1.0 + 2 * bound), benchmark,
                         lines.append) == 1
    assert bench.compare(_result_file(1.0), _result_file(1.0, failed=1), benchmark,
                         lines.append) == 1
    assert any("ratio" in line and "WORSE" in line for line in lines)


def test_result_line_is_json_with_the_contract_keys(tmp_path):
    result = bench.run_workload(WORKLOADS["rescore"], 3, 0.0, False, "tiny", tmp_path)
    line = json.loads(json.dumps(bench.result_line([result], bench.load_benchmark(ROOT))))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {m["name"] for m in bench.load_benchmark(ROOT)["end_to_end"]}


class _Counting(_Raising):
    setup_repeats = 4
    quality_names = ()

    def op(self, inputs, opdir):
        return 1


def test_every_setup_is_timed_and_its_files_removed(tmp_path):
    result = bench.run_workload(_Counting(), 0, 0.0, False, "tiny", tmp_path)
    assert result["failed"] == 0
    assert len(result["samples"]["setup_s"]) == 4
    assert len(result["samples"]["ref_s"]) == 1
    assert [p.name for p in tmp_path.iterdir()] == ["raising_setup0"]


def test_wall_rel_is_wall_over_the_adjacent_reference_loops(tmp_path, monkeypatch):
    loops = iter([0.5, 1.5])
    monkeypatch.setattr(bench.reference, "loop_seconds", lambda: next(loops))
    result = bench.run_workload(_Counting(), 0, 0.0, False, "tiny", tmp_path)
    wall = result["samples"]["wall_s"][0]
    assert result["samples"]["ref_s"] == [1.0]
    assert result["metrics"]["wall_rel"]["value"] == pytest.approx(wall / 1.0)
