"""Tests of the benchmark harness itself. Run: python3 -m pytest benchmarks/tests"""

import json
import sys
from pathlib import Path

import pytest

import run
import tracing
import worker
import workloads
from pointseq import autograd, config, data, geometry, model, training

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
PACKAGE = (autograd, config, data, geometry, model, training)

TINY = workloads.Workload(
    "tiny_cls", "a few epochs on a few desk clouds", "configs/desk_classification.ini",
    (("train.epochs", "3"), ("data.train_count", "2"), ("data.test_count", "1")), (),
)


def _run_worker(monkeypatch, tmp_path, capsys, trace, seed=5):
    monkeypatch.setitem(workloads.WORKLOADS, TINY.name, TINY)
    monkeypatch.setattr(workloads, "OUT_DIR", tmp_path)
    code = worker.main(["--workload", TINY.name, "--seed", str(seed),
                        "--seconds", "0", "--trace", str(trace)])
    return code, json.loads(capsys.readouterr().out.splitlines()[-1])


class TestInstrument:
    def test_restores_every_attribute_when_the_workload_raises(self):
        before = [dict(vars(m)) for m in PACKAGE]
        tensor_init = autograd.Tensor.__dict__["__init__"]
        tracer = tracing.Tracer()
        with pytest.raises(RuntimeError, match="workload failed"):
            with tracing.instrument(tracer):
                assert autograd.matmul is not before[0]["matmul"]
                autograd.matmul([[1.0]], [[2.0]])
                raise RuntimeError("workload failed")
        for module, saved in zip(PACKAGE, before):
            for name, value in saved.items():
                assert vars(module)[name] is value, f"{module.__name__}.{name}"
        assert autograd.Tensor.__dict__["__init__"] is tensor_init
        assert [s[1] for s in tracer.spans] == ["autograd.op.matmul"]

    def test_every_binding_of_a_function_is_wrapped(self):
        original = model.prepare_cloud
        assert training.prepare_cloud is original
        with tracing.instrument(tracing.Tracer()):
            assert model.prepare_cloud is training.prepare_cloud
            assert model.prepare_cloud is not original
        assert model.prepare_cloud is original and training.prepare_cloud is original


class TestSelfTimes:
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]
    SPANS = [
        (2, "autograd.op.c", 2.0, 3.0, 1, "r"),
        (1, "model.a", 1.0, 4.0, 0, "r"),
        (3, "geometry.b", 5.0, 9.0, 0, "r"),
        (0, "training.root", 0.0, 10.0, None, "r"),
    ]

    def test_self_time_is_span_minus_children(self):
        assert tracing.self_times(self.SPANS) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}

    def test_overlapping_children_are_counted_once(self):
        spans = [(0, "p", 0.0, 10.0, None, "r"), (1, "x", 2.0, 6.0, 0, "r"),
                 (2, "y", 4.0, 8.0, 0, "r"), (3, "z", 9.0, 12.0, 0, "r")]
        assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)

    def test_summary_and_layer_totals(self):
        summary = tracing.summarize(self.SPANS + [(4, "model.a", 11.0, 12.5, None, "r")])
        assert summary["model.a"] == {"s": 4.5, "self_s": 3.5, "calls": 2}
        layers = tracing.layer_self_times(summary)
        assert layers == {"data": 0.0, "geometry": 4.0, "model": 3.5,
                          "autograd": 1.0, "training": 3.0}


class TestPrintedMetrics:
    def _declared(self, key):
        spec = json.loads(BENCHMARK_JSON.read_text())
        return {m["name"]: m["unit"] for m in spec[key]}

    def test_end_to_end_metrics_match_benchmark_json(self, monkeypatch, tmp_path, capsys):
        code, result = _run_worker(monkeypatch, tmp_path, capsys, trace=0)
        assert code == 0 and result["correct"] and result["failed"] == 0
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == self._declared("end_to_end")

    def test_per_layer_metrics_match_benchmark_json(self, monkeypatch, tmp_path, capsys):
        code, result = _run_worker(monkeypatch, tmp_path, capsys, trace=1)
        assert code == 0 and result["correct"]
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == self._declared("per_layer")
        assert result["metrics"]["training.step.calls"]["value"] > 0
        assert list(tmp_path.glob("*.trace.jsonl"))

    def test_workload_names_match_benchmark_json(self):
        spec = json.loads(BENCHMARK_JSON.read_text())
        assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
        assert list(run.WORKLOADS) == list(workloads.WORKLOADS)


class TestSeed:
    @pytest.mark.parametrize("name", list(workloads.WORKLOADS))
    def test_workload_config_takes_the_seed(self, name):
        cfg = workloads.WORKLOADS[name].run_config(11)
        assert cfg.data.seed == 11 and cfg.train.seed == 11

    def test_seed_reaches_data_and_train(self, monkeypatch, tmp_path, capsys):
        seen = {"data": set(), "train": set()}
        splits, train = data.synthetic_splits, training.train

        def spy_splits(data_cfg, task):
            seen["data"].add(data_cfg.seed)
            return splits(data_cfg, task)

        def spy_train(*args, **kwargs):
            seen["train"].add(args[5].seed)
            return train(*args, **kwargs)

        monkeypatch.setattr(data, "synthetic_splits", spy_splits)
        monkeypatch.setattr(training, "train", spy_train)
        assert worker.parse_args(run.worker_command("desk_cls", 13, 1.0, 0)[2:]).seed == 13
        _run_worker(monkeypatch, tmp_path, capsys, trace=0, seed=13)
        assert seen == {"data": {13}, "train": {13}}


class TestFailureIsolation:
    def test_a_crashing_worker_is_a_failed_result(self):
        lines, result = run.run_worker(
            [sys.executable, "-c", "print('partial'); raise SystemExit(137)"], None, 30)
        assert lines == ["partial"]
        assert result["correct"] is False and result["failed"] == 1
        assert "137" in result["error"]

    def test_other_workloads_still_run_and_report(self, monkeypatch, capsys):
        ok = {"correct": True, "attempted": 2, "failed": 0, "metrics": {}}

        killed = "import os, signal; os.kill(os.getpid(), signal.SIGKILL)"

        def command(name, seed, seconds, trace):
            if name == "desk_seg":
                return [sys.executable, "-c", killed]
            return [sys.executable, "-c", f"print({json.dumps(json.dumps(ok))})"]

        monkeypatch.setattr(run, "worker_command", command)
        assert run.main(["--seconds", "1"]) == 1
        summary = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert summary["workloads"]["desk_cls"]["correct"]
        assert summary["workloads"]["ref128_cls"]["correct"]
        assert not summary["workloads"]["desk_seg"]["correct"]
        assert (summary["attempted"], summary["failed"]) == (5, 1)

    def test_without_sources_it_exits_nonzero_and_prints_no_result(
            self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(run, "SRC", tmp_path)
        assert run.main(["--workload", "desk_cls"]) != 0
        assert capsys.readouterr().out == ""
