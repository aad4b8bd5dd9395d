"""Tiny-n smoke runs of every workload's code path, checks on."""

import json
import signal
from pathlib import Path

import pytest

import run
import spans
from gossipsim import harness
from workloads import RANDDIFF_RING, WORKLOADS

BENCHMARK = json.loads((Path(run.HERE).parent / "BENCHMARK.json").read_text())


def _result(capsys, *argv):
    code = run.main(list(argv))
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-2])["detail"], json.loads(lines[-1])


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_workload_passes_its_checks(capsys, name, trace):
    code, detail, result = _result(
        capsys, "--workload", name, "--tiny", "--seconds", "0", "--seed", "3", "--trace", trace
    )
    assert code == 0, detail["failures"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK[kind]}
    if trace == "1":
        assert detail["absent"] == []
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        parts = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        assert parts + metrics["harness.unattributed_s"] == pytest.approx(metrics["trace.wall_s"])


def test_same_seed_gives_same_inputs_and_outcomes(capsys):
    argv = ("--workload", "randdiff-ring", "--tiny", "--seconds", "0", "--seed", "5")
    first = _result(capsys, *argv)[1]["outcomes"]
    assert _result(capsys, *argv)[1]["outcomes"] == first


def test_check_rejects_an_incomplete_run():
    cell = RANDDIFF_RING.make(12, 1)
    cell.config.max_rounds = 2
    out = harness.run_cell(cell.config, cell.n, cell.seed, keep_result=True)
    assert cell.check(out, None)


def test_benchmark_file_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in spans.PER_LAYER
    ]


def test_different_outcome_on_a_repeat_fails_the_cell():
    bench = run.Run(RANDDIFF_RING, seed=1, tiny=True)
    bench.outcomes[bench.seeds[0]] = (-1, None, -1)
    assert bench.attempt(0) is None
    assert "on a repeat" in bench.failures[0]


def test_raising_cell_is_a_failure_and_leaves_nothing_installed(monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    original = harness.build_schedule
    handler = signal.getsignal(signal.SIGALRM)
    monkeypatch.setattr(harness, "run_cell", boom)
    bench = run.Run(RANDDIFF_RING, seed=1, tiny=True)
    tracer = spans.Tracer(rep=0)
    assert bench.attempt(0, tracer) is None
    assert bench.attempt(1) is None
    assert bench.attempted == 2 and len(bench.failures) == 2
    assert all(span[2] is not None for span in tracer.spans)
    assert harness.build_schedule is original
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
