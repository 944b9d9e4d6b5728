"""Tests of the benchmark itself, at the tiny task size.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402

bench.require_source()

import bench_trace  # noqa: E402
from bench_workloads import WORKLOADS  # noqa: E402

_RECORDS: dict[tuple[str, bool], dict] = {}


def tiny_record(workload: str, trace: bool, out_dir: Path) -> dict:
    key = (workload, trace)
    if key not in _RECORDS:
        _RECORDS[key] = bench.measure(workload, seed=0, seconds=0, trace=trace,
                                      size="tiny", out_dir=out_dir)
    return _RECORDS[key]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_emits_every_declared_metric(workload, trace, tmp_path):
    record = tiny_record(workload, trace, tmp_path)
    declared = bench.declared_metrics(trace)
    assert set(record["metrics"]) == set(declared)
    assert record["failed"] == 0, record["failures"]
    assert record["missing"] == {}
    result = json.loads(bench.report(record).splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    for name, unit in declared.items():
        assert result["metrics"][name]["unit"] == unit
        assert isinstance(result["metrics"][name]["value"], (int, float))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_self_times_fit_in_traced_wall(workload, tmp_path):
    # seconds=0 gives exactly one traced pass, so per-pass values are that pass;
    # self times are as measured, so they are compared with the measured wall
    record = tiny_record(workload, True, tmp_path)
    metrics = record["metrics"]
    total_self = sum(metrics[f"{mod}.{path}.self_s"] for mod, path in bench_trace.TRACED)
    assert 0.0 < total_self <= record["raw"]["trace.wall_s"]


def test_timed_interval_leaves_out_its_blocks_and_restores_the_timer():
    import signal
    import time

    import bench_speed

    before = signal.getsignal(signal.SIGALRM)
    with bench_speed.timed("interpreted") as interval:
        end = time.perf_counter() + 5 * bench_speed.TICK_S
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # about one block per tick was run inside and taken out of the interval
    assert 0.0 < interval.raw < 5 * bench_speed.TICK_S
    assert interval.scaled == pytest.approx(interval.raw * interval.speed)
    assert interval.speed > 0.0


def _bindings() -> dict[tuple[str, str], object]:
    import qloss.gates
    out = {(name, key): value for name, mod in list(sys.modules.items())
           if name == "qloss" or name.startswith("qloss.")
           for key, value in vars(mod).items() if callable(value)}
    out[("qloss.gates", "Register.apply")] = qloss.gates.Register.__dict__["apply"]
    return out


def test_traced_run_restores_every_wrapped_function(tmp_path):
    bench.measure("percolation", seed=0, seconds=0, trace=False, size="tiny",
                  out_dir=tmp_path)  # load every module first
    before = _bindings()
    tracer = bench_trace.Tracer()
    tracer.install()
    assert tracer.patched and not tracer.missing
    assert _bindings() != before
    tracer.restore()
    assert _bindings() == before
    bench.measure("trajectories", seed=0, seconds=0, trace=True, size="tiny",
                  out_dir=tmp_path)
    assert _bindings() == before


def test_raising_task_is_counted_and_the_run_goes_on(tmp_path, monkeypatch):
    from qloss import protocol

    def broken(*args, **kwargs):
        raise RuntimeError("forced failure")

    monkeypatch.setattr(protocol, "run_protocol", broken)
    record = bench.measure("trajectories", seed=0, seconds=0, trace=False, size="tiny",
                           out_dir=tmp_path)
    # the warm-up and the six protocol tasks raise; both sweeps still pass
    assert record["failed"] == 7
    assert record["attempted"] > record["failed"]
    assert record["metrics"]["pass_frac"] == pytest.approx(
        1 - record["failed"] / record["attempted"])
    assert any("forced failure" in f for f in record["failures"])
    assert json.loads(bench.report(record).splitlines()[-1])["correct"] is False


def test_vanished_counter_is_null_with_a_reason(tmp_path, monkeypatch):
    from qloss import protocol

    # the same function without its lru_cache: the counter has nothing to read
    monkeypatch.setattr(protocol, "four_qubit_code", protocol.four_qubit_code.__wrapped__)
    record = bench.measure("trajectories", seed=0, seconds=0, trace=True, size="tiny",
                           out_dir=tmp_path)
    assert record["failed"] == 0, record["failures"]
    assert set(record["missing"]) == {"protocol.code_cache.hits", "protocol.code_cache.misses"}
    result = json.loads(bench.report(record).splitlines()[-1])
    assert result["metrics"]["protocol.code_cache.hits"]["value"] is None
    assert result["metrics"]["protocol.code_cache.misses"]["value"] is None
    assert isinstance(result["metrics"]["qudit.embed_cache.hits"]["value"], float)


def test_benchmark_alone_exits_nonzero_without_output(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(bench.SPEC, tmp_path / bench.SPEC.name)
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload",
                           "trajectories", "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
