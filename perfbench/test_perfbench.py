"""Self-tests of the benchmark (not part of the library's test suite).

    python3 -m pytest -q perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, seed: int = 3):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    record = json.loads(next(l for l in lines if l.startswith('{"record"')))["record"]
    return record, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_quick_mode_reports_every_metric(workload, trace):
    record, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    assert record["seed"] == 3 and record["inputs"]
    assert record["environment"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    if trace:
        assert record["traced_outputs_equal_untraced"] is True
    # the overflow census (npoint only) runs once per run and fails whole
    assert result["failed"] == record["census_failed"] == record["census_ops"]
    assert record["census_ops"] == (1 if workload == "npoint" else 0)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.fixture(scope="module")
def ctx():
    return wl.make_context()


def _perturb(out, scale: float):
    """Every value scaled by 1 + 1e-6, or None if no value stands clear of
    rounding (cancelling sums leave noise of up to ~1e-16 * scale)."""
    vals = [out] if isinstance(out, complex) else [complex(re, im) for _, re, im, _ in out]
    if max(abs(v) for v in vals) <= 1e-3 * scale:
        return None
    if isinstance(out, complex):
        return out * (1 + 1e-6)
    return tuple((y, re * (1 + 1e-6), im * (1 + 1e-6), ab) for y, re, im, ab in out)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_gate_flags_a_perturbed_value(ctx, workload):
    items = wl.POOLS[workload](3, True).items
    checked = 0
    for item in items[:6]:
        out = wl.run_op(workload, ctx, item)
        verdict = wl.CHECKS[workload](ctx, item, out)
        bad = _perturb(out, verdict.scale)
        if not verdict.in_range or bad is None:
            continue
        assert verdict.ok
        assert not wl.CHECKS[workload](ctx, item, bad).ok
        checked += 1
    assert checked


def test_second_seed_gives_same_input_statistics():
    for make in wl.POOLS.values():
        a, b = make(1, False), make(2, False)
        assert a.summary == b.summary
        assert a.items != b.items
        assert make(1, False).items == a.items


def test_latencies_are_scaled_by_the_host_speed(monkeypatch):
    readings = iter([2.0, 2.0, 4.0, 4.0, 4.0] * 100)
    monkeypatch.setattr(run.hostspeed, "speed_factor", lambda: next(readings))
    monkeypatch.setattr(run, "CHUNK_S", 0.0)  # one reading after every op
    monkeypatch.setattr(run, "SMOOTH", 0)
    t = run.timed_loop(lambda x: x, [1, 2, 3, 4, 5], 0, 0, n_ops=5)
    assert t.outs == [1, 2, 3, 4, 5]
    assert t.scaled_ns == [2 * x for x in t.lat_ns[:2]] + [4 * x for x in t.lat_ns[2:]]
    assert t.scaled_s == pytest.approx(sum(t.scaled_ns) / 1e9)
    assert t.busy_s == pytest.approx(sum(t.lat_ns) / 1e9)


def test_host_speed_factor_is_positive_and_library_free():
    assert run.hostspeed.speed_factor() > 0
    assert not any(getattr(v, "__name__", "").startswith("treefield")
                   for v in vars(run.hostspeed).values())


def test_missing_library_exits_nonzero(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", HERE / "no-such-dir")
    assert run.main(["--workload", "npoint", "--seed", "1", "--seconds", "1"]) != 0
    assert "{" not in capsys.readouterr().out
