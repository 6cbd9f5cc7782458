"""Tests of the benchmark itself: its output checks must catch wrong answers.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def _declared(kind: str) -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec[kind]]


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _nu_cases(fpt: Fraction):
    return (workloads.LibCase("cusp-p5-e2", 5, "x,y", "x^2 + y^3", 2, "nu_table", fpt=fpt),)


def test_correct_expectation_passes(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "NU_CASES", _nu_cases(Fraction(4, 5)))
    code = run.main(["--workload", "nu-crosscheck", "--seed", "1", "--seconds", "0.01"])
    result = _last_json(capsys)
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == _declared("end_to_end")


def test_traced_run_reports_every_layer_metric(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "NU_CASES", _nu_cases(Fraction(4, 5)))
    code = run.main(["--workload", "nu-crosscheck", "--seed", "1", "--seconds", "0.01",
                     "--trace", "1"])
    metrics = {k: v["value"] for k, v in _last_json(capsys)["metrics"].items()}
    assert code == 0
    assert list(metrics) == _declared("per_layer")
    layers = sum(metrics[f"{layer}.self_ms"] for layer in run.tracing.LAYERS)
    assert layers + metrics["trace.untimed_ms"] == pytest.approx(metrics["trace.wall_s"] * 1e3)
    assert metrics["verdict.nu_calls"] > 0 and metrics["ring.mul_calls"] > 0


def test_injected_wrong_expectation_fails_the_run(monkeypatch, capsys):
    # the cusp at p=5 has fpt 4/5; claiming 1/2 must count as a failed request
    monkeypatch.setattr(workloads, "NU_CASES", _nu_cases(Fraction(1, 2)))
    code = run.main(["--workload", "nu-crosscheck", "--seed", "1", "--seconds", "0.01"])
    result = _last_json(capsys)
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] >= 1 and result["failed"] / result["attempted"] > 0


@pytest.fixture
def small_cached(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads.CliCached, "per_cell", 1)
    with run.own_pptlab():
        _, pt, wl = run.set_up(workloads.CliCached, 7, run.ROOT / "src", tmp_path, keep=True)
        yield pt, wl


def test_cached_hits_match_their_misses(small_cached):
    _, wl = small_cached
    outcomes = wl.run_pass()
    assert [o.tag for o in outcomes].count("hit") == len(wl.requests)
    assert all(not problems for problems in wl.check(outcomes))


def test_tampered_cache_record_trips_hit_miss_check(small_cached, monkeypatch):
    pt, wl = small_cached
    put = pt.cache.ResultCache.put

    def tampered_put(self, key, version, record):
        put(self, key, version, dict(record, annotations=["tampered"]))

    monkeypatch.setattr(pt.cache.ResultCache, "put", tampered_put)
    problems = wl.check(wl.run_pass())
    flagged = [p for p in problems if p == ["cache hit record differs from its miss record"]]
    assert len(flagged) == len(wl.requests)


def test_generator_is_seeded_and_valid():
    a = workloads.generate_requests(5, 2)
    assert a == workloads.generate_requests(5, 2)
    assert a != workloads.generate_requests(6, 2)
    for req in a:
        assert any(c % req.p for _, c in req.terms)  # not divisible by p
        assert all(any(exps) for exps, _ in req.terms)  # no constant term


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(10_000) == 99.9
    assert run.tail_percentile(1200) == 99.0
    assert run.tail_percentile(600) == 95.0
    assert run.tail_percentile(9) == 100.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "cli-light", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_speed_factor_follows_the_samples_near_each_interval():
    probe = run.SpeedProbe()
    probe.times = [float(t) for t in range(10)]
    probe.samples = [0.001] * 5 + [0.002] * 5  # the machine halves its speed at t=5
    ref = run.REFERENCE_KERNEL_S
    assert probe.factor(1.0, 1.0) == pytest.approx(ref / 0.001)
    assert probe.scale(2.0, 7.0) == pytest.approx(2.0 * ref / 0.002)
    assert probe.factor() == pytest.approx(ref / 0.0015)
