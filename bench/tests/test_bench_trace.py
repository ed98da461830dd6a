"""Traced rounds compute what untraced rounds compute, the wrappers leave
no trace behind, and the runner refuses a directory without the library."""

import json
import shutil
import subprocess
import sys

import pytest

import gradcap.hjb
import scipy.sparse.linalg as spla
import spans
import worker
import workloads

BENCH = worker.BENCH


def _pair(workload):
    rec = spans.Recorder()
    plain = worker.run_round(workload)
    traced = worker.run_round(workload, rec)
    return plain, traced, rec.rounds[0]


@pytest.mark.parametrize("make", [
    lambda d, o: workloads.Pde1dShipped(d, o, seed=4),
    lambda d, o: workloads.McPenalized(d, o, seed=4, n_paths=96),
    lambda d, o: workloads.McSingular(d, o, seed=4, n_paths=96),
], ids=["pde_1d_shipped", "mc_penalized", "mc_singular"])
def test_traced_round_computes_untraced_outputs(make, config_dir, tmp_path):
    wl = make(config_dir, tmp_path)
    plain, traced, layers = _pair(wl)
    assert plain.failed == traced.failed == 0
    assert plain.fingerprint == traced.fingerprint
    m = worker.Measurement()
    m.add(plain)
    m.add(traced)
    assert m.verify(wl) == []
    self_sum = sum(layers[name] for name in spans.TIME_METRICS
                   if name != "control.estimate_s")
    assert self_sum + layers["trace.unattributed_s"] + layers["trace.hook_s"] \
        == pytest.approx(layers["trace.round_s"], rel=1e-9)
    assert layers["nidd.solve_count"] >= 1
    if wl.name.startswith("mc_"):
        assert layers["control.steps"] > 0
        assert layers["control.path_steps"] >= layers["control.steps"]


def test_counts_repeat_and_wrappers_are_removed(config_dir, tmp_path):
    originals = (gradcap.hjb.solve_hjb, spla.splu, spla.gmres,
                 gradcap.geometry.Box.contains_batch)
    wl = workloads.McPenalized(config_dir, tmp_path, seed=9, n_paths=64)
    rec = spans.Recorder()
    worker.run_round(wl, rec)
    worker.run_round(wl, rec)
    first, second = rec.rounds
    for name in spans.COUNT_METRICS:
        assert first[name] == second[name], name
    assert first["levy.jumps_sampled"] > 0
    assert first["control.path_steps"] > 0
    assert (gradcap.hjb.solve_hjb, spla.splu, spla.gmres,
            gradcap.geometry.Box.contains_batch) == originals
    assert rec.kept_spans and rec.kept_spans[0][0] == spans.ROOT


def test_rounds_repeat_the_runs_sample(config_dir, tmp_path):
    wl = workloads.McSingular(config_dir, tmp_path, seed=2, n_paths=64)
    m = worker.Measurement()
    for _ in range(2):
        m.add(worker.run_round(wl))
    first, second = m.rounds
    assert first.fingerprint == second.fingerprint
    assert m.verify(wl) == []
    other = workloads.McSingular(config_dir, tmp_path, seed=3, n_paths=64)
    assert worker.run_round(other).fingerprint != first.fingerprint
    bases = sorted(workloads.mc_base_seed(s, 4096) for s in range(3))
    assert min(b - a for a, b in zip(bases, bases[1:])) >= 4096
    with pytest.raises(ValueError):
        workloads.mc_base_seed(0, workloads.MC_SEED_STRIDE + 1)


def test_repeated_round_with_other_outputs_is_reported(config_dir,
                                                       tmp_path):
    wl = workloads.Pde1dShipped(config_dir, tmp_path, seed=1)
    m = worker.Measurement()
    m.add(worker.run_round(wl))
    again = worker.run_round(wl)
    again.fingerprint = "0" * 64
    m.add(again)
    assert any("different outputs" in f for f in m.verify(wl))


def test_missing_entry_point_is_skipped(config_dir, tmp_path, monkeypatch):
    monkeypatch.setattr(spans, "_FUNCTIONS", spans._FUNCTIONS + (
        ("nidd", "no_such_solver", "nidd.linear_solve", None),))
    monkeypatch.setattr(spans, "_METHODS", spans._METHODS + (
        ("control", "NoSuchPolicy", "rate_and_direction", "control.policy"),))
    wl = workloads.Pde1dShipped(config_dir, tmp_path, seed=0)
    rec = spans.Recorder()
    assert worker.run_round(wl, rec).failed == 0
    assert rec.rounds[0]["nidd.solve_count"] > 0


def test_path_counts_follow_the_matrix(config_dir, tmp_path):
    wl = workloads.Pde1dShipped(config_dir, tmp_path, seed=0)
    rec = spans.Recorder()
    worker.run_round(wl, rec)
    layers = rec.rounds[0]
    # unconstrained and tight have no jumps; jumps (0.5) and control
    # (0.167) stay under the 0.7 lag bound
    assert layers["nidd.path_direct"] > 0
    assert layers["nidd.path_lag"] > 0
    assert layers["nidd.path_gmres"] == 0
    assert layers["hjb.eps_stages"] >= 4


def test_runner_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc_singular",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "not a gradcap checkout" in proc.stderr
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
