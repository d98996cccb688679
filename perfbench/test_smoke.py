"""Smoke test of the benchmark itself at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload untraced and traced (every job, wrapper and check),
checks that each run reports every metric BENCHMARK.json names, and that
the checks fail on tampered outputs.  Sizes come from workloads.SIZES
["smoke"]; pins for seed 0 at that size live in pins.json.
"""

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import tracing
import workloads

SEED = 0


@pytest.fixture(scope="module")
def reports():
    return {(w, t): run.run(w, SEED, seconds=0.01, trace=t, size="smoke")
            for w in workloads.WORKLOADS for t in (0, 1)}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_run_reports_every_metric(reports, workload, trace):
    report = reports[(workload, trace)]
    assert report["pinned"], "smoke pins for seed 0 are missing from pins.json"
    assert report["correct"], (report["failures"], report["problems"])
    line = run.result_line(report)
    e2e, layers = run.metric_specs()
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == [m["name"] for m in (layers if trace else e2e)]
    for metric in line["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    json.loads(json.dumps(line))
    if trace:
        assert report["rounds"]["traced"] >= 1 and report["rounds"]["untraced"] >= 1


def test_traced_counts_match_the_workload(reports):
    sm = reports[("support_mixed", 1)]["per_layer"]
    vi = reports[("verify_identity", 1)]["per_layer"]
    dc = reports[("distinct_cols", 1)]["per_layer"]
    assert sm["model.groups"] == 3 and sm["solver.sweeps.bisect"] > 0
    assert sm["solver.sweeps.zero"] > 0 and sm["algebra.radius_s"] > 0
    assert sm["sampler.draw_s"] == 0 and dc["sampler.draw_s"] == 0
    assert vi["sampler.draw_s"] > 0 and vi["sampler.seed_s"] > 0
    assert vi["sampler.parallel_eff"] > 0 and vi["model.groups"] == 1
    assert dc["model.groups"] == workloads.SIZES["smoke"]["distinct_cols"]["n"]
    assert dc["solver.sweeps.scan"] == dc["solver.sweeps"]
    for layers in (sm, vi, dc):
        assert layers["solver.true_residual_max"] < 1e-5
        assert layers["cli.bytes_out"] > 0


def test_counts_repeat_at_the_same_seed(reports):
    again = run.run("support_mixed", SEED, seconds=0.01, trace=1, size="smoke")
    first = reports[("support_mixed", 1)]["per_layer"]
    for name in ("solver.solves", "solver.sweeps.scan", "solver.sweeps.bisect",
                 "solver.sweeps.zero", "spectrum.probes_per_edge"):
        assert again["per_layer"][name] == first[name]


def test_generator_is_seeded():
    for w in workloads.WORKLOADS:
        a, b = workloads.generate(w, 7, "smoke"), workloads.generate(w, 7, "smoke")
        assert a.configs == b.configs
        assert a.configs != workloads.generate(w, 8, "smoke").configs


def test_tracer_restores_module_attributes():
    from specgap import sampler, spectrum
    before = (spectrum.detect_support, sampler._column_generator)
    with tracing.Tracer() as tracer:
        assert spectrum.detect_support is not before[0]
    assert (spectrum.detect_support, sampler._column_generator) == before
    assert tracer.missing == []


def test_missing_trace_target_fails_the_run(monkeypatch):
    from specgap import spectrum
    real = tracing.targets
    monkeypatch.setattr(tracing, "targets", lambda: real() + [
        (spectrum, "no_such_function", "spectrum.no_such_function", None, False)])
    report = run.run("distinct_cols", SEED, seconds=0.01, trace=1, size="smoke")
    assert not report["correct"]
    assert any("spectrum.no_such_function" in p for p in report["problems"])


def _pinned(workload):
    pins = json.loads((run.BENCH / "pins.json").read_text())
    return pins["smoke"][workload][str(SEED)]


def test_checks_reject_tampered_outputs():
    plan = workloads.generate("support_mixed", SEED, "smoke")
    pins = _pinned("support_mixed")
    obs = copy.deepcopy(pins["support-0"])
    assert checks.check_job(plan, "support-0", obs, pins["support-0"]) == []
    obs["intervals"][1][0] += 0.5
    assert checks.check_job(plan, "support-0", obs, pins["support-0"])
    obs["intervals"] = obs["intervals"][:1]
    assert checks.check_job(plan, "support-0", obs, None)
    zero = dict(pins["zero-0"], jacobian_radius=pins["zero-0"]["jacobian_radius"] * 1.01)
    assert checks.check_job(plan, "zero-0", zero, pins["zero-0"])

    plan = workloads.generate("verify_identity", SEED, "smoke")
    pins = _pinned("verify_identity")
    assert checks.check_job(plan, "verify-w1", pins["verify-w1"], pins["verify-w1"]) == []
    bad = dict(pins["verify-w1"], trials_sha256="0" * 64)
    assert "past the 10th digit" in checks.check_job(plan, "verify-w1", bad,
                                                     pins["verify-w1"])[0]
    bad["trials_sha256_r10"] = "0" * 64
    assert "sampled streams" in checks.check_job(plan, "verify-w1", bad, pins["verify-w1"])[0]
    off = {"intervals": [[0.3, 2.25]], "epsilon": 0.3}
    assert checks.check_job(plan, "support-identity", off, None)
    var = dict(pins["variance-small"], measured_var=pins["variance-small"]["measured_var"] * 2)
    assert checks.check_job(plan, "variance-small", var, pins["variance-small"])

    plan = workloads.generate("distinct_cols", SEED, "smoke")
    pins = _pinned("distinct_cols")
    dens = dict(pins["density"], density=[v + 1e-3 for v in pins["density"]["density"]])
    assert checks.check_job(plan, "density", dens, pins["density"])


def test_workers_outputs_must_match(tmp_path):
    jobs = {}
    for name in ("verify-w1", "verify-w2"):
        out = tmp_path / name
        out.mkdir()
        (out / "trials.csv").write_text("trial,seed,lambda_min,count_in_test_interval\n")
        (out / "verdict.json").write_text("{}\n")
        jobs[name] = workloads.Job(name, run=None, out=out)
    assert checks.check_round(jobs) == []
    (tmp_path / "verify-w2" / "verdict.json").write_text('{"x": 1}\n')
    assert checks.check_round(jobs)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "support_mixed",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
