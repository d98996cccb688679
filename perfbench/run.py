#!/usr/bin/env python3
"""specgap benchmark: seeded closed-loop workloads through the real CLI.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload support_mixed --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers installed;
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics from the traced ones.  A round is one pass over the
workload's job list; rounds repeat while the next one fits in
``--seconds``.  ``wall_s`` is the sum over jobs of each job's median wall
time across the untraced rounds; other times are medians too.  Set-up
time is the median over fresh processes, one started after each job
(untimed), each timed from spawn until its first job is ready.  Every
job's exit code and outputs are checked (see checks.py).  The last line
of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print every metric by
name with its unit, plus the run record.  Full reports and spans go to
``.perfbench_out/`` in the checkout.

specgap is imported from ``src/`` of the checkout and nowhere else, so
without the sources the benchmark exits non-zero before printing a result.
"""

import os

# One BLAS thread, so that --workers 2 never asks for more cores than exist;
# this must happen before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402

MAX_WORKERS = 2  # verify_identity runs --workers 2
PROBE_TIMEOUT_S = 120
# counts and computed sizes repeat exactly from round to round; every other
# per-layer metric is a time and is reported as the median over traced rounds
EXACT_LAYER_METRICS = ("model.groups", "model.stack_mb", "solver.solves", "solver.sweeps",
                       "solver.sweeps.scan", "solver.sweeps.bisect", "solver.sweeps.zero",
                       "solver.sweep_flops", "solver.sweep_bytes",
                       "solver.true_residual_max", "spectrum.probes_per_edge", "cli.bytes_out")


def import_specgap():
    """Import specgap from the checkout's src/ or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import specgap
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import specgap from {SRC}: {exc}")
    if not Path(specgap.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: specgap resolved to {specgap.__file__}, not under {SRC}")
    return specgap


def metric_specs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


# -- run record ----------------------------------------------------------------

def _openblas():
    """(library path, runtime config, thread count) of the loaded OpenBLAS, if any."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    return path, config().decode(), threads()
    return None, None, None


def _git_head():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unresolved {ref}"


def _caches():
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            out[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return out


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cpu_steal_s() -> float:
    """Machine-wide CPU time stolen by the hypervisor so far (0 where unknown)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def run_record() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    path, config, threads = _openblas()
    nproc = len(os.sched_getaffinity(0))
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "not installed"
    return {
        "nproc": nproc,
        "cpu": _cpu_model(),
        "caches": _caches(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "runtime_config": config, "threads": threads},
        "max_workers": MAX_WORKERS,
        "oversubscribed": threads is not None and MAX_WORKERS * threads > nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "git_head": _git_head(),
    }


# -- set-up --------------------------------------------------------------------

def setup_probe(workload, seed, size, probe_dir) -> int:
    """Child process: import, generate configs, warm up, then say ready."""
    import_specgap()
    plan = workloads.generate(workload, seed, size)
    workloads.write_configs(plan, Path(probe_dir))
    workloads.warm_up(plan)
    print("ready", flush=True)
    return 0


def time_setup(workload, seed, size, probe_dir) -> float:
    """Seconds from spawning a fresh process until its first job is ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed), "--size", size,
           "--probe-dir", str(probe_dir)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        try:
            proc.wait(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


# -- rounds --------------------------------------------------------------------

@dataclass
class Round:
    traced: bool
    wall: float = 0.0
    job_wall: dict = field(default_factory=dict)
    observations: dict = field(default_factory=dict)
    failed: dict = field(default_factory=dict)  # job name -> problems
    problems: list = field(default_factory=list)  # checks that span jobs
    bytes_out: int = 0
    layers: dict | None = None


def run_round(plan, job_list, out_dir, pins, tracer=None, tag="", after_job=None) -> Round:
    """Run the job list once and check its outputs; ``after_job`` runs untimed."""
    rnd = Round(tracer is not None)
    shutil.rmtree(out_dir, ignore_errors=True)  # no stale outputs can pass a check
    results, errors = {}, {}
    with tracer if tracer is not None else contextlib.nullcontext():
        for job in job_list:
            if tracer is not None:
                tracer.job = f"{tag}.{job.name}"
            sink = io.StringIO()
            js = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    results[job.name] = job.run()
            except Exception as exc:  # a job that raises fails; the loop goes on
                errors[job.name] = f"{type(exc).__name__}: {exc}"
            rnd.job_wall[job.name] = time.perf_counter() - js
            if job.name in errors or (job.expect_exit is not None
                                      and results[job.name] != job.expect_exit):
                errors.setdefault(job.name, f"exit {results[job.name]}, expected "
                                            f"{job.expect_exit}: {sink.getvalue()[-300:]}")
            if after_job is not None:
                after_job()
    rnd.wall = sum(rnd.job_wall.values())
    # everything below is outside the timed region
    for job in job_list:
        if job.name in errors:
            rnd.failed[job.name] = [errors[job.name]]
            continue
        try:
            obs = checks.observe(job, results[job.name])
        except (OSError, KeyError, IndexError, ValueError) as exc:
            rnd.failed[job.name] = [f"unreadable output: {type(exc).__name__}: {exc}"]
            continue
        rnd.observations[job.name] = obs
        problems = checks.check_job(plan, job.name, obs,
                                    None if pins is None else pins.get(job.name))
        if problems:
            rnd.failed[job.name] = problems
    ok_jobs = {j.name: j for j in job_list if j.name not in rnd.failed}
    rnd.problems += checks.check_round(ok_jobs)
    rnd.bytes_out = sum(f.stat().st_size for f in out_dir.rglob("*") if f.is_file())
    return rnd


def load_pins(size, workload, seed):
    pins = json.loads((BENCH / "pins.json").read_text())
    return pins.get(size, {}).get(workload, {}).get(str(seed))


# -- one measured run ------------------------------------------------------------

def run(workload, seed, seconds, trace, size="full") -> dict:
    import_specgap()
    from tracing import Tracer, dump, layer_metrics, self_times

    run_dir = OUT / f"run-{workload}-s{seed}-p{os.getpid()}"
    steal0 = cpu_steal_s()
    try:
        plan = workloads.generate(workload, seed, size)
        cfg_paths = workloads.write_configs(plan, run_dir / "configs")
        workloads.warm_up(plan)
        job_list = workloads.jobs(plan, cfg_paths, run_dir / "out")
        pins = load_pins(size, workload, seed)
        tracer = Tracer() if trace else None
        rounds, setup = [], []
        walls = {False: [], True: []}

        def probe():
            # one set-up probe after each job, so that the probes spread over
            # the whole run instead of sharing one phase of the machine
            setup.append(time_setup(workload, seed, size, run_dir / f"probe-{len(setup)}"))

        traced = False
        # rounds alternate untraced/traced when tracing; another round starts
        # while its kind's median wall still fits in the measured seconds
        while True:
            rnd = run_round(plan, job_list, run_dir / "out", pins,
                            tracer if traced else None, tag=f"r{len(rounds)}", after_job=probe)
            if traced:
                new = [s for s in tracer.spans if s.job.startswith(f"r{len(rounds)}.")]
                rnd.layers = layer_metrics(new)
                rnd.layers["cli.bytes_out"] = rnd.bytes_out
                for s in new:
                    s.info = None  # drop the ensembles this round kept alive
            rounds.append(rnd)
            walls[traced].append(rnd.wall)
            traced = bool(trace) and not traced
            spent = sum(walls[False]) + sum(walls[True])
            if walls[traced] and spent + statistics.median(walls[traced]) > seconds:
                break
        report = summarize(plan, rounds, setup, pins, trace,
                           tracer.missing if tracer is not None else [])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    report["record"] = run_record()
    report["record"]["cpu_steal_s"] = cpu_steal_s() - steal0
    report["record"]["loadavg"] = os.getloadavg()
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-{size}-s{seed}-trace{trace}"
    if tracer is not None:
        report["self_time_s"] = self_times(tracer.spans)
        t0 = min((s.start for s in tracer.spans), default=0.0)
        (OUT / f"spans-{stem}.json").write_text(json.dumps(dump(tracer.spans, t0)))
    (OUT / f"report-{stem}.json").write_text(json.dumps(report, indent=1, default=float))
    return report


def summarize(plan, rounds, setup, pins, trace, missing) -> dict:
    untraced = [r for r in rounds if not r.traced]
    traced = [r for r in rounds if r.traced]
    problems = [p for r in rounds for p in r.problems]
    # a wrapper whose target is gone would leave its layer metrics at 0,
    # which reads as a gain; the traced run is not correct until it is fixed
    problems += [f"trace target {name} is missing from specgap" for name in missing]
    base = rounds[0].observations
    for k, r in enumerate(rounds[1:], 1):
        if r.observations != base and not r.failed and not rounds[0].failed:
            problems.append(f"round {k} outputs differ from round 0")
    attempted = sum(len(r.job_wall) for r in rounds)
    failed = sum(len(r.failed) for r in rounds)

    def job_median(name):
        walls = [r.job_wall[name] for r in untraced if name in r.job_wall]
        return statistics.median(walls) if walls else None

    # wall_s sums each job's median over rounds: a burst of machine noise
    # that slows one job in a minority of rounds does not move it
    e2e = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(job_median(name) for name in rounds[0].job_wall),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_frac": failed / attempted,
    }
    if plan.workload == "verify_identity":
        trials = plan.params["trials"]
        e2e["trials_per_s"] = trials / job_median("verify-w1")
        e2e["trials_per_s_w2"] = trials / job_median("verify-w2")
        err = checks.edge_err(base, plan)
        if err is not None:
            e2e["edge_err"] = err
    layers = None
    if traced:
        layers = {}
        for name in traced[0].layers:
            values = [r.layers[name] for r in traced]
            if name in EXACT_LAYER_METRICS:
                if any(v != values[0] for v in values):
                    problems.append(f"{name} differs between traced rounds: {values}")
                layers[name] = values[0]
            else:
                layers[name] = statistics.median(values)
        layers["trace.overhead_s"] = (statistics.median(r.wall for r in traced)
                                      - statistics.median(r.wall for r in untraced))
    return {
        "workload": plan.workload, "seed": plan.seed, "size": plan.size,
        "pinned": pins is not None, "trace": trace,
        "rounds": {"untraced": len(untraced), "traced": len(traced)},
        "round_wall_s": [r.wall for r in rounds],
        "job_wall_s": {name: [r.job_wall.get(name) for r in rounds] for name in rounds[0].job_wall},
        "setup_samples_s": setup,
        "correct": failed == 0 and not problems,
        "attempted": attempted, "failed": failed,
        "failures": {f"round {k}": r.failed for k, r in enumerate(rounds) if r.failed},
        "problems": problems,
        "observations": base,
        "end_to_end": e2e, "per_layer": layers,
    }


# -- output ----------------------------------------------------------------------

E2E_UNITS = {"failed_frac": "ratio", "trials_per_s": "1/s", "trials_per_s_w2": "1/s",
             "edge_err": "1"}  # edge_err is in eigenvalue units


def result_line(report) -> dict:
    e2e_spec, layer_spec = metric_specs()
    spec, values = (layer_spec, report["per_layer"]) if report["trace"] else \
        (e2e_spec, report["end_to_end"])
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in spec}}


def print_report(report):
    e2e_spec, layer_spec = metric_specs()
    units = {m["name"]: m["unit"] for m in e2e_spec + layer_spec} | E2E_UNITS
    print(f"# {report['workload']} seed={report['seed']} size={report['size']} "
          f"pinned={report['pinned']} rounds={report['rounds']} "
          f"correct={report['correct']} attempted={report['attempted']} "
          f"failed={report['failed']}")
    for name, value in report["end_to_end"].items():
        print(f"  {name:<34} {value:>14.6g} {units[name]}")
    for name, value in (report["per_layer"] or {}).items():
        print(f"  {name:<34} {value:>14.6g} {units[name]}")
    for item in report["problems"]:
        print(f"  ! {item}")
    for where, jobs in report["failures"].items():
        for job, problems in jobs.items():
            print(f"  ! {where} {job}: {'; '.join(problems)}")
    print(f"# record {json.dumps(report['record'], sort_keys=True)}")


def run_all(args) -> int:
    """Each workload in its own process (peak RSS is per process); one summary."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            sys.exit(f"perfbench: {workload} exited with code {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--probe-dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args.workload, args.seed, args.size, args.probe_dir)
    if args.workload == "all":
        return run_all(args)
    report = run(args.workload, args.seed, args.seconds, args.trace, args.size)
    print_report(report)
    print(json.dumps(result_line(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
