"""Seeded workload generator and job lists for the specgap benchmark.

Every workload is a closed loop: one client in one process runs its job
list in order, each job starting only after the previous one ended.  The
program sees only the configs generated here from the workload seed; CLI
jobs go through ``specgap.cli.main(argv)`` in-process so that exit codes
and output files are part of every run.  Library jobs (``solve_at_zero``,
``variance_scaling``) call module attributes at call time so that the
traced run can wrap them.

Workloads (why each exists is also recorded in BENCHMARK.json):

- ``support_mixed``: ``specgap support`` plus ``solve_at_zero`` on N=64,
  n=256 Toeplitz ensembles with three distinct rho values near the exp64
  pattern (0.2, 0.5, 0.9), so G=3.  The solver's inverse-bound G=3 sweep
  takes about 99% of the wall time (traced), split about evenly between
  ``detect_support``'s grid scan and its cold bisection probes; the
  zero-point solves take about 5%; the sampler does nothing.
- ``verify_identity``: ``specgap support`` and ``specgap verify`` on the
  identity ensemble, verify once at ``--workers 1`` and once at
  ``--workers 2``, plus ``variance_scaling(A=I, z=2i)`` on identity 64/256
  and 128/512 as acceptance criterion 5 runs it.  The sampler (Philox
  generators, ``eigvalsh``, the per-trial ``inv``) takes about two thirds
  of the wall time (traced); the rest is three ``detect_support`` passes
  (the support job's and one inside each verify job), in which the solver
  only runs its O(N) single-group path; ``model`` builds the largest stack
  (512 x 128 x 128 float64, 64 MiB).
- ``distinct_cols``: ``specgap density`` on an N=64, n=256 Toeplitz
  ensemble with a distinct rho per column (G=n).  The same solver sweep
  (about 98% of the wall time, traced) is now bound by the G*N^2 group
  contractions instead of the inverse, and grouping cannot help.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("support_mixed", "verify_identity", "distinct_cols")

# Problem sizes.  "full" is what the benchmark measures; "smoke" runs every
# job, wrapper and check of the same workloads at tiny sizes.
SIZES = {
    "full": {
        "support_mixed": {"N": 64, "n": 256, "ensembles": 2, "x_hi": 7.5,
                          "steps": 90, "y": 3e-4, "threshold": 1e-2},
        "verify_identity": {"N": 64, "n": 256, "support": {}, "trials": 160,
                            "var_trials": 80, "var_large_trials": 40, "large": (128, 512)},
        "distinct_cols": {"N": 64, "n": 256, "lo": 0.0, "hi": 8.0, "steps": 16,
                          "y": 1e-3},
    },
    "smoke": {
        "support_mixed": {"N": 8, "n": 32, "ensembles": 2, "x_hi": 10.0,
                          "steps": 60, "y": 1e-3, "threshold": 1e-2},
        "verify_identity": {"N": 8, "n": 32, "support": {"steps": 100},
                            "trials": 6, "var_trials": 6, "var_large_trials": 4,
                            "large": (16, 64)},
        "distinct_cols": {"N": 8, "n": 32, "lo": 0.0, "hi": 8.0, "steps": 8,
                          "y": 1e-3},
    },
}

# exp64-like box: each coordinate near (0.2, 0.5, 0.9).  Inside it the
# density at threshold 1e-2 has interior gaps, so interior edges are
# bisected; pin.py refuses to pin a seed whose ensembles show none.
RHO_BOX = ((0.17, 0.23), (0.47, 0.53), (0.905, 0.925))
DISTINCT_RHO_RANGE = (0.1, 0.9)
VARIANCE_Z = 2j


@dataclass
class Job:
    """One step of a workload's closed loop."""

    name: str
    run: Callable[[], object]  # returns the job's result (exit code for CLI jobs)
    expect_exit: int | None = None  # CLI jobs only
    out: Path | None = None  # output directory of a CLI job


@dataclass
class Plan:
    """Generated inputs of one workload for one seed."""

    workload: str
    seed: int
    size: str
    params: dict
    configs: dict = field(default_factory=dict)  # name -> config dict


def _ensemble_cfg(N, n, rho=None):
    model = {"type": "identity"} if rho is None else {"type": "exponential",
                                                      "rho": [float(r) for r in rho]}
    return {"N": N, "n": n, "model": model}


def generate(workload: str, seed: int, size: str = "full") -> Plan:
    """Draw the workload's configs from ``seed``; same seed, same configs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    p = SIZES[size][workload]
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    plan = Plan(workload, seed, size, p)
    N, n = p["N"], p["n"]
    if workload == "support_mixed":
        J = p["ensembles"]
        for j in range(J):
            # the largest rho sets the cost of an ensemble, so it is drawn
            # stratified: one draw per 1/J of its range keeps the cost of the
            # job list nearly the same for every seed
            (lo0, hi0), (lo1, hi1), (lo2, hi2) = RHO_BOX
            rho = [rng.uniform(lo0, hi0), rng.uniform(lo1, hi1),
                   lo2 + (hi2 - lo2) * (j + rng.uniform()) / J]
            plan.configs[f"support-{j}"] = {
                "ensemble": _ensemble_cfg(N, n, rho),
                "x_hi": p["x_hi"], "steps": p["steps"], "y": p["y"],
                "threshold": p["threshold"],
            }
    elif workload == "verify_identity":
        plan.configs["support-identity"] = {"ensemble": _ensemble_cfg(N, n), **p["support"]}
        plan.configs["verify"] = {"ensemble": _ensemble_cfg(N, n), "trials": p["trials"],
                                  "seed": int(rng.integers(2**31)), "support": p["support"]}
        plan.configs["variance"] = {"seed0": int(rng.integers(2**31))}
    else:
        # stratified: one rho per 1/n of the range, in a seeded column order,
        # so every seed gets nearly the same spread of correlations
        lo, hi = DISTINCT_RHO_RANGE
        rho = lo + (hi - lo) * (rng.permutation(n) + rng.uniform(size=n)) / n
        plan.configs["density"] = {
            "ensemble": _ensemble_cfg(N, n, rho),
            "grid": {"lo": p["lo"], "hi": p["hi"], "steps": p["steps"]},
            "y": p["y"],
        }
    return plan


def write_configs(plan: Plan, cfg_dir: Path) -> dict:
    """Write each CLI config as JSON; returns name -> path."""
    cfg_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, cfg in plan.configs.items():
        path = cfg_dir / f"{name}.json"
        path.write_text(json.dumps(cfg))
        paths[name] = path
    return paths


def warm_up(plan: Plan) -> None:
    """One untimed solve on the workload's first ensemble (part of set-up)."""
    from specgap import model, solver
    first = next(c for c in plan.configs.values() if "ensemble" in c)
    ens = model.ensemble_from_config(first["ensemble"])
    solver.solve_deltas(ens, complex(1.0, 0.1), tol=1e-9)


def jobs(plan: Plan, cfg_paths: dict, out_root: Path) -> list:
    """The workload's job list for one round, in execution order."""
    from specgap import cli, model, sampler, solver

    def cli_job(name, command, cfg_name, workers=1):
        out = out_root / name
        argv = [command, "--config", str(cfg_paths[cfg_name]), "--out", str(out),
                "--workers", str(workers)]
        return Job(name, lambda: cli.main(argv), expect_exit=0, out=out)

    p = plan.params
    out = []
    if plan.workload == "support_mixed":
        for name, cfg in plan.configs.items():
            j = name.split("-")[1]
            out.append(cli_job(name, "support", name))
            out.append(Job(f"zero-{j}", lambda cfg=cfg: solver.solve_at_zero(
                model.ensemble_from_config(cfg["ensemble"]))))
    elif plan.workload == "verify_identity":
        out.append(cli_job("support-identity", "support", "support-identity"))
        out.append(cli_job("verify-w1", "verify", "verify", workers=1))
        out.append(cli_job("verify-w2", "verify", "verify", workers=2))
        seed0 = plan.configs["variance"]["seed0"]
        for label, (N, n), trials in (("small", (p["N"], p["n"]), p["var_trials"]),
                                      ("large", p["large"], p["var_large_trials"])):
            out.append(Job(f"variance-{label}", lambda N=N, n=n, trials=trials:
                           sampler.variance_scaling(model.build_identity(N, n), np.eye(N),
                                                    VARIANCE_Z, trials, seed0=seed0)))
    else:
        out.append(cli_job("density", "density", "density"))
    return out
