"""Correctness checks on every job a benchmark round runs.

``observe`` turns a finished job (its result and output files) into a
small JSON-able record; ``check_job`` tests one record against the
workload's invariants and, when the seed is pinned, against the record
pinned for it in pins.json; ``check_round`` adds the checks that span
jobs.  Pinned values come from ``pin.py``; pinning tolerances allow a
better solver to move the last digits but not the answer.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

MP_EDGE_TOL = 1e-2  # acceptance criterion 1's tolerance on the identity edges
RADIUS_RTOL = 1e-8
VARIANCE_RTOL = 1e-9
DENSITY_ATOL = 1e-6


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def trials_digests(text: str):
    """sha256 of trials.csv, and of the same rows with lambda_min cut to 10 digits.

    The exact digest pins the Philox streams bit for bit: any mismatch
    fails the job.  The rounded one only labels the failure, telling a
    stream change (both differ) from a difference past the 10th digit of
    lambda_min (only the exact one differs).
    """
    rows = text.splitlines()
    cut = [rows[0]]
    for row in rows[1:]:
        t, seed, lam, count = row.split(",")
        cut.append(f"{t},{seed},{float(lam):.10g},{count}")
    return _sha(text.encode()), _sha("\n".join(cut).encode())


def mp_edges(c: float):
    return (1 - math.sqrt(c)) ** 2, (1 + math.sqrt(c)) ** 2


def observe(job, result) -> dict:
    """Record of one finished job: what the checks and pins compare."""
    name = job.name
    if name.startswith("support"):
        rep = json.loads((job.out / "support.json").read_text())
        return {"intervals": rep["intervals"], "epsilon": rep["epsilon_at_zero"]}
    if name.startswith("zero"):
        return {"jacobian_radius": result.jacobian_radius, "radius_bound": result.radius_bound}
    if name.startswith("verify"):
        exact, cut = trials_digests((job.out / "trials.csv").read_text())
        verdict = json.loads((job.out / "verdict.json").read_text())
        return {"trials_sha256": exact, "trials_sha256_r10": cut,
                "violations": verdict["violations_in_gap"]}
    if name.startswith("variance"):
        return {"measured_var": result.measured_var, "bound": result.bound}
    if name == "density":
        lines = (job.out / "density.csv").read_text().splitlines()[1:]
        ys = [float(line.split(",")[1]) for line in lines]
        mass = json.loads((job.out / "meta.json").read_text())["mass"]
        return {"density": ys, "mass": mass}
    raise ValueError(f"no observer for job {name!r}")


def _close(a, b, rtol):
    return abs(a - b) <= rtol * abs(b)


def check_job(plan, name: str, obs: dict, pinned: dict | None) -> list:
    """Problems of one job; any problem fails the job."""
    problems = []
    if name.startswith("support-identity"):
        p = plan.params
        (a, b), *rest = obs["intervals"]
        lo, hi = mp_edges(p["N"] / p["n"])
        if rest or abs(a - lo) > MP_EDGE_TOL or abs(b - hi) > MP_EDGE_TOL:
            problems.append(f"identity support {obs['intervals']} not within "
                            f"{MP_EDGE_TOL} of ({lo}, {hi})")
    elif name.startswith("support"):
        cfg = plan.configs[name]
        grid_step = cfg["x_hi"] / (cfg["steps"] - 1)
        if len(obs["intervals"]) < 2:
            problems.append(f"no interior gap: {obs['intervals']}")
        if obs["epsilon"] != obs["intervals"][0][0]:
            problems.append("epsilon_at_zero is not the first left edge")
        if pinned is not None:
            want = pinned["intervals"]
            got = obs["intervals"]
            if len(got) != len(want):
                problems.append(f"{len(got)} intervals, pinned {len(want)}")
            else:
                worst = max(abs(g - w) for gi, wi in zip(got, want) for g, w in zip(gi, wi))
                if worst > grid_step / 100:
                    problems.append(f"edge moved by {worst:.3g} > grid_step/100")
    elif name.startswith("zero"):
        if not obs["jacobian_radius"] < min(1.0, obs["radius_bound"]):
            problems.append(f"radius {obs['jacobian_radius']} breaks its certificate")
        if pinned is not None and not _close(obs["jacobian_radius"],
                                             pinned["jacobian_radius"], RADIUS_RTOL):
            problems.append(f"radius {obs['jacobian_radius']} != pinned "
                            f"{pinned['jacobian_radius']}")
    elif name.startswith("verify"):
        if obs["violations"]:
            problems.append(f"{obs['violations']} eigenvalues inside the gap")
        if pinned is not None and obs["trials_sha256"] != pinned["trials_sha256"]:
            where = ("only past the 10th digit of lambda_min"
                     if obs["trials_sha256_r10"] == pinned["trials_sha256_r10"]
                     else "in the sampled streams")
            problems.append(f"trials.csv does not match its pinned sha256 (differs {where})")
    elif name.startswith("variance"):
        if not obs["measured_var"] <= obs["bound"]:
            problems.append(f"variance {obs['measured_var']} above bound {obs['bound']}")
        if pinned is not None and not _close(obs["measured_var"], pinned["measured_var"],
                                             VARIANCE_RTOL):
            problems.append(f"variance {obs['measured_var']} != pinned {pinned['measured_var']}")
    elif name == "density":
        ys = np.asarray(obs["density"])
        if ys.min() < 0 or not 0.0 < obs["mass"] <= 1.0 + 1e-6:
            problems.append(f"density min {ys.min()}, mass {obs['mass']}")
        if pinned is not None:
            want = np.asarray(pinned["density"])
            if ys.shape != want.shape or np.max(np.abs(ys - want)) > DENSITY_ATOL:
                problems.append("density.csv differs from its pin by more than "
                                f"{DENSITY_ATOL}")
    return problems


def check_round(jobs_by_name: dict) -> list:
    """Checks across the jobs of one round."""
    problems = []
    if {"verify-w1", "verify-w2"} <= jobs_by_name.keys():
        w1, w2 = jobs_by_name["verify-w1"].out, jobs_by_name["verify-w2"].out
        for fname in ("trials.csv", "verdict.json"):
            if (w1 / fname).read_bytes() != (w2 / fname).read_bytes():
                problems.append(f"{fname} differs between --workers 1 and --workers 2")
    return problems


def edge_err(observations: dict, plan) -> float | None:
    """Largest |detected - closed-form| identity edge, if the workload has one."""
    obs = observations.get("support-identity")
    if obs is None:
        return None
    lo, hi = mp_edges(plan.params["N"] / plan.params["n"])
    (a, b), *_ = obs["intervals"]
    return max(abs(a - lo), abs(b - hi))
