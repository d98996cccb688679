"""Density recovery, support detection, and the gap at zero.

The deterministic-equivalent density is recovered on a grid by evaluating
(1/pi) Im m(x + iy) at a small fixed offset y; support intervals are the
maximal runs where that estimate exceeds a threshold, with edges refined
by bisection, whose probes are Newton solves warm-started from the scan.
The left edge of the first interval is the reported spectral gap at zero.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    EmptySupportError,
    InequalityViolation,
)
from .formats import fmt, write_json
from .model import CorrelationEnsemble
from .solver import _first_columns, solve_deltas

SCAN_BLOCK = 32  # grid points per warm-start chain; fixed so results never depend on worker count


@dataclass(frozen=True)
class DensityCurve:
    """Grid density estimate (1/pi) Im m(x + iy) with its trapezoid mass."""

    xs: np.ndarray
    ys: np.ndarray
    y_imag: float
    mass: float
    # (steps, G) solution at each grid point on group coordinates
    group_solutions: np.ndarray = field(compare=False, repr=False)
    diagnostics: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class SupportReport:
    """Detected support intervals and the certified-gap estimate at zero."""

    intervals: list
    epsilon_at_zero: float
    threshold: float
    y_imag: float
    grid_step: float


def first_moment(ensemble: CorrelationEnsemble) -> float:
    """Exact first moment of the deterministic measure: (1/N) sum_k (1/n) tr Omega_k."""
    traces = np.einsum("gii->g", ensemble.group_omegas).real
    return float(np.dot(ensemble.group_mult, traces)) / (ensemble.N * ensemble.n)


def default_grid_upper(ensemble: CorrelationEnsemble) -> float:
    """Heuristic support cover: 4 * first_moment * w_max / w_min."""
    return 4.0 * first_moment(ensemble) * ensemble.w_max / ensemble.w_min


def _density_at(ensemble, x, y, tol, max_iter, x0=None, starts=None):
    try:
        sol = solve_deltas(ensemble, complex(x, y), tol=tol, max_iter=max_iter, x0=x0,
                           starts=starts)
    except ConvergenceError as exc:
        raise ConvergenceError(
            f"at grid point x = {x:.9g} (offset y = {y:g}): {exc}",
            residual=exc.residual, iterations=exc.iterations,
        ) from None
    return sol.m.imag / np.pi, sol


def _scan_block(ensemble, xs, y, tol, max_iter):
    vals = np.empty(len(xs))
    sols = np.empty((len(xs), len(ensemble.group_mult)), dtype=complex)
    first = _first_columns(ensemble)
    iters = 0
    worst = 0.0
    prev = None
    for j, x in enumerate(xs):
        vals[j], sol = _density_at(ensemble, x, y, tol, max_iter, x0=prev)
        prev = sol.delta
        sols[j] = sol.delta[first]
        iters += sol.iterations
        worst = max(worst, sol.residual)
    return vals, iters, worst, sols


def density(ensemble: CorrelationEnsemble, x_lo: float, x_hi: float, steps: int,
            y: float = 1e-4, tol: float = 1e-9, max_iter: int = 200000,
            workers: int = 1) -> DensityCurve:
    """Density estimates on a uniform grid over [x_lo, x_hi].

    Grid points are solved in fixed blocks of 32, warm-starting inside each
    block, so the values are identical for any worker count.  Estimates in
    (-1e-9, 0) are rounding and clamped to zero; anything more negative is
    off the Stieltjes branch, which ``solve_deltas`` already rejects with
    BranchError.  The curve keeps each grid point's solution on group
    coordinates, from which support bisection warm-starts.
    """
    if not x_lo < x_hi:
        raise DomainError(f"need x_lo < x_hi, got [{x_lo}, {x_hi}]")
    if steps < 2:
        raise DomainError("steps must be at least 2")
    if not y > 0:
        raise DomainError("the imaginary offset y must be positive")
    try:
        xs = np.linspace(x_lo, x_hi, steps)
    except (MemoryError, ValueError, IndexError):  # how numpy fails past its size limits
        raise DomainError(f"a grid of {steps} steps cannot be allocated") from None
    blocks = [xs[i:i + SCAN_BLOCK] for i in range(0, steps, SCAN_BLOCK)]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(
                lambda b: _scan_block(ensemble, b, y, tol, max_iter), blocks))
    else:
        results = [_scan_block(ensemble, b, y, tol, max_iter) for b in blocks]
    ys = np.concatenate([r[0] for r in results])
    total_iters = sum(r[1] for r in results)
    max_residual = max(r[2] for r in results)
    ys = np.clip(ys, 0.0, None)
    mass = float(np.trapezoid(ys, xs)) if hasattr(np, "trapezoid") else float(np.trapz(ys, xs))
    return DensityCurve(
        xs=xs, ys=ys, y_imag=y, mass=mass,
        diagnostics={"iterations": total_iters, "max_residual": max_residual},
        group_solutions=np.concatenate([r[3] for r in results]),
    )


def detect_support(ensemble: CorrelationEnsemble, x_hi: float | None = None,
                   steps: int = 400, y: float = 1e-5, threshold: float = 1e-3,
                   solver_tol: float = 1e-6, max_iter: int = 200000,
                   workers: int = 1) -> SupportReport:
    """Detect support intervals of the deterministic measure on [0, x_hi].

    Intervals are maximal grid runs with density >= threshold; each free
    edge is refined by bisecting the density crossing down to a bracket of
    grid_step / 100.  The left edge of the first interval is the gap
    estimate at zero.  When x_hi is omitted the first-moment heuristic
    upper bound is used.

    Each bisection probe is a safeguarded Newton solve on the G group
    unknowns (``solve_deltas`` with ``starts``), started from whichever
    bracket end's solution has the smaller true residual at the probe; the
    grid ends take theirs from the scan, and the end a probe replaces
    inherits the probe's solution.  A probe stops once the true residual
    max|phi(x) - x| is below ``solver_tol``; the scan stops on the update
    norm.  The tolerance is looser than the curve default: near an edge
    the density sits far above or far below the threshold, so 1e-6 never
    flips a grid point.
    """
    if x_hi is None:
        x_hi = default_grid_upper(ensemble)
    if not x_hi > 0:
        raise DomainError("x_hi must be positive")
    curve = density(ensemble, 0.0, x_hi, steps, y=y, tol=solver_tol,
                    max_iter=max_iter, workers=workers)
    xs, ys, sols = curve.xs, curve.ys, curve.group_solutions
    grid_step = float(xs[1] - xs[0])
    above = ys >= threshold
    if not above.any():
        raise EmptySupportError(
            f"no grid point reached density {threshold}; max was {ys.max():.3e} "
            "(grid too coarse, threshold too high, or support outside the window)"
        )
    target = grid_step / 100.0

    def refine(j, rising):
        # invariant: density crosses the threshold inside (lo, hi), grid
        # points j and j + 1; `rising` means the supra-threshold side is hi
        lo, hi = float(xs[j]), float(xs[j + 1])
        sol_lo, sol_hi = ensemble.expand(sols[j]), ensemble.expand(sols[j + 1])
        while hi - lo > target:
            mid = 0.5 * (lo + hi)
            val, sol = _density_at(ensemble, mid, y, solver_tol, max_iter,
                                   starts=(sol_lo, sol_hi))
            if (val >= threshold) == rising:
                hi, sol_hi = mid, sol.delta
            else:
                lo, sol_lo = mid, sol.delta
        return 0.5 * (lo + hi)

    intervals = []
    j = 0
    while j < len(xs):
        if not above[j]:
            j += 1
            continue
        k = j
        while k + 1 < len(xs) and above[k + 1]:
            k += 1
        a = float(xs[j]) if j == 0 else refine(j - 1, rising=True)
        b = float(xs[k]) if k == len(xs) - 1 else refine(k, rising=False)
        intervals.append((a, b))
        j = k + 1
    return SupportReport(
        intervals=intervals,
        epsilon_at_zero=intervals[0][0],
        threshold=threshold,
        y_imag=y,
        grid_step=grid_step,
    )


def mass_check(ensemble: CorrelationEnsemble, y: float = 1e6) -> float:
    """Stieltjes tail normalization defect |iy m(iy) + 1|.

    Always below first_moment / y in exact arithmetic; a tenfold violation
    of that bound is raised as an inconsistency.
    """
    m = solve_deltas(ensemble, complex(0.0, y)).m
    defect = abs(1j * y * m + 1.0)
    limit = 10.0 * first_moment(ensemble) / y
    if defect >= limit:
        raise InequalityViolation(
            f"tail defect {defect:.3e} at y = {y:g} exceeds {limit:.3e}"
        )
    return float(defect)


# -- plain-text interfaces ---------------------------------------------------

def write_density_csv(curve: DensityCurve, path) -> None:
    with open(path, "w") as fh:
        fh.write("x,density\n")
        for x, d in zip(curve.xs, curve.ys):
            fh.write(f"{fmt(x)},{fmt(d)}\n")


def support_report_dict(report: SupportReport) -> dict:
    return {
        "intervals": [[a, b] for a, b in report.intervals],
        "epsilon_at_zero": report.epsilon_at_zero,
        "y": report.y_imag,
        "threshold": report.threshold,
    }


def write_support_json(report: SupportReport, path) -> None:
    write_json(path, support_report_dict(report))
