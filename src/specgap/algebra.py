"""Linear-algebra lemmas with property-test surfaces.

Three proven inequalities used by the spectral-gap argument, implemented
as checked operations: the spectral-radius bound for positive linear
systems, the trace Jensen inequality, and entrywise Hadamard dominance of
spectral radii and resolvent norms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, DominanceError, InequalityViolation, WitnessError

INEQUALITY_SLACK = 1e-10
RESIDUAL_TOL = 1e-12
NORM_SLACK = 1e-8
DOMINANCE_MARGIN = 0.05


def spectral_radius(M: np.ndarray) -> float:
    """Largest eigenvalue modulus.

    For real nonnegative matrices the result is cross-checked against the
    power-norm upper bounds ||M^k||_inf^(1/k), k in {8, 16, 32}, which can
    never fall below the true radius.
    """
    M = np.asarray(M)
    if not np.all(np.isfinite(M)):
        raise DomainError("spectral_radius requires finite entries")
    rho = float(np.max(np.abs(np.linalg.eigvals(M)))) if M.size else 0.0
    if np.isrealobj(M) and M.size and M.min() >= 0.0:
        for est in power_norm_estimates(M, (8, 16, 32)):
            if rho > est + 1e-8 * max(1.0, est):
                raise InequalityViolation(
                    f"eigenvalue radius {rho:.12g} exceeds power-norm bound {est:.12g}"
                )
    return rho


def power_norm_estimates(M: np.ndarray, ks=(8, 16, 32)):
    """||M^k||_inf^(1/k) for each k, computed by repeated squaring."""
    M = np.asarray(M, dtype=float)
    out = []
    power = M
    k = 1
    for target in sorted(ks):
        while k < target:
            power = power @ power
            k *= 2
        if k != target:
            raise DomainError(f"power-norm grid must be powers of two, got {target}")
        norm = float(np.abs(power).sum(axis=1).max())
        out.append(norm ** (1.0 / k))
    return out


@dataclass(frozen=True)
class PositiveSystemWitness:
    """Certificate data for u = A u + v with A >= 0 and u, v > 0."""

    A: np.ndarray
    u: np.ndarray
    v: np.ndarray

    def residual(self) -> float:
        return float(np.max(np.abs(self.u - self.A @ self.u - self.v)))


def positive_system_bound(witness: PositiveSystemWitness):
    """Spectral-radius certificate from a positive linear system.

    Validates the witness (residual below ``100 * RESIDUAL_TOL``, strict
    positivity of u and v, nonnegativity of A) and returns
    (rho(A), 1 - min(v)/max(u)); the radius never exceeds the bound.
    """
    A, u, v = np.asarray(witness.A), np.asarray(witness.u), np.asarray(witness.v)
    res = witness.residual()
    if res >= RESIDUAL_TOL * 100:
        raise WitnessError(
            f"witness residual {res:.3e} exceeds {RESIDUAL_TOL * 100:.0e}", residual=res
        )
    if A.size and A.min() < 0:
        raise WitnessError("A must be entrywise nonnegative", residual=res)
    if u.min() <= 0 or v.min() <= 0:
        raise WitnessError("u and v must be strictly positive", residual=res)
    rho = spectral_radius(A)
    bound = 1.0 - float(v.min()) / float(u.max())
    if rho > bound + INEQUALITY_SLACK:
        raise InequalityViolation(f"rho(A) = {rho:.12g} > bound {bound:.12g}")
    return rho, bound


def trace_jensen_gap(A: np.ndarray) -> float:
    """(1/n) tr(A A*) - |(1/n) tr A|^2 for Hermitian A; nonnegative.

    Zero exactly when A is proportional to the identity.
    """
    A = np.asarray(A)
    scale = max(1.0, float(np.abs(A).max()) if A.size else 0.0)
    if float(np.abs(A - A.conj().T).max()) > 1e-10 * scale:
        raise DomainError("trace_jensen_gap requires a Hermitian matrix")
    n = A.shape[0]
    gap = float(np.trace(A @ A.conj().T).real) / n - abs(np.trace(A) / n) ** 2
    if gap < -1e-12 * scale**2:
        raise InequalityViolation(f"Jensen gap {gap:.3e} is negative beyond tolerance")
    return gap


@dataclass(frozen=True)
class DominanceReport:
    rho_a: float
    rho_b: float
    rho_c: float
    norms: tuple | None  # inf-norms of (I-A)^-1, (I-B)^-1, (I-C)^-1 when defined


def hadamard_dominance(A: np.ndarray, B: np.ndarray, C: np.ndarray) -> DominanceReport:
    """Entrywise-dominance comparison of spectral radii and resolvent norms.

    Requires |A_ij| <= sqrt(B_ij C_ij) entrywise (B, C nonnegative); then
    rho(A) <= sqrt(rho(B) rho(C)).  When additionally rho(B) < 1 and
    rho(C) < 1, the inf-norms of the three (I - .)^{-1} are returned and
    ||(I-A)^-1||_inf <= sqrt(||(I-B)^-1||_inf ||(I-C)^-1||_inf) is checked.
    """
    A = np.asarray(A)
    B = np.asarray(B, dtype=float)
    C = np.asarray(C, dtype=float)
    if B.min() < 0 or C.min() < 0:
        raise DominanceError("B and C must have nonnegative entries")
    geo = np.sqrt(B * C)
    excess = np.abs(A) - geo
    tol = 1e-12 * max(1.0, float(geo.max()) if geo.size else 0.0)
    if excess.max() > tol:
        i, j = np.unravel_index(int(np.argmax(excess)), excess.shape)
        raise DominanceError(
            f"|A[{i},{j}]| = {abs(A[i, j]):.12g} exceeds sqrt(B*C) = {geo[i, j]:.12g}",
            location=(int(i), int(j)),
        )
    rho_a = spectral_radius(A)
    rho_b = spectral_radius(B)
    rho_c = spectral_radius(C)
    if rho_a > np.sqrt(rho_b * rho_c) + INEQUALITY_SLACK:
        raise InequalityViolation(
            f"rho(A) = {rho_a:.12g} > sqrt(rho(B) rho(C)) = {np.sqrt(rho_b * rho_c):.12g}"
        )
    norms = None
    if rho_b < 1.0 and rho_c < 1.0:
        eye = np.eye(A.shape[0])
        norm_a = _inf_norm(np.linalg.inv(eye - A))
        norm_b = _inf_norm(np.linalg.inv(eye - B))
        norm_c = _inf_norm(np.linalg.inv(eye - C))
        if norm_a > np.sqrt(norm_b * norm_c) + NORM_SLACK:
            raise InequalityViolation(
                f"||(I-A)^-1||_inf = {norm_a:.12g} > sqrt bound "
                f"{np.sqrt(norm_b * norm_c):.12g}"
            )
        norms = (norm_a, norm_b, norm_c)
    return DominanceReport(rho_a, rho_b, rho_c, norms)


def _inf_norm(M) -> float:
    return float(np.abs(M).sum(axis=1).max())


# -- randomized witness generators (shared by tests and the CLI selftest) ---

def random_positive_witness(rng: np.random.Generator, n: int, target_rho: float = 0.6):
    """Draw A >= 0 scaled to spectral radius ~ target_rho, v > 0, and solve u.

    The system (I - A) u = v has a positive solution whenever rho(A) < 1,
    which the scaling guarantees.
    """
    A = rng.random((n, n))
    rho = spectral_radius(A)
    if rho > 0:
        A *= target_rho / rho
    v = rng.random(n) + 0.1
    u = np.linalg.solve(np.eye(n) - A, v)
    return PositiveSystemWitness(A=A, u=u, v=v)


def random_dominance_triple(rng: np.random.Generator, n: int, target_rho: float = 0.8):
    """Draw nonnegative B, C with radius < 1 and a phase-randomized A below sqrt(B*C)."""
    B = rng.random((n, n))
    C = rng.random((n, n))
    B *= target_rho / (spectral_radius(B) * (1.0 + DOMINANCE_MARGIN))
    C *= target_rho / (spectral_radius(C) * (1.0 + DOMINANCE_MARGIN))
    phases = np.exp(2j * np.pi * rng.random((n, n)))
    A = phases * np.sqrt(B * C)
    return A, B, C
