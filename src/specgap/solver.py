"""Fixed-point solvers for the deterministic-equivalent resolvent.

For a correlation ensemble {Omega_i} and spectral point z outside the
nonnegative real axis, the n scalars delta_i(z) solve

    delta_i = (1/n) tr Omega_i ( (1/n) sum_k Omega_k / (1 + delta_k) - z I )^{-1}

and define T(z), the deterministic equivalent of the resolvent of the
Gram matrix, and its normalized trace m(z).  The z = 0 system is solved
by direct Picard iteration from zero (a standard interference function;
R. D. Yates, IEEE JSAC 13(7), 1995), with the paper's r_p = -1/p ladder as
the test oracle, and certified through the Jacobian spectral radius.

Columns with identical covariances share one unknown; all iterations run
on the collapsed group coordinates, which reproduces the full iteration
exactly while cutting the per-sweep cost from n to G traces.  One Picard
loop serves every cold solve.  Its sweep map is built once per spectral
point: with a single distinct covariance it is an O(N) formula in the
cached eigenvalues, otherwise one bulk inverse followed by the G group
traces.  One G x G Jacobian kernel serves the zero-point certificate and
the safeguarded Newton solve that support bisection warm-starts.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .algebra import spectral_radius
from .errors import (
    BranchError,
    ConvergenceError,
    DivergenceError,
    DomainError,
    InequalityViolation,
    InvalidSpectralPoint,
    JacobianIdentityError,
    SingularMatrixError,
)
from .model import CorrelationEnsemble

JACOBIAN_IDENTITY_TOL = 1e-8
RADIUS_SLACK = 1e-10
NEWTON_HALVINGS = 8  # step halvings before a Newton step falls back to damped Picard
# density Im m / pi this far below zero is rounding; Im delta gets the same allowance
NEGATIVE_DENSITY_TOL = 1e-9


def validate_spectral_point(z) -> complex:
    """Reject z on [0, inf); the resolvent is defined on its complement."""
    z = complex(z)
    if not (cmath.isfinite(z)):
        raise InvalidSpectralPoint(f"z = {z} is not finite")
    if z.imag == 0.0 and z.real >= 0.0:
        raise InvalidSpectralPoint(
            f"z = {z} lies on the nonnegative real axis; need Im z != 0 or Re z < 0"
        )
    return z


@dataclass(frozen=True)
class FixedPointSolution:
    """Solved point: delta vector, deterministic-equivalent matrix and trace."""

    z: complex
    delta: np.ndarray  # length n, complex for complex z, real for z < 0
    T: np.ndarray  # N x N
    m: complex
    iterations: int
    residual: float


@dataclass(frozen=True)
class ZeroSolution:
    """Fixed point at z = 0 with its spectral-radius certificate."""

    ell: np.ndarray  # length n, strictly positive
    jacobian_radius: float
    radius_bound: float  # max(ell)/(1 + max(ell)), from the positive-system lemma
    iterations: int
    residual: float


def _group_stack(ensemble, operand):
    """The (G, N, N) covariance stack to multiply with ``operand``.

    A complex operand and a real stack of more than one group get the
    ensemble's cached complex copy: numpy would cast the stack to exactly
    that on every call, so the products are bit-identical.  A single group
    keeps the real stack: its sweep never touches it, and one N x N cast
    per solve is not worth caching.
    """
    stack = ensemble.group_omegas
    if len(stack) > 1 and np.iscomplexobj(operand) and not np.iscomplexobj(stack):
        return ensemble.group_omegas_complex
    return stack


def _bulk_inverse(ensemble, summed_group_weights, z):
    """Inverse of the bulk matrix (1/n) sum_g s_g Omega_g - z I.

    s_g is the sum of the column weights over group g.  Every bulk matrix
    is assembled and inverted here.
    """
    stack = _group_stack(ensemble, summed_group_weights)
    A = np.tensordot(summed_group_weights, stack, axes=1)
    A /= ensemble.n
    idx = np.arange(ensemble.N)
    A[idx, idx] -= z
    try:
        return np.linalg.inv(A)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"bulk matrix singular at z = {z}") from exc


def _column_inverse(ensemble, x, z):
    """Bulk inverse for per-column unknowns x, summing 1/(1 + x_i) per group."""
    weights = 1.0 / (1.0 + x)
    # np.add.at, not np.bincount: bincount rejects complex weights
    summed = np.zeros(len(ensemble.group_mult), dtype=weights.dtype)
    np.add.at(summed, ensemble.group_index, weights)
    return _bulk_inverse(ensemble, summed, z)


def _group_traces(ensemble, inv):
    """(1/n) tr(Omega_g inv) for every group, via one flattened matvec."""
    stack = _group_stack(ensemble, inv)
    flat = stack.reshape(len(stack), -1)
    return flat @ np.ascontiguousarray(inv.T).ravel() / ensemble.n


def _sweep_map(ensemble, z):
    """The fixed-point map on group coordinates at z, real-valued at real z.

    With one distinct covariance the bulk matrix diagonalizes in its
    eigenbasis, so each sweep costs O(N) on a scalar iterate instead of a
    matrix inverse; otherwise a sweep is one bulk inverse plus G traces.
    The single-group sweep computes sum(lam / (scale / (1 + x) * lam - z)) / n
    in that order in one length-N buffer of its own, so each map (one per
    solve) allocates once and solves on other threads share nothing.
    """
    real = not isinstance(z, complex)  # Hermitian covariances: real traces
    n = ensemble.n
    if len(ensemble.group_mult) == 1:
        lam = ensemble.group_eigenvalues[0]
        scale = ensemble.group_mult[0] / n
        buf = np.empty(len(lam), dtype=float if real else complex)

        def sweep(x):
            np.multiply(scale / (1.0 + x), lam, out=buf)
            np.subtract(buf, z, out=buf)
            np.divide(lam, buf, out=buf)
            return np.add.reduce(buf) / n
    else:
        mult = ensemble.group_mult

        def sweep(x):
            out = _group_traces(ensemble, _bulk_inverse(ensemble, 1.0 / (1.0 + x) * mult, z))
            return out.real if real else out
    return sweep


def _group_jacobian(ensemble, x, z):
    """Bulk inverse T, map phi(x) and its G x G Jacobian L on group coordinates at z.

    With P_g = Omega_g T and T the bulk inverse at x,

        phi_g = tr(P_g) / n,   L_gh = mult_h tr(P_g P_h) / (n^2 (1 + x_h)^2),

    all from one bulk inverse.  With one distinct covariance phi and L are
    O(N) sums over its cached eigenvalues, as in the sweep, and T is None.
    phi and L are real-valued at real z.
    """
    real = not isinstance(z, complex)
    n, mult = ensemble.n, ensemble.group_mult
    if len(mult) == 1:
        lam = ensemble.group_eigenvalues[0]
        scale = mult[0] / n
        ld = lam / (scale / (1.0 + x[0]) * lam - z)
        T = None
        fx = np.array([np.sum(ld) / n])
        L = np.array([[scale / (1.0 + x[0]) ** 2 * np.sum(ld * ld) / n]])
    else:
        T = _bulk_inverse(ensemble, 1.0 / (1.0 + x) * mult, z)
        P = _group_stack(ensemble, T) @ T  # (G, N, N)
        G = len(P)
        fx = np.einsum("gii->g", P) / n
        K = P.reshape(G, -1) @ P.transpose(0, 2, 1).reshape(G, -1).T  # tr(P_g P_h)
        L = K * (mult / (n**2 * (1.0 + x) ** 2))
    if real:
        return T, fx.real, L.real
    return T, fx, L


def _check_branch(z, x, m):
    """Raise BranchError unless x and m lie on the Stieltjes branch at z.

    Off the real axis, Im x >= 0 entrywise and Im m >= 0 for Im z > 0, and
    the mirror image below the axis, each up to pi * NEGATIVE_DENSITY_TOL
    of rounding.  Real z has nothing to check.
    """
    if z.imag == 0.0:
        return
    sign = 1.0 if z.imag > 0 else -1.0
    worst = min(float(np.min(sign * np.imag(x))), sign * m.imag)
    if worst < -np.pi * NEGATIVE_DENSITY_TOL:
        raise BranchError(
            f"solution at z = {z} is off the Stieltjes branch "
            f"(min sign*Im delta {np.min(sign * np.imag(x)):.3e}, sign*Im m {sign * m.imag:.3e})"
        )


def _check_budget(tol, max_iter):
    if max_iter < 1:
        raise DomainError(f"max_iter must be >= 1, got {max_iter}")
    if not tol > 0:  # NaN too: no residual is ever below it
        raise DomainError(f"tol must be > 0, got {tol}")


def _iterate_groups(ensemble, x0_groups, z, tol, max_iter, damping, cap=None):
    """Damped Picard sweep on group coordinates until the update norm < tol."""
    _check_budget(tol, max_iter)
    sweep = _sweep_map(ensemble, z)
    # a single group iterates on a numpy scalar: array reductions would
    # cost more than its O(N) sweep
    scalar = len(ensemble.group_mult) == 1
    x = x0_groups[0] if scalar else x0_groups.copy()
    for it in range(1, max_iter + 1):
        fx = sweep(x)
        new = fx if damping == 1.0 else (1.0 - damping) * x + damping * fx
        step = abs(new - x)
        residual = step if scalar else step.max()
        x = new
        if cap is not None and (x.real if scalar else x.real.max()) > cap:
            raise DivergenceError(
                f"iterates exceeded cap {cap:.6g} at z = {z}; "
                "the ensemble likely violates the boundedness assumptions"
            )
        if residual < tol:
            return (np.array([x]) if scalar else x), it, float(residual)
    raise ConvergenceError(
        f"no convergence after {max_iter} iterations at z = {z} "
        f"(last update {residual:.3e}, tol {tol:.0e})",
        residual=float(residual),
        iterations=max_iter,
    )


def _first_columns(ensemble):
    """Index of the first column of each group, which orders the groups."""
    return np.unique(ensemble.group_index, return_index=True)[1]


def _initial_groups(ensemble, x0, z):
    """Collapse a caller-supplied start onto group coordinates.

    Any start becomes group-constant after one sweep, so a start that is
    not constant on each group costs one extra bulk inverse.
    """
    G = len(ensemble.group_mult)
    dtype = complex if isinstance(z, complex) else float
    if x0 is None:
        return np.zeros(G, dtype=dtype)
    x0 = np.asarray(x0)
    x0 = (x0 if dtype is complex else x0.real).astype(dtype)
    if x0.ndim == 0:
        return np.full(G, x0)
    if x0.shape != (ensemble.n,):
        raise DomainError(f"x0 must be a scalar or length-{ensemble.n} vector")
    reduced = x0[_first_columns(ensemble)]
    if np.array_equal(ensemble.expand(reduced), x0):
        return reduced
    out = _group_traces(ensemble, _column_inverse(ensemble, x0, z))
    return out.real if dtype is float else out


def phi(ensemble: CorrelationEnsemble, x, z: float) -> np.ndarray:
    """Interference map phi_i(x, z) for real z <= 0 and nonnegative x.

    Strictly positive and entrywise monotone in x.  Singularity of the bulk
    matrix (possible only at z = 0 with pathological inputs) is surfaced as
    SingularMatrixError, never regularized.
    """
    if z > 0:
        raise DomainError(f"phi requires z <= 0, got {z}")
    x = np.asarray(x, dtype=float)
    if x.shape != (ensemble.n,):
        raise DomainError(f"x must have length n = {ensemble.n}")
    if np.any(x < 0):
        raise DomainError("x must be entrywise nonnegative")
    return ensemble.expand(_group_traces(ensemble, _column_inverse(ensemble, x, z)).real)


def solve_deltas(ensemble: CorrelationEnsemble, z, tol: float = 1e-12,
                 max_iter: int = 10000, x0=None, starts=None) -> FixedPointSolution:
    """Solve the coupled delta system at z by damped Picard iteration.

    The damping is 1 for real negative z (where the undamped map is
    monotone) and 0.5 off the real axis, where the map stiffens as Im z
    shrinks toward the support.  The solution does not depend on x0.

    ``starts``, for non-real z only and in place of x0, are solutions at
    nearby spectral points (each in any form x0 takes); the solve is then
    a safeguarded Newton iteration (``_newton_groups``) from whichever
    start has the smallest true residual, ``tol`` bounds the true residual
    max|phi(x) - x| instead of the last update, and ``iterations`` counts
    Newton steps.

    Off the real axis the solution must lie on the Stieltjes branch
    (``Im delta >= 0`` and ``Im m >= 0`` for ``Im z > 0``, up to rounding),
    else BranchError.
    """
    z = validate_spectral_point(z)
    zz = z if z.imag != 0.0 else z.real
    if starts is None:
        damping = 1.0 if z.imag == 0.0 else 0.5
        x0g = _initial_groups(ensemble, x0, zz)
        xg, iterations, residual = _iterate_groups(ensemble, x0g, zz, tol, max_iter, damping)
        inv = None
    else:
        if z.imag == 0.0:
            raise InvalidSpectralPoint(f"a Newton solve needs Im z != 0, got z = {z}")
        if x0 is not None:
            raise DomainError("give x0 or starts, not both")
        xg, inv, iterations, residual = _newton_groups(
            ensemble, z, [_initial_groups(ensemble, s, z) for s in starts], tol, max_iter)
    if inv is None:
        inv = _bulk_inverse(ensemble, 1.0 / (1.0 + xg) * ensemble.group_mult, zz)
    m = np.trace(inv) / ensemble.N
    _check_branch(z, xg, m)
    return FixedPointSolution(
        z=z,
        delta=ensemble.expand(xg),
        T=inv,
        m=complex(m),
        iterations=iterations,
        residual=residual,
    )


def _newton_groups(ensemble, z, starts, tol, max_iter):
    """Fixed point at non-real z by safeguarded Newton from the best of ``starts``.

    ``starts`` are group-coordinate solutions at nearby spectral points;
    the one with the smallest true residual max|phi(x) - x| at z is kept.
    Each step solves (I - L) dx = phi(x) - x with L from ``_group_jacobian``
    and is accepted only if x + dx stays on the Stieltjes branch and lowers
    the true residual; otherwise the step is halved, up to NEWTON_HALVINGS
    times, and then one damped (0.5) Picard step is taken, which keeps the
    branch (Kelley, "Solving Nonlinear Equations with Newton's Method",
    SIAM 2003).  Stops once the true residual is below ``tol``.  Returns
    (x, T, iterations, residual) with T the bulk inverse at x, or None
    for a single group.
    """
    _check_budget(tol, max_iter)
    sign = 1.0 if z.imag > 0 else -1.0

    def evaluate(x):
        T, fx, L = _group_jacobian(ensemble, x, z)
        return x, T, fx, L, float(np.max(np.abs(fx - x)))

    x, T, fx, L, residual = min((evaluate(s) for s in starts), key=lambda point: point[4])
    eye = np.eye(len(x))
    iterations = 0
    while not residual < tol:
        if iterations == max_iter:
            raise ConvergenceError(
                f"no convergence after {max_iter} Newton steps at z = {z} "
                f"(true residual {residual:.3e}, tol {tol:.0e})",
                residual=residual, iterations=max_iter,
            )
        iterations += 1
        try:
            step = np.linalg.solve(eye - L, fx - x)
        except np.linalg.LinAlgError:
            step = np.full_like(x, np.nan)
        for _ in range(NEWTON_HALVINGS + 1):
            trial = x + step
            # NaN fails this test too
            if np.all(sign * trial.imag >= 0.0):
                point = evaluate(trial)
                if point[4] < residual:
                    break
            step = step / 2.0
        else:
            point = evaluate(x + 0.5 * (fx - x))
        x, T, fx, L, residual = point
    return x, T, iterations, residual


def m_of_z(ensemble: CorrelationEnsemble, z, **kwargs) -> complex:
    """Normalized trace (1/N) tr T(z) of the deterministic equivalent."""
    return solve_deltas(ensemble, z, **kwargs).m


def solve_at_zero(ensemble: CorrelationEnsemble, tol: float = 1e-12,
                  max_iter: int = 10000, cap_factor: float = 10.0) -> ZeroSolution:
    """Fixed point ell of phi(., 0) by direct Picard iteration from zero.

    phi(., 0) is positive, monotone and strictly scalable, so its iterates
    rise monotonically to the unique fixed point (Yates 1995); the paper's
    limit of delta(-1/p), p -> inf, is the tests' oracle.  Iterates beyond
    ``cap_factor * c/(1-c) * w_max/w_min`` raise DivergenceError, since
    finiteness is guaranteed under the model assumptions.
    """
    cap = cap_factor * ensemble.c / (1.0 - ensemble.c) * ensemble.w_max / ensemble.w_min
    x, iterations, residual = _iterate_groups(
        ensemble, np.zeros(len(ensemble.group_mult)), 0.0, tol, max_iter, 1.0, cap=cap)
    ell = ensemble.expand(x)
    _, rho, bound = _certify_at_zero(ensemble, x, ell)
    return ZeroSolution(ell=ell, jacobian_radius=rho, radius_bound=bound,
                        iterations=iterations, residual=residual)


def _certify_at_zero(ensemble, x, ell):
    """Group Jacobian L at z = 0 with its radius certificate; x = ell on groups."""
    L = _group_jacobian(ensemble, x, 0.0)[2]
    identity_residual = float(np.max(np.abs(ensemble.expand(L @ (1.0 + x)) - ell)))
    if identity_residual > JACOBIAN_IDENTITY_TOL:
        raise JacobianIdentityError(
            f"J(1+ell) - ell deviates by {identity_residual:.3e} in the inf-norm; "
            "ell is not a fixed point or the assembly is wrong",
            residual=identity_residual,
        )
    rho = spectral_radius(L)
    ell_max = float(ell.max())
    bound = ell_max / (1.0 + ell_max)
    if rho >= 1.0 or rho > bound + RADIUS_SLACK:
        raise InequalityViolation(
            f"jacobian radius {rho:.12g} violates its certificate {bound:.12g}"
        )
    return L, rho, bound


def jacobian_at_zero(ensemble: CorrelationEnsemble, ell):
    """Jacobian of the z = 0 interference map at its fixed point.

    [J]_{i,m} = (1/n^2) tr( Omega_i A^{-1} Omega_m A^{-1} ) / (1 + ell_m)^2
    with A = (1/n) sum_k Omega_k / (1 + ell_k); both bulk factors carry the
    inverse, which is the only reading consistent with the linear identity
    J (1 + ell) = ell.  J is constant on group blocks, so it is certified
    on its G x G lumped form L_gh = mult_h J_{g,h}, which has the same
    nonzero spectrum: L (1 + ell_g) = ell_g is verified to 1e-8 in the
    inf-norm over columns (its left side equals phi(ell, 0), so this doubles
    as the fixed-point precondition check), then rho(L) < 1 and
    rho(L) <= max(ell)/(1 + max(ell)), the positive-system lemma's bound
    for u = J u + 1.  Returns (J, rho, bound); J itself costs O(n^2) and
    takes no eigen-solve.
    """
    ell = np.asarray(ell, dtype=float)
    if ell.shape != (ensemble.n,):
        raise DomainError(f"ell must have length n = {ensemble.n}")
    if np.any(ell <= 0):
        raise DomainError("ell must be strictly positive")
    x = ell[_first_columns(ensemble)]
    L, rho, bound = _certify_at_zero(ensemble, x, ell)
    gi = ensemble.group_index
    J = (L / ensemble.group_mult)[np.ix_(gi, gi)]
    return J, rho, bound
