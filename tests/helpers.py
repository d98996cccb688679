"""Shared oracles and generators for the test suite."""

import numpy as np
from scipy.special import eval_genlaguerre, gammaln, roots_genlaguerre

from specgap import density, from_matrices, solve_deltas, solver


def mp_edges(c):
    return (1.0 - np.sqrt(c)) ** 2, (1.0 + np.sqrt(c)) ** 2


def mp_density(xs, c):
    """Closed-form limiting density for the uncorrelated case with ratio c < 1."""
    a, b = mp_edges(c)
    xs = np.asarray(xs, dtype=float)
    out = np.zeros_like(xs)
    inside = (xs > a) & (xs < b)
    x = xs[inside]
    out[inside] = np.sqrt((b - x) * (x - a)) / (2.0 * np.pi * c * x)
    return out


def mp_delta(c, z):
    """Fixed point of the scalar self-consistent equation for the identity ensemble.

    Root of z d^2 + (c + z - 1) d + c = 0 that is the Stieltjes branch
    (positive for real z < 0).
    """
    disc = np.sqrt(complex((c + z - 1.0) ** 2 - 4.0 * z * c))
    roots = [((1.0 - c - z) + s * disc) / (2.0 * z) for s in (+1, -1)]
    if np.real(z) < 0 and np.imag(z) == 0:
        return max(r.real for r in roots)
    return max(roots, key=lambda r: r.imag)


def laguerre_mean_trace(N, n, z):
    """Exact E (1/N) tr Q(z) for the identity ensemble, from the Laguerre kernel.

    The eigenvalues x of X X* (X an N x n standard complex Gaussian) have
    one-point density x^a e^-x sum_{k<N} k!/(k+a)! L_k^(a)(x)^2 with a = n - N,
    and W = X X* / n, so E (1/N) tr (W - z)^-1 is a Gauss-Laguerre sum with
    weight x^a e^-x.  Those weights sum to a! and overflow past a = 170
    (N = 64 at c = 1/4), so the oracle is kept to N <= 32.
    """
    if N > 32 or n - N > 170:
        raise ValueError(f"the oracle needs N <= 32 and n - N <= 170, got {N} x {n}")
    a = n - N
    x, w = roots_genlaguerre(N + 200, a)
    dens = np.zeros_like(x)
    for k in range(N):
        norm = np.exp(gammaln(k + 1) - gammaln(k + a + 1))
        dens += norm * eval_genlaguerre(k, a, x) ** 2
    return complex(np.sum(w * dens / (x / n - z)) / N)


def random_psd(rng, N, floor=0.2):
    h = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    om = h @ h.conj().T / N + floor * np.eye(N)
    return om


def random_ensemble(rng, N=None, n=None, real=False):
    """Small random ensemble satisfying the boundedness assumptions."""
    if N is None:
        N = int(rng.integers(2, 9))
    if n is None:
        n = int(rng.integers(N + 1, 4 * N + 2))
    omegas = np.stack([random_psd(rng, N) for _ in range(n)])
    if real:
        omegas = omegas.real + np.stack([np.eye(N)] * n) * 0.0
        omegas = 0.5 * (omegas + omegas.transpose(0, 2, 1))
    return from_matrices(omegas)


def random_upper_z(rng):
    return complex(rng.uniform(-2.0, 3.0), rng.uniform(0.05, 3.0))


def cold_support_intervals(ensemble, x_hi, steps, y, threshold=1e-3, solver_tol=1e-6,
                           max_iter=200000):
    """Support intervals by the original cold bisection: the oracle for detect_support.

    Same scan and classification as ``detect_support``, but every bisection
    probe is a plain ``solve_deltas`` from zero (damped Picard to an update
    norm of ``solver_tol``) instead of a warm-started Newton solve.
    """
    curve = density(ensemble, 0.0, x_hi, steps, y=y, tol=solver_tol, max_iter=max_iter)
    xs, above = curve.xs, curve.ys >= threshold
    target = float(xs[1] - xs[0]) / 100.0

    def inside(x):
        sol = solve_deltas(ensemble, complex(x, y), tol=solver_tol, max_iter=max_iter)
        return sol.m.imag / np.pi >= threshold

    def refine(lo, hi, rising):
        while hi - lo > target:
            mid = 0.5 * (lo + hi)
            if inside(mid) == rising:
                hi = mid
            else:
                lo = mid
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
        a = float(xs[j]) if j == 0 else refine(float(xs[j - 1]), float(xs[j]), True)
        b = float(xs[k]) if k == len(xs) - 1 else refine(float(xs[k]), float(xs[k + 1]), False)
        intervals.append((a, b))
        j = k + 1
    return intervals


def conjugate_sweep_map(monkeypatch):
    """Make every Picard sweep converge to the conjugate of the true solution."""
    true_map = solver._sweep_map

    def conjugate_map(ensemble, z):
        sweep = true_map(ensemble, z)
        return lambda x: np.conj(sweep(np.conj(x)))

    monkeypatch.setattr(solver, "_sweep_map", conjugate_map)
