"""Monte Carlo side: draw correlated Gaussian matrices and check the theory.

Randomness is counter-based: every column of every draw reads its own
Philox stream keyed by (seed, column), and per-trial seeds are derived
from (seed0, trial), so batches are bit-reproducible regardless of
evaluation order or thread count.  A Philox stream is fully defined by
its key and counter (Salmon et al., "Parallel random numbers: as easy as
1, 2, 3", SC'11), so each thread keeps one Philox generator and re-keys
it per column with the counter at zero instead of building a new one.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    InequalityViolation,
    SignalBelowNoise,
)
from .formats import fmt
from .model import CorrelationEnsemble
from .solver import m_of_z, validate_spectral_point

_MASK64 = (1 << 64) - 1
EIG_CLAMP = -1e-10

_thread = threading.local()  # .generator: this thread's re-keyed Philox generator


@dataclass(frozen=True)
class TrialBatch:
    """Eigenvalue sets of (1/n) Sigma Sigma* across reproducible trials."""

    seeds: np.ndarray  # uint64, one per trial
    eigenvalue_sets: np.ndarray  # (trials, N), each row ascending
    lambda_min: np.ndarray  # (trials,)
    test_interval: tuple | None = None
    counts_in_interval: np.ndarray | None = None


@dataclass(frozen=True)
class ScalingReport:
    """Per-size measurements with their log-log least-squares fit."""

    Ns: list
    values: list
    stderrs: list
    slope: float
    intercept: float


@dataclass(frozen=True)
class VarianceCheck:
    """Measured trace-functional variance against the proven bound.

    For real negative z the |Im z| in the bound is replaced by the distance
    to the nonnegative axis; ``distance_proxy_used`` records that.
    """

    measured_var: float
    bound: float
    z: complex
    imag_distance: float
    distance_proxy_used: bool


def _column_generator(seed: int, col: int) -> np.random.Generator:
    """The Philox stream keyed by (seed, col), from its start.

    The generator belongs to the calling thread (built on its first call)
    and is valid only until that thread's next call, which re-keys it: a
    caller must never hold two.  The state set here, counter and buffer
    zeroed, is the one a fresh Philox(key=[seed, col]) starts from, so the
    stream is bit-identical to it.
    """
    gen = getattr(_thread, "generator", None)
    if gen is None:
        gen = _thread.generator = np.random.Generator(np.random.Philox(0))
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": [seed & _MASK64, col & _MASK64]},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


def trial_seeds(seed0: int, trials: int) -> np.ndarray:
    """Derive one 64-bit seed per trial from the top-level seed."""
    out = np.empty(trials, dtype=np.uint64)
    for t in range(trials):
        ss = np.random.SeedSequence(entropy=(seed0 & _MASK64, t))
        out[t] = ss.generate_state(1, np.uint64)[0]
    return out


def sample_matrix(ensemble: CorrelationEnsemble, seed: int) -> np.ndarray:
    """One N x n draw: column i is Theta_i g_i, g_i circular standard Gaussian.

    Real and imaginary parts each carry variance 1/2, so E[g g*] = I and
    E[g g^T] = 0.  Deterministic in (ensemble, seed).

    Column i's 2N normals, its real parts then its imaginary parts, are
    read from its stream straight into row i of one (n, 2N) buffer, and g
    is assembled from that buffer in two copies.  A single group takes one
    product over all columns, and none when its Theta is exactly I: that
    product would return g bit for bit.
    """
    N, n, seed = ensemble.N, ensemble.n, int(seed)
    rn = np.empty((n, 2 * N))
    for i in range(n):
        _column_generator(seed, i).standard_normal(out=rn[i])
    g = np.empty((N, n), dtype=complex)
    g.real = rn[:, :N].T
    g.imag = rn[:, N:].T
    g *= np.sqrt(0.5)
    thetas = ensemble.group_thetas
    if len(thetas) == 1:
        return g if ensemble._identity_theta else thetas[0] @ g
    sigma = np.empty((N, n), dtype=complex)
    for theta, cols in zip(thetas, ensemble.group_columns):
        sigma[:, cols] = theta @ g[:, cols]
    return sigma


def gram_eigenvalues(sigma: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of (1/n) sigma sigma*.

    Checks the trace identity sum(lambda) = ||sigma||_F^2 / n to 1e-8
    relative; jitter in (-1e-10, 0) is clamped to zero, anything lower is
    surfaced as a solver failure.
    """
    sigma = np.asarray(sigma)
    N, n = sigma.shape
    if N > n:
        raise DimensionError(f"need N <= n, got {N} x {n}")
    gram = sigma @ sigma.conj().T / n
    evals = np.linalg.eigvalsh(gram)
    total = float(evals.sum())
    fro = float((np.abs(sigma) ** 2).sum()) / n
    if abs(total - fro) > 1e-8 * max(1.0, fro):
        raise InequalityViolation(
            f"eigenvalue sum {total:.12g} violates the Frobenius identity {fro:.12g}"
        )
    if evals[0] < EIG_CLAMP:
        raise InequalityViolation(
            f"Gram eigenvalue {evals[0]:.3e} below the PSD clamp {EIG_CLAMP:.0e}"
        )
    return np.clip(evals, 0.0, None)


def check_spread_trials(trials: int) -> None:
    """A sample spread needs two draws: reject fewer before any sampling."""
    if trials < 2:
        raise DomainError(f"trials must be >= 2 for a sample spread, got {trials}")


def _trials(ensemble, statistic, trials, seed0, workers):
    """statistic(draw) for each trial's sample_matrix draw, in trial order.

    Returns (seeds, samples).  Every Monte Carlo statistic runs through
    here, so each trial's draw depends only on (seed0, trial) whatever the
    worker count.  trial_seeds and sample_matrix are read as module
    attributes on each call, so a wrapper installed on them sees every draw.
    """
    seeds = trial_seeds(seed0, trials)

    def one(seed):
        return statistic(sample_matrix(ensemble, int(seed)))

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            samples = list(pool.map(one, seeds))
    else:
        samples = [one(s) for s in seeds]
    return seeds, np.array(samples)


def monte_carlo_gap(ensemble: CorrelationEnsemble, trials: int, seed0: int,
                    test_interval=None, workers: int = 1):
    """Independent spectrum draws with per-trial smallest eigenvalues.

    Returns (TrialBatch, min over trials of lambda_min).  When a test
    interval [a, b] is given, the batch also counts eigenvalues landing in
    it per trial (zero expected when [a, b] sits inside a spectral gap).
    """
    if trials < 1:
        raise DomainError("trials must be >= 1")
    if test_interval is not None:
        a, b = float(test_interval[0]), float(test_interval[1])
        if not a <= b:
            raise DomainError(f"test interval must satisfy a <= b, got [{a}, {b}]")
        test_interval = (a, b)
    seeds, eigs = _trials(ensemble, gram_eigenvalues, trials, seed0, workers)
    lam_min = eigs[:, 0].copy()
    counts = None
    if test_interval is not None:
        a, b = test_interval
        counts = ((eigs >= a) & (eigs <= b)).sum(axis=1)
    batch = TrialBatch(
        seeds=seeds,
        eigenvalue_sets=eigs,
        lambda_min=lam_min,
        test_interval=test_interval,
        counts_in_interval=counts,
    )
    return batch, float(lam_min.min())


def resolvent_trace_samples(ensemble: CorrelationEnsemble, z, trials: int,
                            seed0: int, workers: int = 1) -> np.ndarray:
    """(1/N) tr Q(z) across trials, from the Gram eigenvalues."""
    z = validate_spectral_point(z)

    def trace(sigma):
        return np.sum(1.0 / (gram_eigenvalues(sigma) - z)) / ensemble.N

    return _trials(ensemble, trace, trials, seed0, workers)[1]


def bias_scaling(ensemble_family, z, trials: int, seed0: int = 0,
                 workers: int = 1) -> ScalingReport:
    """Measure |E (1/N) tr Q(z) - m(z)| across sizes and fit its log-log slope.

    The family must hold the aspect ratio fixed; per-trial seeds are shared
    across sizes so draws reuse common random numbers as far as the shapes
    allow.  If any size's bias estimate is below three standard errors the
    experiment is inconclusive and raises SignalBelowNoise.

    Where every covariance is I_N (an exact moment oracle exists) and z lies
    far enough from the spectrum for a polynomial to help, the mean is an
    exact-moment control variate: E (1/N) tr p(W) for a fixed Chebyshev
    interpolant p of 1/(lambda - z), computed exactly from the finite-N
    Wishart moments, plus the Monte Carlo mean of the remainder on the same
    draws (see specgap.moments).  Its standard error is that of the
    remainder plus the deterministic error of the reference: the rounding
    of E p and of evaluating p, the remainder's unsampled mass above the
    interpolation interval, and the error of m(z) itself.  Every other
    ensemble uses the plain mean of (1/N) tr Q(z).
    """
    check_spread_trials(trials)
    family = list(ensemble_family)
    if len(family) < 3:
        raise DomainError(f"need at least 3 sizes for a rate fit, got {len(family)}")
    Ns = [ens.N for ens in family]
    if any(b <= a for a, b in zip(Ns, Ns[1:])):
        raise DomainError(f"sizes must be strictly increasing, got {Ns}")
    cs = [ens.c for ens in family]
    if max(cs) - min(cs) > 1e-12:
        raise DomainError(f"family must share one aspect ratio, got {cs}")
    z = validate_spectral_point(z)
    # imported on use: it pulls in fractions and numpy.polynomial, which no
    # other entry point needs, so importing specgap stays as fast as before
    from . import moments

    values = []
    stderrs = []
    for ens in family:
        m_ref = m_of_z(ens, z)
        cv = moments.control_variate(ens, z)
        if cv is None:
            samples = resolvent_trace_samples(ens, z, trials, seed0, workers)
            offset, floor = 0.0, 0.0
        else:
            _, samples = _trials(ens, lambda sigma: cv.remainder_trace(gram_eigenvalues(sigma)),
                                 trials, seed0, workers)
            offset = cv.mean
            floor = cv.error + moments.reference_error(ens, z, m_ref)
        mean = samples.mean()
        bias = abs(offset + mean - m_ref)
        spread = float(np.mean(np.abs(samples - mean) ** 2))
        se = np.sqrt(spread / (len(samples) - 1)) + floor
        if bias < 3.0 * se:
            raise SignalBelowNoise(
                f"at N = {ens.N} the bias {bias:.3e} is below 3 standard errors "
                f"({3 * se:.3e}); increase trials"
            )
        values.append(float(bias))
        stderrs.append(float(se))
    slope, intercept = np.polyfit(np.log(Ns), np.log(values), 1)
    return ScalingReport(Ns=Ns, values=values, stderrs=stderrs,
                         slope=float(slope), intercept=float(intercept))


def variance_scaling(ensemble: CorrelationEnsemble, A, z, trials: int,
                     seed0: int = 0, workers: int = 1) -> VarianceCheck:
    """Sample variance of (1/n) tr A Q(z) against the proven O(1/n^2) bound.

    The bound is (2 w_max / n^2) ||A||^2 (|z| + 1)(d^-4 + d^-3) with d the
    distance from z to the nonnegative axis (equal to |Im z| off the real
    axis).  The measured value must stay below it.
    """
    check_spread_trials(trials)
    z = validate_spectral_point(z)
    A = np.asarray(A)
    if A.shape != (ensemble.N, ensemble.N):
        raise DimensionError(f"A must be {ensemble.N} x {ensemble.N}, got {A.shape}")
    scale = float(np.abs(A).max()) if A.size else 0.0
    if scale and float(np.abs(A - A.conj().T).max()) > 1e-10 * scale:
        raise DomainError("A must be Hermitian")
    n = ensemble.n
    eye = np.eye(ensemble.N)

    def trace(sigma):
        gram = sigma @ sigma.conj().T / n
        Q = np.linalg.inv(gram - z * eye)
        return np.trace(A @ Q) / n

    _, samples = _trials(ensemble, trace, trials, seed0, workers)
    mean = samples.mean()
    measured = float(np.sum(np.abs(samples - mean) ** 2) / (len(samples) - 1))
    proxy = z.imag == 0.0
    dist = abs(z.real) if proxy else abs(z.imag)
    norm_a = float(np.linalg.norm(A, 2)) if A.size else 0.0
    bound = (2.0 * ensemble.w_max / n**2 * norm_a**2 * (abs(z) + 1.0)
             * (dist**-4 + dist**-3))
    if measured > bound:
        raise InequalityViolation(
            f"measured variance {measured:.3e} exceeds the bound {bound:.3e}"
        )
    return VarianceCheck(measured_var=measured, bound=bound, z=z,
                         imag_distance=dist, distance_proxy_used=proxy)


# -- plain-text interfaces ---------------------------------------------------

def write_trials_csv(batch: TrialBatch, path) -> None:
    counts = batch.counts_in_interval
    with open(path, "w") as fh:
        fh.write("trial,seed,lambda_min,count_in_test_interval\n")
        for t in range(len(batch.seeds)):
            cnt = "" if counts is None else str(int(counts[t]))
            fh.write(f"{t},{int(batch.seeds[t])},{fmt(batch.lambda_min[t])},{cnt}\n")
