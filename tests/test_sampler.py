import dataclasses
import hashlib
import sys
import threading

import numpy as np
import pytest

from specgap import (
    bias_scaling,
    build_exponential,
    build_identity,
    density,
    first_moment,
    from_matrices,
    gram_eigenvalues,
    monte_carlo_gap,
    sample_matrix,
    variance_scaling,
)
from specgap import moments, sampler
from specgap.errors import DimensionError, DomainError, SignalBelowNoise
from specgap.model import load_omegas, save_omegas
from specgap.sampler import resolvent_trace_samples, trial_seeds, write_trials_csv
from specgap.solver import m_of_z

from helpers import laguerre_mean_trace


def test_column_covariance_oracle():
    # (1/T) sum xi xi* over redraws approaches Omega entrywise at rate 3/sqrt(T)
    ens = build_identity(2, 3)
    T = 100_000
    acc = np.zeros((2, 2), dtype=complex)
    for seed in range(T):
        col = sample_matrix(ens, seed)[:, 0]
        acc += np.outer(col, col.conj())
    acc /= T
    assert np.max(np.abs(acc - np.eye(2))) < 3.0 / np.sqrt(T)


def test_column_variance_scaled():
    ens = from_matrices(np.stack([np.diag([4.0, 1.0])] * 3))
    T = 100_000
    rng_seeds = range(T)
    first = np.empty(T)
    for seed in rng_seeds:
        first[seed] = abs(sample_matrix(ens, seed)[0, 0]) ** 2
    # |xi_1|^2 has mean 4 and variance 16 for the circular Gaussian
    assert abs(first.mean() - 4.0) < 3.0 * 4.0 / np.sqrt(T)


def test_sample_determinism(exp_small):
    a = sample_matrix(exp_small, 987654321)
    b = sample_matrix(exp_small, 987654321)
    assert np.array_equal(a, b)
    c = sample_matrix(exp_small, 987654322)
    assert not np.array_equal(a, c)


# sha256 of sample_matrix(ens, seed).tobytes(), recorded from the stream of one
# freshly built Philox generator per column; re-keying must reproduce them
STREAM_GOLDEN = {
    "identity": {
        0: "ac03423eb58199ecf3aefa385f3fb72aaed69e2fa33f355b44dce01c1227960c",
        12345: "ecebcfdbcc14be055ce2164bf4ae2e065b069f33e9f3ab27f598ea59fe1f8463",
        2**64 - 1: "c2e6b42dfab4021ecda0ef1ead4cd2a8e03a807cac53d176e25098a6b10f3f84",
    },
    "toeplitz_g3": {
        0: "af86df099d070aa052fbb9a66a09af90f3803d1793dfa587e99354af9d8f5602",
        12345: "c24e1cf04b14c354494398f767e86ab68e04fe178958bfdd0bd74ff3edec5e9a",
        2**64 - 1: "5b068a79e9e4dacffa35a0308e05e0810daca179aae1f12cbce333e5cacc659d",
    },
    "distinct": {
        0: "eb73d7d43d8991173a320e9d700c7d1e72b699c69dffb09e4b0d37aabf0bbf19",
        12345: "f90c149e49e38dc57a3cd15f7848c1844becdfb859e9b7e5baf263a0e07af530",
        2**64 - 1: "acf62757e0509e38bc0119809b6aae9b897028f931812cb74d1664066d12a50d",
    },
    # recorded while every draw still ran Theta g per group through fancy-index
    # copies: one group whose Theta is not I, and the benchmark's identity size
    "toeplitz_g1": {
        0: "164bf72cc4183406cb40d65e6815e0fa9a9ff5aa3e3c7bd8ebdd36ee795ebae9",
        12345: "78b6be1acbf3acf9ee0c80c64e84adfe7cf1ad305bd5541357392bb3c75553d5",
        2**64 - 1: "34a29a1968d066a547276695b5c8590a7b3301fd36a1d7a6cbe0d5ee8a015614",
    },
    "identity_64x256": {
        0: "75cf08a42aeca2d0e3d66bc1022c5569dfda4e3fdf3977b11f462f3a893cc0bc",
        12345: "b634a7492d29910c5e725364196d98028ea579b35695420b07136bd42e564715",
        2**64 - 1: "8b2cbe199ba973bc18e479d8b2d2cff56a5d34b48e7761eb24648c8bea1c1b93",
    },
}


def _stream_ensembles():
    return {
        "identity": build_identity(8, 32),
        "toeplitz_g3": build_exponential(8, 30, [0.2, 0.5, 0.9] * 10),
        "distinct": build_exponential(6, 12, np.linspace(0.0, 0.88, 12)),
        "toeplitz_g1": build_exponential(8, 32, [0.6] * 32),
        "identity_64x256": build_identity(64, 256),
    }


def test_sample_matrix_stream_golden():
    ensembles = _stream_ensembles()
    assert [len(e.group_thetas) for e in ensembles.values()] == [1, 3, 12, 1, 1]
    for name, digests in STREAM_GOLDEN.items():
        for seed, digest in digests.items():
            got = hashlib.sha256(sample_matrix(ensembles[name], seed).tobytes()).hexdigest()
            assert got == digest, (name, seed)


def test_identity_theta_flag(tmp_path):
    ensembles = _stream_ensembles()
    assert ensembles["identity"]._identity_theta
    assert ensembles["identity_64x256"]._identity_theta
    assert not ensembles["toeplitz_g1"]._identity_theta
    assert not ensembles["toeplitz_g3"]._identity_theta
    # I with one diagonal entry one ulp low, through a file; one ulp high would
    # not do, since its square root rounds back to exactly I
    N, n = 8, 32
    omega = np.eye(N)
    omega[3, 3] = np.nextafter(1.0, 0.0)
    path = tmp_path / "omegas.bin"
    save_omegas(path, np.stack([omega] * n))
    near = from_matrices(load_omegas(path, N, n))
    assert len(near.group_thetas) == 1 and not near._identity_theta
    # so its draw is Theta g, where g is the identity ensemble's draw
    g = sample_matrix(ensembles["identity"], 5)
    drawn = sample_matrix(near, 5)
    assert not np.array_equal(drawn, g)
    assert np.array_equal(drawn, near.group_thetas[0] @ g)


def test_sample_matrix_builds_one_philox_per_thread(monkeypatch, exp_small):
    built = []
    philox = np.random.Philox

    def counting(*args, **kwargs):
        built.append(1)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    expected, _ = monte_carlo_gap(exp_small, 12, 7, workers=1)
    assert len(built) <= 1
    # a thread that has never drawn builds its generator once, not per column
    built.clear()
    out = {}
    worker = threading.Thread(
        target=lambda: out.setdefault("batch", monte_carlo_gap(exp_small, 12, 7, workers=1)[0]))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert len(built) == 1
    assert np.array_equal(out["batch"].eigenvalue_sets, expected.eigenvalue_sets)


def test_sample_matrix_concurrent_threads_match_serial():
    ens = _stream_ensembles()["toeplitz_g3"]
    seeds = [[1000 * t + k for k in range(5)] for t in range(8)]
    serial = {s: sample_matrix(ens, s).tobytes() for row in seeds for s in row}
    start = threading.Barrier(len(seeds))
    mismatches = []

    def draw(row):
        start.wait(timeout=60)
        for _ in range(20):
            for s in row:
                if sample_matrix(ens, s).tobytes() != serial[s]:
                    mismatches.append(s)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        threads = [threading.Thread(target=draw, args=(row,)) for row in seeds]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert mismatches == []


def test_gram_eigenvalues_trivial():
    assert np.array_equal(gram_eigenvalues(np.zeros((3, 5))), np.zeros(3))
    # [I_N | 0] has Gram I/n; at N=1, n=2 that is the single eigenvalue 1/2
    sigma = np.concatenate([np.eye(1), np.zeros((1, 1))], axis=1)
    assert np.allclose(gram_eigenvalues(sigma), [0.5])
    sigma = np.concatenate([np.eye(3), np.zeros((3, 3))], axis=1)
    assert np.allclose(gram_eigenvalues(sigma), 1.0 / 6.0)


def test_gram_eigenvalues_trace_identity(exp_small):
    sigma = sample_matrix(exp_small, 5)
    evals = gram_eigenvalues(sigma)
    assert evals.sum() == pytest.approx((np.abs(sigma) ** 2).sum() / exp_small.n, rel=1e-8)
    assert np.all(np.diff(evals) >= 0)
    with pytest.raises(DimensionError):
        gram_eigenvalues(np.zeros((4, 2)))


def test_monte_carlo_gap_identity(identity64):
    batch, min_lam = monte_carlo_gap(identity64, 200, 12345, test_interval=(0.0, 0.1))
    # pilot at seed 12345 gave min lambda_min = 0.2378; MP edge is 0.25
    assert min_lam > 0.12
    assert min_lam == pytest.approx(0.2378, abs=2e-3)
    assert int(batch.counts_in_interval.sum()) == 0
    assert batch.eigenvalue_sets.shape == (200, 64)
    assert np.all(batch.lambda_min == batch.eigenvalue_sets[:, 0])


def test_monte_carlo_determinism_and_workers(exp_small):
    b1, m1 = monte_carlo_gap(exp_small, 12, 7, test_interval=(0.2, 0.8))
    b2, m2 = monte_carlo_gap(exp_small, 12, 7, test_interval=(0.2, 0.8))
    b3, m3 = monte_carlo_gap(exp_small, 12, 7, test_interval=(0.2, 0.8), workers=4)
    assert np.array_equal(b1.eigenvalue_sets, b2.eigenvalue_sets)
    assert np.array_equal(b1.eigenvalue_sets, b3.eigenvalue_sets)
    assert m1 == m2 == m3
    assert np.array_equal(b1.seeds, trial_seeds(7, 12))


def test_monte_carlo_validation(exp_small):
    with pytest.raises(DomainError):
        monte_carlo_gap(exp_small, 0, 1)
    with pytest.raises(DomainError):
        monte_carlo_gap(exp_small, 2, 1, test_interval=(1.0, 0.5))


def test_mean_spectral_moment_matches_first_moment():
    ens = build_identity(32, 128)
    batch, _ = monte_carlo_gap(ens, 100, 31415)
    moments = batch.eigenvalue_sets.mean(axis=1)
    se = moments.std(ddof=1) / np.sqrt(len(moments))
    assert abs(moments.mean() - first_moment(ens)) < 3 * se


def test_glivenko_agreement():
    # empirical CDF against the deterministic-equivalent CDF at 20 quantiles
    ens = build_identity(128, 512)
    batch, _ = monte_carlo_gap(ens, 10, 999)
    pooled = np.sort(batch.eigenvalue_sets.ravel())
    curve = density(ens, 0.0, 3.0, 300, y=1e-4, tol=1e-7)
    cdf_grid = np.concatenate([[0.0], np.cumsum(
        0.5 * (curve.ys[1:] + curve.ys[:-1]) * np.diff(curve.xs))])
    cdf_grid /= cdf_grid[-1]
    qs = np.quantile(pooled, np.linspace(0.025, 0.975, 20))
    emp = np.searchsorted(pooled, qs, side="right") / pooled.size
    det = np.interp(qs, curve.xs, cdf_grid)
    assert np.max(np.abs(emp - det)) < 5.0 / np.sqrt(128) + 0.02


def test_interval_inside_gap_stays_empty(identity64):
    # an interval with eps/4 margin from both gap edges sees no eigenvalues
    from specgap import detect_support

    eps = detect_support(identity64).epsilon_at_zero
    batch, _ = monte_carlo_gap(identity64, 50, 777,
                               test_interval=(eps / 4, 3 * eps / 4))
    assert int(batch.counts_in_interval.sum()) == 0


def test_bias_scaling_preconditions(identity64):
    with pytest.raises(DomainError):
        bias_scaling([identity64], -1.0, 100)
    family = [build_identity(N, 4 * N) for N in (8, 16, 32)]
    with pytest.raises(DomainError):
        bias_scaling(list(reversed(family)), -1.0, 100)
    mixed = [build_identity(8, 32), build_identity(16, 48), build_identity(32, 128)]
    with pytest.raises(DomainError):
        bias_scaling(mixed, -1.0, 100)


@pytest.mark.parametrize("trials", [0, 1])
def test_spread_statistics_need_two_trials(monkeypatch, trials):
    def no_draws(*args):
        raise AssertionError("sampled before the trial count was checked")

    monkeypatch.setattr(sampler, "sample_matrix", no_draws)
    family = [build_identity(N, 4 * N) for N in (4, 8, 16)]
    with pytest.raises(DomainError):
        bias_scaling(family, -1.0, trials)
    with pytest.raises(DomainError):
        variance_scaling(family[0], np.eye(4), 2j, trials)


def test_bias_scaling_noise_dominated():
    # correlated columns have no exact moment oracle, so the plain mean is used
    family = [build_exponential(N, 4 * N, [0.5] * (4 * N)) for N in (8, 16, 32)]
    with pytest.raises(SignalBelowNoise):
        bias_scaling(family, -1.0, 10, seed0=3)


def test_wishart_moment_recursion():
    for N, n in ((1, 2), (3, 5), (8, 32), (32, 128)):
        D = moments.wishart_trace_moments(N, n, 3)
        assert D[0] == N and D[1] == N * n
        assert D[2] == N * n * (N + n)
        assert D[3] == N * n * (N * N + 3 * N * n + n * n + 1)


@pytest.mark.parametrize("Ns, ratio, z", [
    ((8, 16, 32), 4, -1.0),  # criterion 4's setting, at sizes the oracle reaches
    ((2, 4, 8), 2, -0.3),    # small n: p grows fast just beyond its interval
])
def test_bias_scaling_matches_laguerre_oracle(Ns, ratio, z):
    family = [build_identity(N, ratio * N) for N in Ns]
    rep = bias_scaling(family, z, 300, seed0=17)
    for ens, value, se in zip(family, rep.values, rep.stderrs):
        m_ref = m_of_z(ens, z)
        exact = abs(laguerre_mean_trace(ens.N, ens.n, z) - m_ref)
        # the error bar must resolve the bias, or agreement would say nothing
        assert se < 1e-2 * exact
        assert abs(value - exact) <= 4.0 * se
        # and it may not drop below the deterministic error of the reference
        cv = moments.control_variate(ens, z)
        assert se >= cv.error + moments.reference_error(ens, z, m_ref)
    assert rep.slope == pytest.approx(-2.0, abs=0.1)


def test_bias_scaling_gate_counts_reference_error(monkeypatch):
    # a deterministic error the samples cannot see must widen the error bar
    family = [build_identity(N, 4 * N) for N in (4, 8, 16)]
    assert bias_scaling(family, -1.0, 10, seed0=3).slope < -1.5
    exact = moments.control_variate
    monkeypatch.setattr(moments, "control_variate",
                        lambda ens, z: dataclasses.replace(exact(ens, z), error=1.0))
    with pytest.raises(SignalBelowNoise):
        bias_scaling(family, -1.0, 10, seed0=3)


def test_control_variate_scope(exp_small):
    assert moments.control_variate(exp_small, -1.0) is None
    # a pole next to the spectrum leaves no polynomial worth subtracting
    assert moments.control_variate(build_identity(8, 32), 1.0 + 0.01j) is None


def test_resolvent_trace_samples_deterministic(exp_small):
    a = resolvent_trace_samples(exp_small, -1.0, 5, 11)
    b = resolvent_trace_samples(exp_small, -1.0, 5, 11, workers=3)
    assert np.array_equal(a, b)


def test_variance_scaling_zero_matrix(identity64):
    check = variance_scaling(identity64, np.zeros((64, 64)), 2j, 50, seed0=1)
    assert check.measured_var == 0.0
    assert check.bound == 0.0


def test_variance_scaling_bound_holds(identity64):
    check = variance_scaling(identity64, np.eye(64), 2j, 300, seed0=5)
    assert check.measured_var <= check.bound
    assert not check.distance_proxy_used
    assert check.imag_distance == 2.0


def test_variance_scaling_real_negative_proxy(exp_small):
    check = variance_scaling(exp_small, np.eye(2), -1.0, 200, seed0=5)
    assert check.distance_proxy_used
    assert check.imag_distance == 1.0
    assert check.measured_var <= check.bound


def test_variance_scaling_validation(exp_small):
    with pytest.raises(DimensionError):
        variance_scaling(exp_small, np.eye(3), 2j, 10)
    with pytest.raises(DomainError):
        variance_scaling(exp_small, np.array([[1.0, 1.0], [0.0, 1.0]]), 2j, 10)


def test_trial_csv(tmp_path, exp_small):
    batch, _ = monte_carlo_gap(exp_small, 4, 13, test_interval=(0.0, 0.05))
    path = tmp_path / "trials.csv"
    write_trials_csv(batch, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "trial,seed,lambda_min,count_in_test_interval"
    assert len(lines) == 5
    assert int(lines[1].split(",")[1]) == int(batch.seeds[0])
