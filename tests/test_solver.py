import hashlib
import sys
import threading

import numpy as np
import pytest

from specgap import (
    build_exponential,
    build_identity,
    density,
    detect_support,
    ensemble_from_config,
    jacobian_at_zero,
    m_of_z,
    phi,
    sample_matrix,
    solve_at_zero,
    solve_deltas,
)
from specgap import solver
from specgap.algebra import spectral_radius
from specgap.errors import (
    BranchError,
    ConvergenceError,
    DivergenceError,
    DomainError,
    InvalidSpectralPoint,
    JacobianIdentityError,
)
from specgap.model import save_omegas
from specgap.solver import validate_spectral_point

from helpers import (
    conjugate_sweep_map,
    mp_delta,
    random_ensemble,
    random_psd,
    random_upper_z,
)

# identity ensemble, c = 0.25, z = -1: delta solves d^2 + (2 - c) d - c = 0
DELTA_ORACLE = (-1.75 + np.sqrt(4.0625)) / 2.0
M_ORACLE = (1.0 + DELTA_ORACLE) / (2.0 + DELTA_ORACLE)


def test_phi_identity_values(identity64):
    n = identity64.n
    zeros = np.zeros(n)
    assert np.allclose(phi(identity64, zeros, 0.0), 0.25, atol=1e-14)
    assert np.allclose(phi(identity64, np.full(n, 1 / 3), 0.0), 1 / 3, atol=1e-14)
    assert np.allclose(phi(identity64, zeros, -1.0), 0.125, atol=1e-14)


def test_phi_monotone_and_positive(exp64):
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 2.0, exp64.n)
    lo = phi(exp64, x, -0.5)
    hi = phi(exp64, x + rng.uniform(0.0, 1.0, exp64.n), -0.5)
    assert np.all(lo > 0)
    assert np.all(hi >= lo - 1e-14)


def test_phi_domain_errors(identity64):
    with pytest.raises(DomainError):
        phi(identity64, np.zeros(identity64.n), 0.5)
    with pytest.raises(DomainError):
        phi(identity64, np.full(identity64.n, -0.1), 0.0)
    with pytest.raises(DomainError):
        phi(identity64, np.zeros(3), 0.0)


def test_solve_deltas_identity_quadratic_oracle(identity64):
    sol = solve_deltas(identity64, -1.0)
    assert np.allclose(sol.delta, DELTA_ORACLE, atol=1e-11)
    assert sol.m == pytest.approx(M_ORACLE, abs=1e-11)
    assert sol.residual <= 1e-12


@pytest.mark.parametrize("z", [2.0, 0.0, 1e-9])
def test_invalid_spectral_points(identity64, z):
    with pytest.raises(InvalidSpectralPoint):
        solve_deltas(identity64, z)


def test_spectral_point_domain():
    validate_spectral_point(-1e-12)
    validate_spectral_point(1 - 1e-3j)  # lower half plane is part of C \ R+
    with pytest.raises(InvalidSpectralPoint):
        validate_spectral_point(float("nan"))


def test_positivity_near_support(identity64):
    sol = solve_deltas(identity64, 1e-4 + 1e-4j)
    assert np.all(sol.delta.imag > 0)
    assert sol.m.imag > 0


def test_stieltjes_tail(identity64):
    y = 1e6
    m = m_of_z(identity64, 1j * y)
    assert abs(1j * y * m + 1.0) < 1e-5


def test_conjugate_symmetry(exp_small):
    z = 0.7 + 0.3j
    m_up = m_of_z(exp_small, z)
    m_dn = m_of_z(exp_small, np.conj(z))
    assert m_dn == pytest.approx(np.conj(m_up), abs=1e-13)


def test_uniqueness_by_initialization(identity64):
    tol = 1e-12
    a = solve_deltas(identity64, -0.5, tol=tol)
    b = solve_deltas(identity64, -0.5, tol=tol, x0=np.full(identity64.n, 10.0))
    assert np.max(np.abs(a.delta - b.delta)) < 100 * tol


def test_uniqueness_random_start_complex():
    rng = np.random.default_rng(11)
    ens = random_ensemble(rng, N=4, n=9)
    z = 0.8 + 0.2j
    tol = 1e-12
    a = solve_deltas(ens, z, tol=tol)
    b = solve_deltas(ens, z, tol=tol, x0=rng.uniform(0, 5, ens.n))
    assert np.max(np.abs(a.delta - b.delta)) < 100 * tol
    # a start that is not constant on the groups, complex and real; at real z
    # a complex start keeps its real part, also when given as a list
    grouped = build_exponential(4, 9, [(0.2, 0.5, 0.9)[i % 3] for i in range(9)])
    for z, x0 in ((z, rng.uniform(0, 5, 9) + 1j * rng.uniform(0, 5, 9)),
                  (-0.5, rng.uniform(0, 5, 9)),
                  (-0.5, (rng.uniform(0, 5, 9) + 1j * rng.uniform(0, 5, 9)).tolist())):
        a = solve_deltas(grouped, z, tol=tol)
        b = solve_deltas(grouped, z, tol=tol, x0=x0)
        assert np.max(np.abs(a.delta - b.delta)) < 100 * tol


def test_grouped_ensemble_never_builds_stack():
    ens = build_identity(128, 512)
    solve_deltas(ens, 1.0 + 0.1j)
    solve_at_zero(ens)
    detect_support(ens, steps=40, y=1e-3, threshold=1e-2)
    sample_matrix(ens, 7)
    assert "omegas" not in ens.__dict__
    assert "group_omegas_complex" not in ens.__dict__


def test_complex_stack_cache(tmp_path):
    ens = build_exponential(8, 30, [0.2, 0.5, 0.9] * 10)
    solve_deltas(ens, -0.5)
    phi(ens, np.full(ens.n, 0.5), -0.5)
    solve_at_zero(ens)
    assert "group_omegas_complex" not in ens.__dict__
    solve_deltas(ens, 1.0 + 0.1j)
    assert "group_omegas_complex" in ens.__dict__
    stack = ens.group_omegas_complex
    assert stack.dtype == complex and not stack.flags.writeable
    assert np.array_equal(stack, ens.group_omegas)
    assert ens.group_omegas_complex is stack
    # a complex file ensemble already holds a complex stack and uses it as is
    rng = np.random.default_rng(5)
    path = tmp_path / "omegas.bin"
    save_omegas(path, np.stack([random_psd(rng, 3)] * 3 + [random_psd(rng, 3)] * 3))
    cplx = ensemble_from_config({"N": 3, "n": 6, "model": {"type": "file", "path": str(path)}})
    assert cplx.group_omegas.dtype == complex and len(cplx.group_mult) == 2
    solve_deltas(cplx, 1.0 + 0.1j, x0=np.linspace(0.1, 1.0, 6) + 0.1j)
    assert "group_omegas_complex" not in cplx.__dict__


def test_complex_stack_cache_concurrent_first_use():
    z = 1.0 + 0.1j
    serial = solve_deltas(build_exponential(8, 30, [0.2, 0.5, 0.9] * 10), z).delta.tobytes()
    mismatches = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for _ in range(5):
            ens = build_exponential(8, 30, [0.2, 0.5, 0.9] * 10)
            start = threading.Barrier(8)

            def solve():
                start.wait(timeout=60)
                if solve_deltas(ens, z).delta.tobytes() != serial:
                    mismatches.append(1)

            threads = [threading.Thread(target=solve) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert not ens.group_omegas_complex.flags.writeable
    finally:
        sys.setswitchinterval(interval)
    assert mismatches == []


# sha256 of solve_deltas and density outputs on real multi-group ensembles at
# complex z, recorded while the solver still cast the real covariance stack to
# complex on every sweep; a cached complex stack must reproduce them bit for bit
COMPLEX_STACK_GOLDEN = {
    "toeplitz_g3": ("4cdf86cc4023befc79cc64bde8f45a3ba9e4d4f042683c93953f2bcd595db38d",
                    "4b1d348397e4348607cdd737cb1be3f14fdb3d3c0f803e83659e05c1d7abdf72"),
    "distinct": ("97040a63bfed5cd8f5c01cf56118dce61b49528cea59a4cce67b130af03e58e4",
                 "d7e9e44dd01044100c68da08598a95a165dad3a66d06be9117cf8219124ca028"),
}


def _complex_stack_ensembles():
    return {
        "toeplitz_g3": build_exponential(8, 30, [0.2, 0.5, 0.9] * 10),
        "distinct": build_exponential(8, 32, np.linspace(0.0, 0.9, 32)),
    }


def _solve_digest(ens):
    h = hashlib.sha256()
    # the last start is not constant on the groups of the G = 3 ensemble
    x0 = np.linspace(0.1, 2.0, ens.n) * (1.0 + 0.5j)
    for z, start in ((1.0 + 0.1j, None), (2.5 + 0.01j, None), (1.0 + 0.1j, x0)):
        sol = solve_deltas(ens, z, x0=start)
        h.update(sol.delta.tobytes())
        h.update(sol.T.tobytes())
        h.update(repr((sol.m, sol.iterations, sol.residual)).encode())
    return h.hexdigest()


def _density_digest(ens, workers):
    curve = density(ens, 0.05, 4.0, 40, y=1e-2, workers=workers)
    h = hashlib.sha256(curve.ys.tobytes())
    h.update(repr((curve.mass, curve.diagnostics)).encode())
    return h.hexdigest()


def test_complex_stack_golden():
    for name, ens in _complex_stack_ensembles().items():
        assert _solve_digest(ens) == COMPLEX_STACK_GOLDEN[name][0], name
    # fresh ensembles: at two workers both threads reach the cache first
    for workers in (1, 2):
        for name, ens in _complex_stack_ensembles().items():
            assert _density_digest(ens, workers) == COMPLEX_STACK_GOLDEN[name][1], (name, workers)


# sha256 of single-group solves (delta, m, iterations, residual at two complex
# points and one real one) and density curves, recorded while each sweep still
# allocated its temporaries; a sweep writing into one buffer must reproduce them
SINGLE_GROUP_GOLDEN = {
    "identity": ("e20d5c563407b29795eef6a97b21e7a58e8f4b0c2922c389afcf1f9a721c29c4",
                 "5deb3c4a35cf01e25998863bb41f244070e2b3f68edc58e26318b1bc1776be97"),
    "toeplitz_g1": ("26362267fe354375e4860a666fa7f1aa68497e370b9e243ad747076d9243ff0f",
                    "a765858d8d02cd5b64e5a6bef02b695573eb703f38a52f7b3ecedcb5ab56fc7f"),
}


def _single_group_ensembles():
    return {
        "identity": build_identity(16, 64),
        "toeplitz_g1": build_exponential(8, 32, [0.6] * 32),
    }


def test_single_group_golden():
    for name, ens in _single_group_ensembles().items():
        h = hashlib.sha256()
        for z in (1.0 + 0.1j, 2.5 + 1e-5j, -0.5):
            sol = solve_deltas(ens, z)
            h.update(sol.delta.tobytes())
            h.update(repr((sol.m, sol.iterations, sol.residual)).encode())
        assert h.hexdigest() == SINGLE_GROUP_GOLDEN[name][0], name
        assert _density_digest(ens, 1) == SINGLE_GROUP_GOLDEN[name][1], name


def test_single_group_density_threads_match_serial():
    # each solve sweeps in its own buffer: threads switching between its
    # multiply, subtract and divide must not see each other's values
    ens = build_identity(16, 64)

    def scan(workers):
        curve = density(ens, 0.05, 3.0, 256, y=1e-2, workers=workers)
        return curve.ys.tobytes(), curve.group_solutions.tobytes(), curve.diagnostics

    serial = scan(1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        threaded = [scan(2) for _ in range(3)]
    finally:
        sys.setswitchinterval(interval)
    assert all(t == serial for t in threaded)


def test_monotone_in_p(exp64):
    prev = None
    for p in (1, 2, 4, 8, 16):
        sol = solve_deltas(exp64, -1.0 / p)
        if prev is not None:
            assert np.all(sol.delta >= prev - 1e-12)
        prev = sol.delta


def test_norm_bound_and_positivity_random():
    rng = np.random.default_rng(7)
    for _ in range(60):
        ens = random_ensemble(rng)
        z = random_upper_z(rng)
        sol = solve_deltas(ens, z)
        assert np.all(sol.delta.imag > 0)
        assert sol.m.imag > 0
        assert np.linalg.norm(sol.T, 2) <= 1.0 / abs(z.imag) + 1e-10


@pytest.mark.parametrize("name", ["identity64", "exp64"])
def test_non_convergence_error(request, name):
    # one group (eigenbasis sweep) and three groups (bulk-inverse sweep)
    with pytest.raises(ConvergenceError) as err:
        solve_deltas(request.getfixturevalue(name), -1.0, max_iter=2, tol=1e-15)
    assert err.value.residual is not None


@pytest.mark.parametrize("name", ["identity64", "exp64"])
def test_max_iter_below_one_is_domain_error(request, name):
    ens = request.getfixturevalue(name)
    for max_iter in (0, -1):
        with pytest.raises(DomainError):
            solve_deltas(ens, -1.0, max_iter=max_iter)
        with pytest.raises(DomainError):
            solve_at_zero(ens, max_iter=max_iter)


@pytest.mark.parametrize("name", ["identity64", "exp64"])
def test_tol_not_positive_is_domain_error(request, name):
    ens = request.getfixturevalue(name)
    for tol in (0.0, -1e-9, float("nan")):
        with pytest.raises(DomainError):
            solve_deltas(ens, -1.0, tol=tol)
        with pytest.raises(DomainError):
            solve_at_zero(ens, tol=tol)


def test_single_group_sweep_matches_bulk_kernel():
    # one non-identity covariance: the solve and the zero-point Jacobian run
    # the O(N) eigenbasis formulas, while phi goes through the bulk inverse
    ens = build_exponential(8, 32, [0.5] * 32)
    assert len(ens.group_mult) == 1
    for z in (-0.5, -2.0):
        delta = solve_deltas(ens, z).delta
        assert np.allclose(phi(ens, delta, z), delta, rtol=0.0, atol=1e-11)
    zs = solve_at_zero(ens)  # raises unless J(1 + ell) = ell to 1e-8
    assert np.allclose(phi(ens, zs.ell, 0.0), zs.ell, rtol=0.0, atol=1e-11)


@pytest.mark.parametrize("N,n,ell_expect", [(64, 256, 1 / 3), (64, 128, 1.0), (48, 64, 3.0)])
def test_solve_at_zero_identity_closed_form(N, n, ell_expect):
    zs = solve_at_zero(build_identity(N, n))
    c = N / n
    assert np.allclose(zs.ell, ell_expect, atol=1e-10)
    assert zs.jacobian_radius == pytest.approx(c, abs=1e-8)
    assert zs.jacobian_radius <= zs.radius_bound + 1e-10


@pytest.fixture(scope="module")
def identity48x64():
    return build_identity(48, 64)


@pytest.mark.parametrize("name", ["exp64", "identity48x64"])
def test_solve_at_zero_matches_paper_ladder(request, name):
    # the paper's construction: ell is the limit of delta(-1/p) as p -> inf,
    # approached from below by a nondecreasing sequence
    ens = request.getfixturevalue(name)
    ell = solve_at_zero(ens).ell
    ladder = np.array([solve_deltas(ens, -1.0 / 2**k).delta for k in range(41)])
    assert np.all(np.diff(ladder, axis=0) >= 0.0)
    assert np.all(ladder <= ell + 1e-12)
    assert np.max(np.abs(ladder[-1] - ell)) < 1e-9


def test_solve_at_zero_exponential_bound(exp64):
    zs = solve_at_zero(exp64)
    c = exp64.c
    assert zs.ell.min() <= c / (1 - c) + 1e-10
    assert zs.jacobian_radius < 1.0
    resid = np.max(np.abs(phi(exp64, zs.ell, 0.0) - zs.ell))
    assert resid < 10 * 1e-12


def test_solve_at_zero_divergence_guard(identity64):
    with pytest.raises(DivergenceError):
        solve_at_zero(identity64, cap_factor=0.01)


def test_jacobian_identity_ensemble(identity64):
    zs = solve_at_zero(identity64)
    J, rho, bound = jacobian_at_zero(identity64, zs.ell)
    n, N = identity64.n, identity64.N
    assert np.allclose(J, N / n**2, atol=1e-12)
    assert rho == pytest.approx(0.25, abs=1e-8)
    assert bound == pytest.approx(0.25, abs=1e-10)
    u = 1.0 + zs.ell
    assert np.max(np.abs(J @ u - zs.ell)) < 1e-8


def test_jacobian_rejects_non_fixed_point(identity64):
    with pytest.raises(JacobianIdentityError):
        jacobian_at_zero(identity64, np.full(identity64.n, 2.0))


def test_jacobian_matches_finite_differences():
    # independent oracle: central differences of the interference map
    rng = np.random.default_rng(5)
    ens = random_ensemble(rng, N=3, n=6)
    ell = solve_at_zero(ens).ell
    J, rho, bound = jacobian_at_zero(ens, ell)
    h = 1e-6
    fd = np.empty((ens.n, ens.n))
    for m in range(ens.n):
        bump = np.zeros(ens.n)
        bump[m] = h
        fd[:, m] = (phi(ens, ell + bump, 0.0) - phi(ens, ell - bump, 0.0)) / (2 * h)
    assert np.max(np.abs(fd - J)) < 1e-6
    assert rho < 1.0 and rho <= bound + 1e-10


@pytest.mark.parametrize("name", ["identity64", "exp_small"])
@pytest.mark.parametrize("z", [1.0 + 0.1j, 1.0 - 0.1j])
def test_off_branch_solution_raises(request, monkeypatch, name, z):
    ens = request.getfixturevalue(name)
    solve_deltas(ens, z)  # the true branch passes
    conjugate_sweep_map(monkeypatch)
    with pytest.raises(BranchError, match="Stieltjes branch"):
        solve_deltas(ens, z)
    solve_deltas(ens, -1.0)  # real z has no branch to check


def test_branch_check_allows_rounding():
    # the density clamps Im m / pi in (-1e-9, 0) to zero, so the branch
    # check lets that much rounding through, for delta too
    tiny = -1e-12j
    for z, sign in ((2.0 + 1e-6j, 1.0), (2.0 - 1e-6j, -1.0)):
        solver._check_branch(z, np.array([0.5 + sign * tiny]), complex(sign * tiny))
        with pytest.raises(BranchError):
            solver._check_branch(z, np.array([0.5 - sign * 1e-6j]), complex(sign * 1e-3j))
        with pytest.raises(BranchError):
            solver._check_branch(z, np.array([0.5 + sign * 1e-3j]), complex(-sign * 1e-6j))


def test_group_jacobian_matches_finite_differences():
    # complex z: L is the holomorphic derivative of the group map
    h = 1e-6
    for ens in (build_exponential(8, 30, [0.2, 0.5, 0.9] * 10), build_identity(8, 32)):
        G = len(ens.group_mult)
        z = 2.0 + 1e-2j
        x = np.array([0.5 + 0.1j, 0.6 + 0.2j, 0.9 + 0.3j])[:G]
        T, fx, L = solver._group_jacobian(ens, x, z)
        sol_map = solver._sweep_map(ens, z)
        assert np.allclose(fx, sol_map(x if G > 1 else x[0]), rtol=0.0, atol=1e-14)
        bulk = solver._bulk_inverse(ens, 1.0 / (1.0 + x) * ens.group_mult, z)
        assert (T is None) == (G == 1) and (T is None or np.array_equal(T, bulk))
        fd = np.empty((G, G), dtype=complex)
        for k in range(G):
            bump = np.zeros(G, dtype=complex)
            bump[k] = h
            fd[:, k] = (solver._group_jacobian(ens, x + bump, z)[1]
                        - solver._group_jacobian(ens, x - bump, z)[1]) / (2 * h)
        assert np.max(np.abs(fd - L)) < 1e-8


@pytest.fixture(scope="module")
def certificate_ensembles(exp64, identity64, identity48x64):
    rng = np.random.default_rng(3)
    return {
        "exp64": exp64,
        "identity64": identity64,
        "identity48x64": identity48x64,
        "identity128x512": build_identity(128, 512),
        "toeplitz_g256": build_exponential(16, 256, np.linspace(0.05, 0.9, 256)),
        **{f"random{k}": random_ensemble(rng) for k in range(4)},
    }


def test_group_certificate_matches_full_jacobian(certificate_ensembles):
    # the n x n J and its G x G lumped form share their nonzero spectrum
    for name, ens in certificate_ensembles.items():
        zs = solve_at_zero(ens)
        J, rho, bound = jacobian_at_zero(ens, zs.ell)
        assert J.shape == (ens.n, ens.n)
        assert rho == zs.jacobian_radius
        assert abs(rho - spectral_radius(J)) <= 1e-12, name
        assert rho < 1.0 and rho <= bound + 1e-10
