import json

import numpy as np
import pytest

from specgap import (
    build_exponential,
    build_identity,
    density,
    detect_support,
    first_moment,
    from_matrices,
    m_of_z,
    mass_check,
    solve_at_zero,
    solve_deltas,
)
from specgap import solver, spectrum
from specgap.errors import (
    ConvergenceError,
    DomainError,
    EmptySupportError,
    InvalidSpectralPoint,
)
from specgap.spectrum import (
    _density_at,
    default_grid_upper,
    support_report_dict,
    write_density_csv,
    write_support_json,
)

from helpers import cold_support_intervals, mp_density, mp_edges, random_ensemble


@pytest.fixture(scope="module")
def identity16():
    # same deterministic measure as any identity ensemble with c = 0.25
    return build_identity(16, 64)


@pytest.fixture(scope="module")
def mp_curve(identity16):
    return density(identity16, 0.0, 3.0, 600, y=1e-4)


def test_density_matches_closed_form(mp_curve):
    a, b = mp_edges(0.25)
    ref = mp_density(mp_curve.xs, 0.25)
    away = (np.abs(mp_curve.xs - a) > 0.05) & (np.abs(mp_curve.xs - b) > 0.05)
    assert np.max(np.abs(mp_curve.ys - ref)[away]) < 5e-2


def test_density_vanishes_in_gap(identity16):
    curve = density(identity16, 0.09, 0.11, 3, y=1e-4)
    assert curve.ys[1] < 1e-3


def test_density_mass_near_one(mp_curve):
    assert 0.95 <= mp_curve.mass <= 1.05


def test_density_validation(identity16):
    with pytest.raises(DomainError):
        density(identity16, 1.0, 0.0, 10)
    with pytest.raises(DomainError):
        density(identity16, 0.0, 1.0, 1)
    with pytest.raises(DomainError):
        density(identity16, 0.0, 1.0, 10, y=0.0)


@pytest.mark.parametrize("steps", [10**18, 2**63, 10**20])
def test_density_grid_too_large_is_domain_error(identity16, steps):
    # numpy fails each size differently: MemoryError, IndexError, ValueError
    with pytest.raises(DomainError, match="cannot be allocated"):
        density(identity16, 0.0, 1.0, steps)


def test_density_worker_count_invariance(identity16):
    a = density(identity16, 0.0, 3.0, 70, y=1e-3, workers=1)
    b = density(identity16, 0.0, 3.0, 70, y=1e-3, workers=3)
    assert np.array_equal(a.ys, b.ys)


def test_detect_support_mp_quarter(identity16):
    report = detect_support(identity16)
    assert len(report.intervals) == 1
    (a, b), = report.intervals
    assert abs(a - 0.25) < 1e-2
    assert abs(b - 2.25) < 1e-2
    assert report.epsilon_at_zero == a


def test_detect_support_c081():
    # coarse scan + bisection: edge error is y-smoothing (~1.4e-3 at y=2e-6)
    # plus the grid_step/100 bracket, both inside the 5e-3 tolerance
    ens = build_identity(81, 100)
    report = detect_support(ens, x_hi=4.0, steps=100, y=2e-6)
    (a, b), = report.intervals
    assert abs(a - 0.01) < 5e-3
    assert abs(b - 3.61) < 5e-3


def test_detect_support_exponential_gap(exp64):
    report = detect_support(exp64, x_hi=12.0, steps=150, y=1e-5)
    assert report.epsilon_at_zero > 0


def test_detect_support_threshold_monotonicity(identity16):
    eps = [detect_support(identity16, steps=200, threshold=t).epsilon_at_zero
           for t in (3e-3, 1e-3)]
    grid_slack = 4.0 / 200 / 100
    assert eps[1] >= eps[0] - grid_slack


def test_detect_support_empty(identity16):
    with pytest.raises(EmptySupportError):
        detect_support(identity16, steps=100, threshold=1.0)


def test_default_grid_upper(identity16, exp64):
    assert default_grid_upper(identity16) == pytest.approx(4.0)
    assert default_grid_upper(exp64) > 100  # conservative for ill-conditioned mixes


def test_first_moment_examples(identity16, exp_small):
    assert first_moment(identity16) == pytest.approx(1.0, abs=1e-14)
    assert first_moment(exp_small) == pytest.approx(1.0, abs=1e-14)
    ens = from_matrices(np.stack([2.0 * np.eye(2)] * 5))
    assert first_moment(ens) == pytest.approx(2.0, abs=1e-14)


def test_numerical_first_moment(identity16):
    curve = density(identity16, 0.0, 3.0, 400, y=1e-5, tol=1e-6)
    numeric = np.trapezoid(curve.xs * curve.ys, curve.xs)
    assert numeric == pytest.approx(first_moment(identity16), rel=0.02)


def test_mass_check(identity16, exp_small):
    assert mass_check(identity16) < 1e-5
    assert mass_check(exp_small) < 1e-5
    assert mass_check(identity16, y=1e2) > mass_check(identity16, y=1e6)


def test_density_invariant_under_column_permutation():
    rng = np.random.default_rng(21)
    ens = random_ensemble(rng, N=3, n=7)
    perm = rng.permutation(7)
    shuffled = from_matrices(ens.omegas[perm])
    a = density(ens, 0.0, 6.0, 40, y=1e-3)
    b = density(shuffled, 0.0, 6.0, 40, y=1e-3)
    assert np.allclose(a.ys, b.ys, atol=1e-9)


def test_continuation_real_at_zero(exp64):
    # analytic continuation through the gap: m is real on (-t, 0] and agrees
    # with the trace of the inverted bulk matrix built from the zero solution
    ell = solve_at_zero(exp64).ell
    A = np.tensordot(1.0 / (1.0 + ell), exp64.omegas, axes=1) / exp64.n
    m_bar = np.trace(np.linalg.inv(A)).real / exp64.N
    t = 1e-6
    m_t = m_of_z(exp64, -t)
    assert abs(m_t.imag) < 1e-10
    assert m_t.real == pytest.approx(m_bar, rel=1e-4)
    assert np.isfinite(m_bar)


def test_writers_roundtrip(tmp_path, identity16):
    curve = density(identity16, 0.0, 1.0, 5, y=1e-3)
    csv_path = tmp_path / "density.csv"
    write_density_csv(curve, csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "x,density"
    assert len(lines) == 6
    x0, d0 = lines[1].split(",")
    assert float(x0) == curve.xs[0]
    assert float(d0) == curve.ys[0]

    report = detect_support(identity16, steps=150)
    json_path = tmp_path / "support.json"
    write_support_json(report, json_path)
    payload = json.loads(json_path.read_text())
    assert payload == support_report_dict(report)
    assert payload["epsilon_at_zero"] == report.epsilon_at_zero


def test_detect_support_equals_cold_bisection_exp64(exp64):
    # warm-started Newton probes classify every probe as cold Picard did
    kwargs = dict(x_hi=12.0, steps=150, y=1e-5)
    oracle = cold_support_intervals(exp64, **kwargs)
    assert len(oracle) == 3
    assert detect_support(exp64, **kwargs).intervals == oracle


@pytest.mark.parametrize("case", ["identity_c081", "identity16_threshold", "toeplitz_g3_gap"])
def test_detect_support_within_a_cell_of_cold_bisection(case):
    # a probe whose density sits within the solver tolerance of the threshold
    # may classify the other way, which moves its edge by one bisection cell
    ens, kwargs = {
        "identity_c081": (build_identity(81, 100), dict(x_hi=4.0, steps=100, y=2e-6)),
        "identity16_threshold": (build_identity(16, 64),
                                 dict(x_hi=4.0, steps=200, y=1e-5, threshold=1e-2)),
        "toeplitz_g3_gap": (build_exponential(16, 64, [(0.2, 0.5, 0.9)[i % 3] for i in range(64)]),
                            dict(x_hi=10.0, steps=100, y=1e-4, threshold=1e-2)),
    }[case]
    report = detect_support(ens, **kwargs)
    oracle = cold_support_intervals(ens, **kwargs)
    assert len(report.intervals) == len(oracle)
    if case == "toeplitz_g3_gap":
        assert len(oracle) >= 2
    cell = report.grid_step / 128
    for got, want in zip(report.intervals, oracle):
        for a, b in zip(got, want):
            assert abs(a - b) <= cell * (1 + 1e-9)


def test_probe_from_wrong_side_of_edge_stays_on_branch(identity64, monkeypatch):
    # start inside the support, probe just past the right MP edge 2.25:
    # unguarded Newton from there passes through Im x < 0
    y = 1e-5
    start = solve_deltas(identity64, complex(2.2, y)).delta
    evaluated = []
    kernel = solver._group_jacobian

    def recording(ensemble, x, z):
        evaluated.append(np.array(x))
        return kernel(ensemble, x, z)

    monkeypatch.setattr(solver, "_group_jacobian", recording)
    sol = solve_deltas(identity64, complex(2.26, y), tol=1e-6, max_iter=50, starts=(start,))
    assert 1 <= sol.iterations <= 50 and sol.residual < 1e-6
    assert all(np.all(e.imag >= 0.0) for e in evaluated)
    cold = solve_deltas(identity64, complex(2.26, y), tol=1e-13)
    assert np.max(np.abs(sol.delta - cold.delta)) < 1e-6
    assert sol.m.imag / np.pi < 1e-3  # outside the support
    val, again = _density_at(identity64, 2.26, y, 1e-6, 50, starts=(start,))
    assert val == sol.m.imag / np.pi and np.array_equal(again.delta, sol.delta)


def test_probe_at_max_iter_names_grid_point(identity64):
    start = solve_deltas(identity64, complex(2.2, 1e-5)).delta
    with pytest.raises(ConvergenceError, match=r"grid point x = 2.26 \(offset y = 1e-05\)") as err:
        _density_at(identity64, 2.26, 1e-5, 1e-6, 1, starts=(start,))
    assert err.value.iterations == 1 and err.value.residual >= 1e-6


def test_newton_solve_needs_non_real_z_and_one_kind_of_start(identity64):
    start = solve_deltas(identity64, complex(2.2, 1e-5)).delta
    with pytest.raises(InvalidSpectralPoint):
        solve_deltas(identity64, -1.0, starts=(start.real,))
    with pytest.raises(DomainError, match="x0 or starts"):
        solve_deltas(identity64, complex(2.26, 1e-5), x0=start, starts=(start,))


def test_probes_go_through_solve_deltas(identity16, monkeypatch):
    # the scan and every bisection probe call spectrum.solve_deltas, the
    # module attribute that tracers wrap; the probes pass ``starts``
    calls = []
    real = spectrum.solve_deltas

    def counting(*args, **kwargs):
        calls.append(kwargs.get("starts") is not None)
        return real(*args, **kwargs)

    monkeypatch.setattr(spectrum, "solve_deltas", counting)
    report = detect_support(identity16, x_hi=4.0, steps=60, y=1e-4)
    assert len(report.intervals) == 1
    assert calls.count(False) == 60
    assert calls.count(True) == 14  # 2 edges, 7 halvings from grid_step to grid_step/100


def test_density_keeps_group_solutions():
    ens = build_exponential(8, 30, [0.2, 0.5, 0.9] * 10)
    curve = density(ens, 0.0, 3.0, 40, y=1e-3)
    assert curve.group_solutions.shape == (40, 3)
    # grid point 7 is warm-started from point 6 inside the same scan block
    sol = solve_deltas(ens, complex(curve.xs[7], 1e-3), tol=1e-9,
                       x0=ens.expand(curve.group_solutions[6]))
    assert np.array_equal(ens.expand(curve.group_solutions[7]), sol.delta)
