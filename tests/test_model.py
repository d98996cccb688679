import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specgap import (
    CorrelationEnsemble,
    build_exponential,
    build_identity,
    ensemble_from_config,
    from_matrices,
    hermitian_sqrt,
    validate,
)
from specgap.errors import AssumptionViolation, ConfigError, DimensionError, DomainError
from specgap.model import REQUIRED, load_omegas, read_config, save_omegas

from helpers import random_psd


def test_identity_small():
    ens = build_identity(2, 4)
    assert ens.c == 0.5
    assert all(np.array_equal(om, np.eye(2)) for om in ens.omegas)
    assert ens.w_min == ens.w_max == 1.0


def test_identity_shape_64():
    ens = build_identity(64, 256)
    assert ens.c == 0.25
    assert ens.w_min == 1.0 and ens.w_max == 1.0


@pytest.mark.parametrize("N,n", [(4, 4), (5, 4), (0, 3)])
def test_identity_dimension_errors(N, n):
    with pytest.raises(DimensionError):
        build_identity(N, n)


def test_exponential_zero_rho_is_identity():
    ens = build_exponential(2, 3, [0.0, 0.0, 0.0])
    for om in ens.omegas:
        assert np.array_equal(om, np.eye(2))


def test_exponential_half_eigenvalues(exp_small):
    # 2x2 Toeplitz with rho has eigenvalues 1 +- rho
    assert exp_small.w_min == pytest.approx(0.5, abs=1e-12)
    assert exp_small.w_max == pytest.approx(1.5, abs=1e-12)
    assert np.allclose(exp_small.omegas[0], [[1.0, 0.5], [0.5, 1.0]])


def test_exponential_rho_domain():
    with pytest.raises(DomainError):
        build_exponential(2, 3, [1.0, 0.0, 0.0])
    with pytest.raises(DomainError):
        build_exponential(2, 3, [0.3, -0.1, 0.0])


def test_exponential_equal_rho_all_columns_identical():
    ens = build_exponential(3, 7, [0.4] * 7)
    assert len(ens.group_mult) == 1
    assert ens.group_mult[0] == 7.0


def test_validate_identity_and_exponential(exp_small):
    assert validate(build_identity(3, 6)) == (1.0, 1.0)
    lo, hi = validate(exp_small)
    assert lo == pytest.approx(0.5, abs=1e-12)
    assert hi == pytest.approx(1.5, abs=1e-12)


def test_validate_flags_offending_column():
    omegas = np.stack([np.eye(2), np.zeros((2, 2)), np.eye(2)])
    with pytest.raises(AssumptionViolation) as err:
        from_matrices(omegas)
    assert err.value.index == 1


def test_validate_rejects_non_hermitian():
    omegas = np.stack([np.eye(2), np.array([[1.0, 0.5], [0.1, 1.0]])])
    with pytest.raises(AssumptionViolation):
        from_matrices(np.concatenate([omegas, [np.eye(2)]]))


def test_hermitian_sqrt_examples():
    assert np.allclose(hermitian_sqrt(np.eye(3)), np.eye(3))
    assert np.allclose(hermitian_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))
    om = np.array([[1.0, 0.5], [0.5, 1.0]])
    theta = hermitian_sqrt(om)
    assert np.linalg.norm(theta @ theta.conj().T - om) <= 1e-10 * np.linalg.norm(om)


def test_hermitian_sqrt_rejects_non_hermitian():
    with pytest.raises((AssumptionViolation, DomainError)):
        hermitian_sqrt(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_hermitian_sqrt_rejects_indefinite():
    with pytest.raises(DomainError):
        hermitian_sqrt(np.diag([1.0, -0.5]))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_hermitian_sqrt_roundtrip_random_psd(N, seed):
    rng = np.random.default_rng(seed)
    om = random_psd(rng, N)
    theta = hermitian_sqrt(om)
    scale = np.linalg.norm(om)
    assert np.linalg.norm(theta @ theta.conj().T - om) <= 1e-10 * scale
    assert np.abs(theta - theta.conj().T).max() < 1e-10 * scale


def test_ensemble_immutable_and_cached(exp_small):
    with pytest.raises(ValueError):
        exp_small.omegas[0, 0, 0] = 2.0
    with pytest.raises(ValueError):
        exp_small.group_omegas[0, 0, 0] = 2.0
    t1 = exp_small.group_thetas
    assert t1 is exp_small.group_thetas  # cached
    assert exp_small.omegas is exp_small.omegas
    per_column = t1[exp_small.group_index]
    for i, om in enumerate(exp_small.omegas):
        rec = per_column[i] @ per_column[i].conj().T
        assert np.linalg.norm(rec - om) <= 1e-10 * np.linalg.norm(om)


def test_constructor_validates_covariances():
    # an indefinite covariance (eigenvalues -1 and 3) cannot be constructed
    with pytest.raises(AssumptionViolation):
        CorrelationEnsemble(group_omegas=np.array([[[1.0, 2.0], [2.0, 1.0]]]),
                            group_index=np.zeros(8, dtype=np.intp))
    with pytest.raises(DimensionError):
        CorrelationEnsemble(group_omegas=np.eye(4)[None], group_index=np.zeros(4, dtype=np.intp))


@pytest.mark.parametrize("group_index", [
    [0, 1, 0, 2],  # an entry past G = 2
    [0, -1, 0, 1],
    [0, 0, 0, 0],  # group 1 used by no column
    [0.0, 1.0, 0.0, 1.0],  # not an integer map
    [[0, 1], [0, 1]],  # not 1-D
], ids=["past_G", "negative", "unused_group", "float", "not_1d"])
def test_constructor_rejects_bad_group_index(group_index):
    with pytest.raises(DimensionError):
        CorrelationEnsemble(group_omegas=np.stack([np.eye(2), 2.0 * np.eye(2)]),
                            group_index=np.array(group_index))


def test_constructor_sets_bounds_and_freezes_arrays(exp_small):
    with pytest.raises(TypeError):
        CorrelationEnsemble(group_omegas=np.eye(2)[None], group_index=np.zeros(3, dtype=np.intp),
                            w_min=1.0, w_max=1.0)
    omegas = np.array(exp_small.group_omegas)
    index = np.array(exp_small.group_index)
    ens = CorrelationEnsemble(group_omegas=omegas, group_index=index)
    assert (ens.N, ens.n, ens.c) == (exp_small.N, exp_small.n, exp_small.c)
    assert (ens.w_min, ens.w_max) == (exp_small.w_min, exp_small.w_max)
    with pytest.raises(ValueError):
        ens.group_omegas[0, 0, 0] = 2.0
    with pytest.raises(ValueError):
        ens.group_index[0] = 0


def test_grouping_collapses_duplicates():
    ens = build_exponential(4, 9, [(0.1, 0.6, 0.6)[i % 3] for i in range(9)])
    assert len(ens.group_mult) == 2
    assert sorted(ens.group_mult.tolist()) == [3.0, 6.0]
    assert np.all(ens.expand(np.array([5.0, 7.0]))[ens.group_index == 0] == 5.0)


@pytest.mark.parametrize("build,groups", [
    (lambda: build_identity(3, 7), 1),
    (lambda: build_exponential(4, 9, [(0.1, 0.6, 0.6)[i % 3] for i in range(9)]), 2),
    # -0.0 puts -0.0 entries off the diagonal, so it is a group of its own
    (lambda: build_exponential(3, 8, [0.5, 0.0, -0.0, 0.5, 0.0, 0.2, -0.0, 0.2]), 4),
    # with N = 1 every rho gives [[1.0]]
    (lambda: build_exponential(1, 5, [0.1, 0.2, 0.3, 0.1, 0.0]), 1),
])
def test_builders_group_like_from_matrices(build, groups):
    # the builders group distinct candidates; from_matrices groups all n
    # columns by their bytes, so both must give the same ensemble
    ens = build()
    ref = from_matrices(ens.omegas)
    assert len(ens.group_mult) == groups
    assert np.array_equal(ens.group_index, ref.group_index)
    assert np.array_equal(ens.group_mult, ref.group_mult)
    assert ens.group_omegas.dtype == ref.group_omegas.dtype
    assert ens.group_omegas.tobytes() == ref.group_omegas.tobytes()
    assert (ens.w_min, ens.w_max) == (ref.w_min, ref.w_max)


def test_config_identity_and_exponential_cycling():
    ens = ensemble_from_config({"N": 2, "n": 4, "model": {"type": "identity"}})
    assert ens.c == 0.5
    ens = ensemble_from_config(
        {"N": 2, "n": 5, "model": {"type": "exponential", "rho": [0.1, 0.2]}}
    )
    assert ens.omegas[2][0, 1] == pytest.approx(0.1)  # pattern cycles
    assert ens.omegas[3][0, 1] == pytest.approx(0.2)


def test_config_file_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    omegas = np.stack([random_psd(rng, 3) for _ in range(5)])
    path = tmp_path / "omegas.bin"
    save_omegas(path, omegas)
    back = load_omegas(path, 3, 5)
    assert np.allclose(back, omegas)
    ens = ensemble_from_config(
        {"N": 3, "n": 5, "model": {"type": "file", "path": str(path)}}
    )
    assert np.allclose(ens.omegas, omegas)


def test_config_file_size_mismatch(tmp_path):
    path = tmp_path / "short.bin"
    np.zeros(7).tofile(path)
    with pytest.raises(ConfigError):
        load_omegas(path, 2, 2)


def test_config_file_unreadable(tmp_path):
    for path in (tmp_path / "missing.bin", tmp_path):
        with pytest.raises(ConfigError, match="cannot read ensemble file"):
            load_omegas(path, 2, 4)


SPEC = {
    "n": (int, REQUIRED),
    "x": (float, 0.5),
    "flag": (bool, False),
    "name": (str, None),
    "z": ([float, 2], None),
    "sub": ({"k": (int, 3)}, {}),
    "any": (None, None),
}


def test_read_config_fills_defaults_and_converts():
    assert read_config({"n": 4.0, "z": [1, 2]}, SPEC, "s") == {
        "n": 4, "x": 0.5, "flag": False, "name": None, "z": [1.0, 2.0],
        "sub": {"k": 3}, "any": None}
    cfg = read_config({"n": 1, "x": 2, "flag": True, "name": "a", "sub": {"k": 5},
                       "any": [{}]}, SPEC, "s")
    assert (cfg["x"], cfg["flag"], cfg["name"], cfg["sub"], cfg["any"]) == \
        (2.0, True, "a", {"k": 5}, [{}])
    assert isinstance(cfg["x"], float)


@pytest.mark.parametrize("section,names", [
    (5, "s must be a JSON object"),
    ({"n": 1, "typo": 0}, "unknown s keys: ['typo']"),
    ({}, "s requires 'n'"),
    ({"n": 1.5}, "s.n"),
    ({"n": 1, "flag": 1}, "s.flag"),
    ({"n": 1, "name": ""}, "s.name"),
    ({"n": 1, "z": [1.0]}, "s.z"),
    ({"n": 1, "z": [1.0, "b"]}, "s.z[1]"),
    ({"n": 1, "sub": {"k": "many"}}, "s.sub.k"),
    ({"n": 1, "sub": []}, "s.sub must be a JSON object"),
], ids=["not_object", "unknown", "missing", "fractional", "bool", "empty_str",
        "short_list", "list_item", "nested", "nested_not_object"])
def test_read_config_errors_name_the_key(section, names):
    with pytest.raises(ConfigError, match=re.escape(names)):
        read_config(section, SPEC, "s")


def test_config_strictness():
    with pytest.raises(ConfigError):
        ensemble_from_config({"N": 2, "n": 4, "model": {"type": "identity"}, "extra": 1})
    with pytest.raises(ConfigError):
        ensemble_from_config({"N": 2, "n": 4, "model": {"type": "identity", "rho": [0.1]}})
    with pytest.raises(ConfigError):
        ensemble_from_config({"N": 2, "n": 4, "model": {"type": "warp"}})
    with pytest.raises(ConfigError):
        ensemble_from_config({"n": 4, "model": {"type": "identity"}})
