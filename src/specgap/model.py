"""Correlation ensembles for the generally correlated Gaussian column model.

An ensemble holds the per-column covariances Omega_i of an N x n random
matrix whose i-th column is Theta_i g_i with g_i standard complex Gaussian
and Omega_i = Theta_i Theta_i^*.  Admissible ensembles have 0 < N < n,
every Omega_i Hermitian positive definite, and eigenvalues bounded away
from 0 and infinity uniformly over columns.

Columns with byte-identical covariances form a group.  An ensemble is
stored as its G distinct covariances and the column -> group index, so a
structured ensemble with G << n distinct covariances costs G matrices,
not n; the (n, N, N) stack is built only when asked for.  An ensemble
is validated when it is constructed, so one that exists is admissible.

Config sections are read by one function, ``read_config``, against a
spec that each reader declares: ``ensemble_from_config`` here, and each
CLI command for the rest of its config.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import AssumptionViolation, ConfigError, DimensionError, DomainError

HERMITICITY_RTOL = 1e-12
SQRT_RECONSTRUCTION_RTOL = 1e-10
EIGENVALUE_CLAMP = -1e-12
WMIN_TOLERANCE = 1e-10


def hermitian_sqrt(omega: np.ndarray) -> np.ndarray:
    """Hermitian square root Theta with Theta @ Theta^* == omega.

    Computed by eigendecomposition; eigenvalues in (-1e-12, 0) are clamped
    to zero to absorb PSD drift, anything more negative is an error.
    """
    omega = np.asarray(omega)
    _check_hermitian(omega, what="hermitian_sqrt input")
    evals, vecs = np.linalg.eigh(omega)
    if evals[0] < EIGENVALUE_CLAMP:
        raise DomainError(
            f"matrix is not PSD: smallest eigenvalue {evals[0]:.3e} < {EIGENVALUE_CLAMP:.0e}"
        )
    evals = np.clip(evals, 0.0, None)
    theta = (vecs * np.sqrt(evals)) @ vecs.conj().T
    if np.isrealobj(omega):
        theta = theta.real
    scale = np.linalg.norm(omega)
    err = np.linalg.norm(theta @ theta.conj().T - omega)
    if scale > 0 and err > SQRT_RECONSTRUCTION_RTOL * scale:
        raise AssumptionViolation(
            f"square root reconstruction error {err / scale:.3e} exceeds "
            f"{SQRT_RECONSTRUCTION_RTOL:.0e}"
        )
    return theta


def _check_hermitian(omega, what="matrix", index=None):
    if omega.ndim != 2 or omega.shape[0] != omega.shape[1]:
        raise DimensionError(f"{what} must be square, got shape {omega.shape}")
    scale = max(1.0, float(np.abs(omega).max()))
    dev = float(np.abs(omega - omega.conj().T).max())
    if dev > HERMITICITY_RTOL * scale:
        where = "" if index is None else f" at column {index}"
        raise AssumptionViolation(
            f"{what}{where} is not Hermitian: max deviation {dev:.3e} "
            f"(tolerance {HERMITICITY_RTOL:.0e} relative)",
            index=index,
        )


@dataclass(frozen=True)
class CorrelationEnsemble:
    """Validated, immutable bundle of per-column covariances, stored by distinct covariance.

    ``group_omegas`` is the (G, N, N) array of the distinct covariances,
    ordered by the first column that uses each, and ``group_index`` the
    length-n integer map from column to group, which must use every group.
    Construction is the one place an ensemble is checked: it makes both
    arrays read-only in place and sets N, n, c and w_min/w_max through
    ``validate``.  Square roots, eigenvalues, the full stack and a complex
    copy of ``group_omegas`` are computed lazily and cached, so a
    constructed ensemble is safe to share across workers.
    """

    group_omegas: np.ndarray
    group_index: np.ndarray
    N: int = field(init=False)
    n: int = field(init=False)
    c: float = field(init=False)
    w_min: float = field(init=False)
    w_max: float = field(init=False)

    def __post_init__(self):
        omegas = np.asarray(self.group_omegas)
        index = np.asarray(self.group_index)
        if omegas.ndim != 3 or omegas.shape[1] != omegas.shape[2]:
            raise DimensionError(f"group_omegas must be a (G, N, N) stack, "
                                 f"got shape {omegas.shape}")
        if index.ndim != 1 or not np.issubdtype(index.dtype, np.integer):
            raise DimensionError(f"group_index must be a 1-D integer array, got "
                                 f"shape {index.shape} of {index.dtype}")
        G = len(omegas)
        # bincount, not np.unique: numpy's first quicksort pages in ~1.5 MiB of
        # SIMD sort code, which shows in peak RSS
        uses_all = (index.size and 0 <= index.min() and index.max() < G and
                    np.count_nonzero(np.bincount(index.astype(np.intp), minlength=G)) == G)
        if not uses_all:
            raise DimensionError(f"group_index must map the columns onto all of "
                                 f"groups 0..{G - 1} and nothing else")
        omegas.setflags(write=False)
        index.setflags(write=False)
        for name, value in (("group_omegas", omegas), ("group_index", index),
                            ("N", omegas.shape[1]), ("n", len(index))):
            object.__setattr__(self, name, value)
        w_min, w_max = validate(self)
        for name, value in (("c", self.N / self.n), ("w_min", w_min), ("w_max", w_max)):
            object.__setattr__(self, name, value)

    @cached_property
    def group_thetas(self) -> np.ndarray:
        """(G, N, N) Hermitian square roots of the distinct covariances."""
        out = np.stack([hermitian_sqrt(om) for om in self.group_omegas])
        out.setflags(write=False)
        return out

    @cached_property
    def _identity_theta(self) -> bool:
        """Whether the one group's square root is exactly I_N, so draws skip Theta g."""
        thetas = self.group_thetas
        return len(thetas) == 1 and np.array_equal(thetas[0], np.eye(self.N))

    @cached_property
    def group_omegas_complex(self) -> np.ndarray:
        """Read-only complex copy of ``group_omegas`` for complex-z sweeps.

        Built on first use and kept for the ensemble's lifetime
        (G * N^2 * 16 bytes), so a sweep multiplying complex weights into
        a real stack does not cast the stack on every call.
        """
        out = self.group_omegas.astype(complex)
        out.setflags(write=False)
        return out

    @cached_property
    def omegas(self) -> np.ndarray:
        """(n, N, N) read-only stack with one covariance per column."""
        out = np.ascontiguousarray(self.group_omegas[self.group_index])
        out.setflags(write=False)
        return out

    @cached_property
    def group_mult(self) -> np.ndarray:
        """Number of columns in each group, as floats."""
        mult = np.bincount(self.group_index, minlength=len(self.group_omegas)).astype(float)
        mult.setflags(write=False)
        return mult

    @cached_property
    def group_eigenvalues(self) -> np.ndarray:
        """(G, N) ascending eigenvalues, from eigh: eigvalsh rounds differently."""
        out = np.stack([np.linalg.eigh(om)[0] for om in self.group_omegas])
        out.setflags(write=False)
        return out

    @cached_property
    def group_columns(self) -> list:
        """Column indices belonging to each group, in column order."""
        return [np.flatnonzero(self.group_index == g)
                for g in range(len(self.group_mult))]

    def expand(self, group_values: np.ndarray) -> np.ndarray:
        """Broadcast per-group values back to per-column (length n)."""
        return np.asarray(group_values)[self.group_index]


def _from_candidates(candidates, column_candidate) -> CorrelationEnsemble:
    """Build an ensemble from candidate covariances.

    Column i has covariance ``candidates[column_candidate[i]]``, and every
    candidate must be used by some column.  Byte-identical candidates merge
    into one group, since columns with equal covariances share one
    fixed-point unknown; groups are ordered by their first column.
    """
    if np.iscomplexobj(candidates) and not np.any(candidates.imag):
        candidates = candidates.real
    _, first_column = np.unique(column_candidate, return_index=True)
    group_of = np.empty(len(candidates), dtype=np.intp)
    group_of_bytes = {}
    reps = []
    for k in np.argsort(first_column):
        g = group_of_bytes.setdefault(candidates[k].tobytes(), len(reps))
        if g == len(reps):
            reps.append(k)
        group_of[k] = g
    return CorrelationEnsemble(group_omegas=np.ascontiguousarray(candidates[reps]),
                               group_index=group_of[column_candidate])


def from_matrices(omegas) -> CorrelationEnsemble:
    """Build and validate an ensemble from n covariance matrices."""
    omegas = np.asarray(omegas)
    if omegas.ndim != 3 or omegas.shape[1] != omegas.shape[2]:
        raise DimensionError(f"expected (n, N, N) stack, got shape {omegas.shape}")
    return _from_candidates(omegas, np.arange(omegas.shape[0]))


def _check_dimensions(N: int, n: int) -> None:
    if not 0 < N < n:
        raise DimensionError(f"require 0 < N < n, got N={N}, n={n}")


def validate(ensemble: CorrelationEnsemble):
    """Check 0 < N < n, Hermiticity and eigenvalue bounds of every covariance.

    Returns (w_min, w_max) over all columns; raises AssumptionViolation
    naming the offending column if some Omega_i is non-Hermitian or has an
    eigenvalue at or below WMIN_TOLERANCE.
    """
    _check_dimensions(ensemble.N, ensemble.n)
    w_min = np.inf
    w_max = -np.inf
    # eigenvalues are shared within a group; validate per group but report
    # the first offending column index
    first_col = np.unique(ensemble.group_index, return_index=True)[1].tolist()
    for g, om in enumerate(ensemble.group_omegas):
        _check_hermitian(om, what="covariance", index=first_col[g])
        evals = np.linalg.eigvalsh(om)
        if evals[0] <= WMIN_TOLERANCE:
            raise AssumptionViolation(
                f"covariance at column {first_col[g]} has smallest eigenvalue "
                f"{evals[0]:.3e} <= {WMIN_TOLERANCE:.0e}; w_min > 0 is required",
                index=first_col[g],
            )
        w_min = min(w_min, float(evals[0]))
        w_max = max(w_max, float(evals[-1]))
    return w_min, w_max


def build_identity(N: int, n: int) -> CorrelationEnsemble:
    """All covariances equal to I_N (the classical uncorrelated case)."""
    _check_dimensions(N, n)  # np.eye(N) would raise a bare ValueError at N < 0
    return _from_candidates(np.eye(N)[None], np.zeros(n, dtype=np.intp))


def build_exponential(N: int, n: int, rhos) -> CorrelationEnsemble:
    """Per-column Toeplitz covariances [Omega_i]_{jk} = rho_i ** |j-k|.

    Each rho_i must lie in [0, 1); rho_i = 0 gives the identity.
    """
    _check_dimensions(N, n)  # before N x N candidates are allocated
    rhos = np.asarray(rhos, dtype=float)
    if rhos.shape != (n,):
        raise DimensionError(f"need exactly n={n} correlation coefficients, got {rhos.shape}")
    if np.any(rhos < 0.0) or np.any(rhos >= 1.0):
        bad = int(np.argmax((rhos < 0.0) | (rhos >= 1.0)))
        raise DomainError(f"rho[{bad}] = {rhos[bad]} outside [0, 1)")
    # one Toeplitz matrix per distinct rho bit pattern
    _, first, column_rho = np.unique(rhos.view(np.uint64), return_index=True,
                                     return_inverse=True)
    idx = np.arange(N)
    lag = np.abs(idx[:, None] - idx[None, :])
    candidates = rhos[first][:, None, None] ** lag[None, :, :]
    return _from_candidates(candidates, column_rho)


# -- binary matrix files ----------------------------------------------------
#
# n concatenated N x N matrices, row-major, each entry stored as an
# interleaved (real, imag) pair of little-endian float64.

def load_omegas(path, N: int, n: int) -> np.ndarray:
    try:
        raw = np.fromfile(path, dtype="<f8")
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read ensemble file: {exc}") from None
    expected = 2 * n * N * N
    if raw.size != expected:
        raise ConfigError(
            f"{path}: expected {expected} float64 values for n={n}, N={N}, "
            f"found {raw.size}"
        )
    pairs = raw.reshape(n, N, N, 2)
    return pairs[..., 0] + 1j * pairs[..., 1]


def save_omegas(path, omegas) -> None:
    omegas = np.asarray(omegas, dtype=complex)
    out = np.empty(omegas.shape + (2,))
    out[..., 0] = omegas.real
    out[..., 1] = omegas.imag
    out.astype("<f8").tofile(path)


def config_number(kind, value, name: str):
    """kind(value) for a config entry that is a JSON number; anything else is a ConfigError.

    A bool or a numeric string is not a number, and an int entry rejects a
    float with a fractional part rather than truncating it (16.0 is accepted).
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
            kind is int and isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{name} must be {'an integer' if kind is int else 'a number'}, "
                          f"got {value!r}")
    try:
        return kind(value)
    except OverflowError:  # an integer too large for a float
        raise ConfigError(f"{name} must be a number, got {value!r}") from None


REQUIRED = object()  # the spec default of a key that a section must give
_KIND_NAMES = {bool: "true or false", str: "a nonempty string", dict: "a JSON object"}


def read_config(section, spec: dict, where: str) -> dict:
    """Read one JSON config section against its spec; every fault is a ConfigError.

    ``spec`` maps each allowed key to ``(kind, default)``.  Unknown keys are
    rejected.  A missing key is an error if its default is ``REQUIRED``,
    None if its default is None, and otherwise takes its default, which is
    read like a given value.  Kinds: ``int`` and ``float`` (through
    ``config_number``), ``bool``, ``str`` (nonempty), ``dict`` (any JSON
    object), a nested spec dict for a sub-section, ``[kind]`` or
    ``[kind, length]`` for a nonempty list, and None for any value.
    Errors name the dotted key, ``where.key``.
    """
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(section) - set(spec)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
    out = {}
    for key, (kind, default) in spec.items():
        if key in section:
            out[key] = _read_value(section[key], kind, f"{where}.{key}")
        elif default is REQUIRED:
            raise ConfigError(f"{where} requires {key!r}")
        else:
            out[key] = None if default is None else _read_value(default, kind, f"{where}.{key}")
    return out


def _read_value(value, kind, name: str):
    if isinstance(kind, dict):
        return read_config(value, kind, name)
    if isinstance(kind, list):
        if not isinstance(value, list) or not value or len(kind) == 2 and len(value) != kind[1]:
            want = "a nonempty list" if len(kind) == 1 else f"a list of {kind[1]}"
            raise ConfigError(f"{name} must be {want}, got {value!r}")
        return [_read_value(v, kind[0], f"{name}[{i}]") for i, v in enumerate(value)]
    if kind is int or kind is float:
        return config_number(kind, value, name)
    if kind is not None and (not isinstance(value, kind) or (kind is str and not value)):
        raise ConfigError(f"{name} must be {_KIND_NAMES[kind]}, got {value!r}")
    return value


# the keys each model type takes besides "type"
_MODEL_KEYS = {"identity": {}, "exponential": {"rho": ([float], REQUIRED)},
              "file": {"path": (str, REQUIRED)}}


def ensemble_from_config(config: dict) -> CorrelationEnsemble:
    """Build an ensemble from its JSON configuration.

    Schema: {"N": int, "n": int, "model": {"type": "identity" |
    "exponential" | "file", "rho": [floats], "path": "..."}}.  For the
    exponential model a rho list shorter than n is cycled.
    """
    cfg = read_config(config, {"N": (int, REQUIRED), "n": (int, REQUIRED),
                               "model": (dict, REQUIRED)}, "ensemble")
    N, n, kind = cfg["N"], cfg["n"], cfg["model"].get("type")
    # isinstance first: an unhashable type such as [] cannot be looked up
    if not (isinstance(kind, str) and kind in _MODEL_KEYS):
        raise ConfigError(f"ensemble.model.type must be one of {list(_MODEL_KEYS)}, "
                          f"got {kind!r}")
    model = read_config(cfg["model"], {"type": (str, REQUIRED), **_MODEL_KEYS[kind]},
                        "ensemble.model")
    if kind == "identity":
        return build_identity(N, n)
    if kind == "exponential":
        rho = model["rho"]
        return build_exponential(N, n, [rho[i % len(rho)] for i in range(n)])
    return from_matrices(load_omegas(model["path"], N, n))
