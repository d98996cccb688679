"""Command-line front end.

Subcommands: density, support, verify, scaling, selftest.  Every run is
driven by an explicit JSON config (no environment overrides); unknown
config keys are fatal.  density and support draw nothing at random: they
accept a ``seed`` key and ignore it.  Exit codes are a stable contract:
0 ok, 2 config error, 3 numerical failure, 4 verification failure,
5 statistically inconclusive.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import algebra, sampler, spectrum
from .errors import ConfigError, GapViolation, SignalBelowNoise, SpecgapError
from .formats import fmt, write_json as _write_json
from .model import (check_config_keys as _check_keys, config_number as _number,
                    ensemble_from_config)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4
EXIT_INCONCLUSIVE = 5


def _load_config(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: JSON parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top-level config must be an object")
    return cfg


def _require(cfg: dict, key: str, where: str):
    if key not in cfg:
        raise ConfigError(f"{where} config requires {key!r}")
    return cfg[key]


def _as_z(value, where: str) -> complex:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{where}: z must be a [re, im] pair")
    return complex(_number(float, value[0], f"{where}.z"), _number(float, value[1], f"{where}.z"))


def _seed(args, cfg: dict, where: str) -> int:
    """The --seed flag if given, else the config's seed (default 0)."""
    if args.seed is not None:
        return args.seed
    return _number(int, cfg.get("seed", 0), f"{where}.seed")


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_density(args) -> int:
    cfg = _load_config(args.config)
    _check_keys(cfg, {"ensemble", "grid", "y", "tol", "max_iter", "seed"}, "density")
    ens = ensemble_from_config(_require(cfg, "ensemble", "density"))
    grid = _require(cfg, "grid", "density")
    _check_keys(grid, {"lo", "hi", "steps"}, "grid")
    curve = spectrum.density(
        ens,
        _number(float, _require(grid, "lo", "grid"), "grid.lo"),
        _number(float, _require(grid, "hi", "grid"), "grid.hi"),
        _number(int, _require(grid, "steps", "grid"), "grid.steps"),
        y=_number(float, cfg.get("y", 1e-4), "density.y"),
        tol=_number(float, cfg.get("tol", 1e-9), "density.tol"),
        max_iter=_number(int, cfg.get("max_iter", 200000), "density.max_iter"),
        workers=args.workers,
    )
    out = _outdir(args)
    spectrum.write_density_csv(curve, out / "density.csv")
    _write_json(out / "meta.json", {
        "command": "density",
        "config": cfg,
        "mass": curve.mass,
        "solver": curve.diagnostics,
    })
    print(f"density: {len(curve.xs)} points, mass {fmt(curve.mass)}")
    return EXIT_OK


def _support_kwargs(cfg: dict, where: str) -> dict:
    _check_keys(cfg, {"x_hi", "steps", "y", "threshold", "solver_tol"}, where)
    kw = {"steps": 400, "y": 1e-5, "threshold": 1e-3, **cfg}
    return {key: _number(int if key == "steps" else float, value, f"{where}.{key}")
            for key, value in kw.items()}


def cmd_support(args) -> int:
    cfg = _load_config(args.config)
    kw = _support_kwargs({k: v for k, v in cfg.items() if k not in ("ensemble", "seed")},
                         "support")
    ens = ensemble_from_config(_require(cfg, "ensemble", "support"))
    report = spectrum.detect_support(ens, workers=args.workers, **kw)
    out = _outdir(args)
    spectrum.write_support_json(report, out / "support.json")
    print(fmt(report.epsilon_at_zero))
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = _load_config(args.config)
    _check_keys(cfg, {"ensemble", "trials", "seed", "test_interval", "support"}, "verify")
    ens = ensemble_from_config(_require(cfg, "ensemble", "verify"))
    trials = _number(int, _require(cfg, "trials", "verify"), "verify.trials")
    seed = _seed(args, cfg, "verify")
    support_kw = _support_kwargs(cfg.get("support", {}), "verify.support")
    explicit_interval = None
    if "test_interval" in cfg:
        iv = cfg["test_interval"]
        if not isinstance(iv, (list, tuple)) or len(iv) != 2:
            raise ConfigError("verify: test_interval must be [a, b]")
        explicit_interval = tuple(_number(float, v, "verify.test_interval") for v in iv)
    report = spectrum.detect_support(ens, workers=args.workers, **support_kw)
    eps = report.epsilon_at_zero
    interval = explicit_interval if explicit_interval is not None else (0.0, eps / 2.0)
    batch, min_lam = sampler.monte_carlo_gap(ens, trials, seed,
                                             test_interval=interval,
                                             workers=args.workers)
    violations = int(batch.counts_in_interval.sum())
    out = _outdir(args)
    sampler.write_trials_csv(batch, out / "trials.csv")
    _write_json(out / "verdict.json", {
        "epsilon_hat": eps,
        "min_lambda_min": min_lam,
        "violations_in_gap": violations,
        "test_interval": list(interval),
        "trials": trials,
        "seed": seed,
    })
    print(f"epsilon_hat {fmt(eps)} min_lambda_min {fmt(min_lam)} "
          f"violations {violations}")
    if violations:
        raise GapViolation(
            f"{violations} eigenvalue(s) landed inside [{interval[0]:g}, {interval[1]:g}]"
        )
    return EXIT_OK


def _build_family(cfg: dict):
    _check_keys(cfg, {"Ns", "n_ratio", "model"}, "family")
    Ns = _require(cfg, "Ns", "family")
    ratio = _number(int, _require(cfg, "n_ratio", "family"), "family.n_ratio")
    model = _require(cfg, "model", "family")
    if not isinstance(Ns, list) or not Ns:
        raise ConfigError("family.Ns must be a nonempty list")
    Ns = [_number(int, N, "family.Ns") for N in Ns]
    return [_family_member(model, N, N * ratio) for N in Ns]


def _family_member(model: dict, N: int, n: int):
    return ensemble_from_config({"N": N, "n": n, "model": model})


def cmd_scaling(args) -> int:
    cfg = _load_config(args.config)
    _check_keys(cfg, {"family", "z", "trials", "seed", "slope_threshold", "variance"},
                "scaling")
    family_cfg = _require(cfg, "family", "scaling")
    family = _build_family(family_cfg)
    z = _as_z(_require(cfg, "z", "scaling"), "scaling")
    trials = _number(int, _require(cfg, "trials", "scaling"), "scaling.trials")
    seed = _seed(args, cfg, "scaling")
    slope_threshold = _number(float, cfg.get("slope_threshold", -1.5), "scaling.slope_threshold")
    vcfg = None
    if "variance" in cfg:
        vcfg = cfg["variance"]
        _check_keys(vcfg, {"z", "trials", "size_index", "double_n"}, "scaling.variance")
        vz = _as_z(_require(vcfg, "z", "scaling.variance"), "scaling.variance")
        vtrials = _number(int, _require(vcfg, "trials", "scaling.variance"),
                          "scaling.variance.trials")
        sampler.check_spread_trials(vtrials)
        size_index = _number(int, vcfg.get("size_index", 0), "scaling.variance.size_index")
        if not -len(family) <= size_index < len(family):
            raise ConfigError(f"scaling.variance.size_index {size_index} is out of range "
                              f"for {len(family)} sizes")
        double_n = vcfg.get("double_n", False)
        if not isinstance(double_n, bool):
            raise ConfigError(f"scaling.variance.double_n must be true or false, "
                              f"got {double_n!r}")
    report = sampler.bias_scaling(family, z, trials, seed0=seed, workers=args.workers)
    payload = {
        "Ns": report.Ns,
        "bias": report.values,
        "stderr": report.stderrs,
        "slope": report.slope,
        "intercept": report.intercept,
        "slope_threshold": slope_threshold,
        "passed": report.slope <= slope_threshold,
        "trials": trials,
        "seed": seed,
    }
    if vcfg is not None:
        ens = family[size_index]
        check = sampler.variance_scaling(ens, np.eye(ens.N), vz, vtrials, seed0=seed,
                                         workers=args.workers)
        ventry = {
            "measured_var": check.measured_var,
            "bound": check.bound,
            "z": [vz.real, vz.imag],
            "trials": vtrials,
        }
        if double_n:
            doubled = _family_member(family_cfg["model"], ens.N, 2 * ens.n)
            check2 = sampler.variance_scaling(doubled, np.eye(ens.N), vz, vtrials,
                                              seed0=seed, workers=args.workers)
            ventry["measured_var_doubled_n"] = check2.measured_var
            ventry["shrink_factor"] = check.measured_var / check2.measured_var
        payload["variance"] = ventry
    out = _outdir(args)
    with open(out / "scaling.csv", "w") as fh:
        fh.write("N,bias,stderr\n")
        for N, b, s in zip(report.Ns, report.values, report.stderrs):
            fh.write(f"{N},{fmt(b)},{fmt(s)}\n")
    _write_json(out / "scaling.json", payload)
    print(f"slope {fmt(report.slope)} (threshold {fmt(slope_threshold)})")
    return EXIT_OK if report.slope <= slope_threshold else EXIT_VERIFY


def cmd_selftest(args) -> int:
    cfg = _load_config(args.config) if args.config else {}
    _check_keys(cfg, {"witnesses", "triples", "hermitian_draws", "size", "seed"}, "selftest")
    witnesses = _number(int, cfg.get("witnesses", 500), "selftest.witnesses")
    triples = _number(int, cfg.get("triples", 1000), "selftest.triples")
    herm = _number(int, cfg.get("hermitian_draws", 1000), "selftest.hermitian_draws")
    size = _number(int, cfg.get("size", 12), "selftest.size")
    seed = _seed(args, cfg, "selftest")
    rng = np.random.default_rng(seed)
    for _ in range(witnesses):
        w = algebra.random_positive_witness(rng, size, target_rho=float(rng.uniform(0.1, 0.95)))
        algebra.positive_system_bound(w)
    print(f"positive-system witnesses: {witnesses} ok")
    for _ in range(triples):
        A, B, C = algebra.random_dominance_triple(rng, size, target_rho=float(rng.uniform(0.2, 0.9)))
        algebra.hadamard_dominance(A, B, C)
    print(f"hadamard-dominance triples: {triples} ok")
    for _ in range(herm):
        M = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        algebra.trace_jensen_gap(M + M.conj().T)
    print(f"trace-jensen draws: {herm} ok")
    return EXIT_OK


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specgap",
        description="Deterministic-equivalent spectra of correlated Gram matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = [
        ("density", cmd_density, True),
        ("support", cmd_support, True),
        ("verify", cmd_verify, True),
        ("scaling", cmd_scaling, True),
        ("selftest", cmd_selftest, False),
    ]
    for name, fn, config_required in specs:
        p = sub.add_parser(name)
        p.add_argument("--config", required=config_required, default=None)
        p.add_argument("--out", default=".")
        p.add_argument("--workers", type=_positive_int, default=1)
        p.add_argument("--seed", type=int, default=None)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GapViolation as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except SignalBelowNoise as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except SpecgapError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
