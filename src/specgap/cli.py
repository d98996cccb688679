"""Command-line front end.

Subcommands: density, support, verify, scaling, selftest.  Every run is
driven by an explicit JSON config (no environment overrides).  Each
command declares the spec of its config inline and reads the whole config
with one ``model.read_config`` call, before any work: unknown keys,
missing keys and values of the wrong kind are config errors there, and
range checks stay in the library.  The --out directory is made right
after the config is read.  density and support draw nothing at random:
they accept a ``seed`` key with any value and ignore it.  Exit codes are
a stable contract: 0 ok, 2 config error, 3 numerical failure,
4 verification failure, 5 statistically inconclusive.
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
from .model import REQUIRED, ensemble_from_config, read_config

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4
EXIT_INCONCLUSIVE = 5


def _load_config(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: JSON parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None


def _seed(args, cfg: dict) -> int:
    """The --seed flag if given, else the config's seed."""
    return cfg["seed"] if args.seed is None else args.seed


def _outdir(args) -> Path:
    """The --out directory, created if missing; called before any solve or draw."""
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # FileExistsError when --out is a file
        raise ConfigError(f"--out {out} is not a usable directory: {exc}") from None
    return out


# detect_support's keyword arguments, shared by support and verify.support
_SUPPORT = {"x_hi": (float, None), "steps": (int, 400), "y": (float, 1e-5),
            "threshold": (float, 1e-3), "solver_tol": (float, 1e-6)}


def cmd_density(args) -> int:
    raw = _load_config(args.config)
    cfg = read_config(raw, {
        "ensemble": (dict, REQUIRED),
        "grid": ({"lo": (float, REQUIRED), "hi": (float, REQUIRED), "steps": (int, REQUIRED)},
                 REQUIRED),
        "y": (float, 1e-4), "tol": (float, 1e-9), "max_iter": (int, 200000),
        "seed": (None, None),
    }, "density")
    ens = ensemble_from_config(cfg["ensemble"])
    out = _outdir(args)
    grid = cfg["grid"]
    curve = spectrum.density(ens, grid["lo"], grid["hi"], grid["steps"], y=cfg["y"],
                             tol=cfg["tol"], max_iter=cfg["max_iter"], workers=args.workers)
    spectrum.write_density_csv(curve, out / "density.csv")
    _write_json(out / "meta.json", {
        "command": "density",
        "config": raw,
        "mass": curve.mass,
        "solver": curve.diagnostics,
    })
    print(f"density: {len(curve.xs)} points, mass {fmt(curve.mass)}")
    return EXIT_OK


def cmd_support(args) -> int:
    cfg = read_config(_load_config(args.config),
                      {"ensemble": (dict, REQUIRED), "seed": (None, None), **_SUPPORT},
                      "support")
    ens = ensemble_from_config(cfg["ensemble"])
    out = _outdir(args)
    report = spectrum.detect_support(ens, workers=args.workers,
                                     **{key: cfg[key] for key in _SUPPORT})
    spectrum.write_support_json(report, out / "support.json")
    print(fmt(report.epsilon_at_zero))
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = read_config(_load_config(args.config), {
        "ensemble": (dict, REQUIRED), "trials": (int, REQUIRED), "seed": (int, 0),
        "test_interval": ([float, 2], None), "support": (_SUPPORT, {}),
    }, "verify")
    ens = ensemble_from_config(cfg["ensemble"])
    out = _outdir(args)
    trials, seed = cfg["trials"], _seed(args, cfg)
    report = spectrum.detect_support(ens, workers=args.workers, **cfg["support"])
    eps = report.epsilon_at_zero
    interval = cfg["test_interval"] or (0.0, eps / 2.0)
    batch, min_lam = sampler.monte_carlo_gap(ens, trials, seed,
                                             test_interval=interval,
                                             workers=args.workers)
    violations = int(batch.counts_in_interval.sum())
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


def cmd_scaling(args) -> int:
    cfg = read_config(_load_config(args.config), {
        "family": ({"Ns": ([int], REQUIRED), "n_ratio": (int, REQUIRED),
                    "model": (dict, REQUIRED)}, REQUIRED),
        "z": ([float, 2], REQUIRED), "trials": (int, REQUIRED), "seed": (int, 0),
        "slope_threshold": (float, -1.5),
        "variance": ({"z": ([float, 2], REQUIRED), "trials": (int, REQUIRED),
                      "size_index": (int, 0), "double_n": (bool, False)}, None),
    }, "scaling")
    fam, vcfg = cfg["family"], cfg["variance"]

    def member(N, n):
        return ensemble_from_config({"N": N, "n": n, "model": fam["model"]})

    family = [member(N, N * fam["n_ratio"]) for N in fam["Ns"]]
    trials, seed, slope_threshold = cfg["trials"], _seed(args, cfg), cfg["slope_threshold"]
    if vcfg is not None:
        # checked before the bias run, which takes most of the time
        sampler.check_spread_trials(vcfg["trials"])
        if not -len(family) <= vcfg["size_index"] < len(family):
            raise ConfigError(f"scaling.variance.size_index {vcfg['size_index']} is out of "
                              f"range for {len(family)} sizes")
    out = _outdir(args)
    report = sampler.bias_scaling(family, complex(*cfg["z"]), trials, seed0=seed,
                                  workers=args.workers)
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
        ens = family[vcfg["size_index"]]
        vz, vtrials = complex(*vcfg["z"]), vcfg["trials"]
        check = sampler.variance_scaling(ens, np.eye(ens.N), vz, vtrials, seed0=seed,
                                         workers=args.workers)
        ventry = {
            "measured_var": check.measured_var,
            "bound": check.bound,
            "z": [vz.real, vz.imag],
            "trials": vtrials,
        }
        if vcfg["double_n"]:
            check2 = sampler.variance_scaling(member(ens.N, 2 * ens.n), np.eye(ens.N), vz,
                                              vtrials, seed0=seed, workers=args.workers)
            ventry["measured_var_doubled_n"] = check2.measured_var
            ventry["shrink_factor"] = check.measured_var / check2.measured_var
        payload["variance"] = ventry
    with open(out / "scaling.csv", "w") as fh:
        fh.write("N,bias,stderr\n")
        for N, b, s in zip(report.Ns, report.values, report.stderrs):
            fh.write(f"{N},{fmt(b)},{fmt(s)}\n")
    _write_json(out / "scaling.json", payload)
    print(f"slope {fmt(report.slope)} (threshold {fmt(slope_threshold)})")
    return EXIT_OK if report.slope <= slope_threshold else EXIT_VERIFY


def cmd_selftest(args) -> int:
    cfg = read_config(_load_config(args.config) if args.config else {}, {
        "witnesses": (int, 500), "triples": (int, 1000), "hermitian_draws": (int, 1000),
        "size": (int, 12), "seed": (int, 0),
    }, "selftest")
    size = cfg["size"]
    rng = np.random.default_rng(_seed(args, cfg))
    for _ in range(cfg["witnesses"]):
        w = algebra.random_positive_witness(rng, size, target_rho=float(rng.uniform(0.1, 0.95)))
        algebra.positive_system_bound(w)
    print(f"positive-system witnesses: {cfg['witnesses']} ok")
    for _ in range(cfg["triples"]):
        A, B, C = algebra.random_dominance_triple(rng, size, target_rho=float(rng.uniform(0.2, 0.9)))
        algebra.hadamard_dominance(A, B, C)
    print(f"hadamard-dominance triples: {cfg['triples']} ok")
    for _ in range(cfg["hermitian_draws"]):
        M = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        algebra.trace_jensen_gap(M + M.conj().T)
    print(f"trace-jensen draws: {cfg['hermitian_draws']} ok")
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
