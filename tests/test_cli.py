import json

import numpy as np
import pytest

from specgap import cli
from specgap.sampler import ScalingReport

from helpers import conjugate_sweep_map

IDENT16 = {"N": 16, "n": 64, "model": {"type": "identity"}}
# correlated columns: no exact moment oracle, so bias_scaling keeps the plain mean
TOEPLITZ = {"type": "exponential", "rho": [0.5]}


def write_cfg(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(args):
    return cli.main(args)


def test_density_command(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "ensemble": IDENT16,
        "grid": {"lo": 0.0, "hi": 3.0, "steps": 120},
        "y": 1e-4,
    })
    out = tmp_path / "out"
    assert run(["density", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "density.csv").read_text().strip().splitlines()
    assert rows[0] == "x,density"
    data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    peak_x = data[np.argmax(data[:, 1]), 0]
    assert 0.25 < peak_x < 2.25
    meta = json.loads((out / "meta.json").read_text())
    assert meta["command"] == "density"
    assert 0.9 < meta["mass"] < 1.1


def test_density_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"ensemble": ')
    assert run(["density", "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_density_nonconvergence_names_grid_point(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "ensemble": IDENT16,
        "grid": {"lo": 0.9, "hi": 1.1, "steps": 3},
        "y": 1e-4,
        "max_iter": 2,
    })
    assert run(["density", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert "grid point x = 0.9" in capsys.readouterr().err


def test_density_y_zero_rejected(tmp_path):
    cfg = write_cfg(tmp_path, {
        "ensemble": IDENT16,
        "grid": {"lo": 0.0, "hi": 3.0, "steps": 10},
        "y": 0.0,
    })
    assert run(["density", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_unknown_keys_rejected(tmp_path):
    cfg = write_cfg(tmp_path, {
        "ensemble": IDENT16,
        "grid": {"lo": 0.0, "hi": 3.0, "steps": 10},
        "y": 1e-4,
        "typo_key": 1,
    })
    assert run(["density", "--config", cfg, "--out", str(tmp_path)]) == 2
    cfg = write_cfg(tmp_path, {
        "ensemble": {**IDENT16, "wat": 1},
        "grid": {"lo": 0.0, "hi": 3.0, "steps": 10},
        "y": 1e-4,
    })
    assert run(["density", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_support_command(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"ensemble": IDENT16, "steps": 300})
    out = tmp_path / "sup"
    assert run(["support", "--config", cfg, "--out", str(out)]) == 0
    eps = float(capsys.readouterr().out.strip())
    assert abs(eps - 0.25) < 1e-2
    payload = json.loads((out / "support.json").read_text())
    assert payload["epsilon_at_zero"] == eps
    assert len(payload["intervals"]) == 1


def test_support_off_branch_is_numerical_failure(tmp_path, monkeypatch, capsys):
    cfg = write_cfg(tmp_path, {"ensemble": IDENT16, "steps": 60})
    conjugate_sweep_map(monkeypatch)
    assert run(["support", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert "Stieltjes branch" in capsys.readouterr().err


def test_support_absurd_threshold(tmp_path):
    cfg = write_cfg(tmp_path, {"ensemble": IDENT16, "steps": 50, "threshold": 1.0})
    assert run(["support", "--config", cfg, "--out", str(tmp_path)]) == 3


def test_verify_command_ok_and_deterministic(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "ensemble": IDENT16,
        "trials": 25,
        "seed": 11,
        "support": {"steps": 200},
    })
    out1, out2 = tmp_path / "v1", tmp_path / "v2"
    assert run(["verify", "--config", cfg, "--out", str(out1)]) == 0
    assert run(["verify", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "verdict.json").read_bytes() == (out2 / "verdict.json").read_bytes()
    assert (out1 / "trials.csv").read_bytes() == (out2 / "trials.csv").read_bytes()
    verdict = json.loads((out1 / "verdict.json").read_text())
    assert verdict["violations_in_gap"] == 0
    assert verdict["min_lambda_min"] > verdict["epsilon_hat"] / 2


def test_verify_bulk_interval_fails(tmp_path):
    cfg = write_cfg(tmp_path, {
        "ensemble": IDENT16,
        "trials": 10,
        "seed": 1,
        "test_interval": [0.5, 1.0],
        "support": {"steps": 200},
    })
    out = tmp_path / "vb"
    assert run(["verify", "--config", cfg, "--out", str(out)]) == 4
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["violations_in_gap"] > 0


def test_scaling_one_size_is_config_error(tmp_path):
    cfg = write_cfg(tmp_path, {
        "family": {"Ns": [32], "n_ratio": 4, "model": {"type": "identity"}},
        "z": [-1.0, 0.0],
        "trials": 50,
    })
    assert run(["scaling", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_scaling_noise_dominated_exit5(tmp_path):
    cfg = write_cfg(tmp_path, {
        "family": {"Ns": [4, 8, 16], "n_ratio": 4, "model": TOEPLITZ},
        "z": [-1.0, 0.0],
        "trials": 10,
        "seed": 3,
    })
    assert run(["scaling", "--config", cfg, "--out", str(tmp_path)]) == 5


def test_scaling_success_plumbing(tmp_path, monkeypatch):
    # statistics stubbed so that the file/exit contract is checked without
    # the 3 x 4000 draws of the real measurement (acceptance criterion 4)
    canned = ScalingReport(Ns=[32, 64, 128],
                           values=[1.9e-3 / 32**2, 1.9e-3 / 64**2, 1.9e-3 / 128**2],
                           stderrs=[1e-7, 5e-8, 2.5e-8],
                           slope=-2.0, intercept=np.log(1.9e-3))
    monkeypatch.setattr(cli.sampler, "bias_scaling", lambda *a, **k: canned)
    cfg = write_cfg(tmp_path, {
        "family": {"Ns": [32, 64, 128], "n_ratio": 4, "model": {"type": "identity"}},
        "z": [-1.0, 0.0],
        "trials": 4000,
        "seed": 0,
    })
    out = tmp_path / "sc"
    assert run(["scaling", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "scaling.csv").read_text().strip().splitlines()
    assert rows[0] == "N,bias,stderr"
    assert len(rows) == 4
    payload = json.loads((out / "scaling.json").read_text())
    assert payload["slope"] == -2.0
    assert payload["passed"] is True

    # a conclusive run whose slope misses the threshold exits 4
    shallow = ScalingReport(Ns=[32, 64, 128], values=[1e-3, 7e-4, 5e-4],
                            stderrs=[1e-5, 1e-5, 1e-5], slope=-0.5, intercept=0.0)
    monkeypatch.setattr(cli.sampler, "bias_scaling", lambda *a, **k: shallow)
    assert run(["scaling", "--config", cfg, "--out", str(out)]) == 4


def test_scaling_variance_block(tmp_path):
    cfg = write_cfg(tmp_path, {
        "family": {"Ns": [4, 8, 16], "n_ratio": 4, "model": TOEPLITZ},
        "z": [-1.0, 0.0],
        "trials": 10,
        "seed": 3,
        "variance": {"z": [0.0, 2.0], "trials": 40, "size_index": 2, "double_n": True},
    })
    # bias part exits 5 regardless; variance block syntax must still validate
    assert run(["scaling", "--config", cfg, "--out", str(tmp_path)]) == 5
    cfg = write_cfg(tmp_path, {
        "family": {"Ns": [4, 8, 16], "n_ratio": 4, "model": TOEPLITZ},
        "z": [-1.0, 0.0],
        "trials": 10,
        "variance": {"z": [0.0, 2.0], "bogus": 1},
    })
    assert run(["scaling", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_scaling_identity_resolved_and_worker_independent(tmp_path):
    cfg = write_cfg(tmp_path, {
        "family": {"Ns": [4, 8, 16], "n_ratio": 4, "model": {"type": "identity"}},
        "z": [-1.0, 0.0],
        "trials": 10,
        "seed": 3,
    })
    outs = [tmp_path / "w1", tmp_path / "w3"]
    for out, workers in zip(outs, ("1", "3")):
        assert run(["scaling", "--config", cfg, "--out", str(out),
                    "--workers", workers]) == 0
    for name in ("scaling.csv", "scaling.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    payload = json.loads((outs[0] / "scaling.json").read_text())
    assert all(b >= 3 * s for b, s in zip(payload["bias"], payload["stderr"]))


def test_selftest_command(capsys):
    assert run(["selftest", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "witnesses: 500 ok" in out
    assert "triples: 1000 ok" in out


def test_selftest_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"witnesses": 20, "triples": 30, "hermitian_draws": 10,
                               "size": 6, "seed": 1})
    assert run(["selftest", "--config", cfg]) == 0
    assert "witnesses: 20 ok" in capsys.readouterr().out


SCALING = {"family": {"Ns": [4, 8, 16], "n_ratio": 4, "model": {"type": "identity"}},
           "z": [-1.0, 0.0], "trials": 10}


@pytest.mark.parametrize("command,payload", [
    ("support", {"ensemble": IDENT16, "steps": "many"}),
    ("verify", {"ensemble": IDENT16, "trials": 4, "test_interval": ["a", 1]}),
    ("support", {"ensemble": {**IDENT16, "N": "four"}}),
    ("support", {"ensemble": {**IDENT16, "model": {"type": "exponential", "rho": ["x"]}}}),
    ("scaling", {**SCALING, "variance": {"z": [0.0, 1.0], "trials": 10, "size_index": 3}}),
    # an integer entry is not truncated, and a bool is not a number
    ("support", {"ensemble": IDENT16, "steps": 10.9}),
    ("support", {"ensemble": {**IDENT16, "N": 4.5}}),
    ("verify", {"ensemble": IDENT16, "trials": True}),
    # a config section that is not a JSON object
    ("density", {"ensemble": 5, "grid": {"lo": 0.0, "hi": 3.0, "steps": 10}}),
    ("density", {"ensemble": IDENT16, "grid": 5}),
    ("scaling", {**SCALING, "variance": 5}),
    ("scaling", {**SCALING, "family": 5}),
    # double_n is a JSON boolean, not any truthy value
    ("scaling", {**SCALING, "variance": {"z": [0.0, 1.0], "trials": 10, "double_n": "no"}}),
    # the Picard loop needs a sweep, and a sample spread needs two draws
    ("density", {"ensemble": IDENT16, "grid": {"lo": 0.0, "hi": 3.0, "steps": 10},
                 "max_iter": 0}),
    ("scaling", {**SCALING, "trials": 1}),
    ("scaling", {**SCALING, "variance": {"z": [0.0, 1.0], "trials": 1}}),
    # a file model whose path is missing, a directory or not a string
    ("support", {"ensemble": {**IDENT16, "model": {"type": "file", "path": "missing.bin"}}}),
    ("support", {"ensemble": {**IDENT16, "model": {"type": "file", "path": "."}}}),
    ("support", {"ensemble": {**IDENT16, "model": {"type": "file", "path": 7}}}),
    # a tolerance no update norm can fall below
    ("density", {"ensemble": IDENT16, "grid": {"lo": 0.0, "hi": 3.0, "steps": 3}, "tol": 0}),
    ("density", {"ensemble": IDENT16, "grid": {"lo": 0.0, "hi": 3.0, "steps": 3},
                 "tol": float("nan")}),
    ("support", {"ensemble": IDENT16, "steps": 10, "solver_tol": -1e-6}),
    # an unhashable model type
    ("support", {"ensemble": {**IDENT16, "model": {"type": []}}}),
    # a numeric string is not a number
    ("support", {"ensemble": {**IDENT16, "N": "4"}}),
    ("support", {"ensemble": IDENT16, "steps": "60"}),
    # a grid too large to allocate
    ("density", {"ensemble": IDENT16, "grid": {"lo": 0.0, "hi": 3.0, "steps": 1e18}}),
    ("support", {"ensemble": IDENT16, "steps": 1e18}),
], ids=["steps", "test_interval", "N", "rho", "size_index",
        "steps_fractional", "N_fractional", "trials_bool",
        "ensemble_not_object", "grid_not_object", "variance_not_object",
        "family_not_object", "double_n_string", "max_iter_zero",
        "trials_one", "variance_trials_one",
        "path_missing", "path_directory", "path_not_string",
        "tol_zero", "tol_nan", "solver_tol_negative", "model_type_list",
        "N_string", "steps_string", "grid_steps_huge", "steps_huge"])
def test_bad_config_value_is_config_error(tmp_path, capsys, monkeypatch, command, payload):
    monkeypatch.chdir(tmp_path)  # relative model paths resolve in tmp_path
    cfg = write_cfg(tmp_path, payload)
    assert run([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_integral_float_config_value_accepted(tmp_path):
    cfg = write_cfg(tmp_path, {"ensemble": {**IDENT16, "N": 16.0}, "trials": 4.0})
    assert run(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_workers_below_one_is_usage_error(tmp_path, capsys, workers):
    cfg = write_cfg(tmp_path, {"ensemble": IDENT16, "trials": 4})
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--config", cfg, "--out", str(tmp_path), "--workers", workers])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err
    assert not (tmp_path / "trials.csv").exists()


def test_missing_config_file(tmp_path):
    assert run(["support", "--config", str(tmp_path / "nope.json"),
                "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("command,payload", [
    ("density", {"ensemble": IDENT16, "grid": {"lo": 0.0, "hi": 3.0, "steps": 10}}),
    ("support", {"ensemble": IDENT16}),
    ("verify", {"ensemble": IDENT16, "trials": 4}),
    ("scaling", SCALING),
], ids=["density", "support", "verify", "scaling"])
def test_out_that_is_a_file_fails_before_any_work(tmp_path, capsys, monkeypatch,
                                                   command, payload):
    def never(*args, **kwargs):
        raise AssertionError("computed before --out was checked")

    for module, name in ((cli.spectrum, "density"), (cli.spectrum, "detect_support"),
                         (cli.sampler, "bias_scaling")):
        monkeypatch.setattr(module, name, never)
    cfg = write_cfg(tmp_path, payload)
    out = tmp_path / "taken"
    out.write_text("")
    assert run([command, "--config", cfg, "--out", str(out)]) == 2
    assert "--out" in capsys.readouterr().err


def test_meta_echoes_raw_config(tmp_path):
    payload = {
        "ensemble": IDENT16,
        "grid": {"lo": 0.0, "hi": 3.0, "steps": 10},
        "y": 1,
        "seed": "x",
    }
    cfg = write_cfg(tmp_path, payload)
    assert run(["density", "--config", cfg, "--out", str(tmp_path)]) == 0
    echoed = json.loads((tmp_path / "meta.json").read_text())["config"]
    assert echoed == payload
    assert isinstance(echoed["y"], int)
    assert echoed["seed"] == "x"
