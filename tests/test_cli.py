import json

import numpy as np
import pytest

from reduction_lab import cli, models
from reduction_lab import serialization as ser
from reduction_lab.cli import main
from reduction_lab.models import random_biased_model, random_faithful_model, von_neumann_model
from reduction_lab.quantum import PAULI_X, PAULI_Z, observable_from_hermitian


@pytest.fixture
def z_obs():
    return observable_from_hermitian(PAULI_Z)


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(ser.dumps(payload))
    return str(path)


def write_model(tmp_path, model, name="model.json"):
    return write(tmp_path, name, ser.model_to_json(model))


def test_model_round_trip_byte_identical(z_obs):
    model = random_faithful_model(z_obs, 4, seed=9)
    text = ser.dumps(ser.model_to_json(model))
    reparsed = ser.model_from_json(json.loads(text))
    assert ser.dumps(ser.model_to_json(reparsed)) == text
    assert np.array_equal(reparsed.unitary, model.unitary)


def test_check_model_faithful_exits_zero(tmp_path, z_obs, capsys):
    path = write_model(tmp_path, von_neumann_model(z_obs, 2))
    assert main(["check-model", path]) == 0
    records = json.loads(capsys.readouterr().out)
    assert all(r["pass"] for r in records)
    assert all(r["residual"] <= 1e-9 for r in records)


def test_check_model_biased_exits_one(tmp_path, z_obs, capsys):
    path = write_model(tmp_path, random_biased_model(z_obs, 2, seed=3))
    assert main(["check-model", path]) == 1
    records = json.loads(capsys.readouterr().out)
    failing = [r for r in records if not r["pass"]]
    assert failing and all(r["check"] == "probe_consistency" for r in failing)


def test_check_model_tol_reaches_every_record(tmp_path, z_obs, capsys):
    path = write_model(tmp_path, random_faithful_model(z_obs, 4, seed=2))
    assert main(["check-model", path, "--tol", "1e-3"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert {r["check"].split(".")[0] for r in records} == {
        "probe_consistency", "instrument", "uniqueness", "dual",
    }
    assert all(r["tolerance"] == 1e-3 for r in records)


def test_check_model_runs_probe_consistency_once(tmp_path, z_obs, monkeypatch):
    calls = []
    original = models.probe_consistency

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    # the CLI holds its own binding of the name; count calls through both
    monkeypatch.setattr(models, "probe_consistency", counted)
    monkeypatch.setattr(cli, "probe_consistency", counted)
    path = write_model(tmp_path, random_faithful_model(z_obs, 4, seed=2))
    assert main(["check-model", path, "--out", str(tmp_path / "r.json")]) == 0
    assert len(calls) == 1


def test_check_model_deterministic_output(tmp_path, z_obs):
    path = write_model(tmp_path, random_faithful_model(z_obs, 3, seed=5))
    out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    assert main(["check-model", path, "--seed", "7", "--out", out1]) == 0
    assert main(["check-model", path, "--seed", "7", "--out", out2]) == 0
    assert open(out1).read() == open(out2).read()


def test_check_model_csv(tmp_path, z_obs, capsys):
    path = write_model(tmp_path, von_neumann_model(z_obs, 2))
    assert main(["check-model", path, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "check,outcome,residual,tolerance,pass"


def test_parse_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check-model", str(bad)]) == 2
    assert "line" in capsys.readouterr().err

    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text('{"dim_s": 2}')
    assert main(["check-model", str(incomplete)]) == 2


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2


def test_reduce_command(tmp_path, z_obs, capsys):
    mpath = write_model(tmp_path, von_neumann_model(z_obs, 2))
    s = 1 / np.sqrt(2)
    spath = write(tmp_path, "state.json", {"vector": [[s, 0.0], [s, 0.0]]})
    assert main(["reduce", mpath, "--state", spath, "--outcome", "1.0"]) == 0
    out = json.loads(capsys.readouterr().out)
    reduced = ser.matrix_from_json(out["reduced_state"])
    assert np.allclose(reduced, [[1, 0], [0, 0]], atol=1e-12)

    # conditioning on an impossible outcome is a verification failure
    ground = write(tmp_path, "ground.json", {"vector": [[0.0, 0.0], [1.0, 0.0]]})
    assert main(["reduce", mpath, "--state", ground, "--outcome", "1.0"]) == 1


def test_reduce_negative_outcome_in_exponent_form(tmp_path, z_obs, capsys):
    # "-1e0" and "-6.1e-05" are values, not options
    mpath = write_model(tmp_path, von_neumann_model(z_obs, 2))
    s = 1 / np.sqrt(2)
    spath = write(tmp_path, "state.json", {"vector": [[s, 0.0], [s, 0.0]]})
    assert main(["reduce", mpath, "--state", spath, "--outcome", "-1e0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["outcome"] == -1.0
    reduced = ser.matrix_from_json(out["reduced_state"])
    assert np.allclose(reduced, [[0, 0], [0, 1]], atol=1e-12)
    # outside the spectrum the outcome has probability 0: refused, not a
    # usage error
    assert main(["reduce", mpath, "--state", spath, "--outcome", "-6.1e-05"]) == 1


def test_instrument_command(tmp_path, z_obs, capsys):
    mpath = write_model(tmp_path, von_neumann_model(z_obs, 2))
    assert main(["instrument", mpath]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["outcomes"]) == 2
    for entry in out["outcomes"]:
        assert len(entry["kraus"]) == 1  # projective model: rank-1 components
        k = ser.matrix_from_json(entry["kraus"][0])
        kk = k.conj().T @ k
        assert np.allclose(kk @ kk, kk, atol=1e-9)  # K+K is a projector


def test_joint_command(tmp_path, z_obs, capsys):
    mpath = write_model(tmp_path, von_neumann_model(z_obs, 2))
    opath = write(
        tmp_path, "obs.json",
        ser.observable_to_json(observable_from_hermitian(PAULI_X)),
    )
    s = 1 / np.sqrt(2)
    spath = write(tmp_path, "state.json", {"vector": [[s, 0.0], [s, 0.0]]})
    assert main(["joint", mpath, "--second", opath, "--state", spath]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["table"]) == 4
    for row in out["table"]:
        assert row["probability"] == pytest.approx(0.25, abs=1e-10)


def test_demo_nonunique_command(capsys):
    assert main(["demo-nonunique"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["decompositions"]) == 2
    mixed = ser.matrix_from_json(out["mixed_state"])
    assert np.allclose(mixed, np.eye(2) / 2, atol=1e-12)
    images = {e["eigenvalue"]: ser.matrix_from_json(e["image"]) for e in out["instrument_components"]}
    assert np.allclose(images[1.0], [[0.5, 0], [0, 0]], atol=1e-10)
    assert np.allclose(images[-1.0], [[0, 0], [0, 0.5]], atol=1e-10)


def test_random_model_command(tmp_path, z_obs, capsys):
    opath = write(tmp_path, "obs.json", ser.observable_to_json(z_obs))
    mpath = str(tmp_path / "model.json")
    assert main(["random-model", "--obs", opath, "--dim-a", "4",
                 "--seed", "2", "--out", mpath]) == 0
    assert main(["check-model", mpath, "--out", str(tmp_path / "rep.json")]) == 0

    bpath = str(tmp_path / "biased.json")
    assert main(["random-model", "--obs", opath, "--dim-a", "4",
                 "--seed", "2", "--biased", "--out", bpath]) == 0
    assert main(["check-model", bpath, "--out", str(tmp_path / "repb.json")]) == 1

    # determinism: identical invocation, identical bytes
    mpath2 = str(tmp_path / "model2.json")
    assert main(["random-model", "--obs", opath, "--dim-a", "4",
                 "--seed", "2", "--out", mpath2]) == 0
    assert open(mpath).read() == open(mpath2).read()


def test_tol_env_override(tmp_path, z_obs, monkeypatch):
    from reduction_lab.cli import build_parser

    monkeypatch.setenv("REDUCTION_LAB_TOL", "1e-6")
    args = build_parser().parse_args(["check-model", "x.json"])
    assert args.tol == 1e-6
    # the flag beats the environment
    args = build_parser().parse_args(["check-model", "x.json", "--tol", "1e-3"])
    assert args.tol == 1e-3
