import json
import re
from pathlib import Path

import numpy as np
import pytest

from reduction_lab import cli, matcore, models, superop
from reduction_lab import serialization as ser
from reduction_lab.cli import main
from reduction_lab.instrument import Instrument, verify_dual_lemma, verify_theorem1
from reduction_lab.models import (
    MeasurementModel,
    haar_unitary,
    instrument_of,
    probe_consistency,
    probe_instrument_of,
    random_biased_model,
    random_faithful_model,
    von_neumann_model,
)
from reduction_lab.quantum import (
    PAULI_X, PAULI_Z, PureState, maximally_mixed, observable_from_hermitian,
)
from reduction_lab.superop import Superoperator

from conftest import route_gap_exhibit, small_probability_case


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


def test_each_job_runs_once_per_command(tmp_path, monkeypatch):
    # a (4,8) faithful model with sigma of rank 2: 16 Kraus operators, so
    # every map reads its rep.  Each command builds the operation T by
    # ``from_kraus`` and its four components once, validates once and takes
    # each unit image once; below d = 12 a component is the map of its
    # square stack, built with no ``from_kraus``, so it reads its square rep;
    # joint also builds a map of each probe-route stack for its cross-check
    obs = observable_from_hermitian(np.diag([1.0, 2.0, 3.0, 4.0]))
    mpath = write_model(tmp_path, random_faithful_model(obs, 8, seed=4, sigma_rank=2))
    spath = write(tmp_path, "state.json", ser.density_to_json(maximally_mixed(4)))
    second = observable_from_hermitian(np.kron(PAULI_X, np.eye(2)))
    xpath = write(tmp_path, "x.json", ser.observable_to_json(second))
    # each job is counted through every binding the library calls it by
    counts = dict.fromkeys(
        ["_kraus", "_probe_route", "from_kraus", "_rep_of", "unit_image", "validate"], 0
    )

    def counted(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for module, name in [(models, "_kraus"), (models, "_probe_route"),
                         (superop, "_rep_of"), (superop, "unit_image")]:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    from_kraus = counted("from_kraus", Superoperator.from_kraus)
    monkeypatch.setattr(Superoperator, "from_kraus", classmethod(lambda cls, ks: from_kraus(ks)))
    monkeypatch.setattr(Instrument, "validate", counted("validate", Instrument.validate))
    once = {"_kraus": 1, "_probe_route": 1, "validate": 1, "unit_image": 5}
    out = str(tmp_path / "out.json")
    for argv, maps in [
        (["check-model", mpath], 5),
        (["instrument", mpath], 5),
        (["reduce", mpath, "--state", spath, "--outcome", "2"], 5),
        (["joint", mpath, "--second", xpath, "--state", spath], 9),
    ]:
        counts.update(dict.fromkeys(counts, 0))
        assert main(argv + ["--out", out]) == 0, argv[0]
        assert counts == {**once, "from_kraus": maps - 4, "_rep_of": maps}, argv[0]
    # the benchmark ladder's two-route check of an (8,16) model with sigma
    # of rank 2 writes one rep per distinct map: T, its eight components
    # and the eight probe-route components
    u = haar_unitary(8, np.random.default_rng(3))
    obs = observable_from_hermitian((u * np.arange(8.0)) @ u.conj().T)
    model = random_faithful_model(obs, 16, seed=3, sigma_rank=2)
    counts["_rep_of"] = 0
    assert probe_consistency(model).passed
    ins, probe = instrument_of(model), probe_instrument_of(model)
    for a in obs.eigenvalues:
        assert matcore.max_abs(ins.component(a).rep - probe.component(a).rep) <= 1e-9
    assert verify_theorem1(ins).passed and verify_dual_lemma(ins).passed
    assert counts["_rep_of"] == 17


def test_check_model_deterministic_output(tmp_path, z_obs):
    path = write_model(tmp_path, random_faithful_model(z_obs, 3, seed=5))
    out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    assert main(["check-model", path, "--seed", "7", "--out", out1]) == 0
    assert main(["check-model", path, "--seed", "7", "--out", out2]) == 0
    assert Path(out1).read_text() == Path(out2).read_text()


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

    # ||A||^2 overflows, so a bound that scales with ||A|| is infinite
    j = ser.model_to_json(von_neumann_model(observable_from_hermitian(PAULI_Z), 2))
    j["observable"] = {"hermitian": [[[0.5, 0], [1e200, 0]], [[-1e200, 0], [0.5, 0]]]}
    huge_skew = write(tmp_path, "huge_skew.json", j)
    capsys.readouterr()
    with np.errstate(over="ignore"):
        assert main(["check-model", huge_skew]) == 2
    assert "not Hermitian" in capsys.readouterr().err


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2
    # NaN and inf are no eigenvalues; "--outcome=-inf" is a value, not an option
    for outcome in ("nan", "inf", "-inf"):
        with pytest.raises(SystemExit) as err:
            main(["reduce", "m.json", "--state", "s.json", f"--outcome={outcome}"])
        assert err.value.code == 2, outcome


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


def test_joint_exits_one_where_the_probe_route_disagrees(tmp_path, capsys):
    # the route-gap exhibit at q = 1e-10 passes check-model, but its probe
    # route is off the table by 5e-6 on |+> and X
    mpath = write_model(tmp_path, route_gap_exhibit(1e-10))
    opath = write(
        tmp_path, "obs.json",
        ser.observable_to_json(observable_from_hermitian(PAULI_X)),
    )
    s = 1 / np.sqrt(2)
    spath = write(tmp_path, "state.json", {"vector": [[s, 0.0], [s, 0.0]]})
    assert main(["check-model", mpath]) == 0
    capsys.readouterr()
    assert main(["joint", mpath, "--second", opath, "--state", spath]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(
        r"error: joint table entry \(-1.0, -1.0\) is 2.500000000e-01 by T_a but "
        r"2.50005\d*e-01 by the probe route, 5.000e-06 apart\n",
        captured.err,
    )
    # at a tolerance above the gap every cell reads 0.25
    assert main(["joint", mpath, "--second", opath, "--state", spath, "--tol", "1e-4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["table"]) == 4
    assert all(abs(row["probability"] - 0.25) <= 1e-15 for row in out["table"])


def test_a_failed_probe_check_names_probe_consistency(tmp_path, z_obs, capsys):
    # the biased probe swaps the projectors of the two outcomes, so each F_a
    # is off E_a by 1: the line names the probe's identity, not the
    # outcome-trace condition that validation checks
    mpath = write_model(tmp_path, random_biased_model(z_obs, 4, 1))
    s = 1 / np.sqrt(2)
    spath = write(tmp_path, "state.json", {"vector": [[s, 0.0], [s, 0.0]]})
    assert main(["reduce", mpath, "--state", spath, "--outcome", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: probe consistency violated at outcome -1.0 (residual 1.000e+00): "
        "probe statistics do not reproduce the Born rule\n"
    )


def test_reduce_and_joint_name_both_dimensions_of_a_mismatch(tmp_path, z_obs, capsys):
    mpath = write_model(tmp_path, random_faithful_model(z_obs, 4, seed=1))
    state2 = write(tmp_path, "state2.json", {"vector": [[1.0, 0.0], [0.0, 0.0]]})
    state3 = write(tmp_path, "state3.json", {"vector": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]})
    second3 = write(
        tmp_path, "obs3.json",
        ser.observable_to_json(observable_from_hermitian(np.diag([1.0, 0.0, -1.0]))),
    )
    for argv, message in (
        (["reduce", mpath, "--state", state3, "--outcome", "1"],
         "dimension mismatch: state dim 3, instrument dim 2"),
        (["joint", mpath, "--second", second3, "--state", state2],
         "dimension mismatch: second observable dim 3, model dim_s 2"),
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


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
    assert Path(mpath).read_text() == Path(mpath2).read_text()


def test_tol_env_override(tmp_path, z_obs, monkeypatch):
    from reduction_lab.cli import build_parser

    monkeypatch.setenv("REDUCTION_LAB_TOL", "1e-6")
    args = build_parser().parse_args(["check-model", "x.json"])
    assert args.tol == 1e-6
    # the flag beats the environment
    args = build_parser().parse_args(["check-model", "x.json", "--tol", "1e-3"])
    assert args.tol == 1e-3


@pytest.mark.parametrize("matrix, message", [
    ([[None, [0, 0]], [[0, 0], [0, 0]]], "m[0][0]: complex entries must be [re, im] pairs"),
    ([[[1, 0], [0, 0, 0]], [[0, 0], [1, 0]]], "m[0][1]: complex entries must be [re, im] pairs"),
    ([[[1, 0], [0, 0]], [[0, 0]]], "m: row 1 does not make a square matrix"),
    ([[[1, 0], [0, 0]]], "m: row 0 does not make a square matrix"),
    ([[1, 0], [0, 1]], "m[0][0]: complex entries must be [re, im] pairs"),
    ([[{"re": 1, "im": 0}]], "m[0][0]: complex entries must be [re, im] pairs"),
    ([[["a", 0]]], "m[0][0]: non-numeric entry ['a', 0]"),
    ([], "m: expected a non-empty nested array"),
    # the literals NaN, Infinity and -Infinity, which Python's json reads;
    # the first non-finite entry in row-major order is named
    (json.loads("[[[1, 0], [NaN, 0.0]], [[0, 0], [1, 0]]]"), "m[0][1]: non-finite entry [nan, 0.0]"),
    (json.loads("[[[1, 0], [0, 0]], [[0, Infinity], [1, NaN]]]"), "m[1][0]: non-finite entry [0, inf]"),
    (json.loads("[[[-Infinity, 0]]]"), "m[0][0]: non-finite entry [-inf, 0]"),
    # the entry-by-entry scan, which a string sends them to, names them
    # alike, and a number past float's range
    (json.loads('[[[1, 0], [0, NaN]], [[0, 0], ["1", 0]]]'), "m[0][1]: non-finite entry [0, nan]"),
    # a string or a boolean is not read as a number
    pytest.param([[["inf", 0]]], "m[0][0]: non-numeric entry ['inf', 0]", id="string_inf"),
    # echoed as its first 16 digits and its digit count, not all 401
    pytest.param([[[10**400, 0]]], "m[0][0]: non-finite entry [1000000000000000...(401 digits), 0]",
                 id="int_past_float"),
    pytest.param([[["1", 0]]], "m[0][0]: non-numeric entry ['1', 0]", id="string_one"),
    pytest.param([[[True, False]]], "m[0][0]: non-numeric entry [True, False]", id="booleans"),
    # past Python's int_max_str_digits the digits are counted, not printed
    pytest.param([[[-(10**5000), 0]]],
                 "m[0][0]: non-finite entry [-1000000000000000...(5001 digits), 0]",
                 id="int_past_str_digits"),
])
def test_matrix_from_json_malformed_messages(matrix, message):
    with pytest.raises(ser.ParseError) as err:
        ser.matrix_from_json(matrix, "m")
    assert str(err.value) == message


def test_vector_from_json_names_a_non_finite_entry():
    for text, message in (
        ("[[1, 0], [0, NaN]]", "v[1]: non-finite entry [0, nan]"),
        ('[[1, 0], [-Infinity, 0], ["1", 0]]', "v[1]: non-finite entry [-inf, 0]"),
    ):
        with pytest.raises(ser.ParseError) as err:
            ser._vector_from_json(json.loads(text), "v")
        assert str(err.value) == message


def test_model_parse_error_names_the_field(z_obs):
    j = ser.model_to_json(von_neumann_model(z_obs, 2))
    j["unitary"][0][1] = [0.0, None]
    with pytest.raises(ser.ParseError) as err:
        ser.model_from_json(j)
    assert str(err.value) == "model.unitary[0][1]: non-numeric entry [0.0, None]"


def test_string_and_bool_entries_are_refused():
    # a string or a boolean is not read as a number, as for an eigenvalue
    with pytest.raises(ser.ParseError) as err:
        ser.matrix_from_json([[["1.5", "-2"], [1, 0]], [[0, 0], [1, 0]]])
    assert str(err.value) == "matrix[0][0]: non-numeric entry ['1.5', '-2']"
    with pytest.raises(ser.ParseError) as err:
        ser._vector_from_json([[False, True]])
    assert str(err.value) == "vector[0]: non-numeric entry [False, True]"


def test_round_trip_bit_exact_extremes():
    m = np.array([[-0.0 + 5e-324j, 1e308 - 0.0j], [-5e-324 - 1e308j, 0.1 + 0.2j]])
    text = ser.dumps({"m": ser.matrix_to_json(m), "v": ser.matrix_to_json(m)[1]})
    back = json.loads(text)
    assert ser.matrix_from_json(back["m"]).tobytes() == m.tobytes()
    assert ser._vector_from_json(back["v"]).tobytes() == m[1].tobytes()
    # a non-contiguous or real input writes the same numbers
    assert ser.matrix_to_json(m.T) == [[[-0.0, 5e-324], [-5e-324, -1e308]],
                                       [[1e308, -0.0], [0.1, 0.2]]]
    assert ser.matrix_to_json(np.eye(2)) == [[[1.0, 0.0], [0.0, 0.0]],
                                             [[0.0, 0.0], [1.0, 0.0]]]


def test_dumps_one_top_level_item_per_line(z_obs):
    j = ser.model_to_json(random_faithful_model(z_obs, 4, seed=9))
    text = ser.dumps(j)
    lines = text.splitlines()
    assert lines[0] == "{" and lines[-1] == "}" and len(lines) == len(j) + 2
    assert json.loads(text) == j
    assert ser.dumps([1, {"a": None}]) == '[\n1,\n{"a": null}\n]\n'
    assert ser.dumps({1: [], 2.5: {}}) == '{\n"1": [],\n"2.5": {}\n}\n'
    assert ser.dumps([]) == "[]\n" and ser.dumps({}) == "{}\n"
    assert ser.dumps(0.5) == "0.5\n"


def test_main_builds_parser_once(tmp_path, z_obs, monkeypatch):
    built = []
    original = cli.build_parser

    def counted():
        built.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", counted)
    monkeypatch.delenv("REDUCTION_LAB_TOL", raising=False)
    cli._cached_parser.cache_clear()
    path = write_model(tmp_path, random_faithful_model(z_obs, 4, seed=2))
    out = str(tmp_path / "r.json")
    for _ in range(3):
        assert main(["check-model", path, "--out", out]) == 0
    assert len(built) == 1
    # a changed environment gets its own parser, with its own --tol default
    monkeypatch.setenv("REDUCTION_LAB_TOL", "1e-3")
    assert main(["check-model", path, "--out", out]) == 0
    assert main(["check-model", path, "--out", out]) == 0
    assert len(built) == 2
    assert {r["tolerance"] for r in json.loads(Path(out).read_text())} == {1e-3}
    assert main(["check-model", path, "--out", out, "--tol", "1e-4"]) == 0
    assert {r["tolerance"] for r in json.loads(Path(out).read_text())} == {1e-4}
    cli._cached_parser.cache_clear()


def _strict_loads(text):
    def refuse(name):
        raise ValueError(f"not JSON: {name}")

    return json.loads(text, parse_constant=refuse)


def test_failed_extraction_is_recorded_as_strict_json(tmp_path, z_obs, capsys):
    # no probe, and a Haar-random U that does not measure the observable
    model = MeasurementModel(
        2, 2, z_obs, maximally_mixed(2), haar_unitary(4, np.random.default_rng(4))
    )
    path = write_model(tmp_path, model)
    assert main(["check-model", path]) == 1
    captured = capsys.readouterr()
    (record,) = _strict_loads(captured.out)
    assert record["check"] == "instrument.invariants" and not record["pass"]
    # the dilation components do not sum to U's operation: no single outcome
    assert record["outcome"] is None
    assert 1e-9 < record["residual"] < 10
    assert captured.err.startswith("error: completeness violated (residual ")
    assert "components do not sum to the total operation" in captured.err


@pytest.mark.parametrize("tol, builds", [("1e-9", False), ("0.3", False), ("1", True)])
def test_check_model_exit_code_matches_records(tmp_path, z_obs, capsys, tol, builds):
    # no probe, and a Haar-random U whose dilation components miss its
    # operation by about 0.5: only a looser --tol lets the instrument build,
    # and then the verifiers fail
    model = MeasurementModel(
        2, 2, z_obs, maximally_mixed(2), haar_unitary(4, np.random.default_rng(4))
    )
    path = write_model(tmp_path, model)
    code = main(["check-model", path, "--tol", tol])
    records = _strict_loads(capsys.readouterr().out)
    assert (code == 0) == all(r["pass"] for r in records)
    assert all(r["tolerance"] == float(tol) for r in records)
    assert any(r["check"].startswith("uniqueness.") for r in records) == builds


def test_instrument_invariants_records_the_completeness_residual(tmp_path, z_obs, capsys):
    # the probeless Haar-random model of the test above: at --tol 1 the
    # instrument builds, and its record carries the residual validate
    # measured, not a hard 0
    model = MeasurementModel(
        2, 2, z_obs, maximally_mixed(2), haar_unitary(4, np.random.default_rng(4))
    )
    ins = models.instrument_of(model, 1.0)
    expected = matcore.max_abs(
        sum(t.rep for t in ins.components.values()) - ins.total.rep
    )
    faithful = random_faithful_model(z_obs, 4, seed=2)
    for path, tol, residual in (
        (write_model(tmp_path, model), "1", expected),
        (write_model(tmp_path, faithful, "f.json"), "1e-9", None),
    ):
        main(["check-model", path, "--tol", tol])
        records = _strict_loads(capsys.readouterr().out)
        (record,) = [r for r in records if r["check"] == "instrument.invariants"]
        assert record["pass"]
        if residual is None:
            assert record["residual"] <= 1e-12
        else:
            assert record["residual"] == residual
            assert 0.4 < record["residual"] < 0.6


def test_every_command_honours_tol(tmp_path, z_obs, capsys):
    # a biased probe misses the Born rule by 1: --tol 10 accepts it
    mpath = write_model(tmp_path, random_biased_model(z_obs, 4, seed=3))
    spath = write(tmp_path, "state.json", {"vector": [[0.6, 0.0], [0.0, 0.8]]})
    xpath = write(tmp_path, "x.json",
                  ser.observable_to_json(observable_from_hermitian(PAULI_X)))
    for argv in (
        ["instrument", mpath],
        ["reduce", mpath, "--state", spath, "--outcome", "1"],
        ["joint", mpath, "--second", xpath, "--state", spath],
    ):
        assert main(argv) == 1, argv
        assert main(argv + ["--tol", "10"]) == 0, argv
    capsys.readouterr()


def test_every_report_is_strict_json(tmp_path, z_obs, capsys):
    opath = write(tmp_path, "obs.json", ser.observable_to_json(z_obs))
    spath = write(tmp_path, "state.json", {"vector": [[0.6, 0.0], [0.0, 0.8]]})
    xpath = write(tmp_path, "x.json",
                  ser.observable_to_json(observable_from_hermitian(PAULI_X)))
    faithful = write_model(tmp_path, random_faithful_model(z_obs, 4, seed=2), "f.json")
    biased = write_model(tmp_path, random_biased_model(z_obs, 2, seed=3), "b.json")
    calls = [
        (["check-model", faithful], 0),
        (["check-model", biased], 1),
        (["instrument", faithful], 0),
        (["reduce", faithful, "--state", spath, "--outcome", "1"], 0),
        (["joint", faithful, "--second", xpath, "--state", spath], 0),
        (["demo-nonunique"], 0),
        (["random-model", "--obs", opath, "--dim-a", "2", "--seed", "1"], 0),
    ]
    for argv, code in calls:
        assert main(argv) == code, argv
        _strict_loads(capsys.readouterr().out)


def test_reduce_resolves_outcome_to_nearest_eigenvalue(tmp_path, capsys):
    obs = observable_from_hermitian(np.diag([0.1 + 0.2, -1.0]))
    assert 0.30000000000000004 in obs.eigenvalues
    mpath = write_model(tmp_path, von_neumann_model(obs, 2))
    s = 1 / np.sqrt(2)
    spath = write(tmp_path, "state.json", {"vector": [[s, 0.0], [s, 0.0]]})
    assert main(["reduce", mpath, "--state", spath, "--outcome", "0.3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["outcome"] == 0.30000000000000004
    assert np.allclose(ser.matrix_from_json(out["reduced_state"]), [[1, 0], [0, 0]],
                       atol=1e-12)
    # outside the tolerance the outcome is refused, naming the nearest eigenvalue
    assert main(["reduce", mpath, "--state", spath, "--outcome", "0.31"]) == 1
    err = capsys.readouterr().err
    assert "0.31" in err and "nearest eigenvalue 0.30000000000000004" in err


@pytest.mark.parametrize(
    "obs, field",
    [
        ({"eigenvalues": 1.0, "projectors": [[[[1, 0]]]]}, "eigenvalues"),
        ({"eigenvalues": [1.0], "projectors": {"p": 0}}, "projectors"),
        ({"hermitian": ser.matrix_to_json(PAULI_Z), "degeneracy_tol": [1e-9]},
         "degeneracy_tol"),
        # either would split the degenerate level into two outcomes
        ({"hermitian": ser.matrix_to_json(np.diag([1, 1 + 1e-12])), "degeneracy_tol": "nan"},
         "degeneracy_tol"),
        ({"hermitian": ser.matrix_to_json(np.diag([1, 1 + 1e-12])), "degeneracy_tol": -1},
         "degeneracy_tol"),
        ({"hermitian": ser.matrix_to_json(PAULI_Z), "degeneracy_tol": 10**400},
         "degeneracy_tol"),
        # true would load as 1.0 and merge the outcomes 1.0 and 1.5 into 1.25
        ({"hermitian": ser.matrix_to_json(np.diag([1, 1.5])), "degeneracy_tol": True},
         "degeneracy_tol"),
        # both forms: Z's spectral family beside X must not load as either
        (dict(ser.observable_to_json(observable_from_hermitian(PAULI_Z)),
              hermitian=ser.matrix_to_json(PAULI_X)), "eigenvalues"),
    ],
    ids=["eigenvalues", "projectors", "degeneracy_tol", "degeneracy_tol_nan",
         "degeneracy_tol_negative", "degeneracy_tol_past_float", "degeneracy_tol_true",
         "both_forms"],
)
def test_malformed_observable_file_exits_two(tmp_path, z_obs, capsys, obs, field):
    opath = write(tmp_path, "obs.json", obs)
    mpath = write_model(tmp_path, von_neumann_model(z_obs, 2))
    spath = write(tmp_path, "state.json", {"vector": [[1.0, 0.0], [0.0, 0.0]]})
    for argv in (
        ["joint", mpath, "--second", opath, "--state", spath],
        ["random-model", "--obs", opath, "--dim-a", "2", "--seed", "1"],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: observable.{field}: ")
        assert "Traceback" not in err


def test_observable_file_with_a_nan_eigenvalue_exits_two(tmp_path, z_obs, capsys):
    mpath = write_model(tmp_path, von_neumann_model(z_obs, 2))
    spath = write(tmp_path, "state.json", {"vector": [[1.0, 0.0], [0.0, 0.0]]})
    opath = tmp_path / "obs.json"
    # the JSON literal NaN, which Python's json module reads as a float
    opath.write_text('{"eigenvalues": [NaN, -1.0], "projectors": '
                     '[[[[1, 0], [0, 0]], [[0, 0], [0, 0]]], '
                     '[[[0, 0], [0, 0]], [[0, 0], [1, 0]]]]}')
    for argv in (
        ["joint", mpath, "--second", str(opath), "--state", spath],
        ["random-model", "--obs", str(opath), "--dim-a", "2", "--seed", "1"],
    ):
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: observable.eigenvalues[0]: non-finite entry nan\n"


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_literal_in_an_input_file_exits_two_naming_its_entry(
    tmp_path, z_obs, capsys, literal
):
    value = float(literal.replace("Infinity", "inf"))
    for field in ("unitary", "apparatus_state"):
        j = ser.model_to_json(von_neumann_model(z_obs, 2))
        j[field][0][1] = [value, 0.0]
        path = write(tmp_path, "model.json", j)
        assert f"[{literal}, 0.0]" in Path(path).read_text()
        assert main(["check-model", path]) == 2
        assert capsys.readouterr().err == (
            f"error: model.{field}[0][1]: non-finite entry [{value!r}, 0.0]\n"
        )
    spath = write(tmp_path, "state.json", {"vector": [[1.0, 0.0], [value, 0.0]]})
    for argv in _state_commands(tmp_path, spath):
        assert main(argv) == 2, argv[0]
        assert capsys.readouterr().err == (
            f"error: state.vector[1]: non-finite entry [{value!r}, 0.0]\n"
        ), argv[0]


def _assert_one_error_line(err):
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_huge_input_exits_two_without_a_warning(tmp_path, capsys):
    # no np.errstate here: the suite turns a leaked numpy warning into a failure
    j = ser.model_to_json(von_neumann_model(observable_from_hermitian(PAULI_Z), 2))
    j["observable"] = {"hermitian": [[[0.5, 0], [1e200, 0]], [[-1e200, 0], [0.5, 0]]]}
    path = write(tmp_path, "huge_skew.json", j)
    assert main(["check-model", path]) == 2
    err = capsys.readouterr().err
    _assert_one_error_line(err)
    assert "not Hermitian" in err


def test_huge_probe_projector_exits_two_without_a_warning(tmp_path, z_obs, capsys):
    j = ser.model_to_json(von_neumann_model(z_obs, 2))
    j["probe"]["projectors"][0][0][1] = [1e200, 0.0]
    path = write(tmp_path, "huge_probe.json", j)
    assert main(["check-model", path]) == 2
    err = capsys.readouterr().err
    _assert_one_error_line(err)
    assert err.startswith("error: model.probe: ")


@pytest.mark.parametrize("value", ["nan", "-1", "abc"])
@pytest.mark.parametrize("source", ["flag", "env"])
def test_bad_tol_exits_two(capsys, monkeypatch, value, source):
    # NaN passes no comparison, so a NaN bound would switch a check off
    # wherever the check is written as ``resid > tol``
    if source == "env":
        monkeypatch.setenv("REDUCTION_LAB_TOL", value)
        flag = []
    else:
        monkeypatch.delenv("REDUCTION_LAB_TOL", raising=False)
        flag = ["--tol", value]
    for argv in (
        ["check-model", "m.json"],
        ["instrument", "m.json"],
        ["reduce", "m.json", "--state", "s.json", "--outcome", "1"],
        ["joint", "m.json", "--second", "x.json", "--state", "s.json"],
    ):
        with pytest.raises(SystemExit) as err:
            main(argv + flag)
        assert err.value.code == 2, argv
        captured = capsys.readouterr()
        assert "error: argument --tol:" in captured.err
        assert "Traceback" not in captured.err


def test_commands_that_check_nothing_take_no_tol(tmp_path, z_obs, capsys, monkeypatch):
    # demo-nonunique and random-model verify nothing: a malformed
    # environment tolerance leaves them unchanged, and --tol is no option
    opath = write(tmp_path, "obs.json", ser.observable_to_json(z_obs))
    monkeypatch.delenv("REDUCTION_LAB_TOL", raising=False)
    for argv in (
        ["demo-nonunique"],
        ["random-model", "--obs", opath, "--dim-a", "2", "--seed", "1"],
    ):
        assert main(argv) == 0
        want = capsys.readouterr().out
        with monkeypatch.context() as m:
            m.setenv("REDUCTION_LAB_TOL", "abc")
            assert main(argv) == 0
        assert capsys.readouterr().out == want
        with pytest.raises(SystemExit) as err:
            main(argv + ["--tol", "1e-6"])
        assert err.value.code == 2, argv
        assert "unrecognized arguments: --tol 1e-6" in capsys.readouterr().err


def test_negative_seed_exits_two_naming_the_flag(tmp_path, z_obs, capsys):
    # refused while the arguments are read, before any file is: neither
    # path below exists
    for argv, value in (
        (["check-model", "missing.json", "--seed", "-1"], "-1"),
        (["random-model", "--obs", "missing.json", "--dim-a", "2", "--seed", "-3"], "-3"),
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2, argv[0]
        captured = capsys.readouterr()
        assert captured.err.endswith(
            f"error: argument --seed: must be an integer >= 0, got '{value}'\n"
        ), argv[0]
    opath = write(tmp_path, "obs.json", ser.observable_to_json(z_obs))
    assert main(["random-model", "--obs", opath, "--dim-a", "2", "--seed", "0"]) == 0
    assert main(["check-model", write_model(tmp_path, von_neumann_model(z_obs, 2)),
                 "--seed", "0"]) == 0


@pytest.mark.parametrize("key", ["dim_s", "dim_a"])
@pytest.mark.parametrize("value", [2.7, 2.0, "2", True, None, 0, -2, [2]])
def test_model_dimension_must_be_a_json_integer(tmp_path, z_obs, capsys, key, value):
    # int() would read 2.7, 2.0 and "2" as 2, and True as 1
    j = ser.model_to_json(von_neumann_model(z_obs, 2))
    j[key] = value
    path = write(tmp_path, "model.json", j)
    assert main(["check-model", path]) == 2
    assert capsys.readouterr().err == (
        f"error: model.{key}: expected an integer >= 1, got {value!r}\n"
    )


def _hermitian_observable_json(*diagonal):
    return ser.observable_to_json(observable_from_hermitian(np.diag(diagonal)))


@pytest.mark.parametrize("field, value, message", [
    ("dim_a", 3, "unitary dim 4 != dim_s * dim_a = 6"),
    ("unitary", "doubled", "interaction matrix is not unitary"),
    ("observable", _hermitian_observable_json(1.0, 0.0, -1.0), "observable dimension != dim_s"),
    ("apparatus_state", ser.matrix_to_json(np.eye(3) / 3), "apparatus state dimension != dim_a"),
    ("probe", _hermitian_observable_json(1.0, 0.0, -1.0), "probe dimension != dim_a"),
    ("probe", _hermitian_observable_json(2.0, -1.0),
     "probe eigenvalue set differs from the measured observable's"),
])
def test_check_model_refuses_an_inconsistent_model(tmp_path, z_obs, capsys, field, value, message):
    model = von_neumann_model(z_obs, 2)
    j = ser.model_to_json(model)
    j[field] = ser.matrix_to_json(2 * model.unitary) if value == "doubled" else value
    path = write(tmp_path, "model.json", j)
    assert main(["check-model", path]) == 2
    assert capsys.readouterr().err == f"error: model: {message}\n"


def _state_commands(tmp_path, spath):
    model = random_faithful_model(observable_from_hermitian(PAULI_Z), 3, seed=4)
    mpath = write_model(tmp_path, model)
    opath = write(tmp_path, "obs.json", ser.observable_to_json(observable_from_hermitian(PAULI_X)))
    return [
        ["reduce", mpath, "--state", spath, "--outcome", "-1"],
        ["joint", mpath, "--second", opath, "--state", spath],
    ]


def test_density_state_file_gives_the_vector_file_report(tmp_path, capsys):
    psi = PureState(np.array([0.6, 0.8j]))
    vpath = write(tmp_path, "vector.json", {"vector": [ser.complex_to_json(z) for z in psi.vector]})
    rho = psi.to_density()
    dpath = write(tmp_path, "density.json", ser.density_to_json(rho))
    assert np.array_equal(ser.density_from_json(ser.load_file(dpath)).matrix, rho.matrix)
    for by_vector, by_density in zip(_state_commands(tmp_path, vpath), _state_commands(tmp_path, dpath)):
        assert main(by_vector) == 0
        want = capsys.readouterr().out
        assert main(by_density) == 0
        assert capsys.readouterr().out == want, by_vector[0]


@pytest.mark.parametrize("state, message", [
    ([[1.0, 0.0], [0.0, 0.0]], "state: expected an object"),
    ({"rho": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]},
     "state: needs either 'density' or 'vector'"),
    ({"density": ser.matrix_to_json(np.eye(2))}, "state: density operator trace (2+0j) != 1"),
    ({"density": ser.matrix_to_json(np.diag([1.5, -0.5]))},
     "state: density operator not PSD (min eigenvalue -5.000e-01)"),
    ({"vector": [[1.0, 0.0], [0.0, 0.0]], "density": ser.matrix_to_json(np.diag([0.0, 1.0]))},
     "state: holds both 'vector' and 'density'; give one"),
])
def test_malformed_state_file_exits_two(tmp_path, capsys, state, message):
    spath = write(tmp_path, "state.json", state)
    for argv in _state_commands(tmp_path, spath):
        assert main(argv) == 2, argv[0]
        assert capsys.readouterr().err == f"error: {message}\n", argv[0]


@pytest.mark.parametrize("value", ["1", True, None, [1.0]])
def test_observable_eigenvalue_must_be_a_json_number(tmp_path, z_obs, capsys, value):
    obs = ser.observable_to_json(observable_from_hermitian(PAULI_Z))
    obs["eigenvalues"][1] = value
    opath = write(tmp_path, "obs.json", obs)
    mpath = write_model(tmp_path, von_neumann_model(z_obs, 2))
    spath = write(tmp_path, "state.json", {"vector": [[1.0, 0.0], [0.0, 0.0]]})
    for argv in (
        ["joint", mpath, "--second", opath, "--state", spath],
        ["random-model", "--obs", opath, "--dim-a", "2", "--seed", "1"],
    ):
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: observable.eigenvalues[1]: expected a number, got {value!r}\n"
        )


def test_observable_eigenvalue_past_float_exits_two(tmp_path, z_obs, capsys):
    # an integer past float's range, a float literal that json reads as an
    # infinity, and NaN are refused by their index, as in the matrices; the
    # integer is echoed as its sign, first 16 digits and digit count
    mpath = write_model(tmp_path, von_neumann_model(z_obs, 2))
    spath = write(tmp_path, "state.json", {"vector": [[1.0, 0.0], [0.0, 0.0]]})
    obs = ser.observable_to_json(z_obs)
    obs["eigenvalues"][0] = "EIGENVALUE"
    opath = tmp_path / "obs.json"
    for literal, shown in [
        (str(10**400), "1000000000000000...(401 digits)"),
        (str(-7 * 10**400), "-7000000000000000...(401 digits)"),
        ("1e400", "inf"), ("-1e400", "-inf"), ("NaN", "nan"),
    ]:
        opath.write_text(json.dumps(obs).replace('"EIGENVALUE"', literal))
        for argv in (
            ["random-model", "--obs", str(opath), "--dim-a", "2", "--seed", "1"],
            ["joint", mpath, "--second", str(opath), "--state", spath],
        ):
            assert main(argv) == 2, (literal, argv[0])
            assert capsys.readouterr().err == (
                f"error: observable.eigenvalues[0]: non-finite entry {shown}\n"
            ), (literal, argv[0])


def test_unresolved_conditional_state_exits_one(tmp_path, capsys):
    # p = 1e-9: the conditional state is not PSD to roundoff, a numerical
    # failure (exit 1), not a usage error (exit 2)
    model, a, psi = small_probability_case(1e-9)
    mpath = write_model(tmp_path, model)
    spath = write(tmp_path, "state.json", {"vector": [ser.complex_to_json(z) for z in psi.vector]})
    opath = write(tmp_path, "obs.json", ser.observable_to_json(model.observable))
    for argv in (
        ["reduce", mpath, "--state", spath, "--outcome", repr(a)],
        ["joint", mpath, "--second", opath, "--state", spath],
    ):
        assert main(argv) == 1, argv[0]
        err = capsys.readouterr().err
        assert err.startswith(
            "error: outcome 0.0 has probability 1.000e-09, too small to resolve "
            "its conditional state: T_a(rho)/p has min eigenvalue -"
        ), argv[0]


def test_out_path_that_cannot_be_written_exits_two(tmp_path, z_obs, capsys):
    # every command computes its report, then fails to open --out inside a
    # missing directory: a usage error naming the path, with no traceback
    opath = write(tmp_path, "obs.json", ser.observable_to_json(z_obs))
    mpath = write_model(tmp_path, random_faithful_model(z_obs, 4, seed=2))
    spath = write(tmp_path, "state.json", {"vector": [[0.6, 0.0], [0.0, 0.8]]})
    xpath = write(tmp_path, "x.json", ser.observable_to_json(observable_from_hermitian(PAULI_X)))
    out = tmp_path / "missing" / "report.json"
    for argv in (
        ["check-model", mpath],
        ["check-model", mpath, "--format", "csv"],
        ["instrument", mpath],
        ["reduce", mpath, "--state", spath, "--outcome", "1"],
        ["joint", mpath, "--second", xpath, "--state", spath],
        ["demo-nonunique"],
        ["random-model", "--obs", opath, "--dim-a", "2", "--seed", "1"],
    ):
        assert main(argv + ["--out", str(out)]) == 2, argv[0]
        captured = capsys.readouterr()
        assert captured.err == f"error: {out}: No such file or directory\n", argv[0]
        assert captured.out == ""
    assert not out.parent.exists()


@pytest.mark.parametrize("which", ["model", "state", "second"])
def test_input_file_that_is_not_utf8_exits_two_naming_it(tmp_path, z_obs, capsys, which):
    paths = {
        "model": write_model(tmp_path, von_neumann_model(z_obs, 2)),
        "state": write(tmp_path, "state.json", {"vector": [[1.0, 0.0], [0.0, 0.0]]}),
        "second": write(tmp_path, "x.json", ser.observable_to_json(observable_from_hermitian(PAULI_X))),
    }
    Path(paths[which]).write_bytes(b"\xff\xfe{}")
    with pytest.raises(ser.ParseError, match="^" + re.escape(f"{paths[which]}: not UTF-8 text: ")):
        ser.load_file(paths[which])
    argv = ["joint", paths["model"], "--second", paths["second"], "--state", paths["state"]]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {paths[which]}: not UTF-8 text: "), err
    assert "byte 0xff in position 0" in err


@pytest.mark.parametrize("case", ["long integer", "deep nesting"])
def test_input_json_that_python_cannot_hold_exits_two_naming_the_file(tmp_path, z_obs, capsys, case):
    # an integer past Python's 4,300-digit conversion limit, or arrays
    # nested past the recursion limit
    mpath = write_model(tmp_path, von_neumann_model(z_obs, 2))
    bad = tmp_path / "bad.json"
    if case == "long integer":
        bad.write_text('{"vector": [[1' + "0" * 5000 + ', 0], [0, 0]]}')
        argv, why = ["reduce", mpath, "--state", str(bad), "--outcome", "1"], "Exceeds the limit"
    else:
        bad.write_text("[" * 200_000)
        argv, why = ["check-model", str(bad)], "nested too deeply"
    with pytest.raises(ser.ParseError, match="^" + re.escape(f"{bad}: ")):
        ser.load_file(str(bad))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {bad}: ") and why in captured.err, captured.err
    assert captured.out == ""
