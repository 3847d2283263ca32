"""The collector pause at the JSON boundary: ``load_file`` and
``matrix_to_json`` build their trees with Python's cyclic garbage collector
paused, and hand it back as the caller had it, on success and on every
``ParseError``.  What they build is what ``json.load`` and numpy's
``tolist`` build, bit for bit."""

import gc
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from reduction_lab import serialization as ser
from reduction_lab.cli import main
from reduction_lab.quantum import PAULI_Z, observable_from_hermitian


def _bad_file(tmp_path, case):
    path = tmp_path / f"{case}.json"
    if case == "malformed":
        path.write_text('{"dim_s": 2,')
    elif case == "not utf-8":
        path.write_bytes(b"\xff\xfe{}")
    elif case == "nested too deep":
        path.write_text("[" * 200_000)
    elif case == "long integer":
        path.write_text("[1" + "0" * 5000 + "]")
    return str(path)


def _paused_calls(tmp_path):
    """``(name, call, error)`` for each way through the paused sites: a
    call that returns, and a call that raises ``error``."""
    good = tmp_path / "good.json"
    good.write_text(ser.dumps({"m": ser.matrix_to_json(np.eye(3))}))
    calls = [("load_file", lambda: ser.load_file(str(good)), None),
             ("matrix_to_json", lambda: ser.matrix_to_json(np.eye(3) * 1j), None),
             ("dumps", lambda: ser.dumps({"a": [1.5, None]}), None),
             ("missing path", lambda: ser.load_file(str(tmp_path / "missing.json")), ser.ParseError)]
    for case in ("malformed", "not utf-8", "nested too deep", "long integer"):
        path = _bad_file(tmp_path, case)
        calls.append((case, lambda path=path: ser.load_file(path), ser.ParseError))
    return calls


def _run(call, error):
    if error is None:
        call()
    else:
        with pytest.raises(error):
            call()


def test_the_collector_is_on_after_every_paused_call(tmp_path):
    assert gc.isenabled()
    for name, call, error in _paused_calls(tmp_path):
        _run(call, error)
        assert gc.isenabled(), name


def test_a_caller_that_turned_the_collector_off_finds_it_still_off(tmp_path):
    gc.disable()
    try:
        for name, call, error in _paused_calls(tmp_path):
            _run(call, error)
            assert not gc.isenabled(), name
    finally:
        gc.enable()


def test_no_collection_walks_a_tree_while_it_is_built(tmp_path):
    # 20,000 lists start about 28 collections when nothing pauses the
    # collector; with the pause, at most the one that the first container
    # allocated after it starts, and afterwards the collector runs again
    passes = []

    def count(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    path = tmp_path / "tree.json"
    path.write_text(json.dumps([[float(k), -0.0] for k in range(20_000)]))
    m = np.arange(20_000, dtype=complex).reshape(100, 200)
    gc.callbacks.append(count)
    try:
        ser.load_file(str(path))
        loaded = len(passes)
        ser.matrix_to_json(m)
        built = len(passes) - loaded
        del passes[:]
        keep = [[] for _ in range(10_000)]
        resumed = len(passes)
    finally:
        gc.callbacks.remove(count)
    assert loaded <= 1 and built <= 1, (loaded, built)
    assert resumed > 0 and len(keep) == 10_000


def test_the_decoded_tree_is_json_loads_tree_bit_for_bit(tmp_path):
    rng = np.random.default_rng(3)
    values = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308, 0.1, 1, -2,
              10**30, *rng.standard_normal(200).tolist()]
    tree = {"pairs": [[v, -v] for v in values], "nested": [[[0.5, -0.0]] * 3] * 2,
            "text": "é", "flags": [True, False, None]}
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(tree), encoding="utf-8")
    with open(path, encoding="utf-8") as f:
        reference = json.load(f)
    loaded = ser.load_file(str(path))
    # repr tells apart every float bit pattern but NaN's, -0.0 from 0.0,
    # and 1 from 1.0
    assert repr(loaded) == repr(reference)
    assert loaded["pairs"][0] == [-0.0, 0.0] and str(loaded["pairs"][0][0]) == "-0.0"
    # a matrix is written as numpy's own tolist of its float64 view
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    m[0, 0], m[1, 2] = complex(-0.0, 5e-324), complex(1e308, -0.0)
    assert repr(ser.matrix_to_json(m)) == repr(m.view(np.float64).reshape(5, 5, 2).tolist())


# the SHA-256 of ``random-model`` files written before the collector was
# paused: the pause moves no byte of a model file
RANDOM_MODEL_DIGESTS = [
    (PAULI_Z, 4, 2, False, "64f757aff29ac3042fc119b3d9c3250d8c7ce6ce068a4ed60a22fe9626e78c19"),
    (np.diag([1.0, 0.0, -1.0]), 3, 7, True, "ff17810ee9a4c81fb92e5161fefc7c1278154e38ae040a14e7e3237b4069c321"),
]


@pytest.mark.parametrize("h, dim_a, seed, biased, digest", RANDOM_MODEL_DIGESTS)
def test_random_model_files_hash_as_before_the_pause(tmp_path, h, dim_a, seed, biased, digest):
    obs = observable_from_hermitian(h)
    opath, mpath = tmp_path / "obs.json", tmp_path / "model.json"
    opath.write_text(ser.dumps(ser.observable_to_json(obs)))
    argv = ["random-model", "--obs", str(opath), "--dim-a", str(dim_a), "--seed", str(seed),
            "--out", str(mpath)] + ["--biased"] * biased
    assert main(argv) == 0
    assert hashlib.sha256(Path(mpath).read_bytes()).hexdigest() == digest
