"""JSON file formats for models, observables, states, and reports.

Complex numbers are two-element ``[re, im]`` arrays; matrices are row-major
nested arrays of those.  Python's shortest round-trip float formatting makes
serialization bit-exact for doubles (``-0.0`` included), so parse ->
serialize is a fixed point.

Matrices and vectors cross the JSON boundary as whole arrays: a complex
array is written as its float64 view, and a well-formed nested list is read
with one ``np.array`` call and viewed back as complex128.  Input that is not
a nested list of finite ``[re, im]`` number pairs of the right shape falls
back to an entry-by-entry scan, whose ``ParseError`` names the offending
field, so the first entry that is not a number (a string, a boolean or
null) or not finite (the literals ``NaN`` and ``Infinity``, which Python's
``json`` reads, or a number past float's range) is refused by its index on
the scan's one path.  An error line echoes an integer of 17 or more digits
as its first 16 and its digit count.

``dumps`` writes a top-level object or array one item per line, each item
in the compact form of the C JSON encoder; a model file is a few lines of
long text, not one line per number.

Python's cyclic garbage collector is paused while ``load_file`` decodes a
file and while ``matrix_to_json`` builds a matrix's nested lists.  Such a
tree holds no reference cycle, but on CPython 3.11 a collection starts
every 700 container allocations, and a unitary file decodes into one list
per complex entry (about 4.2 million at (32,64)), so the collector's passes
walk the growing tree again and again and find nothing: about half of
``load_file`` at (24,48).  ``dumps`` is not paused: its C encoder
allocates almost no containers, and no pass starts inside it on a (24,48)
model.  The pause ends with its call, by return or by an exception, and
leaves the collector as the caller had it: on again only if it was on.
CPython 3.12 starts collections from the eval loop instead (gh-97922), so
the saving there may be smaller; the pause is harmless either way.
"""

from __future__ import annotations

import cmath
import contextlib
import gc
import json
import math

import numpy as np

from .instrument import CheckRecord
from .matcore import DEGENERACY_TOL
from .models import MeasurementModel
from .quantum import (
    DensityOperator,
    DiscreteObservable,
    PureState,
    observable_from_hermitian,
)


class ParseError(ValueError):
    """Malformed input file; message carries the offending field."""


def as_tolerance(value) -> float:
    """A tolerance from a flag, the environment or a file: a number >= 0,
    which NaN is not.  Raises ``TypeError`` for a value that is not a
    float, such as a boolean or an integer too large for one, and
    ``ValueError`` for any other number."""
    if isinstance(value, bool):
        raise TypeError(f"not a number: {value!r}")
    try:
        tol = float(value)
    except (TypeError, ValueError, OverflowError):
        raise TypeError(f"not a number: {value!r}") from None
    if not tol >= 0:
        raise ValueError(f"must be a number >= 0, got {value!r}")
    return tol


def complex_to_json(z: complex) -> list:
    return [float(np.real(z)), float(np.imag(z))]


@contextlib.contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector while a JSON tree is built, which
    holds no cycle; on exit, by return or by an exception, turn it back on
    only if it was on at entry."""
    was_on = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_on:
            gc.enable()


def matrix_to_json(m: np.ndarray) -> list:
    a = np.ascontiguousarray(m, dtype=complex)
    with _collector_paused():
        return a.view(np.float64).reshape(a.shape + (2,)).tolist()


def _shown(value) -> str:
    """``repr(value)`` for an error line, but an integer of 17 or more
    digits, which past float's range can run to thousands, as its sign,
    its first 16 digits and its digit count: ``10**400`` shows as
    ``1000000000000000...(401 digits)``.  The digits are counted from the
    bit length, so no integer is converted to a string whole, and one past
    Python's int_max_str_digits is echoed too."""
    if type(value) is not int or abs(value) < 10**16:
        return repr(value)
    v = abs(value)
    # floor(log10 v) from the bit length is right or off by one either way
    k = int((v.bit_length() - 1) * math.log10(2))
    k += (v >= 10 ** (k + 1)) - (v < 10**k)
    return f"{'-' * (value < 0)}{v // 10 ** (k - 15)}...({k + 1} digits)"


def _shown_pair(e) -> str:
    return f"[{_shown(e[0])}, {_shown(e[1])}]"


def _entry_from_json(e, where: str) -> complex:
    if not isinstance(e, (list, tuple)) or len(e) != 2:
        raise ParseError(f"{where}: complex entries must be [re, im] pairs")
    # a string, a boolean or null is refused, not converted
    if not all(type(x) in (int, float) for x in e):
        raise ParseError(f"{where}: non-numeric entry {_shown_pair(e)}")
    try:
        z = complex(float(e[0]), float(e[1]))
    except OverflowError:  # an integer past float's range
        raise ParseError(f"{where}: non-finite entry {_shown_pair(e)}") from None
    if not cmath.isfinite(z):
        raise ParseError(f"{where}: non-finite entry {_shown_pair(e)}")
    return z


def _complex_array(j, ndim: int) -> np.ndarray | None:
    """``j`` as a complex128 array when it is a nested list of finite
    ``[re, im]`` number pairs with ``ndim`` complex axes; else None."""
    try:
        a = np.array(j)
    except (ValueError, TypeError, OverflowError):
        return None
    if a.ndim != ndim + 1 or a.shape[-1] != 2 or a.dtype.kind not in "fiu":
        return None
    # the view keeps the exact bits of every float, -0.0 included
    z = np.ascontiguousarray(a, dtype=np.float64).view(complex)[..., 0]
    return z if np.isfinite(z).all() else None


def matrix_from_json(j, where: str = "matrix") -> np.ndarray:
    if not isinstance(j, list) or not j:
        raise ParseError(f"{where}: expected a non-empty nested array")
    if all(type(row) is list for row in j):
        m = _complex_array(j, 2)
        if m is not None and m.shape[0] == m.shape[1]:
            return m
    rows = []
    for i, row in enumerate(j):
        if not isinstance(row, list) or len(row) != len(j):
            raise ParseError(f"{where}: row {i} does not make a square matrix")
        rows.append([_entry_from_json(e, f"{where}[{i}][{k}]") for k, e in enumerate(row)])
    return np.array(rows, dtype=complex)


def _vector_from_json(j, where: str = "vector") -> np.ndarray:
    if not isinstance(j, list) or not j:
        raise ParseError(f"{where}: expected a non-empty array")
    v = _complex_array(j, 1)
    if v is not None:
        return v
    return np.array([_entry_from_json(e, f"{where}[{k}]") for k, e in enumerate(j)])


def observable_to_json(obs: DiscreteObservable) -> dict:
    return {
        "eigenvalues": [a for a, _ in obs.outcomes],
        "projectors": [matrix_to_json(p) for _, p in obs.outcomes],
    }


def observable_from_json(j, where: str = "observable") -> DiscreteObservable:
    if not isinstance(j, dict):
        raise ParseError(f"{where}: expected an object")
    if "hermitian" in j:
        for key in ("eigenvalues", "projectors"):
            if key in j:
                raise ParseError(f"{where}.{key}: given beside 'hermitian'; give one form")
        h = matrix_from_json(j["hermitian"], f"{where}.hermitian")
        try:
            tol = as_tolerance(j.get("degeneracy_tol", DEGENERACY_TOL))
        except TypeError as exc:
            raise ParseError(f"{where}.degeneracy_tol: expected a number") from exc
        except ValueError as exc:
            raise ParseError(f"{where}.degeneracy_tol: {exc}") from exc
        return observable_from_hermitian(h, tol)
    if "eigenvalues" not in j or "projectors" not in j:
        raise ParseError(
            f"{where}: needs either 'hermitian' or 'eigenvalues' + 'projectors'"
        )
    eigvals = j["eigenvalues"]
    projs = j["projectors"]
    for key, value in (("eigenvalues", eigvals), ("projectors", projs)):
        if not isinstance(value, list):
            raise ParseError(f"{where}.{key}: expected an array")
    if len(eigvals) != len(projs):
        raise ParseError(f"{where}: eigenvalue and projector counts differ")
    for k, a in enumerate(eigvals):
        # a string, a boolean or null is refused, not converted
        if type(a) not in (int, float):
            raise ParseError(f"{where}.eigenvalues[{k}]: expected a number, got {a!r}")
        try:
            finite = math.isfinite(a)
        except OverflowError:  # an integer past float's range
            finite = False
        if not finite:
            raise ParseError(f"{where}.eigenvalues[{k}]: non-finite entry {_shown(a)}")
    try:
        return DiscreteObservable(
            tuple(
                (float(a), matrix_from_json(p, f"{where}.projectors[{k}]"))
                for k, (a, p) in enumerate(zip(eigvals, projs))
            )
        )
    except ParseError:
        raise
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: {exc}") from exc


def density_to_json(rho: DensityOperator) -> dict:
    return {"density": matrix_to_json(rho.matrix)}


def density_from_json(j, where: str = "state") -> DensityOperator:
    if not isinstance(j, dict):
        raise ParseError(f"{where}: expected an object")
    if "vector" in j and "density" in j:
        raise ParseError(f"{where}: holds both 'vector' and 'density'; give one")
    try:
        if "vector" in j:
            return PureState(_vector_from_json(j["vector"], f"{where}.vector")).to_density()
        if "density" in j:
            return DensityOperator(matrix_from_json(j["density"], f"{where}.density"))
    except ParseError:
        raise
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from exc
    raise ParseError(f"{where}: needs either 'density' or 'vector'")


def model_to_json(model: MeasurementModel) -> dict:
    out = {
        "dim_s": model.dim_s,
        "dim_a": model.dim_a,
        "observable": observable_to_json(model.observable),
        "apparatus_state": matrix_to_json(model.apparatus_state.matrix),
        "unitary": matrix_to_json(model.unitary),
    }
    if model.probe is not None:
        out["probe"] = observable_to_json(model.probe)
    return out


def _dimension_from_json(j, key: str) -> int:
    """``j[key]`` when it is a JSON integer >= 1; a float, a string or a
    boolean is refused, not rounded or converted."""
    value = j[key]
    if type(value) is not int or value < 1:
        raise ParseError(f"model.{key}: expected an integer >= 1, got {value!r}")
    return value


def model_from_json(j) -> MeasurementModel:
    if not isinstance(j, dict):
        raise ParseError("model: expected an object")
    for key in ("dim_s", "dim_a", "observable", "apparatus_state", "unitary"):
        if key not in j:
            raise ParseError(f"model: missing field '{key}'")
    dim_s = _dimension_from_json(j, "dim_s")
    dim_a = _dimension_from_json(j, "dim_a")
    try:
        return MeasurementModel(
            dim_s=dim_s,
            dim_a=dim_a,
            observable=observable_from_json(j["observable"], "model.observable"),
            apparatus_state=DensityOperator(
                matrix_from_json(j["apparatus_state"], "model.apparatus_state")
            ),
            unitary=matrix_from_json(j["unitary"], "model.unitary"),
            probe=(
                observable_from_json(j["probe"], "model.probe")
                if j.get("probe") is not None
                else None
            ),
        )
    except ParseError:
        raise
    except (TypeError, ValueError) as exc:
        raise ParseError(f"model: {exc}") from exc


def record_to_json(r: CheckRecord) -> dict:
    return {
        "check": r.check,
        "outcome": r.outcome,
        "residual": r.residual,
        "tolerance": r.tolerance,
        "pass": r.passed,
    }


def records_to_csv(records) -> str:
    lines = ["check,outcome,residual,tolerance,pass"]
    for r in records:
        outcome = "" if r.outcome is None else repr(r.outcome)
        lines.append(
            f"{r.check},{outcome},{r.residual!r},{r.tolerance!r},{r.passed}"
        )
    return "\n".join(lines) + "\n"


def dumps(obj) -> str:
    """``obj`` as JSON text.  A non-empty top-level object or array gets one
    item per line; every item is encoded compactly by the C encoder."""
    if isinstance(obj, dict) and obj:
        # a one-key object converts the key exactly as json.dumps(obj) does
        items = [json.dumps({k: v})[1:-1] for k, v in obj.items()]
        brackets = "{}"
    elif isinstance(obj, list) and obj:
        items = [json.dumps(v) for v in obj]
        brackets = "[]"
    else:
        return json.dumps(obj) + "\n"
    return brackets[0] + "\n" + ",\n".join(items) + "\n" + brackets[1] + "\n"


def load_file(path: str):
    try:
        with open(path, encoding="utf-8") as f, _collector_paused():
            return json.load(f)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}")
    except ValueError as exc:
        # a number json cannot convert, such as an integer of more digits
        # than Python's int_max_str_digits
        raise ParseError(f"{path}: {exc}")
    except RecursionError:
        raise ParseError(f"{path}: JSON nested too deeply to read")
    except OSError as exc:
        raise ParseError(f"{path}: {exc}")
