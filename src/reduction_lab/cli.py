"""Command-line interface emitting machine-readable reports.

Exit codes: 0 success, 1 verification failure (a check failed or an outcome
was refused), 2 usage or parse errors.  The verification tolerance comes
from ``--tol``, falling back to the ``REDUCTION_LAB_TOL`` environment
variable, then to ``matcore.VERIFY_TOL``; it must be a number >= 0.
``check-model``, ``instrument``, ``reduce`` and ``joint`` apply it to probe
consistency and completeness, and ``check-model`` also to the two
verifiers, so every record carries it.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys

import numpy as np

from . import serialization as ser
from .errors import NotAMeasurementOfAError, ReductionLabError
from .instrument import (
    CheckRecord, operation_instrument, reduce as reduce_state, verify_dual_lemma, verify_theorem1,
)
from .matcore import DEGENERACY_TOL, VERIFY_TOL
from .models import (
    instrument_of,
    operation_of,
    probe_consistency,
    random_biased_model,
    random_faithful_model,
)
from .scenarios import joint_distribution, nonuniqueness_exhibit
from .superop import choi, kraus_from_choi


def _tolerance(text: str) -> float:
    """``--tol`` and ``REDUCTION_LAB_TOL``, by ``serialization.as_tolerance``."""
    try:
        return ser.as_tolerance(text)
    except (TypeError, ValueError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _outcome(text: str) -> float:
    """``--outcome``: a finite number.  Neither NaN nor an infinite value
    is an eigenvalue, and the nearest-eigenvalue test must not meet one."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _seed(text: str) -> int:
    """``--seed``: an integer >= 0, refused while the arguments are read,
    before any input file is."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return value


def _emit(text: str, out_path: str | None) -> None:
    """Write a report to ``out_path``, or to stdout when it is None.  A path
    that cannot be written is a usage error: a ``ValueError`` naming it,
    which exits 2."""
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as exc:
        raise ValueError(f"{out_path}: {exc.strerror or exc}") from None


def _emit_records(records, args) -> None:
    records = sorted(records, key=lambda r: (str(r.outcome), r.check))
    if args.format == "csv":
        _emit(ser.records_to_csv(records), args.out)
    else:
        _emit(ser.dumps([ser.record_to_json(r) for r in records]), args.out)


def _cmd_check_model(args) -> int:
    model = ser.model_from_json(ser.load_file(args.model))
    tol = args.tol
    records = []
    consistent = True
    if model.probe is not None:
        report = probe_consistency(model, tol)
        for a, resid in report.residuals.items():
            records.append(CheckRecord("probe_consistency", a, resid, tol))
        consistent = report.passed
    if consistent:
        # the probe is already checked above: build from the operation alone
        ins = operation_instrument(operation_of(model), model.observable)
        try:
            residual = ins.validate(tol)
        except NotAMeasurementOfAError as exc:
            print(f"error: {exc}", file=sys.stderr)
            records.append(
                CheckRecord("instrument.invariants", exc.outcome, exc.residual, tol)
            )
            consistent = False
        else:
            records.append(CheckRecord("instrument.invariants", None, residual, tol))
            records.extend(verify_theorem1(ins, seed=args.seed, tol=tol).records)
            records.extend(verify_dual_lemma(ins, seed=args.seed, tol=tol).records)
    _emit_records(records, args)
    return 0 if consistent and all(r.passed for r in records) else 1


def _resolve_outcome(eigenvalues, requested: float) -> float:
    """The eigenvalue nearest to ``requested``, accepted within
    ``DEGENERACY_TOL`` relative to ``max(1, |requested|)``: a value copied
    from a report or typed in decimal need not equal the eigenvalue's
    float.  Farther away the outcome is outside the spectrum, where its
    map is zero, and it is refused."""
    nearest = min(eigenvalues, key=lambda a: abs(a - requested))
    if not abs(nearest - requested) <= DEGENERACY_TOL * max(1.0, abs(requested)):
        raise ReductionLabError(
            f"outcome {requested!r} is not an eigenvalue of the observable "
            f"(nearest eigenvalue {nearest!r}); it has probability 0"
        )
    return nearest


def _cmd_reduce(args) -> int:
    model = ser.model_from_json(ser.load_file(args.model))
    rho = ser.density_from_json(ser.load_file(args.state))
    ins = instrument_of(model, args.tol)
    outcome = _resolve_outcome(ins.observable.eigenvalues, args.outcome)
    reduced = reduce_state(ins, outcome, rho)
    _emit(
        ser.dumps(
            {
                "outcome": outcome,
                "reduced_state": ser.matrix_to_json(reduced.matrix),
            }
        ),
        args.out,
    )
    return 0


def _cmd_instrument(args) -> int:
    model = ser.model_from_json(ser.load_file(args.model))
    ins = instrument_of(model, args.tol)
    payload = {
        "dim": ins.dim,
        "outcomes": [
            {
                "eigenvalue": a,
                "kraus": [
                    ser.matrix_to_json(k)
                    for k in kraus_from_choi(choi(ins.component(a)))
                ],
            }
            for a in ins.observable.eigenvalues
        ],
    }
    _emit(ser.dumps(payload), args.out)
    return 0


def _cmd_joint(args) -> int:
    model = ser.model_from_json(ser.load_file(args.model))
    second = ser.observable_from_json(ser.load_file(args.second))
    rho = ser.density_from_json(ser.load_file(args.state))
    jd = joint_distribution(model, second, rho, args.tol)
    payload = {
        "first_eigenvalues": list(jd.first_observable.eigenvalues),
        "second_eigenvalues": list(jd.second_observable.eigenvalues),
        "table": [
            {"first": a, "second": x, "probability": p}
            for (a, x), p in sorted(jd.table.items())
        ],
    }
    _emit(ser.dumps(payload), args.out)
    return 0


def _cmd_demo_nonunique(args) -> int:
    ex = nonuniqueness_exhibit(args.dim)
    payload = {
        "mixed_state": ser.matrix_to_json(ex.mixed_state.matrix),
        "decompositions": [
            {
                "weights": list(weights),
                "states": [[ser.complex_to_json(z) for z in s.vector] for s in states],
            }
            for weights, states in ex.decompositions
        ],
        "instrument_components": [
            {"eigenvalue": a, "image": ser.matrix_to_json(m)}
            for a, m in sorted(ex.component_images.items(), reverse=True)
        ],
    }
    _emit(ser.dumps(payload), args.out)
    return 0


def _cmd_random_model(args) -> int:
    obs = ser.observable_from_json(ser.load_file(args.obs))
    if args.biased:
        model = random_biased_model(obs, args.dim_a, args.seed)
    else:
        model = random_faithful_model(obs, args.dim_a, args.seed)
    _emit(ser.dumps(ser.model_to_json(model)), args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """Reads a negative number in exponent form, such as ``-6.1e-05``, as a
    value.  argparse's own pattern (Python 3.10 to 3.13.0) matches only
    ``-6`` and ``-6.1`` and takes any other token starting with ``-`` for an
    option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="reduction-lab",
        description="Measurement-model workbench: instruments, state "
        "reduction, and verification reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write output to this path instead of stdout")
        # argparse passes a string default through ``type`` too, so a bad
        # environment value exits 2 like a bad flag
        p.add_argument("--tol", type=_tolerance,
                       default=os.environ.get("REDUCTION_LAB_TOL") or VERIFY_TOL,
                       help="verification tolerance (env REDUCTION_LAB_TOL)")

    p = sub.add_parser("check-model", help="run all verification checks on a model file")
    p.add_argument("model")
    common(p)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=_cmd_check_model)

    p = sub.add_parser("reduce", help="conditional post-measurement state")
    p.add_argument("model")
    p.add_argument("--state", required=True)
    p.add_argument("--outcome", type=_outcome, required=True,
                   help="eigenvalue to condition on; the nearest eigenvalue "
                   f"within a relative {DEGENERACY_TOL:g} is used")
    common(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("instrument", help="Kraus decomposition of each outcome map")
    p.add_argument("model")
    common(p)
    p.set_defaults(func=_cmd_instrument)

    p = sub.add_parser("joint", help="joint distribution with a second measurement")
    p.add_argument("model")
    p.add_argument("--second", required=True)
    p.add_argument("--state", required=True)
    common(p)
    p.set_defaults(func=_cmd_joint)

    p = sub.add_parser("demo-nonunique", help="mixture non-uniqueness exhibit")
    p.add_argument("--dim", type=int, default=2)
    common(p)
    p.set_defaults(func=_cmd_demo_nonunique)

    p = sub.add_parser("random-model", help="generate a random measurement model file")
    p.add_argument("--obs", required=True)
    p.add_argument("--dim-a", type=int, required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--biased", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_random_model)

    return parser


@functools.lru_cache(maxsize=4)
def _cached_parser(env_tol: str | None) -> argparse.ArgumentParser:
    """One parser per value of ``REDUCTION_LAB_TOL``, which ``build_parser``
    reads for the ``--tol`` default; parsing leaves the parser unchanged, so
    every call with the same environment can share it."""
    return build_parser()


def main(argv=None) -> int:
    args = _cached_parser(os.environ.get("REDUCTION_LAB_TOL")).parse_args(argv)
    # an input near float's range overflows on its way to the checks, which
    # are fail-closed and refuse it: the numpy warning would only precede,
    # or under ``-W error`` replace, the error line
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except ser.ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReductionLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
