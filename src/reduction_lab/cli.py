"""Command-line interface emitting machine-readable reports.

Exit codes: 0 success, 1 verification failure (a check failed or an outcome
was refused), 2 usage or parse errors.  The verification tolerance comes
from ``--tol``, falling back to the ``REDUCTION_LAB_TOL`` environment
variable, then to 1e-9.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from . import serialization as ser
from .errors import ReductionLabError
from .instrument import CheckRecord, reduce as reduce_state, verify_dual_lemma, verify_theorem1
from .models import (
    dilation_instrument,
    instrument_of,
    probe_consistency,
    random_biased_model,
    random_faithful_model,
)
from .scenarios import joint_distribution, nonuniqueness_exhibit
from .superop import choi, kraus_from_choi

DEFAULT_TOL = 1e-9


def _default_tol() -> float:
    env = os.environ.get("REDUCTION_LAB_TOL")
    return float(env) if env else DEFAULT_TOL


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


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
        # the probe is already checked above: build from the dilation alone
        try:
            ins = dilation_instrument(model)
        except ReductionLabError:
            records.append(CheckRecord("instrument.invariants", None, float("inf"), tol))
            consistent = False
        else:
            records.append(CheckRecord("instrument.invariants", None, 0.0, tol))
            records.extend(verify_theorem1(ins, seed=args.seed, tol=tol).records)
            records.extend(verify_dual_lemma(ins, seed=args.seed, tol=tol).records)
    _emit_records(records, args)
    return 0 if consistent and all(r.passed for r in records) else 1


def _cmd_reduce(args) -> int:
    model = ser.model_from_json(ser.load_file(args.model))
    rho = ser.density_from_json(ser.load_file(args.state))
    ins = instrument_of(model, args.tol)
    reduced = reduce_state(ins, args.outcome, rho)
    _emit(
        ser.dumps(
            {
                "outcome": args.outcome,
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
    jd = joint_distribution(model, second, rho)
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
        p.add_argument("--tol", type=float, default=_default_tol(),
                       help="verification tolerance (env REDUCTION_LAB_TOL)")

    p = sub.add_parser("check-model", help="run all verification checks on a model file")
    p.add_argument("model")
    common(p)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_check_model)

    p = sub.add_parser("reduce", help="conditional post-measurement state")
    p.add_argument("model")
    p.add_argument("--state", required=True)
    p.add_argument("--outcome", type=float, required=True)
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
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--biased", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_random_model)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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
