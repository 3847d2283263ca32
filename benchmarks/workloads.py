"""The four benchmark workloads: seeded inputs, one op, and its check.

Each workload draws every model, state and observable from its seed with
the library's public generators (``random_faithful_model``,
``random_biased_model``, ``observable_from_hermitian``, ``haar_unitary``)
and hashes what it generated into ``digest``, so two runs can be shown to
use identical inputs.  The structure of a pass (sizes, op counts, command
mix) is fixed; the seed only changes the random numbers, so different
seeds cost the same.

``run(op)`` is the timed part.  ``check(op, result)`` decides whether the
op was correct; it runs untimed, and library calls it makes for reference
values run under ``self.untraced`` so they never show in a trace.  With
``corrupt`` set, every reference is shifted by ``CORRUPTION`` so each op
must fail; the self-check uses this to prove the gate can fail.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

import reduction_lab as rl
from reduction_lab import cli
from reduction_lab import serialization as ser
from reduction_lab.models import haar_unitary

# The benchmark's own acceptance thresholds; deliberately not the library's
# tolerance constants, which later changes may rename or remove.
RESIDUAL_TOL = 1e-9
REPORT_TOL = 1e-12
CORRUPTION = 1e-6

TIERS = ("small", "mid", "large")


@dataclass
class Op:
    tier: str | None  # size tier the op's latency counts towards
    label: str  # detail metric the op's latency counts towards
    args: dict = field(default_factory=dict)


def _max_abs(m) -> float:
    return float(np.max(np.abs(m))) if np.size(m) else 0.0


def _observable(rng, dim: int, ranks: tuple):
    """Observable with ``len(ranks)`` outcomes of the given multiplicities,
    diagonal in a Haar-random basis."""
    levels = np.arange(len(ranks)) + rng.uniform(-0.25, 0.25, len(ranks))
    v = haar_unitary(dim, rng)
    return rl.observable_from_hermitian((v * np.repeat(levels, ranks)) @ v.conj().T)


def _pure_state(rng, dim: int):
    return rl.PureState(haar_unitary(dim, rng)[:, 0]).to_density()


def _mixed_state(rng, dim: int, rank: int):
    vs = haar_unitary(dim, rng)[:, :rank]
    w = rng.random(rank) + 0.1
    return rl.DensityOperator((vs * (w / w.sum())) @ vs.conj().T)


def _seed(rng) -> int:
    return int(rng.integers(2**31))


def _interleave(groups: list) -> list:
    """Round-robin over lists of ops, so sizes alternate within a pass."""
    out = []
    for i in range(max(len(g) for g in groups)):
        out.extend(g[i] for g in groups if i < len(g))
    return out


class Workload:
    name = ""
    # pairs of untraced and traced passes in a traced run; short passes
    # are repeated so the overhead ratio is not one noisy sample
    trace_passes = 1

    def __init__(self, seed: int, workdir: str, tiny: bool = False,
                 corrupt: bool = False, untraced=contextlib.nullcontext):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.tiny = tiny
        self.offset = CORRUPTION if corrupt else 0.0
        self.untraced = untraced
        self._hash = hashlib.sha256()
        self.ops = []
        self.build()

    @property
    def digest(self) -> str:
        return self._hash.hexdigest()[:16]

    def _record(self, *items) -> None:
        for item in items:
            if isinstance(item, str):
                self._hash.update(item.encode())
            else:
                self._hash.update(np.ascontiguousarray(item).tobytes())

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def _write(self, name: str, text: str) -> str:
        path = self._path(name)
        with open(path, "w") as f:
            f.write(text)
        self._record(name, text)
        return path

    def build(self) -> None:
        raise NotImplementedError

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, result) -> bool:
        raise NotImplementedError

    def detail(self, samples: list) -> dict:
        """Per-size and per-command figures for the detail line, from
        ``(op, seconds, result)`` samples."""
        by_label = {}
        for op, seconds, _ in samples:
            by_label.setdefault(op.label, []).append(seconds)
        return {label: float(np.median(v)) for label, v in sorted(by_label.items())}


# ---------------------------------------------------------------------------
# ladder: the full two-route check of one model, from its JSON file


class Ladder(Workload):
    """ROADMAP size ladder up to (8,16).  Map construction dominates at
    (8,16); verifier overhead dominates at (2,4)."""

    name = "ladder"
    # (d_s, d_a), distinct models, ops per pass, tier.  The op counts put
    # the median and the 90th percentile inside a tier, away from its tail
    # and from the boundary to the next tier.
    RUNGS = (
        ((2, 4), 8, 72, "small"),
        ((4, 8), 4, 12, "mid"),
        ((8, 16), 4, 4, "large"),
    )
    TINY = (
        ((2, 4), 2, 4, "small"),
        ((3, 6), 1, 2, "mid"),
        ((4, 8), 1, 1, "large"),
    )

    def build(self) -> None:
        groups = []
        for (ds, da), n_models, n_ops, tier in self.TINY if self.tiny else self.RUNGS:
            paths = []
            for k in range(n_models):
                obs = _observable(self.rng, ds, (1,) * ds)
                model = rl.random_faithful_model(obs, da, _seed(self.rng), 1 + k % 2)
                text = ser.dumps(ser.model_to_json(model))
                paths.append(self._write(f"ladder-{ds}x{da}-{k}.json", text))
            groups.append([
                Op(tier, f"check_s.{ds}x{da}", {
                    "path": paths[i % n_models],
                    "out": self._path(f"report-{ds}x{da}-{i % n_models}.json"),
                })
                for i in range(n_ops)
            ])
        self.ops = _interleave(groups)

    def run(self, op: Op):
        model = ser.model_from_json(ser.load_file(op.args["path"]))
        consistency = rl.probe_consistency(model)
        ins = rl.instrument_of(model)
        probe = rl.probe_instrument_of(model)
        cross = max(
            _max_abs(ins.component(a).rep - (probe.component(a).rep + self.offset))
            for a in model.observable.eigenvalues
        )
        records = rl.verify_theorem1(ins).records + rl.verify_dual_lemma(ins).records
        report = {
            "dim_s": model.dim_s,
            "dim_a": model.dim_a,
            "probe_consistency": [
                {"outcome": a, "residual": r} for a, r in consistency.residuals.items()
            ],
            "cross_route_residual": cross,
            "records": [ser.record_to_json(r) for r in records],
        }
        with open(op.args["out"], "w") as f:
            f.write(ser.dumps(report))
        return consistency.passed, cross, all(r.passed for r in records)

    def check(self, op: Op, result) -> bool:
        consistent, cross, verified = result
        return consistent and cross <= RESIDUAL_TOL and verified


# ---------------------------------------------------------------------------
# wide_object: the operation-only route on large, degenerate objects


class WideObject(Workload):
    """Large d_s, d_a = 2, two outcomes with d_s/2-fold eigenspaces: the
    O(d^6) Choi/PSD checks, the spanning-set scan and Kraus extraction cost
    about as much as map construction."""

    name = "wide_object"
    # as in Ladder: p50 falls mid-way into the mid tier, p90 into the large
    SIZES = (
        ((12, 2), 3, 3, "small"),
        ((16, 2), 5, 5, "mid"),
        ((20, 2), 2, 2, "large"),
    )
    TINY = (
        ((4, 2), 1, 2, "small"),
        ((6, 2), 1, 1, "mid"),
        ((8, 2), 1, 1, "large"),
    )

    def build(self) -> None:
        groups = []
        for (ds, da), n_models, n_ops, tier in self.TINY if self.tiny else self.SIZES:
            models = []
            for _ in range(n_models):
                obs = _observable(self.rng, ds, (ds // 2, ds - ds // 2))
                model = rl.random_faithful_model(obs, da, _seed(self.rng))
                self._record(model.unitary, model.apparatus_state.matrix,
                             *(p for _, p in obs.outcomes))
                models.append(model)
            groups.append([
                Op(tier, f"check_s.{ds}x{da}", {"model": models[i % n_models]})
                for i in range(n_ops)
            ])
        self.ops = _interleave(groups)

    def run(self, op: Op):
        model = op.args["model"]
        total = rl.operation_of(model)
        ins = rl.instrument_from_operation(total, model.observable)
        dilation = rl.instrument_of(model)
        routes = kraus = 0.0
        for a in model.observable.eigenvalues:
            comp = ins.component(a).rep
            routes = max(routes, _max_abs(comp - (dilation.component(a).rep + self.offset)))
            ks = rl.kraus_from_choi(rl.choi(ins.component(a)))
            kraus = max(kraus, _max_abs(rl.Superoperator.from_kraus(ks).rep - comp))
        verified = rl.verify_theorem1(ins).passed and rl.verify_dual_lemma(ins).passed
        return routes, kraus, verified

    def check(self, op: Op, result) -> bool:
        routes, kraus, verified = result
        return routes <= RESIDUAL_TOL and kraus <= RESIDUAL_TOL and verified


# ---------------------------------------------------------------------------
# cli_small: in-process CLI calls over a corpus of small model files


class CliSmall(Workload):
    """Per-call costs: argument handling, JSON I/O, state validation, the
    verifiers' Python loops and the instrument rebuilt by every command."""

    name = "cli_small"
    trace_passes = 4
    # d_s, d_a, outcome multiplicities, apparatus-state rank, biased probe.
    # A rank of None leaves it to the generator.  One model in eight is a
    # biased negative control that every command must refuse with exit 1.
    MODELS = (
        (2, 2, (1, 1), 1, False), (2, 4, (1, 1), 2, False),
        (2, 3, (1, 1), 1, False), (2, 6, (1, 1), 3, False),
        (2, 8, (1, 1), 1, False), (2, 5, (1, 1), 2, False),
        (2, 8, (1, 1), 4, False), (2, 4, (1, 1), None, True),
        (3, 3, (1, 1, 1), 1, False), (3, 6, (1, 1, 1), 2, False),
        (3, 2, (2, 1), 1, False), (3, 4, (2, 1), 2, False),
        (3, 7, (2, 1), 3, False), (3, 5, (1, 1, 1), 1, False),
        (3, 8, (2, 1), 4, False), (3, 6, (1, 1, 1), None, True),
        (4, 4, (1, 1, 1, 1), 1, False), (4, 8, (1, 1, 1, 1), 2, False),
        (4, 2, (2, 2), 1, False), (4, 4, (2, 2), 2, False),
        (4, 6, (3, 1), 3, False), (4, 8, (2, 2), 4, False),
        (4, 5, (1, 1, 1, 1), 1, False), (4, 8, (2, 2), None, True),
    )
    TINY_MODELS = (
        (2, 2, (1, 1), 1, False), (2, 4, (1, 1), None, True),
        (3, 2, (2, 1), 1, False), (4, 4, (2, 2), 2, False),
    )
    COMMANDS = ("check-model", "instrument", "reduce", "joint")
    TIER = {2: "small", 3: "mid", 4: "large"}

    def build(self) -> None:
        self.inputs = []
        self.references = {}
        for k, (ds, da, ranks, sigma_rank, biased) in enumerate(
            self.TINY_MODELS if self.tiny else self.MODELS
        ):
            obs = _observable(self.rng, ds, ranks)
            if biased:
                model = rl.random_biased_model(obs, da, _seed(self.rng))
            else:
                model = rl.random_faithful_model(obs, da, _seed(self.rng), sigma_rank)
            rho = _pure_state(self.rng, ds) if k % 2 == 0 else _mixed_state(self.rng, ds, 2)
            second = _observable(self.rng, ds, (1,) * ds)
            # the outcome a user would copy from the `instrument` report:
            # its JSON text, for the state's most likely outcome
            best = max(obs.eigenvalues, key=lambda a: rl.born_probability(obs, a, rho))
            outcome = json.dumps(best)
            paths = {
                "model": self._write(f"model-{k}.json", ser.dumps(ser.model_to_json(model))),
                "state": self._write(f"state-{k}.json", ser.dumps(ser.density_to_json(rho))),
                "second": self._write(f"second-{k}.json", ser.dumps(ser.observable_to_json(second))),
            }
            self._record(outcome)
            self.inputs.append((model, rho, second, float(outcome), biased))
            argv = {
                "check-model": ["check-model", paths["model"]],
                "instrument": ["instrument", paths["model"]],
                # one token: argparse reads a separate "-3e-05" as an option
                "reduce": ["reduce", paths["model"], "--state", paths["state"],
                           f"--outcome={outcome}"],
                "joint": ["joint", paths["model"], "--second", paths["second"],
                          "--state", paths["state"]],
            }
            for cmd in self.COMMANDS:
                out = self._path(f"out-{k}-{cmd}.json")
                self.ops.append(Op(self.TIER[ds], f"call_ms.{cmd}", {
                    "model": k, "command": cmd, "out": out, "argv": argv[cmd] + ["--out", out],
                }))

    def run(self, op: Op):
        with contextlib.redirect_stderr(io.StringIO()):
            try:
                return cli.main(op.args["argv"])
            except SystemExit as exc:  # argparse rejected the arguments
                return exc.code

    def check(self, op: Op, result) -> bool:
        model, rho, second, outcome, biased = self.inputs[op.args["model"]]
        if result != (1 if biased else 0):
            return False
        if biased:
            return True
        with open(op.args["out"]) as f:
            report = json.load(f)
        key = (op.args["model"], op.args["command"])
        with self.untraced():
            if key not in self.references:
                self.references[key] = self._reference(op.args["command"], model, rho,
                                                       second, outcome)
            return self._matches(op.args["command"], report, self.references[key])

    def _reference(self, command, model, rho, second, outcome):
        if command == "check-model":
            records = []
            consistency = rl.probe_consistency(model)
            records += [rl.CheckRecord("probe_consistency", a, r, 0.0)
                        for a, r in consistency.residuals.items()]
            ins = rl.instrument_of(model)
            records.append(rl.CheckRecord("instrument.invariants", None, 0.0, 0.0))
            records += rl.verify_theorem1(ins).records + rl.verify_dual_lemma(ins).records
            return {(r.check, r.outcome): r.residual + self.offset for r in records}
        ins = rl.instrument_of(model)
        if command == "instrument":
            return {a: ins.component(a).rep + self.offset for a in ins.observable.eigenvalues}
        if command == "reduce":
            return rl.reduce(ins, outcome, rho).matrix + self.offset
        table = rl.joint_distribution(model, second, rho).table
        return {k: p + self.offset for k, p in table.items()}

    def _matches(self, command, report, ref) -> bool:
        if command == "check-model":
            got = {(e["check"], e["outcome"]): e for e in report}
            return got.keys() == ref.keys() and all(
                e["pass"] and abs(e["residual"] - ref[k]) <= REPORT_TOL
                for k, e in got.items()
            )
        if command == "instrument":
            got = {e["eigenvalue"]: e["kraus"] for e in report["outcomes"]}
            return got.keys() == ref.keys() and all(
                _max_abs(rl.Superoperator.from_kraus(
                    [ser.matrix_from_json(k) for k in kraus]).rep - ref[a]) <= RESIDUAL_TOL
                for a, kraus in got.items()
            )
        if command == "reduce":
            return _max_abs(ser.matrix_from_json(report["reduced_state"]) - ref) <= RESIDUAL_TOL
        got = {(e["first"], e["second"]): e["probability"] for e in report["table"]}
        return got.keys() == ref.keys() and all(
            abs(p - ref[k]) <= REPORT_TOL for k, p in got.items()
        )

    def detail(self, samples: list) -> dict:
        out = {f"{k}.p50": v * 1e3 for k, v in super().detail(samples).items()}
        ms = sorted(seconds * 1e3 for _, seconds, _ in samples)
        out["call_ms.p50"] = float(np.median(ms))
        out["call_ms.p90"] = percentile(ms, 0.90)
        return out


# ---------------------------------------------------------------------------
# reduce_stream: the read path over instruments built during set-up


class ReduceStream(Workload):
    """Applies maps that are already built, so a change to how maps are
    stored shows here even when it makes construction cheap."""

    name = "reduce_stream"
    trace_passes = 30
    # (d_s, d_a), outcome multiplicities, apparatus-state rank, tier
    MODELS = (
        ((4, 8), (1, 1, 1, 1), 2, "small"),
        ((8, 16), (1,) * 8, 2, "mid"),
        ((16, 4), (4, 4, 4, 4), 1, "large"),
    )
    TINY_MODELS = (
        ((2, 4), (1, 1), 2, "small"),
        ((3, 6), (1, 1, 1), 2, "mid"),
        ((4, 2), (2, 2), 1, "large"),
    )
    STATES = 64
    TINY_STATES = 8
    # every eighth state has zero probability for its outcome, so the
    # sub-floor branch is part of every pass

    def build(self) -> None:
        groups = []
        for (ds, da), ranks, sigma_rank, tier in self.TINY_MODELS if self.tiny else self.MODELS:
            obs = _observable(self.rng, ds, ranks)
            model = rl.random_faithful_model(obs, da, _seed(self.rng), sigma_rank)
            ins = rl.instrument_of(model)
            eigenvalues = obs.eigenvalues
            ops = []
            for i in range(self.TINY_STATES if self.tiny else self.STATES):
                a = eigenvalues[i % len(eigenvalues)]
                zero = i % 8 == 7
                if zero:
                    psi = haar_unitary(ds, self.rng)[:, 0]
                    psi = psi - obs.projector(a) @ psi
                    rho = rl.PureState(psi / np.linalg.norm(psi)).to_density()
                elif i % 2 == 0:
                    rho = _pure_state(self.rng, ds)
                else:
                    rho = _mixed_state(self.rng, ds, min(3, ds))
                # the outcome as the `instrument` report prints it
                outcome = json.loads(json.dumps(a))
                self._record(rho.matrix, json.dumps(a))
                ops.append(Op(tier, f"reduce.{ds}x{da}", {
                    "instrument": ins,
                    "outcome": outcome,
                    "state": rho,
                    "born": rl.born_probability(obs, a, rho),
                    "zero": zero,
                }))
            groups.append(ops)
        self.ops = _interleave(groups)

    def run(self, op: Op):
        ins, a, rho = op.args["instrument"], op.args["outcome"], op.args["state"]
        p = rl.outcome_probability(ins, a, rho)
        start = time.perf_counter()
        try:
            reduced = rl.reduce(ins, a, rho)
        except rl.ZeroProbabilityOutcomeError:
            reduced = None
        reduce_s = time.perf_counter() - start
        state, definite = rl.reduce_or_maximally_mixed(ins, a, rho)
        after = rl.nonselective(ins, rho)
        return p, reduced, state, definite, after, reduce_s

    def check(self, op: Op, result) -> bool:
        p, reduced, state, definite, after, _ = result
        if abs(p - (op.args["born"] + self.offset)) > RESIDUAL_TOL:
            return False
        if abs(np.trace(after.matrix) - 1.0) > RESIDUAL_TOL:
            return False
        if op.args["zero"]:
            mixed = np.eye(state.dim) / state.dim
            return (reduced is None and not definite
                    and _max_abs(state.matrix - mixed) <= REPORT_TOL)
        return (reduced is not None and definite
                and _max_abs(reduced.matrix - state.matrix) <= REPORT_TOL)

    def detail(self, samples: list) -> dict:
        us = sorted(result[-1] * 1e6 for _, _, result in samples if isinstance(result, tuple))
        return {"reduce_us.p50": float(np.median(us)), "reduce_us.p99": percentile(us, 0.99)}


WORKLOADS = {w.name: w for w in (Ladder, WideObject, CliSmall, ReduceStream)}


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile: a value that occurred, never extrapolated."""
    ordered = sorted(values)
    return float(ordered[max(0, int(np.ceil(q * len(ordered))) - 1)])
