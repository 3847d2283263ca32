"""Exception types raised by reduction_lab.

Plain ``ValueError`` is used for dimension mismatches and malformed
arguments, including a state that fails the density check; the classes
here mark failures with domain meaning so callers (and the CLI) can map
them to exit codes: a ``ValueError`` exits 2, a ``ReductionLabError`` 1.
A conditional state that fails the PSD test is a
``NumericalConsistencyError``, not a ``ValueError``: its input was valid,
and its outcome probability was too small for the roundoff.
"""


class ReductionLabError(Exception):
    """Base class for domain-level failures."""


class NumericalConsistencyError(ReductionLabError):
    """A quantity left its mathematically allowed band by more than tolerance.

    Signals a broken model, e.g. a probability of 1.3, or a result that the
    roundoff swamps: T_a(rho)/p with an eigenvalue below -ROUNDOFF_TOL,
    where a small outcome probability p lifts the roundoff of T_a(rho).
    """


class NotCompletelyPositiveError(ReductionLabError):
    """A Choi matrix failed the PSD test.

    Carries the most negative eigenvalue found.
    """

    def __init__(self, most_negative_eigenvalue: float):
        self.most_negative_eigenvalue = most_negative_eigenvalue
        super().__init__(
            f"Choi matrix is not positive semidefinite "
            f"(most negative eigenvalue {most_negative_eigenvalue:.3e})"
        )


class NotAMeasurementOfAError(ReductionLabError):
    """The map (or model) is not the operation of an apparatus measuring
    the given observable: the named ``invariant`` fails at an outcome, the
    outcome-trace condition or probe consistency, or, with ``outcome``
    None, completeness: the components do not sum to the total.

    Carries the worst-violating outcome and the residual there.
    """

    def __init__(self, outcome, residual: float, invariant: str, detail: str = ""):
        self.outcome = outcome
        self.residual = residual
        where = "" if outcome is None else f" at outcome {outcome}"
        msg = f"{invariant} violated{where} (residual {residual:.3e})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class ZeroProbabilityOutcomeError(ReductionLabError):
    """Conditioning on an outcome whose probability is below the floor;
    the post-measurement state is not definite there.
    """

    def __init__(self, outcome, probability: float, floor: float):
        self.outcome = outcome
        self.probability = probability
        self.floor = floor
        super().__init__(
            f"outcome {outcome} has probability {probability:.3e} "
            f"<= floor {floor:.3e}; conditional state is not definite"
        )


class MissingProbeError(ReductionLabError):
    """The model carries no probe observable but one is required."""


class DegenerateObservableError(ReductionLabError):
    """The von Neumann pointer construction needs a nondegenerate observable."""
