"""Finite-dimensional quantum measurement-model workbench.

Builds unitary object-apparatus models, extracts their operations and
instruments, derives state reduction from the nonselective change alone,
and cross-checks against the conventional probe-based route.
"""

from .errors import (
    DegenerateObservableError,
    MissingProbeError,
    NotAMeasurementOfAError,
    NotCompletelyPositiveError,
    NumericalConsistencyError,
    ReductionLabError,
    ZeroProbabilityOutcomeError,
)
from .instrument import (
    CheckRecord,
    Instrument,
    VerificationReport,
    instrument_from_operation,
    luders_instrument,
    nonselective,
    outcome_probability,
    reduce,
    reduce_or_maximally_mixed,
    verify_dual_lemma,
    verify_theorem1,
)
from .matcore import hermitian_eig
from .models import (
    ConsistencyReport,
    MeasurementModel,
    instrument_of,
    operation_of,
    probe_consistency,
    probe_instrument_of,
    random_biased_model,
    random_faithful_model,
    von_neumann_model,
)
from .quantum import (
    DensityOperator,
    DiscreteObservable,
    PureState,
    born_probability,
    maximally_mixed,
    observable_from_hermitian,
)
from .scenarios import (
    DecompositionExhibit,
    JointDistribution,
    conditional_distribution,
    joint_distribution,
    nonuniqueness_exhibit,
)
from .superop import (
    ChoiMatrix,
    Superoperator,
    apply,
    choi,
    kraus_from_choi,
    trace_of_map,
)

__version__ = "0.1.0"
