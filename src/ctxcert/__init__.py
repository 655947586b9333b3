"""Finite operational quantum theories, ontological models, and
machine-checked contextuality no-go certificates."""

from .qmath import (
    IDENTITY_TOL,
    VALIDITY_TOL,
    DensityOperator,
    Effect,
    KrausChannel,
    Povm,
    apply_channel,
    bloch_from_density,
    born_probability,
    channels_equal,
    choi_matrix,
    density_from_bloch,
    pure_density,
    unitary_rotation_y,
)
from .operational import (
    MixtureDecl,
    OperationalTheory,
    coin_flip_povm,
    hexagon_theory,
    prep_equivalent,
)
from .ontomodel import (
    Distribution,
    IndicatorSet,
    OntModel,
    OnticSpace,
    disjoint,
    is_outcome_deterministic,
    outcome_determinism_from_prep_nc,
    predict,
    support,
)
from .nogo import (
    Certificate,
    ConstraintSystem,
    VerificationError,
    gleason_contradiction,
    meas_nogo,
    od_unsharp_contradiction,
    pointwise_feasibility,
    prep_nogo,
    system_from_theory,
    transf_nogo,
    trivial_povm_forced_indicator,
)
from .bbmodel import (
    BBPreparation,
    PureOnticState,
    bb_indicator,
    bb_meas_noncontextuality_property,
    bb_prep_contextuality_demo,
    bb_simulate,
)
from .kraus import (
    RemixMatrix,
    remix_kraus,
    verify_mixture_identities,
    with_zero_ops,
)

__version__ = "0.1.0"
