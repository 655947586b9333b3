"""Finite operational quantum theories, ontological models, and
machine-checked contextuality no-go certificates."""

import importlib

#: Each exported name and the submodule that defines it.  A submodule is
#: imported on the first access to one of its names (PEP 562), so
#: ``import ctxcert`` loads neither numpy nor any submodule.
_EXPORTS = {
    name: module
    for module, names in {
        "qmath": "IDENTITY_TOL VALIDITY_TOL DensityOperator Effect KrausChannel Povm apply_channel"
        " bloch_from_density born_probability channels_equal choi_matrix density_from_bloch"
        " pure_density unitary_rotation_y",
        "operational": "MixtureDecl OperationalTheory coin_flip_povm hexagon_theory prep_equivalent",
        "ontomodel": "Distribution IndicatorSet OntModel OnticSpace disjoint is_outcome_deterministic"
        " outcome_determinism_from_prep_nc predict support",
        "nogo": "Certificate ConstraintSystem VerificationError gleason_contradiction meas_nogo"
        " od_unsharp_contradiction pointwise_feasibility prep_nogo system_from_theory transf_nogo"
        " trivial_povm_forced_indicator",
        "bbmodel": "BBPreparation PureOnticState bb_indicator bb_meas_noncontextuality_property"
        " bb_prep_contextuality_demo bb_simulate",
        "kraus": "RemixMatrix remix_kraus verify_mixture_identities with_zero_ops",
    }.items()
    for name in names.split()
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
