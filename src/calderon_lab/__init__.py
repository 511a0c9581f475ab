"""Numerical toolkit for rearrangement-invariant norms, singular radial
kernels, moduli of smoothness, and the optimal-lattice construction that
ties them together."""

import importlib

from . import errors
from .gridfn import (
    LogGrid,
    SampledFunction,
    make_log_grid,
    sample,
)
from .rearrange import decreasing_rearrangement
from .kernels import (
    BesselMcDonald,
    KernelSpec,
    PowerSlowlyVarying,
    SlowlyVaryingSpec,
    auto_z1,
    bessel_k,
    check_derivative_conditions,
    cone_kernel,
    measure_profile,
)
from .lorentz import (
    LorentzSpace,
    WeightSpec,
    associate_norm,
    cumulative_weight,
    embedding_criterion,
    embedding_function,
    lorentz_norm,
    power_weight,
)
from .optimal import (
    AssociateNormEngine,
    ConditionWitness,
    OptimalNormSpec,
    check_condition_a,
    check_condition_b,
    equivalence_report,
    half_level_point,
    hardy_constants,
    make_optimal_norm_spec,
    optimal_norm,
    sample_family,
    tail_embedding_function,
)
from .potentials import (
    FieldSample,
    bump_and_staircase_family,
    calderon_norms,
    convolve,
    convolver,
    envelope_bounds,
    field_rearrangement,
    modulus_curves,
    modulus_of_smoothness,
    power_modulus_norm,
    sample_field,
    upper_cone_check,
)

__version__ = "0.1.0"

_CLI_NAMES = ("cli", "ExperimentConfig", "ReportRecord", "parse_config_text", "run", "sweep")


def __getattr__(name):
    # cli is imported on first use, so that `python -m calderon_lab.cli`
    # executes the module once, as __main__
    if name in _CLI_NAMES:
        cli = importlib.import_module(".cli", __name__)
        return cli if name == "cli" else getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
