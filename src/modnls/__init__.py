"""Pseudospectral laboratory for Schrodinger equations with modified dispersion.

The evolution core integrates i*eps*du/dt + P(D)u = lambda*|u|^(2*sigma)*u
on periodic boxes for a catalog of real multipliers P (homogeneous or
bounded), and the experiment drivers measure norm inflation for
concentrated data, the accuracy of the phase-ODE approximation on
logarithmic windows, the growth exponent of free-flow space-time norms,
and the loss of critical regularity from log-singular data.
"""

from .evolution import (
    EvolutionError,
    PicardDivergenceError,
    PicardReport,
    SolveConfig,
    evolve,
    picard_solve,
    sigma_is_admissible,
)
from .experiments import (
    ExperimentError,
    check_inflate_args,
    check_ode_approx_args,
    check_strichartz_args,
    ode_phase_profile,
    run_norm_inflation,
    run_ode_approx,
    run_strichartz_probe,
)
from .reports import ExperimentReport, write_report
from .scaling import H_MAX, ScalingError, ScalingPlan, compute_scaling
from .singular import (
    SingularProbeError,
    check_probe_args,
    log_singular_profile,
    run_singular_probe,
    singular_alpha,
)
from .spectral import (
    Grid,
    SpectralError,
    sobolev_norm,
    spacetime_norm_from_samples,
    spectral_tail_mass,
)
from .symbols import (
    BOUNDED,
    CATALOG_KEYS,
    HOMOGENEOUS,
    Symbol,
    SymbolError,
    make_symbol,
    parse_symbol_spec,
)

__version__ = "0.1.0"
