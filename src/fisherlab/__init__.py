"""Fisher-information analysis of quantum measurements.

Statistical estimation core (likelihood, MLE, Fisher information, the
Cramér-Rao bound), single-slit diffraction as a momentum measurement,
SU(2) Mach-Zehnder phase estimation, and a Monte Carlo harness that checks
estimator efficiency against the information bounds.
"""

__version__ = "0.1.0"

from .bessel import bessel_j
from .errors import (DegenerateModel, ExcessiveFailures, FisherlabError,
                     FlatLikelihood, PhaseUnwrapFailure, SizeLimit,
                     ZeroPosterior)
from .interferometer import (AngularMomentumRep, FockInput, Posterior,
                             WignerRotation, build_rep, fisher_phase_at_zero,
                             linearized_phase_error, moments,
                             mz_transform_check, outcome_amplitude_curve,
                             outcome_distribution, outcome_table, posterior_flat,
                             posterior_update, posterior_variance,
                             resource_scaling, wigner_d)
from .models import (DataSet, Estimate, ModelKind, ParametricModel,
                     bernoulli_model, crb, fisher_information,
                     gaussian_location_model, log_likelihood, mle,
                     mle_batch, quadratic_expansion_check)
from .montecarlo import (TrialConfig, TrialReport, run_accumulation,
                         run_trials, sample_outcomes)
from .slit import (Representation, SlitGeometry, SlitWavefunction,
                   farfield_density, farfield_model, fisher_from_wavefunction,
                   fisher_slit, position_variance, sinc, sinc_deriv,
                   slit_wavefunction, truncated_momentum_variance,
                   uncertainty_chain)

__all__ = [
    "__version__",
    # errors
    "FisherlabError", "DegenerateModel", "FlatLikelihood", "SizeLimit",
    "PhaseUnwrapFailure", "ZeroPosterior", "ExcessiveFailures",
    # statistics core
    "ModelKind", "ParametricModel", "DataSet", "Estimate",
    "log_likelihood", "fisher_information", "crb", "mle", "mle_batch",
    "quadratic_expansion_check", "bernoulli_model", "gaussian_location_model",
    # slit
    "SlitGeometry", "SlitWavefunction", "Representation", "sinc",
    "sinc_deriv", "farfield_density", "farfield_model", "fisher_slit",
    "position_variance", "uncertainty_chain", "slit_wavefunction",
    "fisher_from_wavefunction", "truncated_momentum_variance",
    # interferometer
    "FockInput", "AngularMomentumRep", "WignerRotation", "build_rep",
    "wigner_d", "mz_transform_check", "outcome_distribution", "outcome_table",
    "outcome_amplitude_curve", "moments", "linearized_phase_error",
    "fisher_phase_at_zero", "Posterior", "posterior_flat",
    "posterior_update", "posterior_variance", "resource_scaling",
    # monte carlo
    "TrialConfig", "TrialReport", "sample_outcomes", "run_trials",
    "run_accumulation",
    "bessel_j",
]
