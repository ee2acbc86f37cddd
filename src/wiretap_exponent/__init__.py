"""Exact correct-decoding exponents of the wiretap channel decoder.

The package computes the random-coding exponent of the eavesdropper's
probability of correctly identifying the transmitted sub-code, as a
function of the total rate R1 and the sub-code rate R2, for finite-alphabet
memoryless channels and for the power-constrained Gaussian channel.  It
also characterizes the rate regions where the exponent vanishes and where
it equals the blind-guessing exponent R1 - R2, and validates the
asymptotic formulas against finite-blocklength simulation of the actual
coding ensemble.

Every exponent and region quantity of a finite-alphabet channel is read
through one :class:`ExponentSolver`, which builds the channel's multiplier
table once and reuses it across queries:
``ExponentSolver(spec).solve(RatePair(r1, r2))`` evaluates E(R1, R2), and
the region functions (:func:`compute_qstar`, :func:`full_security_interval`,
:func:`classify_rate_point`) take the solver as their first argument.
"""
from .channels import (ChannelSpec, DegradednessResult, Distribution, Dmc,
                       check_degraded, load_channel_spec, parse_channel_spec)
from .errors import (BudgetExceededError, ChannelFileError, SolverError,
                     WiretapError)
from .exponent import ExponentResult, ExponentSolver, RatePair
from .gaussian import (GaussianOptimum, GaussianSpec, gaussian_exponent,
                       sigma_z_star)
from .oracles import (ConditionalChannel, bsc_exponent_closed_form,
                      decoder_log_score, decoder_score, entropy,
                      gaussian_divergence_term, mutual_information,
                      type_enum_exponent, weighted_divergence)
from .security import (FullSecurityInterval, SecurityAnalysis,
                       classify_exponent, classify_rate_point, compute_qstar,
                       full_security_interval)
from .simulate import (EnsembleSpec, SimulationResult, estimate_ensemble_pc,
                       exact_pc_for_codebook, quantize_composition,
                       sample_codebook)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError", "ChannelFileError", "ChannelSpec",
    "ConditionalChannel", "DegradednessResult", "Distribution", "Dmc",
    "EnsembleSpec", "ExponentResult", "ExponentSolver",
    "FullSecurityInterval", "GaussianOptimum", "GaussianSpec", "RatePair",
    "SecurityAnalysis", "SimulationResult", "SolverError", "WiretapError",
    "bsc_exponent_closed_form", "check_degraded", "classify_exponent",
    "classify_rate_point", "compute_qstar", "decoder_log_score",
    "decoder_score", "entropy", "estimate_ensemble_pc",
    "exact_pc_for_codebook", "full_security_interval",
    "gaussian_divergence_term", "gaussian_exponent", "load_channel_spec",
    "mutual_information", "parse_channel_spec", "quantize_composition",
    "sample_codebook", "sigma_z_star", "type_enum_exponent",
    "weighted_divergence",
]
