"""Interference statistics and ranging performance for automotive radar
under stochastic road-geometry models (Poisson line traffic and translated
Bernoulli lattices), with an embedded Monte-Carlo validator."""

from .model import (SPEED_OF_LIGHT, DerivedConstants, FadingModel, GeometryKind,
                    Lane, MediumAccess, RadarParams, Scenario, db_to_linear,
                    dbm_to_watts, derive)
from .geometry import count_in_intervals, sample_lattice, sample_ppp
from .interference import (CfSpec, ContourError, DistributionCurve,
                           InversionMethod, MonotonicityError,
                           QuadratureError, RegimeError, aggregate_interference,
                           cdf_bl_talbot, cdf_from_laplace_talbot,
                           cdf_gil_pelaez, cdf_levy_closed, cf_bl,
                           cf_decay_cutoff, cf_levy, cf_ppp,
                           interference_cdf, laplace_bl, levy_quantile,
                           mean_bl, mean_ppp_exact, mean_simplified,
                           tabulated_cf)
from .performance import (OptimizationResult, duty_cycle_asymptote,
                          expected_optimal_duty_cycle, nn_distance_pdf,
                          optimal_duty_cycle, p_success, p_success_il,
                          p_success_wc, ranging_signal, solve_z0,
                          spatial_success)
from .montecarlo import (GofRow, McConfig, McEstimate, McInterference,
                         McPerformance, mc_convergence_bl_to_ppp,
                         mc_interference, mc_ranging_success)

__version__ = "0.1.0"
