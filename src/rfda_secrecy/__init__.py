"""Secrecy-region analysis for directional modulation with random frequency
diverse arrays: array geometry, frequency-vector design, artificial-noise
beamforming, secrecy-capacity bounds, resource minima and experiment sweeps.
"""

from .arraymodel import (ArrayConfig, Location, SPEED_OF_LIGHT, correlation2,
                         correlation2_grid, half_wavelength_spacing, steering_vector)
from .dmsecurity import (PowerConfig, an_leakage, an_vector, c_an_lb, capacity_bob,
                         capacity_eve_an, complex_gaussian, dbm_to_mw, eta,
                         secrecy_capacity, sinr_eve, snr_bob)
from .errors import (ConfigError, ConvergenceError, FixtureError,
                     InfeasibleRateError, RetryRequiredError)
from .freqdesign import (EigenResult, build_design_matrix,
                         default_fixture_path, generate_k, load_frequency_table,
                         rho1, rho2, symmetric_eigen)
from .secrecyregion import (BEAMWIDTH_CONSTANT_RAD, Scheme, SecrecyRegion,
                            beta_boundary, beta_max_an, corner_locations,
                            ellipse_semi_axes, k_min, m_min, solve_m_min)
from .sweep import (FixtureK, GeneratedK, Mode, Scenario, SweepResult,
                    beta_for_scenario, beampattern_grid, config_hash,
                    default_scenario, fixture_vector, lb_capacity, mc_capacity,
                    resolve_k, result_csv_text, scenario_from_config,
                    scenario_to_config, sweep_bandwidth, sweep_delta, sweep_power,
                    sweep_rate, validate_fixtures, write_run)
from .version import VERSION as __version__

__all__ = [name for name in dir() if not name.startswith("_")]
