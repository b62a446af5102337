"""IRS-assisted THz massive MIMO link simulator.

Channel synthesis, hierarchical-codebook beam training, the two-phase
cooperative estimation protocol, closed-form IRS and hybrid transceiver
design with water-filling, and Monte Carlo experiment harnesses.
"""

from .arrays import (ArraySpec, BeamGrid, BeamVector, beam_gain, edge_energy,
                     grid_directions, nearest_direction, omni, pattern_gain,
                     steering)
from .channel import (CascadeChannel, PhaseShiftMatrix, PhysicalConstants,
                      assemble, cascade_loss, compensation_factor, make_link,
                      path_loss)
from .codebook import (HierarchicalCodebook, build_codebook, num_stages,
                       two_rf_factorization)
from .harness import (ScenarioConfig, TrialResult, make_config,
                      run_mp_experiment, run_rate_experiment, run_trial,
                      sample_scenario, scenario_assets)
from .irs_control import absorbing, direction_mode, random_mode, return_mode
from .quantization import (QuantizationReport, average_error,
                           quantization_report, worst_error)
from .training import (AngleEstimate, MeasurementModel, ScenarioAssets,
                       SlotCount, cooperative_estimate, estimate_angles,
                       hierarchical_search, measure_power, misalignment_curve)
from .transmission import (PowerAllocation, parallel_rate,
                           spectral_efficiency, water_filling)

__version__ = "0.1.0"
