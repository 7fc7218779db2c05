"""Digital-twin networked control simulator.

A cloud twin tracks a noisy nonlinear plant with an extended Kalman filter,
asks a reinforcement-learned agent for controls and accuracy requests,
schedules the fewest sensing agents that meet the per-feature variance caps,
and pays the minimum uplink power that satisfies the latency-outage target
over Rician fading links. The harness reproduces the benchmark comparison
against perfect-information, greedy and unfiltered baselines.
"""

from .agent import PolicyNetwork, PpoHyperparams, train
from .channel import (ChannelParams, inverse_gaussian_q, outage_probability_mc,
                      required_power, sample_rician_gain, y_q)
from .dynamics import (PLANT_REGISTRY, LinearPlant, MountainCar,
                       build_linear_2d, build_mountain_car)
from .errors import (ConfigurationError, InvalidInputError,
                     NumericalFailureError, TrainingFailureError,
                     TwinloopError, WeakLineOfSightError)
from .estimator import Belief, StackedObservationModel, predict, stack, update
from .harness import (EpisodeMetrics, ExperimentConfig, FleetConfig,
                      PlantConfig, aggregate_metrics, export_traces,
                      run_episode, run_monte_carlo)
from .loop import (AugmentedAction, CostMode, StepResult, TwinLoop, base_reward,
                   decode_action, shape_reward)
from .scheduler import (ScheduleDecision, SchedulingMode, baseline_schedule,
                        schedule)
from .sensing import FleetIndex, SensingAgentSpec, observe, place_agents

__version__ = "0.1.0"
