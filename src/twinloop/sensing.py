"""Sensing agent fleet: placement, noisy scalar readings, coverage queries.

Each agent reads one state feature (the car's position or its velocity)
with its own noise variance, over an uplink of its own length. An agent is
(id, feature, variance, distance) and knows nothing of the state's size:
the plant owns the state dimension, and a ``FleetIndex`` is built against
it, so that is where a feature outside the state is rejected. Generated
agents draw the variance log-uniformly between the bounds of the supplied
level list and the distance uniformly on (min_distance, max_distance]. A
pinned fleet is a list of config records {id, feature, variance, distance},
so an experiment can be replayed exactly; ``agent_from_record`` parses one.
``read`` returns a whole selection's readings, in one draw, as checked
floats; ``observe``, one agent's reading, is kept as the oracle that
tests hold ``read`` to and that the benchmark's traced run names. A
``FleetIndex`` holds the tables the schedulers look up every query
interval, computed once per fleet; a selection is the tuple of its agents'
positions in the fleet.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InvalidInputError


@dataclass(frozen=True)
class SensingAgentSpec:
    """One sensor: the state feature it reads, the variance of its noise and
    its uplink distance."""

    agent_id: int
    feature: int
    variance: float
    distance_m: float

    def __post_init__(self):
        if self.feature < 0:
            raise InvalidInputError(f"agent {self.agent_id}: feature {self.feature} "
                                    f"is negative")
        if not 0 < self.variance < math.inf:
            raise InvalidInputError("noise variance must be positive and finite")
        if not 0 < self.distance_m < math.inf:
            raise InvalidInputError("distance must be positive and finite")


def observe(agent: SensingAgentSpec, true_state, rng, qi: int = 0,
            noiseless: bool = False) -> np.ndarray:
    """Draw o = s[feature] + w with w ~ N(0, variance); ``noiseless`` skips w
    (test only). The one-agent oracle that ``read`` is tested against; no
    query interval calls it.

    Returns the reading as a 1-entry float vector, checked finite here so
    the filter can fuse it without a second check. ``qi`` only labels the
    error raised for a non-finite reading.
    """
    state = np.asarray(true_state, dtype=float)
    if agent.feature >= state.shape[0]:
        raise InvalidInputError(f"agent {agent.agent_id} reads feature {agent.feature} "
                                f"of a state of dim {state.shape[0]}")
    values = state[[agent.feature]]
    if not noiseless:
        values += np.sqrt(agent.variance) * rng.standard_normal(1)
    if not np.isfinite(values).all():
        raise InvalidInputError(
            f"non-finite observation from agent {agent.agent_id} at QI {qi}")
    return values


def read(index: "FleetIndex", positions, true_state, rng, qi: int = 0) -> list:
    """Draw the readings o = s[features] + std * z, z ~ N(0, I), of the
    agents at fleet ``positions`` of ``index``, in that order, as floats.

    ``true_state`` is the state, one float per feature. One draw of
    ``len(positions)`` normals equals the agents' own draws in selection
    order, so this gives the bits of ``observe`` called agent by agent.
    Checked finite, as ``observe`` does. The products and sums are taken on
    floats, which gives their elementwise bits.
    """
    noise = rng.standard_normal(len(positions)).tolist()
    std, features = index.std.tolist(), index.features
    values = [true_state[features[p]] + std[p] * z for p, z in zip(positions, noise)]
    if not all(map(math.isfinite, values)):
        ids = tuple(index.ids[p] for p in positions)
        raise InvalidInputError(f"non-finite observation from agents {ids} at QI {qi}")
    return values


def place_agents(count: int, max_distance_m: float, position_noise_levels,
                 velocity_noise_levels, rng, state_dim: int,
                 min_distance_m: float):
    """Generate a fleet of single-feature agents covering all state features.

    Features are assigned round-robin (agent i measures feature i mod K), so
    any fleet with count >= state_dim covers every feature. Noise variances
    are drawn log-uniformly between min and max of the level list for the
    assigned feature (the position list for feature 0, the velocity list for
    every other), which must hold positive finite numbers; ConfigurationError
    names the list otherwise.
    """
    if count < state_dim:
        raise ConfigurationError(
            f"{count} agents cannot cover {state_dim} features")
    if max_distance_m <= min_distance_m:
        raise ConfigurationError("max_distance_m must exceed min_distance_m")
    level_lists = [("position_noise_levels", position_noise_levels)]
    level_lists += [("velocity_noise_levels", velocity_noise_levels)] * (state_dim - 1)
    for name, levels in level_lists:
        values = nonnegative_numbers(levels)
        if not (values and min(values) > 0):
            raise ConfigurationError(f"fleet.{name} must hold positive finite "
                                     f"numbers: {levels!r}")
    fleet = []
    for i in range(count):
        feature = i % state_dim
        levels = level_lists[feature][1]
        lo, hi = min(levels), max(levels)
        variance = lo if lo == hi else float(
            np.exp(rng.uniform(np.log(lo), np.log(hi))))
        # distance uniform on (min, max]
        distance = max_distance_m - (max_distance_m - min_distance_m) * rng.uniform()
        fleet.append(SensingAgentSpec(i + 1, feature, variance, float(distance)))
    return fleet


@dataclass(frozen=True, eq=False)
class FleetIndex:
    """A fleet's scheduling tables for a state of ``state_dim`` features,
    computed once and never changed.

    Raises InvalidInputError when an agent reads a feature outside the
    state, two agents share an id, or the fleet's noise precisions
    1/variance of one feature sum past the largest float. Agents are
    addressed by their position in ``agents``. ``by_error`` and
    ``by_distance`` order the whole fleet by (variance, agent_id) and
    (distance_m, agent_id); ``measuring[k]`` lists the agents measuring
    feature k in fleet order, and ``by_feature[k]`` lists them in
    ``by_error`` order. ``ids``, ``features``, ``variance``, ``std`` (the
    noise standard deviation) and ``precision`` (1/variance) hold each
    agent's value in fleet order, so a selection's are looked up by its
    positions.
    """

    agents: tuple
    state_dim: int

    def __post_init__(self):
        agents, state_dim = tuple(self.agents), self.state_dim
        for a in agents:
            if a.feature >= state_dim:
                raise InvalidInputError(f"agent {a.agent_id}: feature {a.feature} "
                                        f"is not in 0..{state_dim - 1}")
        ids = tuple(a.agent_id for a in agents)
        if len(set(ids)) != len(ids):
            raise InvalidInputError(f"duplicate agent ids in fleet: {list(ids)}")
        features = tuple(a.feature for a in agents)
        variance = np.array([a.variance for a in agents], dtype=float)
        std = np.sqrt(variance)
        # a float division: 1/r past the largest float is inf, not a warning
        precision = np.array([1.0 / a.variance for a in agents], dtype=float)
        # every selection's summed precision per feature is at most the
        # whole fleet's, so a finite fleet sum keeps each fusion finite
        summed = np.bincount(features, precision, minlength=state_dim)
        if not np.isfinite(summed).all():
            raise InvalidInputError("the fleet's summed noise precision 1/variance "
                                    "of a feature overflows a float")
        for array in (variance, std, precision):
            array.setflags(write=False)
        by_error = tuple(sorted(range(len(agents)),
                                key=lambda p: (agents[p].variance, ids[p])))
        by_distance = tuple(sorted(range(len(agents)),
                                   key=lambda p: (agents[p].distance_m, ids[p])))
        measuring = tuple(tuple(p for p, a in enumerate(agents) if a.feature == k)
                          for k in range(state_dim))
        by_feature = tuple(tuple(p for p in by_error if p in m) for m in measuring)
        for name, value in (("agents", agents), ("ids", ids), ("features", features),
                            ("variance", variance), ("std", std),
                            ("precision", precision),
                            ("by_error", by_error), ("by_distance", by_distance),
                            ("measuring", measuring), ("by_feature", by_feature)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.agents)


def agent_from_record(record) -> SensingAgentSpec:
    """The agent of one pinned-fleet record {id, feature, variance, distance}.

    Raises ConfigurationError when a field is missing or is not a number,
    or when the id or feature is not an integer (a bool, 2.9 and 2.0 are
    not), and InvalidInputError, from the spec, when the feature is negative
    or the variance or distance is not positive and finite. A feature past
    the plant's state is rejected by the ``FleetIndex`` built against it.
    """
    try:
        fields = (integer(record["id"]), integer(record["feature"]),
                  float(record["variance"]), float(record["distance"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad fleet record {record!r}: a field is missing or "
                                 f"malformed ({type(exc).__name__}: {exc})") from None
    return SensingAgentSpec(*fields)


def is_number(value) -> bool:
    """Whether ``value`` is a real number and not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def nonnegative_numbers(values) -> tuple:
    """The entries of ``values`` as a tuple when it is a sequence of finite
    numbers >= 0 (``is_number``), else an empty tuple."""
    try:
        values = tuple(values)
    except TypeError:
        return ()
    return values if all(is_number(v) and 0 <= v < math.inf for v in values) else ()


def integer(value) -> int:
    """``value`` as an int when it is an integer and not a bool; TypeError
    otherwise, so that no id, feature or count is truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{value!r} is not an integer")
    return int(value)
