"""Sensing agent fleet: placement, noisy scalar readings, coverage queries.

Each agent reads one state feature (the car's position or its velocity)
with its own noise variance, over an uplink of its own length. An agent is
(id, feature, variance, distance), each field declared with its rule, and
knows nothing of the state's size: the plant owns the state dimension, and
a ``FleetIndex`` is built against it. The index checks every agent against
its rules (``settings.check``) and then what spans the fleet: a feature
inside the state, unique ids and a finite summed precision. Generated
agents draw the variance log-uniformly between the bounds of the supplied
level list and the distance uniformly on (min_distance, max_distance]. A
pinned fleet is a list of config records {id, feature, variance, distance},
so an experiment can be replayed exactly; a record is the keyword arguments
of its ``SensingAgentSpec``. ``read`` returns a whole selection's
readings, in one draw, as checked floats; ``observe``, one agent's
reading, is kept as the oracle that tests hold ``read`` to and that the
benchmark's traced run names. A ``FleetIndex`` holds the tables the
schedulers look up every query interval, computed once per fleet, as
tuples; a selection is the tuple of its agents' positions in the fleet.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass

import numpy as np

from .errors import ConfigurationError, InvalidInputError
from .settings import Rule, at_least, check, is_integer, setting, within


@dataclass(frozen=True)
class SensingAgentSpec:
    """One sensor: the state feature it reads, the variance of its noise and
    its uplink distance. Every field is required, and a ``FleetIndex``
    checks each against its rule."""

    id: int = setting(MISSING, Rule("an integer", is_integer))
    feature: int = setting(MISSING, at_least(0))
    variance: float = setting(MISSING, within("(0, inf)"))
    distance: float = setting(MISSING, within("(0, inf)"))


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
        raise InvalidInputError(f"agent {agent.id} reads feature {agent.feature} "
                                f"of a state of dim {state.shape[0]}")
    values = state[[agent.feature]]
    if not noiseless:
        values += np.sqrt(agent.variance) * rng.standard_normal(1)
    if not np.isfinite(values).all():
        raise InvalidInputError(
            f"non-finite observation from agent {agent.id} at QI {qi}")
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
    std, features = index.std, index.features
    values = [true_state[features[p]] + std[p] * z for p, z in zip(positions, noise)]
    if not all(map(math.isfinite, values)):
        ids = tuple(index.ids[p] for p in positions)
        raise InvalidInputError(f"non-finite observation from agents {ids} at QI {qi}")
    return values


def place_agents(count: int, max_distance_m: float, position_noise_levels,
                 velocity_noise_levels, rng, state_dim: int,
                 min_distance_m: float):
    """Generate a fleet of ``count`` single-feature agents.

    Features are assigned round-robin (agent i measures feature i mod K), so
    any fleet with count >= state_dim covers every feature, and the caller
    rejects one that does not (``ExperimentConfig.build_fleet``). Noise
    variances are drawn log-uniformly between min and max of the level list
    for the assigned feature (the position list for feature 0, the velocity
    list for every other); the config's rules make each list non-empty and
    positive and finite.
    """
    if max_distance_m <= min_distance_m:
        raise ConfigurationError("max_distance_m must exceed min_distance_m")
    fleet = []
    for i in range(count):
        feature = i % state_dim
        levels = velocity_noise_levels if feature else position_noise_levels
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

    Checks each agent against its rules, naming a bad field as
    ``fleet.agents[<position>].<field>`` (ConfigurationError), before
    anything reads it; raises InvalidInputError when an agent reads a
    feature outside the state, two agents share an id, or the fleet's
    noise precisions 1/variance of one feature sum past the largest float.
    Agents are addressed by their position in ``agents``. ``by_error`` and
    ``by_distance`` order the whole fleet by (variance, id) and (distance,
    id); ``measuring[k]`` lists the agents measuring feature k in fleet
    order, and ``by_feature[k]`` lists them in ``by_error`` order. ``ids``,
    ``features``, ``variance``, ``std`` (the noise standard deviation) and
    ``precision`` (1/variance) hold each agent's value in fleet order, as
    tuples, of floats for the last three, so a selection's are looked up by
    its positions.
    """

    agents: tuple
    state_dim: int

    def __post_init__(self):
        agents, state_dim = tuple(self.agents), self.state_dim
        for p, a in enumerate(agents):
            check(a, f"fleet.agents[{p}].")
            if a.feature >= state_dim:
                raise InvalidInputError(f"agent {a.id}: feature {a.feature} "
                                        f"is not in 0..{state_dim - 1}")
        ids = tuple(a.id for a in agents)
        if len(set(ids)) != len(ids):
            raise InvalidInputError(f"duplicate agent ids in fleet: {list(ids)}")
        features = tuple(a.feature for a in agents)
        variance = tuple(float(a.variance) for a in agents)
        # math.sqrt has np.sqrt's bits; a float division: 1/r past the
        # largest float is inf, not a warning
        std = tuple(map(math.sqrt, variance))
        precision = tuple(1.0 / r for r in variance)
        by_error = tuple(sorted(range(len(agents)),
                                key=lambda p: (variance[p], ids[p])))
        by_distance = tuple(sorted(range(len(agents)),
                                   key=lambda p: (agents[p].distance, ids[p])))
        measuring = tuple(tuple(p for p, a in enumerate(agents) if a.feature == k)
                          for k in range(state_dim))
        # every selection's summed precision per feature is at most the
        # whole fleet's, so a finite fleet sum keeps each fusion finite
        if not all(math.isfinite(sum(precision[p] for p in m)) for m in measuring):
            raise InvalidInputError("the fleet's summed noise precision 1/variance "
                                    "of a feature overflows a float")
        by_feature = tuple(tuple(p for p in by_error if p in m) for m in measuring)
        for name, value in (("agents", agents), ("ids", ids), ("features", features),
                            ("variance", variance), ("std", std),
                            ("precision", precision),
                            ("by_error", by_error), ("by_distance", by_distance),
                            ("measuring", measuring), ("by_feature", by_feature)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.agents)
