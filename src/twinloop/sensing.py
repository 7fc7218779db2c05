"""Sensing agent fleet: placement, linear noisy observations, coverage queries.

Each generated agent measures one scalar state feature through a one-row
observation matrix; its noise variance is drawn log-uniformly between the
bounds of the supplied level list and its distance to the access point
uniformly on (min_distance, max_distance]. Fleets serialize to plain JSON so
an experiment can be replayed exactly. ``observe`` returns one agent's reading
and ``read`` a whole selection's, in one draw, each as a checked value
vector. A ``FleetIndex`` holds the tables the schedulers look up every query
interval, computed once per fleet, and memoises the stacked model of each
ordered selection it is asked for.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import estimator
from .errors import ConfigurationError, InvalidInputError

DEFAULT_MIN_DISTANCE_M = 1.0
# Most stacked models one FleetIndex keeps. The acceptance fleet meets 5
# ordered selections in 2 PPO batches and a 40-agent fleet at capacity 40
# meets 93; selections met after the memo is full are built on every call.
STACKED_MEMO_LIMIT = 256


@dataclass(frozen=True)
class SensingAgentSpec:
    """One sensor: observation map, noise covariance, uplink distance."""

    agent_id: int
    observation_matrix: np.ndarray  # (D, K)
    noise_cov: np.ndarray           # (D, D), positive definite
    distance_m: float

    def __post_init__(self):
        h = np.atleast_2d(np.asarray(self.observation_matrix, dtype=float))
        c = np.atleast_2d(np.asarray(self.noise_cov, dtype=float))
        object.__setattr__(self, "observation_matrix", h)
        object.__setattr__(self, "noise_cov", c)
        if c.shape[0] != c.shape[1] or c.shape[0] != h.shape[0]:
            raise InvalidInputError("noise covariance shape does not match observation rows")
        if not np.allclose(c, c.T, atol=1e-12):
            raise InvalidInputError("noise covariance must be symmetric")
        if np.linalg.eigvalsh(c).min() <= 0:
            raise InvalidInputError("noise covariance must be positive definite")
        if np.any(np.all(h == 0, axis=1)):
            raise InvalidInputError("observation matrix has an all-zero row")
        if not self.distance_m > 0:
            raise InvalidInputError("distance must be positive")
        object.__setattr__(self, "noise_scale", np.linalg.cholesky(c))

    @property
    def measured_features(self) -> tuple:
        """Indices of state features this agent's observation depends on."""
        return tuple(np.nonzero(np.any(self.observation_matrix != 0, axis=0))[0])

    @property
    def error_size(self) -> float:
        """Scalar summary of the measurement error (trace of the covariance)."""
        return float(np.trace(self.noise_cov))


def observe(agent: SensingAgentSpec, true_state, rng, qi: int = 0,
            noiseless: bool = False) -> np.ndarray:
    """Draw o = H s + w with w ~ N(0, C_w); ``noiseless`` skips w (test only).

    Returns the reading as a 1-D float vector with one entry per observation
    row, checked finite here so the filter can fuse it without a second
    check. ``qi`` only labels the error raised for a non-finite reading.
    """
    state = np.asarray(true_state, dtype=float)
    h = agent.observation_matrix
    if state.shape[0] != h.shape[1]:
        raise InvalidInputError(
            f"state dim {state.shape[0]} incompatible with observation matrix "
            f"{h.shape}")
    values = h @ state
    if not noiseless:
        values += _correlate(agent.noise_scale, rng.standard_normal(len(values)))
    if not np.isfinite(values).all():
        raise InvalidInputError(
            f"non-finite observation from agent {agent.agent_id} at QI {qi}")
    return values


def read(model, true_state, rng, qi: int = 0) -> np.ndarray:
    """Draw the readings o = H s + L z, z ~ N(0, I), of a stacked selection.

    ``model`` is an ``estimator.StackedObservationModel`` with its noise
    factor L and ``true_state`` a float vector of its width. One draw of
    ``rows`` normals equals the agents' own draws in selection order, and
    L's off-block zeros add exact zeros, so this gives the bits of
    ``observe`` called agent by agent. Checked finite, as ``observe`` does.
    """
    values = model.matrix @ true_state + _correlate(
        model.noise_scale, rng.standard_normal(model.matrix.shape[0]))
    if not np.isfinite(values).all():
        raise InvalidInputError(
            f"non-finite observation from agents {model.agent_ids} at QI {qi}")
    return values


def _correlate(scale, normals) -> np.ndarray:
    """L z as row sums of the products L_ij z_j. A BLAS product may sum in
    an order that depends on the matrix size; here a row with at most two
    nonzero products (any agent with up to two rows) rounds once, so an
    agent's noise has the same bits alone and inside a stacked selection."""
    return np.add.reduce(scale * normals, axis=1)


def place_agents(count: int, max_distance_m: float, position_noise_levels,
                 velocity_noise_levels, rng, state_dim: int = 2,
                 min_distance_m: float = DEFAULT_MIN_DISTANCE_M):
    """Generate a fleet of single-feature agents covering all state features.

    Features are assigned round-robin (agent i measures feature i mod K), so
    any fleet with count >= state_dim covers every feature. Noise variances
    are drawn log-uniformly between min and max of the level list for the
    assigned feature.
    """
    if count < state_dim:
        raise ConfigurationError(
            f"{count} agents cannot cover {state_dim} features")
    if max_distance_m <= min_distance_m:
        raise ConfigurationError("max_distance_m must exceed min_distance_m")
    level_lists = [position_noise_levels, velocity_noise_levels]
    level_lists += [velocity_noise_levels] * (state_dim - 2)
    for k, levels in enumerate(level_lists[:state_dim]):
        if levels is None or len(levels) == 0 or min(levels) <= 0:
            raise ConfigurationError(f"no valid noise levels for feature {k}")
    fleet = []
    for i in range(count):
        feature = i % state_dim
        levels = level_lists[feature]
        lo, hi = min(levels), max(levels)
        variance = lo if lo == hi else float(
            np.exp(rng.uniform(np.log(lo), np.log(hi))))
        # distance uniform on (min, max]
        distance = max_distance_m - (max_distance_m - min_distance_m) * rng.uniform()
        h = np.zeros((1, state_dim))
        h[0, feature] = 1.0
        fleet.append(SensingAgentSpec(
            agent_id=i + 1, observation_matrix=h,
            noise_cov=np.array([[variance]]), distance_m=float(distance)))
    return fleet


@dataclass(frozen=True, eq=False)
class FleetIndex:
    """A fleet's scheduling tables, computed once and never changed.

    Agents are addressed by their position in ``agents``. ``by_error`` and
    ``by_distance`` order the whole fleet by (error_size, agent_id) and
    (distance_m, agent_id); ``measuring[k]`` lists the agents measuring
    feature k in fleet order, and ``by_feature[k]`` lists them in
    ``by_error`` order. ``matrix``, ``noise_cov`` and ``noise_scale`` stack
    every agent's observation rows, noise blocks and noise Cholesky factors
    in fleet order, so the model of a selection is an indexed copy of them.
    ``stacked`` keeps the first ``STACKED_MEMO_LIMIT`` models it builds,
    keyed by the ordered selection.
    """

    agents: tuple

    def __post_init__(self):
        agents = tuple(self.agents)
        dims = {a.observation_matrix.shape[1] for a in agents}
        if len(dims) > 1:
            raise InvalidInputError(
                f"agents disagree on the state dimension: {sorted(dims)}")
        state_dim = dims.pop() if dims else None
        if agents:
            whole = estimator.stack(agents)     # also rejects duplicate ids
            matrix, noise, scale, ids = (whole.matrix, whole.noise_cov,
                                         whole.noise_scale, whole.agent_ids)
        else:
            matrix, noise, scale, ids = (np.zeros((0, 0)), np.zeros((0, 0)),
                                         np.zeros((0, 0)), ())
        for array in (matrix, noise, scale):
            array.setflags(write=False)
        rows, at = [], 0
        for a in agents:
            rows.append(range(at, at + a.observation_matrix.shape[0]))
            at += a.observation_matrix.shape[0]
        error = [a.error_size for a in agents]
        by_error = tuple(sorted(range(len(agents)), key=lambda p: (error[p], ids[p])))
        by_distance = tuple(sorted(range(len(agents)),
                                   key=lambda p: (agents[p].distance_m, ids[p])))
        nonzero = (matrix != 0).tolist()
        measuring = tuple(
            tuple(p for p, r in enumerate(rows) if any(nonzero[i][k] for i in r))
            for k in range(state_dim or 0))
        by_feature = tuple(tuple(p for p in by_error if p in m) for m in measuring)
        for name, value in (("agents", agents), ("ids", ids),
                            ("state_dim", state_dim), ("matrix", matrix),
                            ("noise_cov", noise), ("noise_scale", scale),
                            ("by_error", by_error), ("by_distance", by_distance),
                            ("measuring", measuring), ("by_feature", by_feature),
                            ("_rows", tuple(rows)), ("_stacked", {})):
            object.__setattr__(self, name, value)

    @classmethod
    def of(cls, fleet) -> "FleetIndex":
        """``fleet`` itself when it is an index, else a new index of it."""
        return fleet if isinstance(fleet, cls) else cls(fleet)

    def __len__(self) -> int:
        return len(self.agents)

    def stacked(self, positions) -> estimator.StackedObservationModel:
        """Joint observation model of the agents at ``positions``, in that order.

        Equal, element for element, to ``estimator.stack`` of those agents.
        Its arrays are read-only, since the model may be memoised and shared.
        """
        key = tuple(positions)
        model = self._stacked.get(key)
        if model is None:
            if not key:
                raise InvalidInputError("cannot stack an empty selection")
            if len(set(key)) != len(key):
                raise InvalidInputError(f"duplicate positions in selection: {key}")
            rows = [r for p in key for r in self._rows[p]]
            matrix = self.matrix.take(rows, 0)
            noise = self.noise_cov.take(rows, 0).take(rows, 1)
            scale = self.noise_scale.take(rows, 0).take(rows, 1)
            for array in (matrix, noise, scale):
                array.setflags(write=False)
            model = estimator.StackedObservationModel(
                matrix, noise, tuple(self.ids[p] for p in key), scale)
            if len(self._stacked) < STACKED_MEMO_LIMIT:
                self._stacked[key] = model
        return model


def agents_measuring(fleet, feature: int):
    """Agents whose observation matrix has a nonzero entry in ``feature``'s column."""
    return [a for a in fleet if np.any(a.observation_matrix[:, feature] != 0)]


def fleet_to_json(fleet, state_dim: int = 2) -> str:
    """Serialize a single-feature fleet to JSON (id, feature, variance, distance)."""
    records = []
    for agent in fleet:
        features = agent.measured_features
        if len(features) != 1 or agent.observation_matrix.shape != (1, state_dim):
            raise InvalidInputError(
                "only single-feature fleets are serializable")
        records.append({
            "id": agent.agent_id,
            "feature": int(features[0]),
            "variance": float(agent.noise_cov[0, 0]),
            "distance": agent.distance_m,
        })
    return json.dumps({"state_dim": state_dim, "agents": records}, indent=2)


def fleet_from_json(text: str):
    data = json.loads(text)
    state_dim = int(data["state_dim"])
    fleet = []
    for rec in data["agents"]:
        h = np.zeros((1, state_dim))
        h[0, int(rec["feature"])] = 1.0
        fleet.append(SensingAgentSpec(
            agent_id=int(rec["id"]), observation_matrix=h,
            noise_cov=np.array([[float(rec["variance"])]]),
            distance_m=float(rec["distance"])))
    return fleet
