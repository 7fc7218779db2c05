"""The per-interval digital twin control loop shared by training and evaluation.

One query interval runs: blind prediction -> policy action on the prior
belief -> agent scheduling (``scheduler.schedule`` under the requested caps
in REVERB mode, ``baseline_schedule`` under the fixed caps otherwise) ->
uplink power for the selected agents -> observation fusion -> plant step ->
reward. A ``TwinLoop`` takes every setting from one ``ExperimentConfig``,
checks each field against its rule (``settings.check``), and builds the
run's plant, fleet and link powers once, when it is built, checking what
spans them: one cap per plant feature, the fleet (its ``FleetIndex``
checks each agent's fields) and finite link powers. The environment
surface mirrors the usual gym step/reset contract so the trainer and the
evaluation harness drive the same code.

With ``record_trace`` a loop keeps one flat tuple of plain values per QI
(``TwinLoop.trace``), its only record of what a QI did; without it a loop
keeps no per-QI state. ``TwinLoop.trace_table`` derives the columns of
trace_<i>.csv from one episode's tuples, once, column by column, with one
column per plant feature where a column is per feature, and
``TwinLoop.episode_totals`` the episode's row of episodes.csv. Only this
module knows the layout of a record.

Within a query interval values pass between the layers as Python floats:
the decoded action, the caps, the belief (``Belief.values`` and
``Belief.rows``), the readings and the true state. An array is built only
where a layer needs one: a BLAS product, a ``Generator`` draw, the policy
input and ``ScheduleDecision.satisfied``.

Episode randomness is split into independent substreams (initial state and
process noise / observation noise / benchmark agent picks), so two modes run
with the same episode seed share plant noise draws: paired comparisons use
common random numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import channel as channel_mod
from . import estimator, scheduler, sensing
from .agent import CostMode, base_reward, decode_action, shape_reward
from .errors import ConfigurationError, InvalidInputError, NumericalFailureError
from .estimator import Belief
from .scheduler import SchedulingMode, baseline_schedule
from .settings import check

def episode_seed(master_seed: int, namespace: int, index: int) -> np.random.SeedSequence:
    """Seed of episode ``index`` of a run: training episodes use namespace 1
    and evaluation episodes namespace 2, so the two never share a seed."""
    return np.random.SeedSequence(master_seed, spawn_key=(namespace, index))


@dataclass
class StepResult:
    policy_input: np.ndarray
    base_reward: float
    shaped_reward: float
    terminated: bool
    truncated: bool


class TwinLoop:
    """Episode driver binding plant, fleet, filter, scheduler and channel."""

    def __init__(self, config, record_trace=False):
        # the one place a run's settings are checked (each field against its
        # rule, the channel section having checked itself when built) and
        # its plant, fleet and link powers built and checked, so a bad one
        # fails before any episode or output (the config's validate builds
        # a loop). The non-adaptive modes are judged by the caps, and each
        # adaptive QI applies its request to them without a second check
        for prefix, section in (("", config), ("plant.", config.plant),
                                ("fleet.", config.fleet), ("rl.", config.rl)):
            check(section, prefix)
        self.plant = plant = config.build_plant()
        if len(config.variance_caps) != plant.dim:
            raise ConfigurationError("need one variance cap per state feature")
        self.variance_caps = [float(cap) for cap in config.variance_caps]
        self.fleet_index = config.build_fleet(plant)
        self.mode = SchedulingMode(config.mode)
        self.capacity = int(config.capacity)
        self.kappa = float(config.rl.reward_weight)
        self.eta_max = float(config.rl.eta_max)
        self.cost_mode = CostMode(config.rl.cost_mode)
        self.traditional_count = int(config.traditional_count)
        self.termination_bonus = float(config.rl.termination_bonus)
        self.accuracy_weight = float(config.accuracy_weight)
        self.record_trace = record_trace

        self.control_dim = plant.control_dim
        self.obs_dim = 2 * plant.dim
        self.action_dim = plant.control_dim + plant.dim
        # distances are fixed, so each agent's uplink power is a constant
        self.power_by_id = {
            a.id: channel_mod.required_power(a.distance, config.channel)
            for a in self.fleet_index.agents}
        # mode, fleet and capacity fix a greedy mode's selection, so its
        # positions and per-feature fusion steps are built once, as tuples
        self._greedy = scheduler.greedy_selection(self.mode, self.fleet_index,
                                                  self.capacity)

        self._true_state = None
        self._prior = None
        self._qi = 0

    @classmethod
    def from_config(cls, config, record_trace=False) -> "TwinLoop":
        return cls(config, record_trace)

    # -- episode control ----------------------------------------------------

    def reset(self, seed) -> np.ndarray:
        """Start a new episode; returns the first policy input."""
        ss = seed if isinstance(seed, np.random.SeedSequence) \
            else np.random.SeedSequence(seed)
        plant_ss, obs_ss, pick_ss = ss.spawn(3)
        self._plant_rng = np.random.default_rng(plant_ss)
        self._obs_rng = np.random.default_rng(obs_ss)
        self._pick_rng = np.random.default_rng(pick_ss)
        self._true_state = self.plant.initial_state(self._plant_rng)
        self._prior = self._initial_belief()
        self._qi = 1
        self.trace = []
        return self._policy_input(self._prior)

    def step(self, raw_action) -> StepResult:
        """Run one query interval with the raw policy output.

        Raises InvalidInputError for an output that is not one float vector
        of ``action_dim`` entries and NumericalFailureError, with the QI, for
        a NaN in it, before anything else runs; +-inf entries are clamped by
        ``decode_action`` like any other out-of-range entry. A numerical
        failure raised by a lower layer without a QI is raised again with
        this one.
        """
        raw = np.asarray(raw_action, dtype=float)
        if raw.shape != (self.action_dim,):
            raise InvalidInputError(f"action shape {raw.shape} != ({self.action_dim},)")
        raw = raw.tolist()
        if any(map(math.isnan, raw)):
            raise NumericalFailureError("non-finite policy action", qi=self._qi)
        try:
            action = decode_action(raw, self.eta_max, self.control_dim)
            control = action.control[0]

            if self.mode is SchedulingMode.REVERB:
                caps = scheduler.requested_caps(self.variance_caps, action.accuracy)
                decision = scheduler.schedule(self._prior, caps,
                                              self.fleet_index, self.capacity,
                                              observe_fn=self._observe)
            else:
                caps = self.variance_caps
                decision = baseline_schedule(
                    self.mode, self._prior, self.fleet_index, self._pick_rng,
                    observe_fn=self._observe,
                    caps=caps, true_state=self._true_state,
                    traditional_count=self.traditional_count,
                    greedy=self._greedy)

            posterior = decision.posterior
            next_state = self.plant.step(self._true_state, control, self._plant_rng)
            reached_goal = self.plant.is_goal(next_state)
            reward = base_reward(control, reached_goal, self.termination_bonus)
            if self.mode is SchedulingMode.REVERB:
                shaped = shape_reward(reward, action.accuracy, self.kappa,
                                      self.cost_mode)
            else:
                shaped = reward

            if self.record_trace:
                # plain values only; trace_table and episode_totals derive
                # the rest
                power = sum(self.power_by_id[i] for i in decision.selected_ids)
                self.trace.append((
                    self._qi, *self._true_state, *posterior.values,
                    *posterior.variances, *self._prior.variances, *caps,
                    *action.accuracy, decision.selected_ids, power, control, reward,
                    all(decision.satisfied.tolist())))

            terminated = reached_goal
            truncated = (not terminated) and self._qi >= self.plant.episode_cap
            self._true_state = next_state
            self._prior = estimator.predict(posterior, control, self.plant)
            self._qi += 1
            return StepResult(self._policy_input(self._prior), reward, shaped,
                              terminated, truncated)
        except NumericalFailureError as exc:
            if exc.qi is not None:
                raise
            raise NumericalFailureError(exc.message, qi=self._qi) from None

    # -- trace ---------------------------------------------------------------

    def trace_table(self, records) -> dict:
        """The columns of trace_<i>.csv, by name in file order, from one
        episode's ``trace`` records of this loop.

        A per-feature column (true_, belief_, std_, prior_ratio_, eta_) comes
        once per plant feature, named after it. The derived columns take the
        per-QI operations elementwise, so they keep their bits: std is
        sqrt(max(var, 0)), prior_ratio is prior var / cap, and
        weighted_objective, a diagnostic that is logged and never
        optimized, is (1 - w) sum_k max(var_k / cap_k - 1, 0) + w np.sum(powers)
        with w the accuracy weight. That np.sum is a pairwise sum, not the
        sequential one behind power_w, so it is taken per selection.
        """
        names = self.plant.feature_names
        k = len(names)
        cols = list(zip(*records)) or [()] * (6 * k + 6)
        raw = cols[1:6 * k + 1]
        true, mean, post, prior, caps, eta = (raw[i * k:(i + 1) * k] for i in range(6))
        post, prior, caps = (np.array(c, dtype=float).reshape(k, -1)
                             for c in (post, prior, caps))
        ids, power, control, reward, satisfied = cols[6 * k + 1:]
        # summed per QI over a C-ordered (QI, feature) array, which gives
        # the bits of np.sum over one QI's features
        hinge = np.ascontiguousarray(np.maximum(post / caps - 1.0, 0.0).T).sum(axis=1)
        selections = set(ids)
        spent = {s: float(np.sum([self.power_by_id[i] for i in s])) for s in selections}
        label = {s: ";".join(str(i) for i in s) for s in selections}
        w = self.accuracy_weight
        objective = (1.0 - w) * hinge + w * np.array([spent[s] for s in ids], dtype=float)
        counts = [len(s) for s in ids]

        def each(prefix, columns):
            return dict(zip([prefix + name for name in names], columns))

        return {"qi": cols[0], **each("true_", true), **each("belief_", mean),
                **each("std_", np.sqrt(np.maximum(post, 0.0)).tolist()),
                **each("prior_ratio_", (prior / caps).tolist()),
                "n_selected": counts, "selected_ids": [label[s] for s in ids],
                "iterations": counts, "power_w": power, **each("eta_", eta),
                "control": control, "base_reward": reward,
                "satisfied": [int(s) for s in satisfied],
                "weighted_objective": objective.tolist()}

    def episode_totals(self, records) -> dict:
        """An episode's numbers in episodes.csv, from its ``trace`` records
        of this loop: qis, total_power_w and total_base_reward (summed with
        += in QI order, from 0.0), mrmse (the mean over QIs of
        ||true_state - belief_mean||_2, each taken as sqrt(e.dot(e)) on the
        QI's error vector, np.linalg.norm's bits), and mean_selected and
        satisfaction_rate (means over QIs)."""
        k = self.plant.dim
        error = (np.array([r[1:k + 1] for r in records], dtype=float)
                 - np.array([r[k + 1:2 * k + 1] for r in records], dtype=float))
        total_power = total_reward = 0.0
        for r in records:
            total_power += r[-4]
            total_reward += r[-2]
        return {"qis": len(records), "total_power_w": total_power,
                "mrmse": float(np.mean([math.sqrt(e.dot(e)) for e in error])),
                "mean_selected": float(np.mean([len(r[-5]) for r in records])),
                "satisfaction_rate": float(np.mean([r[-1] for r in records])),
                "total_base_reward": total_reward}

    # -- helpers -------------------------------------------------------------

    def _observe(self, positions) -> list:
        """This QI's readings of the agents at fleet ``positions`` (the
        schedulers' ``observe_fn``)."""
        return sensing.read(self.fleet_index, positions, self._true_state,
                            self._obs_rng, self._qi)

    def _policy_input(self, belief: Belief) -> np.ndarray:
        """The belief's mean and standard deviations, as one new array."""
        return np.array(belief.values + belief.deviations)

    def _initial_belief(self) -> Belief:
        return Belief(self.plant.initial_mean,
                      estimator.symmetrize(self.plant.initial_cov), qi=1)
