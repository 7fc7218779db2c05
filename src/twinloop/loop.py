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
evaluation harness drive the same code. The QI's pieces of the control
agent live here, where ``TwinLoop.step`` calls them: ``decode_action``
maps a raw policy output, a list of floats, onto an ``AugmentedAction``,
and ``base_reward`` and ``shape_reward`` (under a ``CostMode``) give the
reward.

With ``record_trace`` a loop keeps one flat tuple of plain values per QI
(``TwinLoop.trace``), its only record of what a QI did; without it a loop
keeps no per-QI state. ``TwinLoop.trace_table`` derives the columns of
trace_<i>.csv from one episode's tuples, once, column by column, with one
column per plant feature where a column is per feature, and
``TwinLoop.episode_totals`` the episode's row of episodes.csv. Only this
module knows the layout of a record.

Within a query interval values pass between the layers as Python floats:
the decoded action, the caps, the belief (``Belief.values`` and
``Belief.rows``), the readings, the true state and the policy input. An
array is built only where a layer needs one: a BLAS product (the policy's
net takes the normalized input as one) and a ``Generator`` draw.

Episode randomness is split into independent substreams (initial state and
process noise / observation noise / benchmark agent picks), so two modes run
with the same episode seed share plant noise draws: paired comparisons use
common random numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import channel as channel_mod
from . import estimator, scheduler, sensing
from .errors import ConfigurationError, InvalidInputError, NumericalFailureError
from .estimator import Belief
from .scheduler import SchedulingMode, baseline_schedule
from .settings import check


class CostMode(str, Enum):
    """How requested accuracy enters the shaped reward.

    PENALTY charges kappa * mean(eta) (cost non-increasing in accuracy is
    impossible to reward, so higher requests cost reward); PAPER_EQ24 adds
    kappa * sum(eta) / 2 as a bonus instead, reproducing the published
    formula literally.
    """

    PENALTY = "penalty"
    PAPER_EQ24 = "paper_eq24"


class AugmentedAction(NamedTuple):
    """Physical control plus requested per-feature accuracies, both lists
    of floats, as ``decode_action`` builds them."""

    control: list   # Z floats in [-1, 1]
    accuracy: list  # K floats in [0, eta_max]


def base_reward(control: float, reached_goal: bool,
                termination_bonus: float) -> float:
    """Quadratic effort cost plus the goal bonus: -0.1 a^2 (+ bonus)."""
    r = -0.1 * float(control) ** 2
    if reached_goal:
        r += termination_bonus
    return r


def shape_reward(reward: float, accuracy, kappa: float,
                 cost_mode: CostMode) -> float:
    """Fold the accuracy request, floats, into the reward according to
    ``cost_mode``.

    The request's sum is taken in order from 0.0, which is numpy's sum for
    fewer than eight entries (one per plant feature: the plants have two);
    its mean is that sum over its length, as np.mean takes it. ``kappa``
    is the config's ``rl.reward_weight``, checked >= 0 with it."""
    total = 0.0
    for eta in accuracy:
        total += eta
    if cost_mode is CostMode.PENALTY:
        return float(reward - kappa * (total / len(accuracy)))
    return float(reward + kappa * 0.5 * total)


def decode_action(raw, eta_max: float, control_dim: int = 1) -> AugmentedAction:
    """Map a raw policy output in [-1, 1]^(Z+K), a list of floats, onto
    controls and accuracies.

    Out-of-range raw entries (including +-inf) are clamped before mapping.
    The clamps are taken on floats: min(max(x, lo), hi) keeps x on a tie
    and a NaN x, as np.minimum(hi, np.maximum(lo, x)) does.
    """
    control = [min(max(x, -1.0), 1.0) for x in raw[:control_dim]]
    eta = [min(max(eta_max * (x + 1.0) / 2.0, 0.0), eta_max)
           for x in raw[control_dim:]]
    return AugmentedAction(control, eta)


def episode_seed(master_seed: int, namespace: int, index: int) -> np.random.SeedSequence:
    """Seed of episode ``index`` of a run: training episodes use namespace 1
    and evaluation episodes namespace 2, so the two never share a seed."""
    return np.random.SeedSequence(master_seed, spawn_key=(namespace, index))


@dataclass
class StepResult:
    policy_input: list
    base_reward: float
    shaped_reward: float
    terminated: bool
    truncated: bool


class TwinLoop:
    """Episode driver binding plant, fleet, filter, scheduler and channel."""

    def __init__(self, config, record_trace=False):
        # the one place a run's settings are checked (each field of each
        # section against its rule) and its plant, fleet and link powers
        # built and checked, so a bad one fails before any episode or
        # output (the config's validate builds a loop). The non-adaptive
        # modes are judged by the caps, and each adaptive QI applies its
        # request to them without a second check
        check(config)
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

    def reset(self, seed) -> list:
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
                    all(decision.satisfied)))

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
        sqrt(max(var, 0)), prior_ratio is prior var / cap (inf where it
        overflows: a diagnostic of a run that went through), and
        weighted_objective, a diagnostic that is logged and never
        optimized, is (1 - w) sum_k max(var_k / cap_k - 1, 0) + w np.sum(powers)
        with w the accuracy weight, and w np.sum(powers) alone at w = 1,
        where the hinge may overflow to inf. That np.sum is a pairwise sum,
        not the sequential one behind power_w, so it is taken per selection.
        """
        names = self.plant.feature_names
        k = len(names)
        cols = list(zip(*records)) or [()] * (6 * k + 6)
        raw = cols[1:6 * k + 1]
        true, mean, post, prior, caps, eta = (raw[i * k:(i + 1) * k] for i in range(6))
        post, prior, caps = (np.array(c, dtype=float).reshape(k, -1)
                             for c in (post, prior, caps))
        ids, power, control, reward, satisfied = cols[6 * k + 1:]
        with np.errstate(over="ignore"):
            prior_ratio = (prior / caps).tolist()
            # summed per QI over a C-ordered (QI, feature) array, which
            # gives the bits of np.sum over one QI's features
            hinge = np.ascontiguousarray(np.maximum(post / caps - 1.0, 0.0).T).sum(axis=1)
        selections = set(ids)
        spent = {s: float(np.sum([self.power_by_id[i] for i in s])) for s in selections}
        label = {s: ";".join(str(i) for i in s) for s in selections}
        w = self.accuracy_weight
        objective = w * np.array([spent[s] for s in ids], dtype=float)
        if w != 1.0:  # at w = 1 the hinge weighs 0 and may be inf
            objective = (1.0 - w) * hinge + objective
        counts = [len(s) for s in ids]

        def each(prefix, columns):
            return dict(zip([prefix + name for name in names], columns))

        return {"qi": cols[0], **each("true_", true), **each("belief_", mean),
                **each("std_", np.sqrt(np.maximum(post, 0.0)).tolist()),
                **each("prior_ratio_", prior_ratio),
                "n_selected": counts, "selected_ids": [label[s] for s in ids],
                "iterations": counts, "power_w": power, **each("eta_", eta),
                "control": control, "base_reward": reward,
                "satisfied": [int(s) for s in satisfied],
                "weighted_objective": objective.tolist()}

    def episode_totals(self, records) -> dict:
        """An episode's numbers in episodes.csv, from its ``trace`` records
        of this loop: qis, total_power_w and total_base_reward (summed with
        += in QI order, from 0.0), mrmse (the mean over QIs of
        ||true_state - belief_mean||_2, taken for all QIs at once as the
        sqrt of a stack of (1, K) @ (K, 1) products of the error vectors,
        whose bits are each QI's sqrt(e.dot(e)), np.linalg.norm's), and
        mean_selected and satisfaction_rate (means over QIs). Raises
        NumericalFailureError, with the first QI whose error norm is not
        finite, when the mrmse is not."""
        k = self.plant.dim
        with np.errstate(over="ignore", invalid="ignore"):
            error = (np.array([r[1:k + 1] for r in records], dtype=float)
                     - np.array([r[k + 1:2 * k + 1] for r in records], dtype=float))
            norms = np.sqrt((error[:, None, :] @ error[:, :, None])[:, 0, 0])
            mrmse = float(np.mean(norms))
        if not math.isfinite(mrmse):
            first = records[np.flatnonzero(~np.isfinite(norms))[0]][0]
            raise NumericalFailureError("non-finite estimation error norm", qi=first)
        total_power = total_reward = 0.0
        for r in records:
            total_power += r[-4]
            total_reward += r[-2]
        return {"qis": len(records), "total_power_w": total_power,
                "mrmse": mrmse,
                "mean_selected": float(np.mean([len(r[-5]) for r in records])),
                "satisfaction_rate": float(np.mean([r[-1] for r in records])),
                "total_base_reward": total_reward}

    # -- helpers -------------------------------------------------------------

    def _observe(self, positions) -> list:
        """This QI's readings of the agents at fleet ``positions`` (the
        schedulers' ``observe_fn``)."""
        return sensing.read(self.fleet_index, positions, self._true_state,
                            self._obs_rng, self._qi)

    def _policy_input(self, belief: Belief) -> list:
        """The belief's mean and standard deviations, as one new list of
        floats."""
        return belief.values + belief.deviations

    def _initial_belief(self) -> Belief:
        return Belief(self.plant.initial_mean,
                      estimator.symmetrize(self.plant.initial_cov), qi=1)
