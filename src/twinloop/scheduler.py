"""One query interval's agent selection, in every scheduling mode.

REVERB, the adaptive mode, must bring every feature's posterior variance
under the tighter of the twin's own cap and the accuracy the control agent
requested (effective cap = min(cap, 1/eta), ``requested_caps``). Starting
from the blind prior, ``schedule`` repeatedly picks the violated feature
with the largest variance-to-cap ratio among features still measurable by an
available agent, schedules the cheapest-error agent measuring it, and
updates the posterior covariance with that agent's one reading: a rank-1
Joseph step of the previous posterior (``estimator.scalar_posterior_cov``),
exact because every agent reads one feature with independent noise.
Observation values are not needed for that, so the readings are requested
once, for the final selection, and fused with the joint gain
K = P+ H^T R^-1, which the final posterior gives without a solve. The loop
stops when every cap holds, the uplink capacity is exhausted, or no violated
feature has an agent left.

``baseline_schedule`` serves the benchmark modes, under the fixed caps.
PERFECT short-circuits estimation entirely (the twin is handed the true
state, zero covariance, zero uplink power). COST_GREEDY and ERROR_GREEDY
always query exactly min(C, M) agents, sorted by distance or by measurement
error. Mode, fleet and capacity fix that selection, so a loop builds it
once (``greedy_selection``), with its fusion steps: the readings of one
feature are independent, so together they act as one reading whose
precision is the sum of theirs, and the posterior takes one rank-1 step
per measured feature, at most one per state feature. No scheduler calls
the batch ``estimator.posterior_cov``; it is the oracle they are tested
against. TRADITIONAL queries a fixed number of randomly drawn agents (one
per feature by default) and substitutes their raw readings into the belief
without any filtering: each agent's reading becomes the mean of its
feature, and its noise variance that feature's variance, uncorrelated with
the rest.

A selection is the tuple of its agents' positions in the fleet, and the
readings are requested as ``observe_fn(positions)``; a ``Selection`` is
such a tuple with the lookups its fusion reads, built once with it. Reading and fusing a
selection whose posterior covariance is known is ``_fused_decision``,
shared by REVERB and the greedy modes; a reading of feature k is fused
against the prior mean of feature k. Per-fleet lookups (agents per feature
in cost order, each agent's id, feature, noise variance and precision)
come from the ``sensing.FleetIndex`` the caller built once per fleet,
against the plant's state dimension; nothing else is taken as a fleet.
Each scheduler checks that dimension against the prior's. The schedulers
trust what the layers before them checked: the caps are positive
(``TwinLoop`` checked them), the prior covariance is finite and symmetric
(``estimator.predict`` made it so), the readings are finite
(``sensing.read`` checked them), a feature's summed precision is finite
(the ``FleetIndex`` checked it), and each rank-1 step returns a symmetric
covariance. The shape of what ``observe_fn`` returns is checked once, by
``_readings``. Every scheduler takes what ``TwinLoop.step`` passes and
nothing else: a ``SchedulingMode``, the caps, the true state, the greedy
selection and ``observe_fn``, each required, so every decision with a
selection fuses that selection's readings.

A query interval hands its values on as Python floats: the caps, the
prior's ``Belief.values`` and ``Belief.rows``, the covariance rows between
rank-1 steps, the readings and the posterior, and
``ScheduleDecision.satisfied`` is a tuple of bools. An array is built only
for the fused mean's BLAS product.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import estimator, sensing
from .errors import InvalidInputError
from .estimator import Belief


class SchedulingMode(str, Enum):
    REVERB = "reverb"
    PERFECT = "perfect"
    TRADITIONAL = "traditional"
    COST_GREEDY = "cost_greedy"
    ERROR_GREEDY = "error_greedy"


GREEDY_MODES = (SchedulingMode.COST_GREEDY, SchedulingMode.ERROR_GREEDY)


def requested_caps(caps, eta) -> list:
    """min(cap_k, 1/eta_k) as floats, with 1/0 treated as +inf, for inputs
    known good: positive float caps and a float request of their length in
    [0, inf), as ``loop.decode_action`` returns it from an action without
    NaN. A division and a minimum per feature give numpy's bits."""
    return [min(cap, 1.0 / e) if e > 0 else cap for cap, e in zip(caps, eta)]


@dataclass
class ScheduleDecision:
    """Outcome of one query interval's agent selection."""

    selected_ids: tuple
    posterior: Belief
    satisfied: tuple          # bool per feature

    @property
    def iterations(self) -> int:
        """Scheduler iterations: one per selected agent."""
        return len(self.selected_ids)


def schedule(prior: Belief, caps, index: sensing.FleetIndex,
             capacity: int, observe_fn) -> ScheduleDecision:
    """Select at most ``capacity`` agents so the posterior meets ``caps``,
    the effective caps (floats, one per feature).

    ``index`` is the fleet's ``sensing.FleetIndex``. ``observe_fn(positions)``
    supplies the float readings of the agents at those fleet positions,
    one per position, as ``sensing.read`` returns them.
    """
    dim = len(prior.values)
    if len(caps) != dim:
        raise InvalidInputError("threshold dimension does not match belief")
    if index.state_dim != dim:
        raise InvalidInputError("fleet state dimension does not match belief")
    if capacity < 0:
        raise InvalidInputError("capacity must be nonnegative")

    cov = prior.rows
    features, variance = index.features, index.variance
    chosen = []           # fleet positions, in selection order
    limit = min(capacity, len(index))

    while len(chosen) < limit:
        # candidate features: violated AND measurable by an available agent,
        # each by its cheapest available agent (noise variance, then agent
        # id); the largest ratio wins, ties breaking on the lowest feature
        pick = None
        for k, (row, cap) in enumerate(zip(cov, caps)):
            v = row[k]
            if v > cap:
                for p in index.by_feature[k]:
                    if p not in chosen:
                        if pick is None or v / cap > ratio:
                            pick, ratio = p, v / cap
                        break
        if pick is None:
            break
        chosen.append(pick)
        cov = estimator.scalar_posterior_cov(cov, features[pick], variance[pick])
    return _fused_decision(prior, Selection(index, chosen) if chosen else (),
                           cov, caps, observe_fn)


class Selection(tuple):
    """The fleet positions of a selection, in order, with the lookups its
    fusion reads, built with it, as tuples: each agent's feature
    (``features``), noise precision 1/variance as a float (``precision``)
    and id (``ids``). A greedy mode's is built once per loop, by
    ``greedy_selection``; REVERB's once per QI."""

    def __new__(cls, index: sensing.FleetIndex, positions):
        selection = super().__new__(cls, positions)
        selection.features = tuple(index.features[p] for p in selection)
        selection.precision = tuple(index.precision[p] for p in selection)
        selection.ids = tuple(index.ids[p] for p in selection)
        return selection


def greedy_selection(mode: SchedulingMode, index: sensing.FleetIndex,
                     capacity: int):
    """What a greedy mode reads every QI, as a pair of tuples: the
    ``Selection`` of the first min(C, M) agents in distance or error order,
    and one (feature, r_k) step per feature they measure, in feature order,
    where r_k = 1 / sum(1 / r_i) over the selected agents reading feature k.
    None for the other modes, which read no fixed selection."""
    if mode not in GREEDY_MODES:
        return None
    order = (index.by_distance if mode is SchedulingMode.COST_GREEDY
             else index.by_error)
    chosen = order[:min(capacity, len(order))]
    precision = {}
    for p in chosen:
        k = index.features[p]
        precision[k] = precision.get(k, 0.0) + index.precision[p]
    return (Selection(index, chosen),
            tuple((k, 1.0 / precision[k]) for k in sorted(precision)))


def baseline_schedule(mode: SchedulingMode, prior: Belief,
                      index: sensing.FleetIndex, rng,
                      observe_fn, caps, true_state, *,
                      traditional_count: int, greedy) -> ScheduleDecision:
    """Per-interval decision for the non-adaptive benchmark modes.

    ``index`` is the fleet's ``sensing.FleetIndex``; the greedy modes take
    their fixed order from it, through ``greedy``: their selection and
    fusion steps as ``greedy_selection`` returns them for this mode, fleet
    and capacity (None in the other modes).
    ``observe_fn(positions)`` returns the float readings of the agents
    at those fleet positions, as ``sensing.read`` does. ``caps`` are the
    fixed variance caps (floats) that ``satisfied`` is judged by, and
    ``true_state`` the plant's state, which PERFECT hands the twin.
    """
    if mode is SchedulingMode.REVERB:
        raise InvalidInputError("the adaptive mode is served by schedule")
    if mode is SchedulingMode.PERFECT:
        dim = len(prior.values)
        posterior = Belief.of_floats(np.asarray(true_state, dtype=float).tolist(),
                                     [[0.0] * dim for _ in range(dim)], prior.qi)
        return ScheduleDecision((), posterior, _caps_met(posterior, caps))

    if mode in GREEDY_MODES:
        if index.state_dim != len(prior.values):
            raise InvalidInputError("fleet state dimension does not match belief")
        chosen, steps = greedy
        # independent readings of one feature fuse as one reading with
        # their summed precision: one rank-1 step per measured feature
        cov = prior.rows
        for k, r in steps:
            cov = estimator.scalar_posterior_cov(cov, k, r)
        return _fused_decision(prior, chosen, cov, caps, observe_fn)

    # TRADITIONAL: raw readings substituted into the belief, no filter
    # update. With one pick per interval the agent is uniform over the whole
    # fleet; with more picks they cover the features round-robin so the
    # policy sees a full noisy state. Picks are drawn from fleet positions
    # in fleet order.
    dim = len(prior.values)
    count = min(traditional_count, len(index))
    chosen = []
    pool = list(range(len(index)))
    for i in range(count):
        options = pool
        if count >= dim:
            options = [p for p in index.measuring[i % dim] if p in pool] or pool
        pick = options[int(rng.integers(len(options)))]
        chosen.append(pick)
        pool.remove(pick)
    # written into copies of the prior's floats
    mean = list(prior.values)
    rows = [list(row) for row in prior.rows]
    if chosen:
        for p, value in zip(chosen, _readings(observe_fn, chosen)):
            k = index.features[p]
            mean[k] = value
            for row in rows:
                row[k] = 0.0
            rows[k] = [0.0] * dim
            rows[k][k] = index.variance[p]
    posterior = Belief.of_floats(mean, rows, prior.qi)
    return ScheduleDecision(tuple(index.ids[p] for p in chosen), posterior,
                            _caps_met(posterior, caps))


def _fused_decision(prior: Belief, selection: Selection, cov, caps,
                    observe_fn) -> ScheduleDecision:
    """The decision that fuses the agents of ``selection``, a ``Selection``
    or, when nothing was chosen, an empty tuple.

    ``cov`` is their posterior covariance (``Belief.rows``), not read when
    nothing was chosen. The readings are ``observe_fn(selection)``, fused
    with the joint gain K = P+ H^T R^-1 (``estimator.joint_gain``), which
    needs no solve: H^T picks the measured columns and R is diagonal.
    """
    if not selection:
        posterior = prior.copy()
        return ScheduleDecision((), posterior, _caps_met(posterior, caps))
    values = _readings(observe_fn, selection)
    gain = estimator.joint_gain(cov, selection.features, selection.precision)
    posterior = Belief.of_floats(
        estimator.fused_mean(prior, selection.features, gain, values), cov, prior.qi)
    return ScheduleDecision(selection.ids, posterior, _caps_met(posterior, caps))


def _readings(observe_fn, positions) -> list:
    """``observe_fn(positions)``, checked once: the caller's callback must
    give one reading per position as a list of floats, as ``sensing.read``
    does, which ``estimator.fused_mean`` then trusts."""
    values = observe_fn(positions)
    if not (isinstance(values, list) and len(values) == len(positions)):
        raise InvalidInputError(f"observe_fn must return 1-D readings, one for each "
                                f"of {len(positions)} agents: got {np.shape(values)}")
    return values


def _caps_met(posterior: Belief, caps) -> tuple:
    """Per feature, whether the posterior variance is within its effective
    cap."""
    return tuple(v <= cap for v, cap in zip(posterior.variances, caps))
