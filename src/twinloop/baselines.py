"""Benchmark scheduling modes sharing the plant, fleet, estimator and channel.

PERFECT short-circuits estimation entirely (the twin is handed the true
state, zero covariance, zero uplink power). COST_GREEDY and ERROR_GREEDY
always query exactly min(C, M) agents, sorted by distance or by measurement
error, and fuse them through the filter, in the adaptive scheduler's fusion
tail. TRADITIONAL queries a fixed number of randomly drawn agents (one per
feature by default) and substitutes their raw readings into the belief
without any filtering: each agent's reading becomes the mean of its feature,
and its noise variance that feature's variance, uncorrelated with the rest.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from . import estimator, sensing
from .errors import InvalidInputError
from .estimator import Belief
from .scheduler import ScheduleDecision, _caps_met, _fused_decision, _readings


class SchedulingMode(str, Enum):
    REVERB = "reverb"
    PERFECT = "perfect"
    TRADITIONAL = "traditional"
    COST_GREEDY = "cost_greedy"
    ERROR_GREEDY = "error_greedy"


def baseline_schedule(mode: SchedulingMode, prior: Belief, fleet, capacity: int,
                      rng, observe_fn=None, thresholds=None, true_state=None,
                      traditional_count: int = 2) -> ScheduleDecision:
    """Per-interval decision for the non-adaptive benchmark modes.

    ``fleet`` is a ``sensing.FleetIndex`` or a plain list of agents; the
    greedy modes take their fixed order and stacked model from the index.
    ``observe_fn(model)`` returns the 1-D float readings of a selection's
    stacked model, as ``sensing.read`` does.
    """
    mode = SchedulingMode(mode)
    if mode is SchedulingMode.REVERB:
        raise InvalidInputError("the adaptive mode is served by scheduler.schedule")

    caps = thresholds.effective_caps if thresholds is not None else None

    if mode is SchedulingMode.PERFECT:
        if true_state is None:
            raise InvalidInputError("PERFECT mode needs the true state")
        posterior = Belief(np.asarray(true_state, dtype=float),
                           np.zeros_like(prior.cov), prior.qi)
        return ScheduleDecision((), posterior, _caps_met(posterior, caps), 0)

    index = sensing.FleetIndex.of(fleet)
    if mode in (SchedulingMode.COST_GREEDY, SchedulingMode.ERROR_GREEDY):
        if index.state_dim not in (None, prior.mean.shape[0]):
            raise InvalidInputError("fleet observation matrices do not match belief")
        order = (index.by_distance if mode is SchedulingMode.COST_GREEDY
                 else index.by_error)
        chosen = order[:min(capacity, len(order))]
        stacked = cov = gain = None
        if chosen:
            stacked = index.stacked(chosen)
            cov, gain = estimator.posterior_cov(prior.cov, stacked)
        return _fused_decision(prior, index, chosen, stacked, cov, gain, caps,
                               observe_fn)

    # TRADITIONAL: raw readings substituted into the belief, no filter
    # update. With one pick per interval the agent is uniform over the whole
    # fleet; with more picks they cover the features round-robin so the
    # policy sees a full noisy state. Picks are drawn from fleet positions
    # in fleet order.
    dim = prior.mean.shape[0]
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
    mean = prior.mean.copy()
    cov = prior.cov.copy()
    if chosen and observe_fn is not None:
        values = _readings(observe_fn, index.stacked(chosen))
        for p, value in zip(chosen, values):
            k = index.agents[p].feature
            mean[k] = value
            cov[k, :] = 0.0
            cov[:, k] = 0.0
            cov[k, k] = index.variance[p]
    posterior = Belief(mean, cov, prior.qi)
    return ScheduleDecision(tuple(index.ids[p] for p in chosen), posterior,
                            _caps_met(posterior, caps), len(chosen))
