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
error, with the covariance and gain of one batch ``estimator.posterior_cov``
call on the selection's ``estimator.stack``; mode, fleet and capacity fix
that selection, so a loop builds it once (``greedy_selection``).
TRADITIONAL queries a fixed number of randomly drawn agents (one per
feature by default) and substitutes their raw readings into the belief
without any filtering: each agent's reading becomes the mean of its
feature, and its noise variance that feature's variance, uncorrelated with
the rest.

A selection is the tuple of its agents' positions in the fleet, and the
readings are requested as ``observe_fn(positions)``. Reading and fusing a
selection whose covariance and gain are known is ``_fused_decision``,
shared by REVERB and the greedy modes; a reading of feature k is fused
against the prior mean of feature k. Per-fleet lookups (agents per feature
in cost order, each agent's id, feature and noise variance) come from the
``sensing.FleetIndex`` the caller built once per fleet, against the
plant's state dimension; nothing else is taken as a fleet. Each scheduler
checks that dimension against the prior's. The schedulers trust what the
layers before them checked: the caps are positive (``TwinLoop`` checked
them), the prior covariance is finite and symmetric (``estimator.predict``
made it so), the readings are finite (``sensing.read`` checked them), and
each rank-1 step returns a symmetric covariance. The shape of what
``observe_fn`` returns is checked once, by ``_readings``.
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


def effective_thresholds(variance_caps, accuracy_request) -> np.ndarray:
    """Elementwise min(cap_k, 1/eta_k), with 1/0 treated as +inf; NaN caps
    and requests are rejected."""
    caps = np.asarray(variance_caps, dtype=float)
    eta = np.asarray(accuracy_request, dtype=float)
    if caps.shape != eta.shape:
        raise InvalidInputError("caps and accuracy request differ in length")
    if not (caps > 0).all():
        raise InvalidInputError("variance caps must be positive")
    if not (eta >= 0).all():
        raise InvalidInputError("accuracy requests must be nonnegative")
    return requested_caps(caps, eta)


def requested_caps(caps, eta) -> np.ndarray:
    """min(cap_k, 1/eta_k), with 1/0 treated as +inf, for inputs known good:
    positive caps and a float request of their length in [0, inf), as
    ``agent.decode_action`` returns it from an action without NaN."""
    requested = np.full(eta.shape, np.inf)
    np.divide(1.0, eta, out=requested, where=eta > 0)
    return np.minimum(caps, requested)


@dataclass
class ScheduleDecision:
    """Outcome of one query interval's agent selection."""

    selected_ids: tuple
    posterior: Belief
    satisfied: np.ndarray

    @property
    def iterations(self) -> int:
        """Scheduler iterations: one per selected agent."""
        return len(self.selected_ids)


def schedule(prior: Belief, caps: np.ndarray, index: sensing.FleetIndex,
             capacity: int, observe_fn=None) -> ScheduleDecision:
    """Select at most ``capacity`` agents so the posterior meets ``caps``,
    the effective caps (a float vector, one per feature).

    ``index`` is the fleet's ``sensing.FleetIndex``. ``observe_fn(positions)``
    supplies the 1-D float readings of the agents at those fleet positions,
    one per position, as ``sensing.read`` returns them; when omitted the
    decision carries the covariance-only posterior with the prior mean
    (enough for selection analysis and tests).
    """
    if caps.shape[0] != prior.mean.shape[0]:
        raise InvalidInputError("threshold dimension does not match belief")
    if index.state_dim != prior.mean.shape[0]:
        raise InvalidInputError("fleet state dimension does not match belief")
    if capacity < 0:
        raise InvalidInputError("capacity must be nonnegative")

    cov = prior.cov
    features, variance = index.features, index.variance
    chosen = []           # fleet positions, in selection order
    limit = min(capacity, len(index))

    while len(chosen) < limit:
        diag = cov.diagonal()
        violated = (diag > caps).nonzero()[0]
        if violated.size == 0:
            break
        # candidate features: violated AND measurable by an available agent;
        # each one's cheapest available agent (noise variance, then agent id)
        picks = {}
        for k in violated.tolist():
            pick = next((p for p in index.by_feature[k] if p not in chosen), None)
            if pick is not None:
                picks[k] = pick
        if not picks:
            break
        # largest ratio wins; ties break on the lowest feature index
        candidates = list(picks)
        ratios = diag[candidates] / caps[candidates]
        pick = picks[candidates[int(ratios.argmax())]]
        chosen.append(pick)
        cov = estimator.scalar_posterior_cov(cov, features[pick], variance[pick])

    gain = None
    if chosen:
        # K = P+ H^T R^-1: H^T picks the measured columns, R is diagonal
        gain = cov[:, [features[p] for p in chosen]] * (1.0 / variance[chosen])
    return _fused_decision(prior, index, chosen, cov, gain, caps, observe_fn)


def greedy_selection(mode: SchedulingMode, index: sensing.FleetIndex,
                     capacity: int):
    """The fleet positions a greedy mode reads every QI, the first
    min(C, M) in distance or error order, and their stacked observation
    model, read-only (None for an empty selection). None for the other
    modes, which read no fixed selection."""
    mode = SchedulingMode(mode)
    if mode not in GREEDY_MODES:
        return None
    order = (index.by_distance if mode is SchedulingMode.COST_GREEDY
             else index.by_error)
    chosen = order[:min(capacity, len(order))]
    if not chosen:
        return chosen, None
    model = estimator.stack((index.agents[p] for p in chosen), index.state_dim)
    for array in (model.matrix, model.noise_cov):
        array.setflags(write=False)
    return chosen, model


def baseline_schedule(mode: SchedulingMode, prior: Belief,
                      index: sensing.FleetIndex, rng,
                      observe_fn=None, caps=None, true_state=None,
                      traditional_count: int = 2, greedy=None) -> ScheduleDecision:
    """Per-interval decision for the non-adaptive benchmark modes.

    ``index`` is the fleet's ``sensing.FleetIndex``; the greedy modes take
    their fixed order from it, through ``greedy``: their selection and
    model as ``greedy_selection`` returns them for this mode, fleet and
    capacity, which a greedy mode must be given.
    ``observe_fn(positions)`` returns the 1-D float readings of the agents
    at those fleet positions, as ``sensing.read`` does. ``caps`` are the
    fixed variance caps that ``satisfied`` is judged by; None counts every
    cap as met.
    """
    mode = SchedulingMode(mode)
    if mode is SchedulingMode.REVERB:
        raise InvalidInputError("the adaptive mode is served by schedule")
    if mode is SchedulingMode.PERFECT:
        if true_state is None:
            raise InvalidInputError("PERFECT mode needs the true state")
        posterior = Belief(np.asarray(true_state, dtype=float),
                           np.zeros_like(prior.cov), prior.qi)
        return ScheduleDecision((), posterior, _caps_met(posterior, caps))

    if mode in GREEDY_MODES:
        if index.state_dim != prior.mean.shape[0]:
            raise InvalidInputError("fleet state dimension does not match belief")
        if greedy is None:
            raise InvalidInputError("a greedy mode reads its greedy_selection")
        chosen, model = greedy
        cov = gain = None
        if chosen:
            cov, gain = estimator.posterior_cov(prior.cov, model)
        return _fused_decision(prior, index, chosen, cov, gain, caps, observe_fn)

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
        values = _readings(observe_fn, chosen)
        for p, value in zip(chosen, values):
            k = index.features[p]
            mean[k] = value
            cov[k, :] = 0.0
            cov[:, k] = 0.0
            cov[k, k] = index.variance[p]
    posterior = Belief(mean, cov, prior.qi)
    return ScheduleDecision(tuple(index.ids[p] for p in chosen), posterior,
                            _caps_met(posterior, caps))


def _fused_decision(prior: Belief, index, chosen, cov, gain, caps,
                    observe_fn) -> ScheduleDecision:
    """The decision that fuses the agents at fleet positions ``chosen``.

    ``cov`` and ``gain`` are their posterior covariance and Kalman gain;
    neither is read when nothing was chosen. The readings are
    ``observe_fn(chosen)``; without it the posterior keeps the prior mean.
    ``caps`` None counts every cap as met.
    """
    if not chosen:
        posterior = prior.copy()
    elif observe_fn is None:
        posterior = Belief(prior.mean.copy(), cov, prior.qi)
    else:
        values = _readings(observe_fn, chosen)
        features = [index.features[p] for p in chosen]
        posterior = Belief(estimator.fused_mean(prior, features, gain, values),
                           cov, prior.qi)
    return ScheduleDecision(tuple(index.ids[p] for p in chosen), posterior,
                            _caps_met(posterior, caps))


def _readings(observe_fn, positions) -> np.ndarray:
    """``observe_fn(positions)``, checked once: the caller's callback must
    give a 1-D vector with one reading per position, which
    ``estimator.fused_mean`` then trusts."""
    values = observe_fn(positions)
    if getattr(values, "shape", None) != (len(positions),):
        raise InvalidInputError(f"observe_fn must return 1-D readings, one for each "
                                f"of {len(positions)} agents: got {np.shape(values)}")
    return values


def _caps_met(posterior: Belief, caps) -> np.ndarray:
    """Per feature, whether the posterior variance is within its effective
    cap; every feature when ``caps`` is None."""
    if caps is None:
        return np.ones(posterior.mean.shape[0], dtype=bool)
    return posterior.cov.diagonal() <= caps
