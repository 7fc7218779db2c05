"""Greedy value-of-information agent selection under per-feature variance caps.

Each query interval the twin must bring every feature's posterior variance
under the tighter of the twin's own cap and the accuracy the control agent
requested (effective cap = min(cap, 1/eta)). Starting from the blind prior,
the selector repeatedly picks the violated feature with the largest
variance-to-cap ratio among features still measurable by an available agent,
schedules the cheapest-error agent measuring it, and updates the posterior
covariance with that agent's one reading: a rank-1 Joseph step of the
previous posterior (``estimator.scalar_posterior_cov``), exact because every
agent reads one feature with independent noise. Observation values are not
needed for that, so the readings are requested once, for the final
selection, and fused with the joint gain K = P+ H^T R^-1, which the final
posterior gives without a solve. The loop stops when every cap holds, the
uplink capacity is exhausted, or no violated feature has an agent left.
That last step, reading and fusing a selection whose covariance and gain are
known, is ``_fused_decision``; the greedy baselines end in it too, with the
covariance and gain of one batch ``estimator.posterior_cov`` call.
Per-fleet lookups (agents per feature in cost order, each agent's feature
and noise variance, the stacked model of each ordered selection) come from a
``sensing.FleetIndex`` built once per fleet. The scheduler trusts what the
layers before it checked: the prior covariance is finite and symmetric
(``estimator.predict`` made it so), the readings are finite
(``sensing.read`` checked them), and each rank-1 step returns a symmetric
covariance. The shape of what ``observe_fn`` returns is checked once, by
``_readings``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import estimator, sensing
from .errors import InvalidInputError
from .estimator import Belief


def effective_thresholds(variance_caps, accuracy_request) -> np.ndarray:
    """Elementwise min(cap_k, 1/eta_k), with 1/0 treated as +inf."""
    caps = np.asarray(variance_caps, dtype=float)
    eta = np.asarray(accuracy_request, dtype=float)
    if caps.shape != eta.shape:
        raise InvalidInputError("caps and accuracy request differ in length")
    if (caps <= 0).any():
        raise InvalidInputError("variance caps must be positive")
    if (eta < 0).any():
        raise InvalidInputError("accuracy requests must be nonnegative")
    return _capped(caps, eta)


def _capped(caps, eta) -> np.ndarray:
    """min(cap_k, 1/eta_k), with 1/0 treated as +inf, for inputs known good."""
    requested = np.full(eta.shape, np.inf)
    np.divide(1.0, eta, out=requested, where=eta > 0)
    return np.minimum(caps, requested)


@dataclass(frozen=True)
class QosThresholds:
    """Per-feature variance caps combined with the requested accuracy vector."""

    variance_caps: np.ndarray
    accuracy_request: np.ndarray = None

    def __post_init__(self):
        caps = np.asarray(self.variance_caps, dtype=float)
        eta = (np.zeros_like(caps) if self.accuracy_request is None
               else np.asarray(self.accuracy_request, dtype=float))
        object.__setattr__(self, "variance_caps", caps)
        object.__setattr__(self, "accuracy_request", eta)
        object.__setattr__(self, "effective_caps", effective_thresholds(caps, eta))

    def with_request(self, accuracy_request: np.ndarray) -> "QosThresholds":
        """These caps under a new accuracy request, not checked again.

        The request must be a float vector of the caps' length with entries
        in [0, inf), as ``agent.decode_action`` returns it from an action
        without NaN; these caps were checked when this object was built.
        """
        new = object.__new__(QosThresholds)     # frozen: fill its fields directly
        new.__dict__.update(variance_caps=self.variance_caps,
                            accuracy_request=accuracy_request,
                            effective_caps=_capped(self.variance_caps, accuracy_request))
        return new

    @property
    def dim(self) -> int:
        return self.variance_caps.shape[0]


@dataclass
class ScheduleDecision:
    """Outcome of one query interval's agent selection."""

    selected_ids: tuple
    posterior: Belief
    satisfied: np.ndarray
    iterations: int


def schedule(prior: Belief, thresholds: QosThresholds, fleet, capacity: int,
             observe_fn=None) -> ScheduleDecision:
    """Select at most ``capacity`` agents so the posterior meets the caps.

    ``fleet`` is a ``sensing.FleetIndex`` or a plain list of agents (indexed
    on the fly). ``observe_fn(model)`` supplies the 1-D float readings of
    the final selection, one per row of its stacked model, as
    ``sensing.read`` returns them; when omitted the decision carries the
    covariance-only posterior with the prior mean (enough for selection
    analysis and tests).
    """
    index = sensing.FleetIndex.of(fleet)
    caps = thresholds.effective_caps
    if caps.shape[0] != prior.mean.shape[0]:
        raise InvalidInputError("threshold dimension does not match belief")
    if index.state_dim not in (None, prior.mean.shape[0]):
        raise InvalidInputError("fleet observation matrices do not match belief")
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

    stacked = gain = None
    if chosen:
        # K = P+ H^T R^-1: H^T picks the measured columns, R is diagonal
        stacked = index.stacked(chosen)
        gain = cov[:, [features[p] for p in chosen]] * (1.0 / variance[chosen])
    return _fused_decision(prior, index, chosen, stacked, cov, gain, caps,
                           observe_fn)


def _fused_decision(prior: Belief, index, chosen, stacked, cov, gain, caps,
                    observe_fn) -> ScheduleDecision:
    """The decision that fuses the agents at fleet positions ``chosen``.

    ``stacked`` is their joint model, and ``cov`` and ``gain`` are its
    posterior covariance and Kalman gain; none of the three is read when
    nothing was chosen. The readings are ``observe_fn(stacked)``;
    without it the posterior keeps the prior mean. ``caps`` None counts
    every cap as met.
    """
    if not chosen:
        posterior = prior.copy()
    elif observe_fn is None:
        posterior = Belief(prior.mean.copy(), cov, prior.qi)
    else:
        values = _readings(observe_fn, stacked)
        posterior = Belief(estimator.fused_mean(prior, stacked, gain, values),
                           cov, prior.qi)
    return ScheduleDecision(stacked.agent_ids if chosen else (), posterior,
                            _caps_met(posterior, caps), len(chosen))


def _readings(observe_fn, model) -> np.ndarray:
    """``observe_fn(model)``, checked once: the caller's callback must give
    a 1-D vector with one reading per row of ``model``, which
    ``estimator.fused_mean`` then trusts."""
    values = observe_fn(model)
    if getattr(values, "shape", None) != model.matrix.shape[:1]:
        raise InvalidInputError(f"observe_fn must return 1-D readings, one per row "
                                f"of {model.matrix.shape}: got {np.shape(values)}")
    return values


def _caps_met(posterior: Belief, caps) -> np.ndarray:
    """Per feature, whether the posterior variance is within its effective
    cap; every feature when ``caps`` is None."""
    if caps is None:
        return np.ones(posterior.mean.shape[0], dtype=bool)
    return posterior.cov.diagonal() <= caps


def weighted_objective(decision: ScheduleDecision, thresholds: QosThresholds,
                       accuracy_weight: float, powers) -> float:
    """Diagnostic mixing residual threshold violations with spent power.

    (1 - w) * sum_k max(post_k/cap_k - 1, 0) + w * sum(powers); logged per
    query interval, never optimized directly.
    """
    if not 0.0 <= accuracy_weight <= 1.0:
        raise InvalidInputError("accuracy_weight must lie in [0, 1]")
    ratios = decision.posterior.cov.diagonal() / thresholds.effective_caps
    hinge = np.maximum(ratios - 1.0, 0.0).sum()
    return float((1.0 - accuracy_weight) * hinge
                 + accuracy_weight * float(np.sum(powers)))
