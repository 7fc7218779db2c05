"""Shared test oracles: batch Bayesian least squares, Marcum Q and the full
Rician series, Rician gains and outage fractions from two allocating
draws per chunk, finite differences, the list-based greedy scheduler the
indexed one replaced, the greedy baselines fused through
``estimator.update``, readings fused in exact rational arithmetic,
randomized scheduling cases, the trace rows built one
QI at a time, the CSV files as ``csv.writer`` writes them, the summary
statistics taken one field at a time, an episode's metrics accumulated
one QI at a time, the
effective thresholds checked for any input, PPO training collected one
whole step at a time, the PPO update one network at a time (its loss,
backward pass, clip and an Adam per network) and GAE on numpy scalars,
and the
straightforward forms of the per-step numerics that
the package computes with fewer numpy calls or in place (Adam, the
global-norm clip, the mountain-car step, action decoding, input
normalization and the innovation conditioning guard), and the array
forms of the per-QI layers that the package now takes on floats
(prediction, the mountain-car map and Jacobian, the requested caps, the
rank-1 step, the fused mean and the policy input)."""

import copy
import csv
import math
from fractions import Fraction

import numpy as np
from scipy import stats

from twinloop import Belief, SensingAgentSpec, TwinLoop, estimator, scheduler, sensing
from twinloop.errors import InvalidInputError, NumericalFailureError
from twinloop.estimator import CONDITION_LIMIT
from twinloop.scheduler import ScheduleDecision, requested_caps


def effective_thresholds(variance_caps, accuracy_request) -> np.ndarray:
    """Elementwise min(cap_k, 1/eta_k), with 1/0 treated as +inf, from any
    input: NaN caps and requests are rejected, and the rest is
    ``scheduler.requested_caps``, which the loop calls on inputs it has
    already checked."""
    caps = np.asarray(variance_caps, dtype=float)
    eta = np.asarray(accuracy_request, dtype=float)
    if caps.shape != eta.shape:
        raise InvalidInputError("caps and accuracy request differ in length")
    if not (caps > 0).all():
        raise InvalidInputError("variance caps must be positive")
    if not (eta >= 0).all():
        raise InvalidInputError("accuracy requests must be nonnegative")
    return np.array(requested_caps(caps.tolist(), eta.tolist()))


def batch_linear_gaussian_posterior(transition, control_matrix, process_cov,
                                    initial_mean, initial_cov, controls,
                                    observations):
    """Exact filtered marginals of a linear-Gaussian chain, by brute force.

    ``observations[t]`` is a list of (H, R, o) triples received at step t+1
    (1-based chain positions; the initial state is position 0). For each t,
    the posterior over the whole chain s_0..s_t given data up to t is formed
    in information (precision) space and the marginal of s_t extracted.
    Returns a list of (mean_t, cov_t), one entry per step 1..T.
    """
    a = np.asarray(transition, dtype=float)
    b = np.asarray(control_matrix, dtype=float)
    q_inv = np.linalg.inv(np.asarray(process_cov, dtype=float))
    p0_inv = np.linalg.inv(np.asarray(initial_cov, dtype=float))
    k = a.shape[0]
    results = []
    t_total = len(observations)
    for t in range(1, t_total + 1):
        dim = k * (t + 1)
        lam = np.zeros((dim, dim))
        eta = np.zeros(dim)
        lam[:k, :k] += p0_inv
        eta[:k] += p0_inv @ np.asarray(initial_mean, dtype=float)
        for i in range(1, t + 1):
            sl_prev = slice((i - 1) * k, i * k)
            sl_cur = slice(i * k, (i + 1) * k)
            drive = b @ np.atleast_1d(controls[i - 1])
            lam[sl_prev, sl_prev] += a.T @ q_inv @ a
            lam[sl_prev, sl_cur] += -a.T @ q_inv
            lam[sl_cur, sl_prev] += -q_inv @ a
            lam[sl_cur, sl_cur] += q_inv
            eta[sl_prev] += -a.T @ q_inv @ drive
            eta[sl_cur] += q_inv @ drive
            for h, r, o in observations[i - 1]:
                h = np.atleast_2d(h)
                r_inv = np.linalg.inv(np.atleast_2d(r))
                lam[sl_cur, sl_cur] += h.T @ r_inv @ h
                eta[sl_cur] += h.T @ r_inv @ np.atleast_1d(o)
        cov_full = np.linalg.inv(lam)
        mean_full = cov_full @ eta
        sl = slice(t * k, (t + 1) * k)
        results.append((mean_full[sl], cov_full[sl, sl]))
    return results


def marcum_q1(a, b):
    """First-order Marcum Q via the noncentral chi-square tail."""
    return stats.ncx2.sf(b * b, 2, a * a)


def invert_marcum_tail(rician_factor, epsilon, hi=None):
    """y solving 1 - Q1(sqrt(2G), y) = epsilon, by bisection.

    1 - Q1(a, y) is the noncentral chi-square CDF at y^2, evaluated directly
    rather than as 1 - sf, which cancels in deep tails.
    """
    a = np.sqrt(2.0 * rician_factor)
    lo, hi = 0.0, hi or (a + 10.0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if stats.ncx2.cdf(mid * mid, 2, a * a) < epsilon:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def reference_sample_rician_gain(rician_factor, rng, size):
    """Rician power gains as two draws of n normals (real parts, then
    imaginary parts) and allocating array expressions: the bits
    ``channel.sample_rician_gain`` must give from its one in-place buffer."""
    g = rician_factor
    los = math.sqrt(g / (g + 1.0))
    scatter_std = math.sqrt(1.0 / (2.0 * (g + 1.0)))
    re = los + scatter_std * rng.standard_normal(size)
    im = scatter_std * rng.standard_normal(size)
    return re * re + im * im


def reference_outage_probability_mc(power_w, distance_m, params, n_trials, rng,
                                    chunk=1_000_000):
    """The outage fraction ``channel.outage_probability_mc`` gives at a
    positive power, from reference gains taken ``chunk`` at a time."""
    gain_threshold = (params.rate_demand * distance_m ** params.path_loss_exponent
                      * params.noise_power_w / (params.system_gain * power_w))
    failures = 0
    remaining = n_trials
    while remaining > 0:
        n = min(chunk, remaining)
        gains = reference_sample_rician_gain(params.rician_factor, rng, size=n)
        failures += int(np.count_nonzero(gains < gain_threshold))
        remaining -= n
    return failures / n_trials


def overflow_error_norm(monkeypatch, episode, qi):
    """Make ``TwinLoop.episode_totals`` see a position error of 1e200, whose
    square is past a float, at ``qi`` of the ``episode``-th (from 0)
    episode it totals."""
    real = TwinLoop.episode_totals
    calls = []

    def totals(self, records):
        if len(calls) == episode:
            records = [(r[0], 1e200, *r[2:]) if r[0] == qi else r for r in records]
        calls.append(None)
        return real(self, records)

    monkeypatch.setattr(TwinLoop, "episode_totals", totals)


def reference_log_rician_cdf_and_slope(rician_factor, y):
    """log(1 - Q1(sqrt(2G), y)) and its derivative in y, from every term of
    the Poisson series up to top + 20 sqrt(top) + 50, top = max(G, m): the
    series ``channel._log_rician_cdf_and_slope`` sums over a window of."""
    m = 0.5 * y * y
    top = max(rician_factor, m)
    count = int(top + 20.0 * math.sqrt(top) + 50.0) + 1
    n = np.arange(count)
    log_factorial = np.array([math.lgamma(k + 1.0) for k in range(count)])
    log_pois_g = -rician_factor + n * math.log(rician_factor) - log_factorial
    log_pois_m = -m + n * math.log(m) - log_factorial
    log_cdf_g = np.logaddexp.accumulate(log_pois_g)

    def logsumexp(x):
        peak = float(np.max(x))
        return peak + math.log(float(np.sum(np.exp(x - peak))))

    log_cdf = logsumexp(log_pois_m[1:] + log_cdf_g[:-1])
    log_pdf = math.log(y) + logsumexp(log_pois_g + log_pois_m)
    return log_cdf, math.exp(log_pdf - log_cdf)


def finite_difference_gradient(fn, arrays, step=1e-5):
    """Central finite differences of scalar fn() w.r.t. each array, in place."""
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + step
            hi = fn()
            arr[idx] = orig - step
            lo = fn()
            arr[idx] = orig
            g[idx] = (hi - lo) / (2.0 * step)
            it.iternext()
        grads.append(g)
    return grads


def relative_gradient_error(analytic, numeric):
    """Norm-based relative disagreement between two gradient collections."""
    a = np.concatenate([np.ravel(g) for g in analytic])
    n = np.concatenate([np.ravel(g) for g in numeric])
    denom = max(np.linalg.norm(n), np.linalg.norm(a), 1e-12)
    return float(np.linalg.norm(a - n) / denom)


def scalar_agent(agent_id, feature, variance, distance=5.0):
    return SensingAgentSpec(id=agent_id, feature=feature, variance=variance,
                            distance=distance)


def indexed(fleet, dim=2):
    """The ``sensing.FleetIndex`` of ``fleet`` in a state of ``dim`` features."""
    return sensing.FleetIndex(fleet, dim)


def diag_belief(*variances, mean=None, qi=0):
    k = len(variances)
    return Belief(np.zeros(k) if mean is None else np.asarray(mean, float),
                  np.diag(variances), qi)


def reference_schedule(prior, caps, fleet, capacity, observe_fn=None):
    """The greedy value-of-information loop over a plain agent list, in the
    prior's state.

    Re-scans the fleet for each candidate feature, re-stacks the selection
    with ``estimator.stack`` every iteration, and fuses the final selection
    through ``estimator.update``. ``scheduler.schedule`` must reproduce its
    decisions bit for bit.
    """
    dim = prior.mean.shape[0]
    if caps.shape[0] != dim:
        raise InvalidInputError("threshold dimension does not match belief")
    if capacity < 0:
        raise InvalidInputError("capacity must be nonnegative")

    cov = prior.cov
    available = list(fleet)
    chosen = []

    while len(chosen) < capacity:
        diag = np.diag(cov)
        violated = np.nonzero(diag > caps)[0]
        if violated.size == 0:
            break
        candidates = [k for k in violated if any(a.feature == k for a in available)]
        if not candidates:
            break
        ratios = diag[candidates] / caps[candidates]
        best = int(np.argmax(ratios))
        k_star = candidates[best]
        pool = [a for a in available if a.feature == k_star]
        agent = min(pool, key=lambda a: (a.variance, a.id))
        chosen.append(agent)
        available.remove(agent)
        cov, _ = estimator.posterior_cov(prior.cov, estimator.stack(chosen, dim))

    if chosen:
        stacked = estimator.stack(chosen, dim)
        if observe_fn is not None:
            values = np.concatenate(
                [np.atleast_1d(observe_fn(a)) for a in chosen])
            posterior = estimator.update(prior, stacked, values)
        else:
            cov, _ = estimator.posterior_cov(prior.cov, stacked)
            posterior = Belief(prior.mean.copy(), cov, prior.qi)
    else:
        posterior = prior.copy()

    return ScheduleDecision(
        selected_ids=tuple(a.id for a in chosen),
        posterior=posterior,
        satisfied=np.diag(posterior.cov) <= caps,
    )


def reference_baseline_schedule(mode, prior, fleet, capacity, observe_fn=None,
                                caps=None):
    """The cost- and error-greedy baselines over a plain agent list.

    Sorts the fleet by (distance, id) or (variance, id), stacks the first
    ``capacity`` agents with ``estimator.stack``, and fuses their readings
    through ``estimator.update``, or computes the covariance alone without
    ``observe_fn``: the greedy tail as written before it shared the
    scheduler's. ``baseline_schedule`` must make its selections and met
    caps, and its posterior within 1e-9 relative.
    """
    key = ((lambda a: (a.distance, a.id)) if mode == "cost_greedy"
           else (lambda a: (a.variance, a.id)))
    chosen = sorted(fleet, key=key)[:capacity]
    if not chosen:
        posterior = prior.copy()
    else:
        stacked = estimator.stack(chosen, prior.mean.shape[0])
        if observe_fn is not None:
            values = np.concatenate([observe_fn(a) for a in chosen])
            posterior = estimator.update(prior, stacked, values)
        else:
            cov, _ = estimator.posterior_cov(prior.cov, stacked)
            posterior = Belief(prior.mean.copy(), cov, prior.qi)
    if caps is None:
        satisfied = np.ones(prior.mean.shape[0], dtype=bool)
    else:
        satisfied = np.diag(posterior.cov) <= caps
    return ScheduleDecision(
        selected_ids=tuple(a.id for a in chosen),
        posterior=posterior,
        satisfied=satisfied,
    )


def reference_traditional(prior, fleet, rng, observe_fn=None, traditional_count=2):
    """TRADITIONAL over a plain agent list: each pick filters the agents left
    by the feature they measure, and each picked agent is read on its own:
    its reading becomes its feature's mean and its variance that feature's
    variance. Returns the ids and the belief; ``baseline_schedule``
    must give them bit for bit from the same pick stream."""
    dim = prior.mean.shape[0]
    count = min(traditional_count, len(fleet))
    chosen = []
    pool = list(fleet)
    for i in range(count):
        options = pool if count < dim else (
            [a for a in pool if a.feature == i % dim] or pool)
        pick = options[int(rng.integers(len(options)))]
        chosen.append(pick)
        pool.remove(pick)
    mean, cov = prior.mean.copy(), prior.cov.copy()
    for agent in chosen if observe_fn is not None else ():
        k = agent.feature
        (mean[k],) = observe_fn(agent)      # one reading per agent
        cov[k, :] = 0.0
        cov[:, k] = 0.0
        cov[k, k] = agent.variance
    return tuple(a.id for a in chosen), Belief(mean, cov, prior.qi)


def exact_posterior(mean, cov, readings):
    """The posterior after ``readings``, (feature, variance, value) triples,
    fused one at a time in exact rational arithmetic on the float inputs:
    P - c c^T / s and m + c (o - m_k) / s per reading, c = P[:, k],
    s = P_kk + r. Without roundoff this is the batch posterior. Returns the
    mean and covariance as lists of ``Fraction``; a value of None leaves
    the mean alone."""
    mean = [Fraction(float(x)) for x in mean]
    cov = [[Fraction(float(x)) for x in row] for row in cov]
    for k, variance, value in readings:
        c = [row[k] for row in cov]
        s = c[k] + Fraction(float(variance))
        if value is not None:
            innovation = Fraction(float(value)) - mean[k]
            mean = [m + ci * innovation / s for m, ci in zip(mean, c)]
        cov = [[cov[i][j] - c[i] * c[j] / s for j in range(len(c))]
               for i in range(len(c))]
    return mean, cov


def random_case(rng):
    """A prior, caps, fleet index and capacity covering the scheduler's
    branches: variance ties (variances from a short list), empty fleets,
    shuffled ids and capacities from 0 to beyond the fleet size."""
    dim = int(rng.integers(2, 4))
    a = rng.normal(size=(dim, dim))
    cov = a @ a.T * 10.0 ** rng.uniform(-4, -2) + np.diag(10.0 ** rng.uniform(-4, -1, dim))
    prior = Belief(rng.normal(size=dim), cov, qi=int(rng.integers(1, 50)))
    caps = 10.0 ** rng.uniform(-4, -1.5, size=dim)
    eta = np.where(rng.random(dim) < 0.5, 0.0, 10.0 ** rng.uniform(0, 3, size=dim))
    m = int(rng.integers(0, 9))
    levels = (1e-4, 1e-3, 1e-2)       # few values, so variances tie often
    ids = rng.permutation(np.arange(1, 3 * m + 2))[:m]
    fleet = [scalar_agent(agent_id, int(rng.integers(dim)), float(rng.choice(levels)),
                          distance=float(rng.uniform(1, 20)))
             for agent_id in ids.tolist()]
    capacity = int(rng.integers(0, m + 2))
    return prior, effective_thresholds(caps, eta), indexed(fleet, dim), capacity


def seeded_observer(seed, prior):
    """Per-agent reader drawing noisy readings of a fixed state from its own
    stream, agent by agent through ``sensing.observe``: the oracle side."""
    rng = np.random.default_rng(seed)
    state = prior.mean + rng.normal(size=prior.mean.shape[0]) * 0.01
    return lambda agent: sensing.observe(agent, state, rng)


def seeded_reader(seed, prior, index):
    """The schedulers' ``observe_fn`` for the fleet of ``index`` (its
    ``sensing.FleetIndex``) over the same state and stream as
    ``seeded_observer(seed, prior)``, reading a whole selection of fleet
    positions at once through ``sensing.read``."""
    rng = np.random.default_rng(seed)
    state = prior.mean + rng.normal(size=prior.mean.shape[0]) * 0.01
    return lambda positions: sensing.read(index, positions, state, rng, prior.qi)


def prior_mean_reader(prior, index):
    """An ``observe_fn`` for the fleet of ``index`` whose every reading is
    the prior mean of the agent's feature: a zero innovation, so the fused
    posterior keeps the prior mean, for tests about the covariance and the
    selection alone."""
    return lambda positions: [prior.values[index.features[p]] for p in positions]


def select(prior, caps, index, capacity):
    """``scheduler.schedule`` reading ``prior_mean_reader``: its selection,
    posterior covariance and met caps, with the prior mean kept."""
    return scheduler.schedule(prior, caps, index, capacity,
                              prior_mean_reader(prior, index))


def reference_clip_global_norm(grads, max_norm):
    """The global-norm clip returning scaled copies of the gradients and
    the norm before scaling."""
    total = math.sqrt(sum(float((g * g).sum()) for g in grads))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / (total + 1e-12)
        grads = [g * scale for g in grads]
    return grads, total


def same_bits(a, b) -> bool:
    """Equal shapes and equal float64 bit patterns (signed zeros, NaNs too)."""
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def relative_error(got, want) -> float:
    """Largest absolute difference over the largest absolute entry of
    ``want``: 0 for equal arrays, inf for a nonzero difference from zeros."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape, (got.shape, want.shape)
    diff = np.abs(got - want).max(initial=0.0)
    scale = np.abs(want).max(initial=0.0)
    return 0.0 if diff == 0.0 else diff / scale


def edgy_floats(rng, size, scale=1.0, specials=(0.0, -0.0, 1.0, -1.0)):
    """Normal draws at ``scale`` with some entries swapped for ``specials``."""
    x = rng.normal(scale=scale, size=size)
    swap = rng.random(size) < 0.2
    x[swap] = rng.choice(np.asarray(specials, dtype=float), size=int(swap.sum()))
    return x


class ReferenceAdam:
    """Adam as one loop over the parameter arrays, each with its own moments."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, params, grads):
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            v += (1 - self.beta2) * g * g
            p -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


def reference_mountain_car_step(car, state, control, rng):
    """MountainCar.step with every clamp written as np.clip."""
    state = np.asarray(state, dtype=float)
    if state.shape != (2,) or not np.all(np.isfinite(state)):
        raise InvalidInputError(f"invalid state {state!r}")
    if not np.isfinite(control):
        raise InvalidInputError(f"invalid control {control!r}")
    control = float(np.clip(control, -1.0, 1.0))
    p = car
    if car._noise_scale is None:
        u = np.zeros(2)
    else:
        u = car._noise_scale @ rng.standard_normal(2)
    vel = state[1] + p.force_gain * control - p.gravity * np.cos(3.0 * state[0]) + u[1]
    vel = float(np.clip(vel, *p.velocity_bounds))
    pos = state[0] + vel + u[0]
    pos = float(np.clip(pos, *p.position_bounds))
    return np.array([pos, vel])


def reference_decode_action(raw, eta_max, control_dim=1):
    """(control, accuracy) of decode_action, clamped with np.clip."""
    raw = np.atleast_1d(np.asarray(raw, dtype=float))
    control = np.clip(raw[:control_dim], -1.0, 1.0)
    eta = np.clip(eta_max * (raw[control_dim:] + 1.0) / 2.0, 0.0, eta_max)
    return control, eta


def reference_normalize(normalizer, x, update=False):
    """RunningNormalizer.normalize with a copy and np.clip; updates its stats."""
    x = np.asarray(x, dtype=float)
    state = normalizer.state()
    if normalizer.count > 1:
        out = (x - np.array(state["mean"])) / np.sqrt(np.array(state["var"]) + 1e-8)
    else:
        out = x.copy()
    if update:
        normalizer._update(x.tolist())
    return np.clip(out, -normalizer.clip, normalizer.clip)


def reference_ill_conditioned(s) -> bool:
    """The conditioning guard through eigvalsh at every size, 1x1 included:
    an absolute eigenvalue below the smallest normal float, or a condition
    number above CONDITION_LIMIT."""
    lam = np.abs(np.linalg.eigvalsh(s))
    return lam.min() < np.finfo(float).tiny or lam.max() > CONDITION_LIMIT * lam.min()


def weighted_objective(decision: ScheduleDecision, caps: np.ndarray,
                       accuracy_weight: float, powers) -> float:
    """The trace's per-QI diagnostic for one decision, mixing residual
    threshold violations with spent power:
    (1 - w) * sum_k max(post_k/cap_k - 1, 0) + w * sum(powers)."""
    if not 0.0 <= accuracy_weight <= 1.0:
        raise InvalidInputError("accuracy_weight must lie in [0, 1]")
    ratios = decision.posterior.cov.diagonal() / caps
    hinge = np.maximum(ratios - 1.0, 0.0).sum()
    return float((1.0 - accuracy_weight) * hinge
                 + accuracy_weight * float(np.sum(powers)))


def reference_trace_columns(feature_names):
    """The trace_<i>.csv header, spelled out per feature."""
    def each(prefix):
        return [prefix + name for name in feature_names]
    return (["qi"] + each("true_") + each("belief_") + each("std_")
            + each("prior_ratio_") + ["n_selected", "selected_ids", "iterations",
                                      "power_w"]
            + each("eta_") + ["control", "base_reward", "satisfied",
                              "weighted_objective"])


def reference_trace_rows(records, feature_names, power_by_id, accuracy_weight):
    """The trace_<i>.csv rows of ``TwinLoop.trace`` records, as mappings, one
    QI at a time: the posterior's ``Belief.deviations``, the prior ratio and
    ``weighted_objective`` of a decision rebuilt from the record."""
    k = len(feature_names)
    columns = reference_trace_columns(feature_names)
    rows = []
    for record in records:
        values = record[1:6 * k + 1]
        true, mean, post, prior, caps, eta = (
            np.array(values[i * k:(i + 1) * k]) for i in range(6))
        ids, power, control, reward, satisfied = record[6 * k + 1:]
        decision = ScheduleDecision(ids, Belief(mean, np.diag(post)), None)
        objective = weighted_objective(decision, caps, accuracy_weight,
                                       [power_by_id[i] for i in ids])
        rows.append(dict(zip(columns, [
            record[0], *true.tolist(), *mean.tolist(),
            *decision.posterior.deviations, *(prior / caps).tolist(),
            len(ids), ";".join(str(i) for i in ids), len(ids), power,
            *eta.tolist(), control, reward, int(satisfied), objective])))
    return rows


def reference_write_csv(path, columns, rows):
    """``harness.write_csv`` through ``csv.writer``, the bytes oracle of
    ``harness.csv_line``: ``rows`` (mappings) under a header of
    ``columns``, floats as ``repr`` and bools as 0/1."""
    def fmt(value):
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, float):
            return repr(value)
        return value

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if columns:
            writer.writerow(columns)
        for row in rows:
            writer.writerow([fmt(row[c]) for c in columns])


def reference_aggregate_metrics(metrics) -> dict:
    """``harness.aggregate_metrics`` one field at a time: each statistic is
    its own numpy call on that field's 1-D array."""
    fieldnames = ("qis", "total_power_w", "power_per_qi_w", "mrmse",
                  "mean_selected", "satisfaction_rate", "total_base_reward")
    out = {"episodes": len(metrics)}
    if metrics:
        out["goal_rate"] = float(np.mean([m.reached_goal for m in metrics]))
    for name in fieldnames:
        if name == "power_per_qi_w":
            values = np.array([m.total_power_w / m.qis for m in metrics],
                              dtype=float)
        else:
            values = np.array([getattr(m, name) for m in metrics], dtype=float)
        if values.size == 0:
            continue
        out[name] = {
            "mean": float(values.mean()),
            "std": float(values.std()),
            "median": float(np.median(values)),
            "p10": float(np.percentile(values, 10)),
            "p90": float(np.percentile(values, 90)),
            "min": float(values.min()),
            "max": float(values.max()),
        }
    return out


def reference_episode_metrics(policy, config, episode_index):
    """An evaluation episode's numbers as the loop once accumulated them,
    QI by QI, beside its trace, from values taken as each QI ran (its
    decision, the posterior it fused and the true state before the step):
    the power of each QI summed with += from 0.0, the error norm
    sqrt(e.dot(e)) of true state less posterior mean, the selection size
    and whether every cap held appended to lists that np.mean averages,
    and the base reward summed with += from 0.0. Returns the fields of
    ``EpisodeMetrics`` but the trace, and the per-QI error norms."""
    from twinloop import TwinLoop, loop, scheduler
    from twinloop.loop import episode_seed

    env = TwinLoop(config)
    decisions = []
    real = scheduler.schedule, loop.baseline_schedule

    def kept(fn):
        return lambda *args, **kwargs: decisions.append(fn(*args, **kwargs)) or decisions[-1]

    scheduler.schedule, loop.baseline_schedule = map(kept, real)
    try:
        obs = env.reset(episode_seed(config.master_seed, 2, episode_index))
        power, norms, counts, flags, total_base = 0.0, [], [], [], 0.0
        while True:
            true_state = env._true_state
            step = env.step(policy.act(obs)[0])
            decision = decisions[-1]
            power += sum(env.power_by_id[i] for i in decision.selected_ids)
            error = true_state - decision.posterior.mean
            norms.append(math.sqrt(error.dot(error)))
            counts.append(len(decision.selected_ids))
            flags.append(all(decision.satisfied))
            total_base += step.base_reward
            if step.terminated or step.truncated:
                break
            obs = step.policy_input
    finally:
        scheduler.schedule, loop.baseline_schedule = real
    return {"episode": episode_index, "qis": len(norms), "reached_goal": step.terminated,
            "total_power_w": power, "mrmse": float(np.mean(norms)),
            "mean_selected": float(np.mean(counts)),
            "satisfaction_rate": float(np.mean(flags)),
            "total_base_reward": total_base}, norms


def reference_train(config, hyper, seed):
    """``agent.train`` with every collection step doing all of its own work:
    the normalized input, the actor, one noise draw, the log-prob and a
    one-row critic value, then the same ``compute_gae`` and ``ppo_update``.
    Returns (policy, curve, kinds), where ``kinds`` holds the batch
    boundaries met: "terminated", "truncated" and "cut"."""
    from twinloop.agent import PolicyNetwork, compute_gae, ppo_update
    from twinloop.loop import TwinLoop, episode_seed

    env = TwinLoop(config)
    init_rng, action_rng, shuffle_rng = [
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)]
    policy = PolicyNetwork(env.obs_dim, env.action_dim, hyper, init_rng)
    log_2pi = math.log(2.0 * math.pi)
    curve, kinds = [], set()
    episodes = 0
    obs = env.reset(seed=episode_seed(seed, 1, episodes))
    ep_return, ep_len = 0.0, 0
    returns, lengths, goals = [], [], []
    n = hyper.batch_size
    for it in range(hyper.total_steps // n):
        obs_buf = np.zeros((n, env.obs_dim))
        act_buf = np.zeros((n, env.action_dim))
        logp_buf, rew_buf, val_buf, bootstrap = (np.zeros(n) for _ in range(4))
        boundary = np.zeros(n, dtype=bool)
        for t in range(n):
            x = policy.normalizer.normalize(obs, update=hyper.normalize_observations)
            mean = np.tanh(policy.actor.forward(x[None, :])[0])
            std = np.exp(policy.logstd)
            action = mean + std * action_rng.standard_normal(env.action_dim)
            z = (action - mean) / std
            logp_buf[t] = (-0.5 * float((z * z).sum()) - float(policy.logstd.sum())
                           - 0.5 * env.action_dim * log_2pi)
            val_buf[t] = float(policy.critic.forward(x[None, :])[0, 0])
            step = env.step(action)
            obs_buf[t], act_buf[t], rew_buf[t] = x, action, step.shaped_reward
            ep_return += step.base_reward
            ep_len += 1
            if step.terminated or step.truncated:
                kinds.add("terminated" if step.terminated else "truncated")
                boundary[t] = True
                bootstrap[t] = 0.0 if step.terminated else policy.value(step.policy_input)
                returns.append(ep_return)
                lengths.append(ep_len)
                goals.append(step.terminated)
                ep_return, ep_len = 0.0, 0
                episodes += 1
                obs = env.reset(seed=episode_seed(seed, 1, episodes))
            else:
                obs = step.policy_input
                if t == n - 1:
                    kinds.add("cut")
                    boundary[t] = True
                    bootstrap[t] = policy.value(obs)
        adv, targets = compute_gae(rew_buf, val_buf, boundary, bootstrap,
                                   hyper.discount, hyper.gae_lambda)
        diags = ppo_update({"obs": obs_buf, "actions": act_buf, "logp": logp_buf,
                            "advantages": adv, "value_targets": targets},
                           policy, hyper, shuffle_rng)

        def recent(values):
            return float(np.mean(values[-20:])) if values else float("nan")

        curve.append({"iteration": it + 1, "steps": (it + 1) * n,
                      "episodes": episodes, "mean_return": recent(returns),
                      "mean_length": recent(lengths), "goal_rate": recent(goals),
                      "logstd_mean": float(np.mean(policy.logstd)), **diags})
    return policy, curve, kinds


def reference_predict(belief, control, model):
    """``estimator.predict`` on arrays: f(m) + B a and J P J^T + C_u, then
    one finiteness check and ``symmetrize``."""
    with np.errstate(over="ignore", invalid="ignore"):
        jac = model.jacobian(belief.mean)
        mean = model.f(belief.mean) + model.control_matrix @ np.atleast_1d(control)
        cov = jac @ belief.cov @ jac.T + model.process_cov
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise NumericalFailureError("non-finite belief prediction",
                                        qi=belief.qi + 1)
        return Belief(mean, estimator.symmetrize(cov), belief.qi + 1)


def reference_mountain_car_f(car, state):
    """MountainCar.f on numpy scalars, np.cos included."""
    pos, vel = np.asarray(state, dtype=float)
    new_vel = vel - car.gravity * np.cos(3.0 * pos)
    return np.array([pos + new_vel, new_vel])


def reference_mountain_car_jacobian(car, state):
    """MountainCar.jacobian with np.isfinite and np.sin."""
    state = np.asarray(state, dtype=float)
    if not np.isfinite(state).all():
        raise InvalidInputError("non-finite state")
    slope = 3.0 * car.gravity * np.sin(3.0 * state[0])
    return np.array([[1.0 + slope, 1.0], [slope, 1.0]])


def reference_requested_caps(caps, eta):
    """min(cap, 1/eta) with np.divide where eta > 0 and np.minimum."""
    requested = np.full(eta.shape, np.inf)
    np.divide(1.0, eta, out=requested, where=eta > 0)
    return np.minimum(caps, requested)


def reference_scalar_posterior_cov(cov, feature, variance):
    """The rank-1 Joseph step on arrays: P - (g c^T + c g^T) + s g g^T, then
    row and column k written from c r / s."""
    c = cov[:, feature]
    s = float(c[feature]) + variance
    if not np.finfo(float).tiny <= s < math.inf:
        raise NumericalFailureError("ill-conditioned innovation covariance")
    g = c * (1.0 / s)
    gc = g[:, None] * c
    out = cov - (gc + gc.T) + s * (g[:, None] * g)
    column = c * (variance / s)
    out[feature] = column
    out[:, feature] = column
    return out


def reference_fused_mean(prior, features, gain, values):
    """m + K (o - m[features]) on arrays, checked with np.isfinite."""
    mean = prior.mean + gain @ (values - prior.mean.take(features))
    if not np.isfinite(mean).all():
        raise NumericalFailureError("non-finite posterior mean", qi=prior.qi)
    return mean


def reference_gain(cov, features, precision):
    """The joint gain P+[:, features] / r, by fancy indexing."""
    return cov[:, list(features)] * np.asarray(precision, dtype=float)


def reference_forward(net, x):
    """``agent.Net.forward`` of the 2-D ``x`` as h @ W + b per layer, with
    a new array for each product, sum and tanh. Returns (output,
    activations): the activations are the input and each layer's output,
    as ``reference_backward`` takes them."""
    h = x
    cache = [h]
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = h @ w + b
        h = z if i == len(net.weights) - 1 else np.tanh(z)
        cache.append(h)
    return h, cache


def reference_act(policy, policy_input):
    """PolicyNetwork.act through ``reference_forward`` of one row, with the
    input whitened by ``reference_normalize`` on a copy of the policy's
    normalizer (its statistics are left alone)."""
    x = reference_normalize(copy.deepcopy(policy.normalizer), policy_input)
    return np.tanh(reference_forward(policy.actor, x[None, :])[0][0]), x


def reference_initial_arrays(obs_dim, action_dim, hyper, rng):
    """A fresh policy's arrays in checkpoint order (actor weights, biases
    and logstd, then critic weights and biases), each drawn as its own
    array: per layer, the signed Q of a QR of standard normals, transposed
    for a wide layer and scaled by sqrt(2), or by 0.01 (the actor's output)
    or 1 (the critic's); every bias zero."""
    def net(sizes, final_gain):
        weights = []
        for i, (rows, cols) in enumerate(zip(sizes, sizes[1:])):
            q, r = np.linalg.qr(rng.standard_normal((max(rows, cols), min(rows, cols))))
            q = q * np.sign(np.diag(r))
            gain = final_gain if i == len(sizes) - 2 else math.sqrt(2.0)
            weights.append(gain * (q.T if rows < cols else q)[:rows, :cols])
        return weights, [np.zeros(cols) for cols in sizes[1:]]

    hidden = list(hyper.hidden_sizes)
    actor_w, actor_b = net([obs_dim, *hidden, action_dim], 0.01)
    critic_w, critic_b = net([obs_dim, *hidden, 1], 1.0)
    return (actor_w + actor_b + [np.full(action_dim, float(hyper.initial_logstd))]
            + critic_w + critic_b)


def reference_policy_input(belief):
    """The belief's mean and standard deviation sqrt(max(var, 0)),
    concatenated."""
    return np.concatenate([belief.mean, np.sqrt(np.maximum(belief.cov.diagonal(), 0.0))])


def reference_backward(net, cache, grad_out):
    """A network's backward pass, one network at a time: gradients (grad_w,
    grad_b) of sum(grad_out * output) w.r.t. its parameters, from the
    activations of ``reference_forward``."""
    grad_w = [None] * len(net.weights)
    grad_b = [None] * len(net.biases)
    g = np.atleast_2d(grad_out)
    for i in reversed(range(len(net.weights))):
        if i != len(net.weights) - 1:
            g = (g @ net.weights[i + 1].T) * (1.0 - cache[i + 1] ** 2)  # tanh'
        grad_w[i] = cache[i].T @ g
        grad_b[i] = g.sum(axis=0)
    return grad_w, grad_b


def loss_and_grads(policy, minibatch, hyper):
    """``agent.ppo_loss_and_grads``' diagnostics, and the actor's and the
    critic's gradient arrays it wrote into its workspace, in the order of
    ``reference_ppo_loss_and_grads``."""
    from twinloop.agent import _Workspace, ppo_loss_and_grads

    work = _Workspace(policy._layout)
    diags = ppo_loss_and_grads(policy, minibatch, hyper, work)
    return diags, work.grads.of_actor(), work.grads.of_critic()


def reference_ppo_loss_and_grads(policy, minibatch, hyper):
    """``agent.ppo_loss_and_grads`` one network at a time, through
    ``reference_forward`` and ``reference_backward``, each term a new array.
    Returns (diagnostics, actor grads aligned with actor.weights +
    actor.biases + [logstd], critic grads)."""
    from twinloop.agent import LOG_2PI, gaussian_logprob

    obs = minibatch["obs"]
    actions = minibatch["actions"]
    logp_old = minibatch["logp"]
    adv = minibatch["advantages"]
    targets = minibatch["value_targets"]
    n = obs.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        head, actor_cache = reference_forward(policy.actor, obs)
        mean = np.tanh(head)
        std = np.exp(policy.logstd)
        logp = gaussian_logprob(actions, mean, policy.logstd)
        ratio = np.exp(logp - logp_old)
        clipped = np.minimum(1.0 + hyper.clip_ratio,
                             np.maximum(1.0 - hyper.clip_ratio, ratio))
        surr1 = ratio * adv
        surr2 = clipped * adv
        policy_loss = -np.minimum(surr1, surr2).mean()
        entropy = (policy.logstd + 0.5 * (1.0 + LOG_2PI)).sum()
        active = (surr1 <= surr2).astype(float)
        dlogp = -(active * ratio * adv) / n
        z = (actions - mean) / std
        dmean = dlogp[:, None] * z / std
        dhead = dmean * (1.0 - mean ** 2)
        grad_w, grad_b = reference_backward(policy.actor, actor_cache, dhead)
        dlogstd = (dlogp[:, None] * (z * z - 1.0)).sum(axis=0) - hyper.entropy_coef
        actor_grads = grad_w + grad_b + [dlogstd]
        values, critic_cache = reference_forward(policy.critic, obs)
        values = values[:, 0]
        verr = values - targets
        value_loss = 0.5 * float((verr ** 2).mean())
        dv = (hyper.value_coef * verr / n)[:, None]
        cw, cb = reference_backward(policy.critic, critic_cache, dv)
        diags = {
            "policy_loss": float(policy_loss),
            "value_loss": value_loss,
            "entropy": float(entropy),
            "approx_kl": float((logp_old - logp).mean()),
            "clip_fraction": float((np.abs(ratio - 1.0) > hyper.clip_ratio).mean()),
            "total_loss": float(policy_loss + hyper.value_coef * value_loss
                                - hyper.entropy_coef * entropy),
        }
    return diags, actor_grads, cw + cb


def reference_ppo_update(batch, policy, hyper, rng, optimizers):
    """``agent.ppo_update`` one network at a time: per minibatch,
    ``reference_ppo_loss_and_grads``, the clip of each network's gradient
    by ``reference_clip_global_norm`` and a step of each network's
    ``ReferenceAdam`` (``optimizers``: the actor's, over its weights,
    biases and logstd, and the critic's).
    Returns (averaged diagnostics, the (actor, critic) gradient norms of
    each minibatch)."""
    n = batch["obs"].shape[0]
    adv = batch["advantages"]
    if hyper.normalize_advantages and n > 1:
        adv = (adv - adv.mean()) / (adv.std() + 1e-8)
    data = dict(batch, advantages=adv)
    order = np.arange(n)
    actor_opt, critic_opt = optimizers
    totals, norms = {}, []
    count = 0
    for _ in range(hyper.epochs):
        rng.shuffle(order)
        shuffled = {k: v[order] for k, v in data.items()}
        for start in range(0, n, hyper.minibatch_size):
            mb = {k: v[start:start + hyper.minibatch_size] for k, v in shuffled.items()}
            diags, actor_grads, critic_grads = reference_ppo_loss_and_grads(policy, mb,
                                                                            hyper)
            assert all(map(math.isfinite, diags.values())), diags
            actor_grads, actor_norm = reference_clip_global_norm(actor_grads,
                                                                 hyper.max_grad_norm)
            critic_grads, critic_norm = reference_clip_global_norm(critic_grads,
                                                                   hyper.max_grad_norm)
            norms.append((actor_norm, critic_norm))
            actor_opt.step(policy.actor.weights + policy.actor.biases + [policy.logstd],
                           actor_grads)
            critic_opt.step(policy.critic.weights + policy.critic.biases, critic_grads)
            np.maximum(policy.logstd, hyper.min_logstd, out=policy.logstd)
            for k, v in diags.items():
                totals[k] = totals.get(k, 0.0) + v
            count += 1
    return {k: v / count for k, v in totals.items()}, norms


def reference_compute_gae(rewards, values, boundary, bootstrap, discount, lam):
    """``agent.compute_gae`` on numpy scalars, written into a zeroed array."""
    n = len(rewards)
    adv = np.zeros(n)
    gae = 0.0
    for t in range(n - 1, -1, -1):
        if boundary[t]:
            next_value = bootstrap[t]
            gae = 0.0
        else:
            next_value = values[t + 1]
        delta = rewards[t] + discount * next_value - values[t]
        gae = delta + discount * lam * gae
        adv[t] = gae
    return adv, adv + values[:n]
