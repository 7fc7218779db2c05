"""Invariants of fusion, scheduling and the link budget as properties over
drawn inputs.

Each property is derandomized with a fixed number of examples and no example
database, so every run draws the same inputs and Tier-1 stays deterministic.
Tolerances allow roundoff of a few float64 ulps of the prior's scale.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from twinloop import SchedulingMode, baseline_schedule, estimator, schedule
from twinloop.channel import inverse_gaussian_q, y_q
from twinloop.errors import NumericalFailureError
from twinloop.scheduler import greedy_selection
from twinloop.estimator import (StackedObservationModel, posterior_cov,
                                scalar_posterior_cov)
from tests.helpers import random_case, relative_error, seeded_reader, select

PROPERTY = settings(max_examples=300, derandomize=True, deadline=None,
                    database=None)


def draw_prior(draw, dim, top):
    """A positive definite ``dim`` x ``dim`` covariance: a random factor's
    Gram matrix scaled by 10**(-6..top), plus a diagonal of 10**(-6..0)."""
    unit = st.floats(-1.0, 1.0)
    factor = np.array(draw(st.lists(unit, min_size=dim * dim, max_size=dim * dim)))
    floor = draw(st.lists(st.floats(-6.0, 0.0), min_size=dim, max_size=dim))
    scale = 10.0 ** draw(st.floats(-6.0, top))
    return estimator.symmetrize(factor.reshape(dim, dim) @ factor.reshape(dim, dim).T
                                * scale + np.diag(10.0 ** np.array(floor)))


@st.composite
def prior_and_selection(draw):
    """A positive definite prior of 1-4 features (variances 1e-6 to 10,
    correlated) and an observation model on it of one-hot rows with their
    own noise and, from two features on, two-row blocks with correlated
    noise (unit and half gain). ``posterior_cov`` takes any model, so the
    blocks keep its general ``solve`` path covered."""
    dim = draw(st.integers(1, 4))
    cov = draw_prior(draw, dim, 1.0)
    variance = st.floats(-6.0, 1.0).map(lambda e: 10.0 ** e)
    rows, blocks = [], []
    for _ in range(draw(st.integers(1, 6))):
        if dim >= 2 and draw(st.booleans()):
            first, second = draw(st.permutations(range(dim)))[:2]
            h = np.zeros((2, dim))
            h[0, first], h[1, second] = 1.0, 0.5
            v0, v1 = draw(variance), draw(variance)
            c = 0.3 * math.sqrt(v0 * v1)
            rows.append(h)
            blocks.append(np.array([[v0, c], [c, v1]]))
        else:
            h = np.zeros((1, dim))
            h[0, draw(st.integers(0, dim - 1))] = 1.0
            rows.append(h)
            blocks.append(np.array([[draw(variance)]]))
    matrix = np.vstack(rows)
    noise = np.zeros((matrix.shape[0], matrix.shape[0]))
    at = 0
    for block in blocks:
        noise[at:at + len(block), at:at + len(block)] = block
        at += len(block)
    return cov, StackedObservationModel(matrix, noise, tuple(range(1, len(blocks) + 1)))


@PROPERTY
@given(prior_and_selection())
def test_posterior_covariance_is_psd(case):
    prior_cov, model = case
    cov, _ = posterior_cov(prior_cov, model)
    assert np.array_equal(cov, cov.T)
    assert np.linalg.eigvalsh(cov).min() >= -1e-12 * np.abs(prior_cov).max()


@PROPERTY
@given(prior_and_selection())
def test_no_variance_grows_under_fusion(case):
    prior_cov, model = case
    cov, _ = posterior_cov(prior_cov, model)
    slack = 1e-12 * np.abs(prior_cov).max()
    assert np.all(cov.diagonal() <= prior_cov.diagonal() + slack)


@st.composite
def prior_and_readings(draw):
    """A correlated prior of 1-4 features (variances about 1e-6 to 1) and
    1-6 scalar readings of it: (feature, noise variance 1e-6 to 1) pairs,
    features repeating."""
    dim = draw(st.integers(1, 4))
    cov = draw_prior(draw, dim, 0.0)
    variance = st.floats(-6.0, 0.0).map(lambda e: 10.0 ** e)
    reading = st.tuples(st.integers(0, dim - 1), variance)
    return cov, draw(st.lists(reading, min_size=1, max_size=6))


def batch_of(prior_cov, readings):
    """The batch posterior and gain of ``readings`` as one stacked model, or
    None where the batch guard rejects the stacked innovation."""
    matrix = np.zeros((len(readings), prior_cov.shape[0]))
    matrix[np.arange(len(readings)), [k for k, _ in readings]] = 1.0
    model = StackedObservationModel(matrix, np.diag([r for _, r in readings]),
                                    tuple(range(1, len(readings) + 1)))
    try:
        return posterior_cov(prior_cov, model)
    except NumericalFailureError:
        return None


@PROPERTY
@given(prior_and_readings())
def test_scalar_steps_match_the_batch_posterior(case):
    prior_cov, readings = case
    batch = batch_of(prior_cov, readings)
    assume(batch is not None)
    cov = prior_cov
    for k, r in readings:
        cov = np.array(scalar_posterior_cov(cov.tolist(), k, r))
    assert relative_error(cov, batch[0]) <= 1e-9
    # the joint gain from the posterior: K = P+ H^T R^-1
    gain = cov[:, [k for k, _ in readings]] * (1.0 / np.array([r for _, r in readings]))
    assert relative_error(gain, batch[1]) <= 1e-9


@PROPERTY
@given(prior_and_readings())
def test_scalar_step_is_symmetric_psd_and_shrinks_variances(case):
    prior_cov, readings = case
    slack = 1e-12 * np.abs(prior_cov).max()
    cov = prior_cov
    for k, r in readings:
        before, cov = cov, np.array(scalar_posterior_cov(cov.tolist(), k, r))
        assert np.array_equal(cov, cov.T)
        assert np.linalg.eigvalsh(cov).min() >= -slack
        assert np.all(cov.diagonal() <= before.diagonal() + slack)


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.integers(0, 12))
def test_selection_never_exceeds_capacity(seed, capacity):
    prior, caps, index, _ = random_case(np.random.default_rng(seed))
    decision = select(prior, caps, index, capacity)
    assert len(decision.selected_ids) <= capacity
    assert len(decision.selected_ids) == decision.iterations
    assert len(set(decision.selected_ids)) == len(decision.selected_ids)


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.integers(0, 12), st.sampled_from(SchedulingMode))
def test_satisfied_reports_the_caps_met(seed, capacity, mode):
    # with the readings fused, so the posterior is the one the loop keeps
    prior, caps, index, _ = random_case(np.random.default_rng(seed))
    reader = seeded_reader(seed, prior, index)
    if mode is SchedulingMode.REVERB:
        decision = schedule(prior, caps, index, capacity, observe_fn=reader)
    else:
        decision = baseline_schedule(mode, prior, index, np.random.default_rng(seed),
                                     observe_fn=reader, caps=caps, true_state=prior.mean,
                                     greedy=greedy_selection(mode, index, capacity),
                                     traditional_count=2)
    met = decision.posterior.cov.diagonal() <= caps
    assert np.array_equal(decision.satisfied, met)
    assert all(decision.satisfied) == bool(met.all())


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.integers(0, 12))
def test_greedy_stopping_with_room_left_meets_every_cap(seed, capacity):
    # The loop stops early only when every cap holds or when no violated
    # feature has an agent left; so with capacity to spare and an unchosen
    # agent for every violated feature, nothing can be violated.
    prior, caps, index, _ = random_case(np.random.default_rng(seed))
    decision = select(prior, caps, index, capacity)
    violated = [k for k, met in enumerate(decision.satisfied) if not met]
    unchosen = {a.feature for a in index.agents if a.id not in decision.selected_ids}
    if len(decision.selected_ids) < capacity and set(violated) <= unchosen:
        assert all(decision.satisfied)


@PROPERTY
@given(st.floats(5.0, 25.0), st.floats(-9.0, math.log10(3e-2)))
def test_threshold_meets_the_outage_target(rician_db, log_epsilon):
    # strong line of sight only: outside it y_q raises WeakLineOfSightError
    g, epsilon = 10.0 ** (rician_db / 10.0), 10.0 ** log_epsilon
    assume(math.sqrt(2.0 * g) > inverse_gaussian_q(epsilon))
    y = y_q(g, epsilon)
    assert abs(stats.ncx2.cdf(y * y, 2, 2.0 * g) / epsilon - 1.0) <= 1e-10
