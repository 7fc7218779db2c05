"""Invariants of fusion and scheduling as properties over drawn inputs.

Each property is derandomized with a fixed number of examples and no example
database, so every run draws the same inputs and Tier-1 stays deterministic.
Tolerances allow roundoff of a few float64 ulps of the prior's scale.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from twinloop import estimator, schedule
from twinloop.estimator import posterior_cov
from tests.helpers import random_case, scalar_agent, two_row_agent

PROPERTY = settings(max_examples=300, derandomize=True, deadline=None,
                    database=None)


@st.composite
def prior_and_selection(draw):
    """A positive definite prior of 1-4 features (variances 1e-6 to 10,
    correlated) and a selection of one-row and two-row agents on it."""
    dim = draw(st.integers(1, 4))
    unit = st.floats(-1.0, 1.0)
    factor = np.array(draw(st.lists(unit, min_size=dim * dim, max_size=dim * dim)))
    floor = draw(st.lists(st.floats(-6.0, 0.0), min_size=dim, max_size=dim))
    scale = 10.0 ** draw(st.floats(-6.0, 1.0))
    cov = estimator.symmetrize(factor.reshape(dim, dim) @ factor.reshape(dim, dim).T
                               * scale + np.diag(10.0 ** np.array(floor)))
    variance = st.floats(-6.0, 1.0).map(lambda e: 10.0 ** e)
    agents = []
    for agent_id in range(1, draw(st.integers(1, 6)) + 1):
        if dim >= 2 and draw(st.booleans()):
            features = draw(st.permutations(range(dim)))[:2]
            agents.append(two_row_agent(agent_id, features,
                                        [draw(variance), draw(variance)], dim))
        else:
            agents.append(scalar_agent(agent_id, draw(st.integers(0, dim - 1)),
                                       draw(variance), dim=dim))
    return cov, estimator.stack(agents)


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


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.integers(0, 12))
def test_selection_never_exceeds_capacity(seed, capacity):
    prior, thresholds, fleet, _ = random_case(np.random.default_rng(seed))
    decision = schedule(prior, thresholds, fleet, capacity)
    assert len(decision.selected_ids) <= capacity
    assert len(decision.selected_ids) == decision.iterations
    assert len(set(decision.selected_ids)) == len(decision.selected_ids)
