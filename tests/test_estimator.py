"""Filter tests: prediction, stacking, fusion, and the batch-oracle check."""

import dataclasses
import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from twinloop import (Belief, ExperimentConfig, InvalidInputError, LinearPlant,
                      NumericalFailureError, PolicyNetwork, SchedulingMode,
                      build_linear_2d, build_mountain_car, predict, run_monte_carlo,
                      stack, train, update)
from twinloop import estimator
from twinloop.estimator import StackedObservationModel, posterior_cov
from tests.helpers import (batch_linear_gaussian_posterior, diag_belief, edgy_floats,
                           exact_posterior, reference_fused_mean, reference_gain,
                           reference_ill_conditioned, reference_keep_psd,
                           reference_mountain_car_jacobian, reference_predict,
                           reference_scalar_posterior_cov, same_bits, scalar_agent)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


class IdentityPlant:
    control_column = [0.0, 0.0]

    def __init__(self, process_cov):
        self.process_cov = np.asarray(process_cov, dtype=float)
        self.process_cov_flat = self.process_cov.ravel().tolist()

    def f(self, state):
        return np.asarray(state, dtype=float)

    transition = np.eye(2)

    def propagate_cov(self, state, rows):
        # the BLAS product, as a linear plant takes it: I P I^T turns -0.0
        # into +0.0 and 0 * inf into NaN
        with np.errstate(over="ignore", invalid="ignore"):
            return self.transition.dot(np.array(rows)).dot(self.transition.T).ravel().tolist()


class TestPredict:
    def test_identity_system_is_a_fixed_point(self):
        belief = diag_belief(0.3, 0.2, mean=[1.0, -1.0])
        out = predict(belief, 0.0, IdentityPlant(np.zeros((2, 2))))
        np.testing.assert_allclose(out.mean, belief.mean)
        np.testing.assert_allclose(out.cov, belief.cov)
        assert out.qi == belief.qi + 1

    def test_additive_noise_inflation(self):
        belief = diag_belief(0.3, 0.2)
        q = np.diag([0.01, 0.02])
        out = predict(belief, 0.0, IdentityPlant(q))
        np.testing.assert_allclose(out.cov, belief.cov + q)

    def test_mountain_car_prior_covariance(self):
        car = build_mountain_car(process_noise_std=(0.0, 0.0), episode_cap=999)
        belief = Belief(np.zeros(2), np.diag([0.01, 0.001]))
        out = predict(belief, 0.0, car)
        np.testing.assert_allclose(out.cov, [[0.011, 0.001], [0.001, 0.001]],
                                   atol=1e-15)

    def test_non_finite_propagation_reports_qi(self):
        belief = Belief(np.array([1e308, 1e308]), np.eye(2) * 1e308, qi=41)
        with pytest.raises(NumericalFailureError) as err:
            predict(belief, 0.0, IdentityPlant(np.eye(2) * 1e308))
        assert err.value.qi == 42


    def test_variance_that_symmetrizing_overflows_reports_qi(self):
        # J P J^T + C_u is finite here, but 0.5 (a + b) of a diagonal entry
        # above half the largest float overflows to inf; the check once read
        # the sum and returned the inf variance without an error
        plant = LinearPlant(np.eye(2), np.zeros((2, 1)), np.zeros((2, 2)),
                            ["x", "v"], episode_cap=999)
        belief = Belief([0.0, 0.0], [[1.7e308, 0.0], [0.0, 1.0]], qi=41)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailureError) as err:
                predict(belief, 0.0, plant)
        assert err.value.qi == belief.qi + 1


class TestStack:
    def test_single_agent(self):
        stacked = stack([scalar_agent(1, 0, 0.01)], 2)
        np.testing.assert_allclose(stacked.matrix, [[1.0, 0.0]])
        np.testing.assert_allclose(stacked.noise_cov, [[0.01]])
        assert stacked.agent_ids == (1,)

    def test_two_agents_in_order(self):
        stacked = stack([scalar_agent(1, 0, 0.01), scalar_agent(2, 1, 0.02)], 2)
        np.testing.assert_allclose(stacked.matrix, [[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(stacked.noise_cov, np.diag([0.01, 0.02]))
        assert stacked.agent_ids == (1, 2)

    def test_permutation_permutes_rows(self):
        a, b = scalar_agent(1, 0, 0.01), scalar_agent(2, 1, 0.02)
        fwd, rev = stack([a, b], 2), stack([b, a], 2)
        np.testing.assert_allclose(fwd.matrix, rev.matrix[::-1])
        assert rev.agent_ids == (2, 1)

    def test_duplicate_ids_rejected(self):
        agent = scalar_agent(1, 0, 0.01)
        with pytest.raises(InvalidInputError):
            stack([agent, agent], 2)

    def test_empty_selection_rejected(self):
        with pytest.raises(InvalidInputError):
            stack([], 2)

    def test_rows_come_from_the_given_state_dimension(self):
        stacked = stack([scalar_agent(1, 2, 0.01), scalar_agent(2, 0, 0.02)], 3)
        np.testing.assert_array_equal(stacked.matrix, [[0, 0, 1], [1, 0, 0]])


class TestUpdate:
    def test_scalar_symmetric_fusion(self):
        prior = Belief(np.array([2.0]), np.array([[1.0]]))
        agent = SensorStub = stack([_scalar_1d_agent(variance=1.0)], 1)
        post = update(prior, SensorStub, np.array([2.0]))
        assert post.cov[0, 0] == pytest.approx(0.5, rel=1e-12)
        assert post.mean[0] == pytest.approx(2.0, rel=1e-12)

    def test_uninformative_sensor_keeps_prior(self):
        prior = diag_belief(0.04, 0.003, mean=[0.2, -0.01])
        stacked = stack([scalar_agent(1, 0, 1e9)], 2)
        post = update(prior, stacked, np.array([5.0]))
        np.testing.assert_allclose(post.mean, prior.mean, rtol=1e-6)
        np.testing.assert_allclose(post.cov, prior.cov, rtol=1e-6)

    def test_position_fusion_matches_scalar_kalman(self):
        prior = Belief(np.zeros(2), np.array([[0.011, 0.001], [0.001, 0.001]]))
        stacked = stack([scalar_agent(1, 0, 0.01)], 2)
        post = update(prior, stacked, np.array([0.0]))
        assert post.cov[0, 0] == pytest.approx(0.011 * 0.01 / 0.021, rel=1e-12)
        assert post.cov[0, 0] == pytest.approx(5.238e-3, rel=1e-3)

    def test_dimension_mismatch(self):
        prior = diag_belief(0.1, 0.1)
        stacked = stack([scalar_agent(1, 0, 0.01)], 2)
        with pytest.raises(InvalidInputError):
            update(prior, stacked, np.array([0.0, 1.0]))

    def test_ill_conditioned_innovation_rejected(self):
        prior = diag_belief(1.0, 1.0)
        agents = [scalar_agent(1, 0, 1e-15), scalar_agent(2, 0, 1e15)]
        with pytest.raises(NumericalFailureError):
            update(prior, stack(agents, 2), np.array([0.0, 0.0]))

    def test_condition_guard_agrees_with_svd_condition_number(self):
        # Innovation covariances with 2-norm condition numbers from 1e9 to
        # 1e15: the guard rejects exactly those above CONDITION_LIMIT as
        # np.linalg.cond (SVD) measures them, away from the limit itself.
        from twinloop.estimator import CONDITION_LIMIT, StackedObservationModel

        rng = np.random.default_rng(17)
        prior_cov = np.zeros((2, 2))
        h = np.eye(2)
        decided = {True: 0, False: 0}
        for _ in range(400):
            q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
            lam = 10.0 ** rng.uniform(-3, 3)
            cond = 10.0 ** rng.uniform(9, 15)
            r = q @ np.diag([lam, lam / cond]) @ q.T
            r = 0.5 * (r + r.T)
            svd_cond = np.linalg.cond(r)
            if abs(np.log10(svd_cond / CONDITION_LIMIT)) < 0.01:
                continue
            stacked = StackedObservationModel(h, r, (1, 2))
            rejected = svd_cond > CONDITION_LIMIT
            if rejected:
                with pytest.raises(NumericalFailureError):
                    posterior_cov(prior_cov, stacked)
            else:
                posterior_cov(prior_cov, stacked)
            decided[rejected] += 1
        assert min(decided.values()) > 100


def _scalar_1d_agent(variance):
    from twinloop import SensingAgentSpec
    return SensingAgentSpec(1, 0, variance, 5.0)


class TestProperties:
    def _random_prior(self, rng):
        a = rng.normal(size=(2, 2))
        cov = a @ a.T + 1e-3 * np.eye(2)
        return Belief(rng.normal(size=2), cov)

    def test_posterior_diagonal_never_exceeds_prior(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            prior = self._random_prior(rng)
            n_agents = rng.integers(1, 4)
            agents = [scalar_agent(i + 1, int(rng.integers(2)),
                                   float(10 ** rng.uniform(-4, 0)))
                      for i in range(n_agents)]
            values = rng.normal(size=n_agents)
            post = update(prior, stack(agents, 2), values)
            assert np.all(np.diag(post.cov)
                          <= np.diag(prior.cov) * (1 + 1e-10) + 1e-15)

    def test_order_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            prior = self._random_prior(rng)
            agents = [scalar_agent(i + 1, i % 2, float(10 ** rng.uniform(-4, 0)))
                      for i in range(3)]
            values = {a.id: rng.normal() for a in agents}
            perm = [agents[j] for j in rng.permutation(3)]
            post1 = update(prior, stack(agents, 2),
                           [values[a.id] for a in agents])
            post2 = update(prior, stack(perm, 2),
                           [values[a.id] for a in perm])
            np.testing.assert_allclose(post1.mean, post2.mean, atol=1e-12)
            np.testing.assert_allclose(post1.cov, post2.cov, atol=1e-12)

    def test_joint_equals_sequential_fusion(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            prior = self._random_prior(rng)
            a = scalar_agent(1, 0, float(10 ** rng.uniform(-4, 0)))
            b = scalar_agent(2, 1, float(10 ** rng.uniform(-4, 0)))
            va, vb = rng.normal(size=2)
            joint = update(prior, stack([a, b], 2), [va, vb])
            seq = update(update(prior, stack([a], 2), [va]), stack([b], 2), [vb])
            np.testing.assert_allclose(joint.mean, seq.mean, atol=1e-10)
            np.testing.assert_allclose(joint.cov, seq.cov, atol=1e-10)

    def test_covariance_stays_symmetric_psd(self):
        rng = np.random.default_rng(3)
        car = build_mountain_car(process_noise_std=(1e-3, 1e-4), episode_cap=999)
        belief = diag_belief(0.01, 0.001, mean=[-0.5, 0.0])
        pos_agent = scalar_agent(1, 0, 5e-3)
        vel_agent = scalar_agent(2, 1, 5e-4)
        for t in range(200):
            belief = predict(belief, rng.uniform(-1, 1), car)
            if t % 3 == 0:
                belief = update(belief, stack([pos_agent, vel_agent], 2),
                                rng.normal(size=2))
            assert np.max(np.abs(belief.cov - belief.cov.T)) <= 1e-12
            assert np.linalg.eigvalsh(belief.cov).min() >= -1e-10


class TestConditioningGuard:
    def test_matches_eigvalsh_reference_at_every_size(self):
        rng = np.random.default_rng(41)
        specials = (0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300, 1.7e308, -1.0)
        decided = {True: 0, False: 0}
        for _ in range(3000):
            dim = int(rng.choice([1, 1, 2, 3]))
            if dim == 1 and rng.random() < 0.5:
                s = np.array([[rng.choice(specials)]])
            else:
                q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
                lam = 10.0 ** rng.uniform(-300, 300) * 10.0 ** rng.uniform(-14, 0, dim)
                lam[rng.random(dim) < 0.1] = 0.0
                s = q @ np.diag(lam * rng.choice([-1.0, 1.0], dim)) @ q.T
                s = 0.5 * (s + s.T)
            if not np.isfinite(s).all():
                continue
            with np.errstate(over="ignore"):   # limit * tiny eigenvalue
                want = bool(reference_ill_conditioned(s))
                assert bool(estimator._ill_conditioned(s)) is want
            decided[want] += 1
        assert min(decided.values()) > 300

    def test_zero_one_by_one_innovation_raises(self):
        stacked = StackedObservationModel(np.array([[1.0, 0.0]]),
                                          np.array([[0.0]]), (1,))
        with pytest.raises(NumericalFailureError):
            posterior_cov(np.zeros((2, 2)), stacked)

    def test_subnormal_one_by_one_innovation_raises(self):
        stacked = StackedObservationModel(np.array([[1.0, 0.0]]),
                                          np.array([[5e-324]]), (1,))
        with pytest.raises(NumericalFailureError):
            posterior_cov(np.zeros((2, 2)), stacked)

    def test_subnormal_noise_on_a_subnormal_prior_raises(self):
        stacked = StackedObservationModel(np.array([[1.0, 0.0]]),
                                          np.array([[1e-310]]), (1,))
        with pytest.raises(NumericalFailureError):
            posterior_cov(np.diag([1e-320, 1.0]), stacked)

    def test_positive_one_by_one_innovation_passes(self):
        stacked = StackedObservationModel(np.array([[1.0, 0.0]]),
                                          np.array([[1e-300]]), (1,))
        cov, gain = posterior_cov(np.zeros((2, 2)), stacked)
        assert np.isfinite(cov).all() and np.isfinite(gain).all()
        cov, gain = posterior_cov(np.diag([0.5, 0.1]),
                                  stack([scalar_agent(1, 0, 0.5)], 2))
        assert cov[0, 0] == pytest.approx(0.25, rel=1e-15)

    @pytest.mark.parametrize("prior, variance", [
        (np.zeros((2, 2)), 0.0),
        (np.zeros((2, 2)), 5e-324),
        (np.diag([1e-320, 1.0]), 1e-310),     # s = 1e-310 + 1e-320, subnormal
    ])
    def test_scalar_step_with_a_zero_or_subnormal_innovation_raises(self, prior,
                                                                    variance):
        with pytest.raises(NumericalFailureError, match="ill-conditioned"):
            estimator.scalar_posterior_cov(prior.tolist(), 0, variance)

    @pytest.mark.parametrize("entry", [np.inf, np.nan])
    def test_scalar_step_on_a_non_finite_prior_variance_raises(self, entry):
        prior = np.diag([0.5, entry])
        with pytest.raises(NumericalFailureError, match="ill-conditioned"):
            estimator.scalar_posterior_cov(prior.tolist(), 1, 0.01)

    def test_scalar_step_with_an_infinite_noise_variance_raises(self):
        with pytest.raises(NumericalFailureError, match="ill-conditioned"):
            estimator.scalar_posterior_cov(np.diag([0.5, 0.1]).tolist(), 0, np.inf)

    def test_scalar_step_with_a_tiny_normal_innovation_passes(self):
        cov = estimator.scalar_posterior_cov(np.zeros((2, 2)).tolist(), 0, 1e-300)
        assert np.isfinite(cov).all()
        cov = np.array(estimator.scalar_posterior_cov(np.diag([0.5, 0.1]).tolist(), 0, 0.5))
        assert cov[0, 0] == pytest.approx(0.25, rel=1e-15) and cov[1, 1] == 0.1


class TestScalarStepExactness:
    """The rank-1 step against exact arithmetic, entry by entry, for prior
    variance to noise ratios P_kk / r from 1 to 1e12. The read feature's row
    and column are held to their own size: P_kk - P_kk^2 / s cancels there
    when P_kk >> r, which error measured against the largest entry hides."""

    RATIOS = 10.0 ** np.arange(13)

    def assert_exact(self, cov, feature, variance, tol=1e-15):
        got = np.array(estimator.scalar_posterior_cov(cov.tolist(), feature, variance))
        _, want = exact_posterior(cov.diagonal(), cov, [(feature, variance, None)])
        for i, row in enumerate(want):
            for j, w in enumerate(row):
                # an entry of neither the diagonal nor the read column can
                # cancel in exact arithmetic too (a conditional correlation
                # near 0), so it is held to its row and column's scale
                scale = (abs(w) if i == j or feature in (i, j)
                         else float(want[i][i] * want[j][j]) ** 0.5)
                err = abs(Fraction(float(got[i, j])) - w)
                assert err <= Fraction(tol) * Fraction(scale), (i, j, float(err))

    @pytest.mark.parametrize("ratio", RATIOS)
    def test_uncorrelated_prior(self, ratio):
        # the velocity of the mountain car's start belief, read ever better
        cov = np.diag([1.0 / 300.0, 1e-4])
        self.assert_exact(cov, 1, 1e-4 / ratio)
        self.assert_exact(cov, 0, cov[0, 0] / ratio)

    @pytest.mark.parametrize("ratio", RATIOS)
    def test_correlated_priors(self, ratio):
        # correlations of at most 1/2, so only the read column can cancel
        rng = np.random.default_rng(int(np.log10(ratio)))
        for _ in range(20):
            dim = int(rng.integers(2, 5))
            a = rng.normal(size=(dim, dim + 2))
            c = a @ a.T
            d = np.sqrt(c.diagonal())
            corr = 0.5 * c / np.outer(d, d) + 0.5 * np.eye(dim)
            std = 10.0 ** rng.uniform(-4, 0, dim)
            cov = estimator.symmetrize(corr * np.outer(std, std))
            k = int(rng.integers(dim))
            self.assert_exact(cov, k, cov[k, k] / ratio)


class TestSymmetrizeOnce:
    def test_identity_is_cached_and_read_only(self):
        eye = estimator.identity(2)
        assert eye is estimator.identity(2)
        assert not eye.flags.writeable
        np.testing.assert_array_equal(eye, np.eye(2))
        with pytest.raises(ValueError):
            eye[0, 1] = 1.0

    def test_belief_stores_its_covariance_unchanged(self):
        cov = np.array([[1.0, 0.3], [0.30000000000000004, 2.0]])
        assert same_bits(Belief(np.zeros(2), cov).cov, cov)

    def test_symmetrize_keeps_symmetric_bits(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            a = rng.normal(size=(3, 3)) * 10.0 ** rng.uniform(-300, 300)
            m = 0.5 * (a + a.T)
            assert same_bits(estimator.symmetrize(m), m)

    def test_producers_return_exactly_symmetric_covariances(self):
        rng = np.random.default_rng(44)
        car = build_mountain_car(process_noise_std=(1e-3, 1e-4), episode_cap=999)
        agents = [scalar_agent(1, 0, 5e-3), scalar_agent(2, 1, 5e-4)]
        belief = diag_belief(0.01, 0.001, mean=[-0.5, 0.0])
        for _ in range(100):
            belief = predict(belief, rng.uniform(-1, 1), car)
            assert same_bits(belief.cov, belief.cov.T)
            belief = update(belief, stack(agents, 2), rng.normal(size=2) * 0.01)
            assert same_bits(belief.cov, belief.cov.T)


class TestBatchOracleEquivalence:
    def test_filtered_moments_match_batch_least_squares(self):
        rng = np.random.default_rng(17)
        plant = build_linear_2d(process_noise_std=(0.05, 0.02), episode_cap=999)
        pos_agent = scalar_agent(1, 0, 0.04)
        vel_agent = scalar_agent(2, 1, 0.09)
        init = Belief(np.array([0.5, -0.3]), np.diag([0.2, 0.1]))

        controls, observations = [], []
        belief = init.copy()
        state = np.array([0.4, -0.25])
        ekf_track = []
        for t in range(50):
            control = float(np.sin(t / 5.0))
            state = plant.step(state, control, rng)
            belief = predict(belief, control, plant)
            step_obs = []
            agents = [pos_agent] if t % 3 else [pos_agent, vel_agent]
            stacked = stack(agents, 2)
            values = stacked.matrix @ state + rng.normal(size=stacked.matrix.shape[0]) * 0.1
            belief = update(belief, stacked, values)
            for row, agent, value in zip(stacked.matrix, agents, values):
                step_obs.append((row, agent.variance, value))
            controls.append(control)
            observations.append(step_obs)
            ekf_track.append((belief.mean.copy(), belief.cov.copy()))

        oracle = batch_linear_gaussian_posterior(
            plant.transition, plant.control_matrix, plant.process_cov,
            init.mean, init.cov, controls, observations)
        for (ekf_mean, ekf_cov), (bls_mean, bls_cov) in zip(ekf_track, oracle):
            assert np.linalg.norm(ekf_mean - bls_mean) <= \
                1e-9 * max(1.0, np.linalg.norm(bls_mean))
            assert np.linalg.norm(ekf_cov - bls_cov) <= \
                1e-9 * np.linalg.norm(bls_cov)


def random_belief(rng, dim=2, qi=None):
    """A belief with an exactly symmetric PSD covariance at a random scale,
    some entries swapped for signed zeros or a subnormal, and sometimes a
    feature whose variance is zero or subnormal and whose row and column
    are then zero."""
    a = rng.normal(size=(dim, dim)) * 10.0 ** rng.uniform(-6, 1)
    cov = estimator.symmetrize(a @ a.T)
    if dim > 1 and rng.random() < 0.2:
        cov[0, 1] = cov[1, 0] = rng.choice([0.0, -0.0, 1e-320])
    if rng.random() < 0.15:
        k = int(rng.integers(dim))
        cov[k, :] = cov[:, k] = 0.0
        cov[k, k] = rng.choice([0.0, 1e-320, 5e-324])
    mean = edgy_floats(rng, dim, 10.0 ** rng.uniform(-3, 1),
                       (0.0, -0.0, -1.2, 0.6, 0.45))
    return Belief(mean, cov, int(rng.integers(0, 1000)) if qi is None else qi)


class TestFloatFormMatchesArrayForm:
    """predict, the rank-1 step, the joint gain and the fused mean take the
    floats a query interval hands them (``Belief.values`` and ``.rows``)
    and return floats, with the bits of the array forms in
    tests/helpers.py."""

    PLANTS = (build_mountain_car(process_noise_std=(0.045, 0.001), episode_cap=999),
              build_mountain_car(process_noise_std=(0.0, 0.0), episode_cap=999),
              build_linear_2d(process_noise_std=(0.05, 0.02), episode_cap=999),
              IdentityPlant(np.diag([0.01, 0.02])),
              # the float tail's indexing at one and at three features
              LinearPlant([[0.95]], [[0.1]], [[0.01]], ["x"], episode_cap=999),
              LinearPlant([[1.0, 0.1, 0.0], [-0.2, 0.9, 0.3], [0.05, 0.0, 1.1]],
                          [[0.0], [1.0], [0.5]],
                          [[0.02, 0.005, 0.0], [0.005, 0.01, -0.002], [0.0, -0.002, 0.03]],
                          ["a", "b", "c"], episode_cap=999))

    def test_predict(self):
        rng = np.random.default_rng(61)
        for _ in range(3000):
            control = rng.choice([0.0, -0.0, 1.0, -1.0, rng.uniform(-1.5, 1.5)])
            control = (control, np.float64(control))[int(rng.integers(2))]
            model = self.PLANTS[int(rng.integers(len(self.PLANTS)))]
            belief = random_belief(rng, len(model.process_cov))
            got, want = predict(belief, control, model), reference_predict(belief, control, model)
            assert type(got.values) is list and type(got.rows) is list
            assert same_bits(got.values, want.values) and same_bits(got.rows, want.rows)
            assert got.qi == want.qi == belief.qi + 1

    @pytest.mark.parametrize("mean, cov, model, error", [
        # the covariance, or the mean through f, overflows
        ([1e308, 1e308], np.eye(2) * 1e308, IdentityPlant(np.eye(2) * 1e308),
         NumericalFailureError),
        ([0.5, 0.0], np.eye(2) * 1e308,
         build_mountain_car(process_noise_std=(0, 0), episode_cap=999), NumericalFailureError),
        ([1e308, 0.0], np.eye(2),
         build_mountain_car(process_noise_std=(0, 0), episode_cap=999), NumericalFailureError),
        # propagate_cov refuses a non-finite mean
        ([np.inf, 0.0], np.eye(2),
         build_mountain_car(process_noise_std=(0, 0), episode_cap=999), InvalidInputError),
        ([0.0, np.nan], np.eye(2),
         build_mountain_car(process_noise_std=(0, 0), episode_cap=999), InvalidInputError)])
    def test_predict_still_raises_where_it_raised(self, mean, cov, model, error):
        belief = Belief(np.array(mean), cov, qi=41)
        with pytest.raises(error) as got:
            predict(belief, 0.0, model)
        with pytest.raises(error) as want:
            reference_predict(belief, 0.0, model)
        assert str(got.value) == str(want.value)
        assert getattr(got.value, "qi", None) == getattr(want.value, "qi", None)

    @pytest.mark.parametrize("mean, cov, model, control", [
        # J P J^T overflows in its products, then in the added C_u
        ([0.5, 0.0], np.eye(2) * 1e308,
         build_mountain_car(process_noise_std=(0, 0), episode_cap=999), 0.0),
        ([0.0, 0.0], np.eye(2) * 1e308, IdentityPlant(np.eye(2) * 1e308), 0.0),
        # f(m) + B a overflows: in the linear map, then in the sum
        ([1e308, 1e308], np.eye(2),
         build_linear_2d(process_noise_std=(0, 0), episode_cap=999), 0.0),
        ([0.0, 1e308], np.eye(2),
         build_linear_2d(process_noise_std=(0, 0), episode_cap=999), 1e308)])
    def test_overflowing_belief_raises_without_a_warning(self, mean, cov, model, control):
        belief = Belief(np.array(mean), cov, qi=41)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailureError) as err:
                predict(belief, control, model)
        assert err.value.qi == 42

    def test_predict_writes_into_nothing_it_was_given(self):
        # IdentityPlant.f returns its own argument: an in-place mean += B a
        # would change the prior's mean
        belief = diag_belief(0.3, 0.2, mean=[0.25, -0.0])
        model = IdentityPlant(np.diag([0.01, 0.02]))
        model.control_column = [1.0, 2.0]
        mean, cov = belief.mean.copy(), belief.cov.copy()
        out = predict(belief, 0.5, model)
        assert same_bits(belief.mean, mean) and same_bits(belief.cov, cov)
        assert out.mean is not belief.mean and out.cov is not belief.cov
        assert same_bits(out.mean, [0.75, 1.0])

    def test_scalar_posterior_cov(self):
        rng = np.random.default_rng(62)
        for _ in range(3000):
            dim = int(rng.integers(1, 4))
            cov = random_belief(rng, dim).cov
            k = int(rng.integers(dim))
            variance = float(rng.choice([10.0 ** rng.uniform(-12, 2), 1e-300]))
            variance = (variance, np.float64(variance))[int(rng.integers(2))]
            if not cov[k, k] + variance >= estimator.TINY:
                continue
            got = estimator.scalar_posterior_cov(cov.tolist(), k, variance)
            assert type(got) is list
            assert same_bits(got, reference_scalar_posterior_cov(cov, k, variance))
        for cov, k, variance in ((np.zeros((2, 2)), 0, 1e-300),
                                 (np.array([[-0.0, -0.0], [-0.0, 0.5]]), 1, 0.25)):
            assert same_bits(estimator.scalar_posterior_cov(cov.tolist(), k, variance),
                             reference_scalar_posterior_cov(cov, k, variance))

    def test_fused_mean(self):
        rng = np.random.default_rng(63)
        for _ in range(3000):
            prior = random_belief(rng)
            n = int(rng.integers(1, 11))
            features = rng.integers(0, 2, n)
            precision = 10.0 ** rng.uniform(-1, 5, n)
            gain = estimator.joint_gain(prior.rows, features.tolist(), precision.tolist())
            want_gain = reference_gain(prior.cov, features, precision)
            assert same_bits(gain, want_gain)
            # the layout fixes the order the product sums in
            assert gain.flags.f_contiguous and not gain.flags.c_contiguous or n == 1
            dim = len(prior.rows)
            assert gain.shape == (dim, n) and gain.strides == (8, 8 * dim)
            values = prior.mean.take(features) + edgy_floats(rng, n, 0.1)
            got = estimator.fused_mean(prior, features.tolist(), gain, values.tolist())
            assert type(got) is list
            assert same_bits(got, reference_fused_mean(prior, features, want_gain, values))
        prior = Belief(np.array([1e308, 0.0]), np.eye(2), qi=7)
        gain = np.array([[1.0], [0.0]])
        with pytest.raises(NumericalFailureError) as err, \
                np.errstate(over="ignore", invalid="ignore"):
            estimator.fused_mean(prior, [0], gain, [-1e308])
        assert err.value.qi == 7


class TestBlasAssumptions:
    def test_control_column_product_is_a_float_multiply_from_zero(self):
        # predict takes B a of a (K, 1) control matrix as 0.0 + B_k a: the
        # bits of B @ a at every K, and of ndarray.dot, which predict took
        # before, at K >= 2 (every plant has two features), where it sums
        # from a zero, so a -0.0 product comes out +0.0 where the plain
        # multiply B_k a keeps it; at K = 1 ndarray.dot keeps the -0.0
        rng = np.random.default_rng(64)
        specials = (0.0, -0.0, 1.0, -1.0, 0.0015, 1e-320, 1e300)
        for _ in range(20000):
            dim = int(rng.integers(1, 5))
            column = edgy_floats(rng, dim, 10.0 ** rng.uniform(-4, 1), specials)
            u = float(rng.choice([0.0, -0.0, 1.0, -1.0, rng.normal()]))
            got = [0.0 + b * u for b in column.tolist()]
            assert same_bits(got, column[:, None] @ np.atleast_1d(u))
            if dim >= 2:
                assert same_bits(got, column[:, None].dot(np.atleast_1d(u)))
        assert same_bits(np.array([[0.0015], [0.0015]]).dot(np.array([-0.0])), [0.0, 0.0])
        assert same_bits(np.array([[0.0015]]).dot(np.array([-0.0])), [-0.0])

    def test_stacked_norm_products_equal_each_rows_dot(self):
        # episode_totals squares every QI's error vector e in one stacked
        # (1, K) @ (K, 1) product; on this BLAS each equals e.dot(e), where
        # a*a + b*b on floats and np.einsum differ on some rows (FMA)
        rng = np.random.default_rng(65)
        specials = (0.0, -0.0, 1e-160, 5e-324)
        for dim, rows in ((1, 20000), (2, 200000), (3, 20000), (4, 20000)):
            scales = 10.0 ** rng.uniform(-8, 1, (rows, 1))
            error = edgy_floats(rng, (rows, dim), 1.0, specials) * scales
            stacked = (error[:, None, :] @ error[:, :, None])[:, 0, 0]
            assert same_bits(stacked, [e.dot(e) for e in error]), dim

    def test_mountain_car_covariance_product_is_the_blas_product(self):
        # MountainCar.propagate_cov takes J P J^T as (0.0 + x y) + z per
        # entry: J's second column is ones, so the second product is exact
        # and OpenBLAS's fused multiply-add sums round as the floats do
        car = build_mountain_car(process_noise_std=(0.0, 0.0), episode_cap=999)
        rng = np.random.default_rng(66)
        specials = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, 1e308, -1.7e308,
                    8.9e307, 1.0)
        count = 100000
        positions = rng.uniform(-1.2, 0.6, count)
        swap = rng.random(count) < 0.1
        positions[swap] = rng.choice([0.0, -0.0, np.pi / 6, -np.pi / 6, 5e-324, 40.0],
                                     int(swap.sum()))
        # a random scale per covariance, then some entries swapped for specials
        covs = rng.normal(size=(count, 2, 2)) * 10.0 ** rng.uniform(-300, 300, (count, 1, 1))
        swap = rng.random(covs.shape) < 0.2
        covs[swap] = rng.choice(specials, int(swap.sum()))
        symmetric = rng.random(count) < 0.5
        covs[symmetric, 0, 1] = covs[symmetric, 1, 0]
        got, want = [], []
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            for pos, cov in zip(positions.tolist(), covs):
                state = [pos, 0.0]
                jac = reference_mountain_car_jacobian(car, state)
                got.append(car.propagate_cov(state, cov.tolist()))
                want.append(jac.dot(cov).dot(jac.T).ravel())
        assert same_bits(got, want)
        assert not np.isfinite(want).all()      # overflows were compared too

    def test_a_generic_jacobian_differs_from_the_float_sums(self):
        # why a linear plant keeps the BLAS product: with both of J's
        # columns generic, the same sums on floats round differently from
        # the fused multiply-adds on most inputs
        rng = np.random.default_rng(67)
        differ = 0
        for _ in range(2000):
            jac, a = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
            cov = a @ a.T
            (j00, j01), (j10, j11) = jac.tolist()
            (p00, p01), (p10, p11) = cov.tolist()
            m = [[(0.0 + j00 * p00) + j01 * p10, (0.0 + j00 * p01) + j01 * p11],
                 [(0.0 + j10 * p00) + j11 * p10, (0.0 + j10 * p01) + j11 * p11]]
            floats = [(0.0 + m[i][0] * jac[j, 0]) + m[i][1] * jac[j, 1]
                      for i in range(2) for j in range(2)]
            differ += not same_bits(floats, jac.dot(cov).dot(jac.T).ravel())
        assert differ > 1000

    def test_mountain_car_prediction_calls_no_numpy(self, monkeypatch):
        car = build_mountain_car(process_noise_std=(0.045, 0.001), episode_cap=999)
        plant = build_linear_2d(process_noise_std=(0.05, 0.02), episode_cap=999)
        belief = diag_belief(0.3, 0.2, mean=[-0.5, 0.01])

        def refuse(*args, **kwargs):
            raise AssertionError("numpy called")

        monkeypatch.setattr(np, "errstate", refuse)
        monkeypatch.setattr(np, "array", refuse)
        out = predict(belief, 0.5, car)
        assert type(out.values) is list and type(out.rows) is list
        with pytest.raises(AssertionError, match="numpy called"):
            predict(belief, 0.5, plant)


class TestKeepPsd:
    """``predict`` and ``scalar_posterior_cov`` return covariances inside
    the PSD cone: roundoff that leaves it is clamped back."""

    @staticmethod
    def rank_one_prior():
        # squared correlation 1 + 2.2e-16: the entry one ulp above its bound
        rho = math.nextafter(math.sqrt(0.3 * 0.002), 1.0)
        assert rho * rho > 0.3 * 0.002
        return [[0.3, rho], [rho, 0.002]]

    def test_a_rank_one_prior_reads_on_after_two_readings(self):
        # unprojected, the position variance came out -8.2e-17 after these
        # two readings, and a third reading of position raised
        # "ill-conditioned innovation covariance"
        cov = estimator.scalar_posterior_cov(self.rank_one_prior(), 0, 1e-12)
        cov = estimator.scalar_posterior_cov(cov, 1, 1e-20)
        assert cov[0][0] >= 0.0 and cov[1][1] >= 0.0
        assert abs(cov[0][1]) <= math.sqrt(cov[0][0]) * math.sqrt(cov[1][1])
        cov = estimator.scalar_posterior_cov(cov, 0, 1e-20)
        assert all(map(math.isfinite, cov[0] + cov[1]))
        assert cov[0][0] >= 0.0 and cov[1][1] >= 0.0

    def test_the_steps_leave_the_cone_without_the_projection(self, monkeypatch):
        monkeypatch.setattr(estimator, "keep_psd", lambda rows: rows)
        cov = estimator.scalar_posterior_cov(self.rank_one_prior(), 0, 1e-12)
        cov = estimator.scalar_posterior_cov(cov, 1, 1e-20)
        assert cov[0][0] < 0.0
        with pytest.raises(NumericalFailureError, match="ill-conditioned"):
            estimator.scalar_posterior_cov(cov, 0, 1e-20)

    def test_prediction_of_a_rank_one_belief_stays_in_the_cone(self, monkeypatch):
        # without process noise J P J^T of a rank-1 P is rank-1 in exact
        # arithmetic; in floats it leaves the cone on some draws
        calls = []
        clamp = estimator.clamp_psd
        monkeypatch.setattr(estimator, "clamp_psd",
                            lambda rows: calls.append(rows) or clamp(rows))
        car = build_mountain_car(process_noise_std=(0.0, 0.0), episode_cap=999)
        rng = np.random.default_rng(68)
        for _ in range(2000):
            v = rng.normal(size=2) * 10.0 ** rng.uniform(-4, 0)
            belief = Belief(rng.uniform(-1.2, 0.6, 2), np.outer(v, v))
            out = predict(belief, 0.0, car)
            assert same_bits(out.rows, reference_predict(belief, 0.0, car).rows)
            (p00, p01), (_, p11) = out.rows
            assert p00 >= 0.0 and p11 >= 0.0
            assert abs(p01) <= math.sqrt(p00) * math.sqrt(p11)
        assert len(calls) > 100

    def test_equals_the_array_form_at_every_size(self):
        rng = np.random.default_rng(69)
        kept, clamped = {1: 0, 2: 0, 3: 0, 4: 0}, {1: 0, 2: 0, 3: 0, 4: 0}
        for _ in range(8000):
            # a PSD matrix of random rank and scale, off the cone by a
            # relative roundoff-sized or larger perturbation or by a negated
            # variance, or entries drawn with signed zeros, a subnormal or NaN
            dim = int(rng.integers(1, 5))
            a = rng.normal(size=(dim, int(rng.integers(1, dim + 1))))
            cov = a @ a.T * 10.0 ** rng.uniform(-8, 2)
            cov *= 1.0 + rng.normal(size=(dim, dim)) * 10.0 ** rng.uniform(-16, -1)
            if rng.random() < 0.1:
                k = int(rng.integers(dim))
                cov[k, k] = -cov[k, k]
            cov = edgy_floats(rng, (dim, dim), 1.0, (0.0, -0.0, 1e-320, np.nan)) \
                if rng.random() < 0.05 else cov
            cov = estimator.symmetrize(cov)
            rows = cov.tolist()
            got = estimator.keep_psd(rows)
            assert same_bits(got, reference_keep_psd(cov))
            if got is rows:
                kept[dim] += 1
            else:
                clamped[dim] += 1
                # the input's NaN are kept, and no NaN is made
                assert same_bits(np.isnan(got), np.isnan(cov))
        assert min(kept.values()) > 100 and min(clamped.values()) > 100

    def test_a_two_by_two_projection_is_psd(self):
        rng = np.random.default_rng(70)
        for _ in range(5000):
            cov = estimator.symmetrize(rng.normal(size=(2, 2)) * 10.0 ** rng.uniform(-150, 150))
            (p00, p01), (_, p11) = estimator.keep_psd(cov.tolist())
            assert p00 >= 0.0 and p11 >= 0.0
            # nonnegative trace and determinant, up to the bound's rounding
            assert p01 * p01 <= p00 * p11 * (1 + 4e-16) or abs(p01) <= 1e-150

    def test_a_covariance_inside_the_cone_is_returned_as_it_is(self):
        for rows in ([[0.01, 0.0005], [0.0005, 0.0002]], [[0.0, 0.0], [0.0, 0.0]],
                     [[-0.0, 0.0], [0.0, 1.0]], [[4.0, -2.0], [-2.0, 1.0]], [[0.5]],
                     [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 2.0]]):
            assert estimator.keep_psd(rows) is rows

    def test_no_projection_on_the_acceptance_config(self, monkeypatch):
        # why evaluation and training outputs keep their bits: on the
        # acceptance experiment every covariance stays in the cone
        calls = []
        clamp = estimator.clamp_psd
        monkeypatch.setattr(estimator, "clamp_psd",
                            lambda rows: calls.append(rows) or clamp(rows))
        config = ExperimentConfig.from_json_file(PERFBENCH / "acceptance.json")
        policy = PolicyNetwork.load(PERFBENCH / "reverb_policy.json")
        qis = 0
        for mode in SchedulingMode:
            report = run_monte_carlo(
                dataclasses.replace(config, mode=mode.value, episodes=3), policy=policy)
            assert not report["failures"]
            qis += sum(m.qis for m in report["episodes"])
        config.rl = dataclasses.replace(config.rl, total_steps=config.rl.batch_size)
        _, curve = train(config, config.rl, 0)
        assert curve[-1]["steps"] == 2048
        assert qis > 1000 and calls == []
