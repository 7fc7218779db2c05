"""Filter tests: prediction, stacking, fusion, and the batch-oracle check."""

import numpy as np
import pytest

from twinloop import (Belief, InvalidInputError, NumericalFailureError,
                      build_linear_2d, build_mountain_car, predict, stack,
                      update)
from twinloop import estimator
from twinloop.estimator import StackedObservationModel, posterior_cov
from tests.helpers import (batch_linear_gaussian_posterior, diag_belief,
                           reference_ill_conditioned, same_bits, scalar_agent)


class IdentityPlant:
    control_matrix = np.zeros((2, 1))

    def __init__(self, process_cov):
        self.process_cov = np.asarray(process_cov, dtype=float)

    def f(self, state):
        return np.asarray(state, dtype=float)

    def jacobian(self, state):
        return np.eye(2)


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
        car = build_mountain_car(process_noise_std=(0.0, 0.0))
        belief = Belief(np.zeros(2), np.diag([0.01, 0.001]))
        out = predict(belief, 0.0, car)
        np.testing.assert_allclose(out.cov, [[0.011, 0.001], [0.001, 0.001]],
                                   atol=1e-15)

    def test_non_finite_propagation_reports_qi(self):
        belief = Belief(np.array([1e308, 1e308]), np.eye(2) * 1e308, qi=41)
        with pytest.raises(NumericalFailureError) as err:
            predict(belief, 0.0, IdentityPlant(np.eye(2) * 1e308))
        assert err.value.qi == 42


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
            values = {a.agent_id: rng.normal() for a in agents}
            perm = [agents[j] for j in rng.permutation(3)]
            post1 = update(prior, stack(agents, 2),
                           [values[a.agent_id] for a in agents])
            post2 = update(prior, stack(perm, 2),
                           [values[a.agent_id] for a in perm])
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
        car = build_mountain_car(process_noise_std=(1e-3, 1e-4))
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
            estimator.scalar_posterior_cov(prior, 0, variance)

    @pytest.mark.parametrize("entry", [np.inf, np.nan])
    def test_scalar_step_on_a_non_finite_prior_variance_raises(self, entry):
        prior = np.diag([0.5, entry])
        with pytest.raises(NumericalFailureError, match="ill-conditioned"):
            estimator.scalar_posterior_cov(prior, 1, 0.01)

    def test_scalar_step_with_an_infinite_noise_variance_raises(self):
        with pytest.raises(NumericalFailureError, match="ill-conditioned"):
            estimator.scalar_posterior_cov(np.diag([0.5, 0.1]), 0, np.inf)

    def test_scalar_step_with_a_tiny_normal_innovation_passes(self):
        cov = estimator.scalar_posterior_cov(np.zeros((2, 2)), 0, 1e-300)
        assert np.isfinite(cov).all()
        cov = estimator.scalar_posterior_cov(np.diag([0.5, 0.1]), 0, 0.5)
        assert cov[0, 0] == pytest.approx(0.25, rel=1e-15) and cov[1, 1] == 0.1


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
        assert Belief(np.zeros(2), cov).cov is cov

    def test_symmetrize_keeps_symmetric_bits(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            a = rng.normal(size=(3, 3)) * 10.0 ** rng.uniform(-300, 300)
            m = 0.5 * (a + a.T)
            assert same_bits(estimator.symmetrize(m), m)

    def test_producers_return_exactly_symmetric_covariances(self):
        rng = np.random.default_rng(44)
        car = build_mountain_car(process_noise_std=(1e-3, 1e-4))
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
        plant = build_linear_2d(process_noise_std=(0.05, 0.02))
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
