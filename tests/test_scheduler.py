"""Selection algorithm tests: thresholds, greedy loop, diagnostics."""

import itertools

import numpy as np
import pytest

from twinloop import Belief, InvalidInputError, estimator, schedule
from twinloop.scheduler import requested_caps
from twinloop.estimator import posterior_cov, stack
from twinloop.sensing import FleetIndex
from tests.helpers import (diag_belief, effective_thresholds, indexed, random_case,
                           reference_requested_caps,
                           reference_schedule,
                           relative_error, same_bits, scalar_agent, seeded_observer,
                           seeded_reader, weighted_objective)


class TestEffectiveThresholds:
    def test_zero_request_keeps_twin_caps(self):
        np.testing.assert_allclose(
            effective_thresholds([0.01, 0.001], [0.0, 0.0]), [0.01, 0.001])

    def test_tight_request_overrides_cap(self):
        np.testing.assert_allclose(
            effective_thresholds([0.01, 0.001], [1000.0, 0.0]),
            [0.001, 0.001])

    def test_loose_request_is_ignored(self):
        np.testing.assert_allclose(
            effective_thresholds([0.01, 0.001], [10.0, 10.0]), [0.01, 0.001])

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInputError):
            effective_thresholds([0.01], [0.0, 0.0])
        with pytest.raises(InvalidInputError):
            effective_thresholds([-0.01, 0.001], [0.0, 0.0])
        with pytest.raises(InvalidInputError):
            effective_thresholds([0.01, 0.001], [-1.0, 0.0])
        with pytest.raises(InvalidInputError):
            effective_thresholds([np.nan, 0.001], [0.0, 0.0])
        with pytest.raises(InvalidInputError):
            effective_thresholds([0.01, 0.001], [np.nan, 0.0])


def basic_caps(eta=(0.0, 0.0)):
    return effective_thresholds(np.array([0.01, 0.001]), np.array(eta))


class TestScheduleBranches:
    def test_empty_set_when_prior_satisfies(self):
        prior = diag_belief(0.005, 0.0005)
        fleet = indexed([scalar_agent(1, 0, 0.01), scalar_agent(2, 1, 0.001)])
        decision = schedule(prior, basic_caps(), fleet, capacity=10)
        assert decision.selected_ids == ()
        assert decision.iterations == 0
        np.testing.assert_allclose(decision.posterior.cov, prior.cov)
        assert decision.satisfied.all()

    def test_single_position_agent_run(self):
        prior = diag_belief(0.02, 0.0005)
        fleet = indexed([scalar_agent(1, 0, 0.01), scalar_agent(2, 1, 0.001)])
        decision = schedule(prior, basic_caps(), fleet, capacity=10)
        assert decision.selected_ids == (1,)
        assert decision.iterations == 1
        assert decision.posterior.cov[0, 0] == pytest.approx(
            0.02 * 0.01 / 0.03, rel=1e-12)
        assert decision.satisfied.all()

    def test_zero_capacity_with_violation(self):
        prior = diag_belief(0.02, 0.0005)
        fleet = indexed([scalar_agent(1, 0, 0.01)])
        decision = schedule(prior, basic_caps(), fleet, capacity=0)
        assert decision.selected_ids == ()
        assert not decision.satisfied[0]
        assert decision.satisfied[1]

    def test_unreachable_feature_stops_cleanly(self):
        # velocity violated but only position agents available
        prior = diag_belief(0.005, 0.01)
        fleet = indexed([scalar_agent(1, 0, 0.01), scalar_agent(2, 0, 0.02)])
        decision = schedule(prior, basic_caps(), fleet, capacity=10)
        assert decision.selected_ids == ()
        assert not decision.satisfied[1]

    def test_min_error_agent_selected_for_target_feature(self):
        prior = diag_belief(0.05, 0.0005)
        fleet = indexed([scalar_agent(1, 0, 0.03), scalar_agent(2, 0, 0.004),
                         scalar_agent(3, 0, 0.01)])
        decision = schedule(prior, basic_caps(), fleet, capacity=1)
        assert decision.selected_ids == (2,)

    def test_observe_fn_supplies_posterior_mean(self):
        prior = diag_belief(0.02, 0.0005, mean=[0.0, 0.0])
        agent = scalar_agent(1, 0, 0.01)
        decision = schedule(prior, basic_caps(), indexed([agent]), capacity=10,
                            observe_fn=lambda positions: np.array([0.3]))
        gain = 0.02 / 0.03
        assert decision.posterior.mean[0] == pytest.approx(gain * 0.3, rel=1e-12)

    @pytest.mark.parametrize("reading", [lambda positions: np.array([0.3]),
                                         lambda positions: 0.3,
                                         lambda positions: np.array([[0.3]])])
    def test_readings_that_do_not_fill_the_selection_rejected(self, reading):
        prior = diag_belief(0.05, 0.005)
        fleet = indexed([scalar_agent(1, 0, 0.01), scalar_agent(2, 1, 0.001)])
        assert len(schedule(prior, basic_caps(), fleet, 2).selected_ids) == 2
        calls = []

        def one_value_for_all(positions):   # a single reading for two agents
            calls.append(positions)
            return reading(positions) if len(calls) == 1 else np.empty(0)

        with pytest.raises(InvalidInputError):
            schedule(prior, basic_caps(), fleet, 2, observe_fn=one_value_for_all)

    def test_scalar_reading_rejected(self):
        with pytest.raises(InvalidInputError, match="1-D readings"):
            schedule(diag_belief(0.05, 0.005), basic_caps(),
                     indexed([scalar_agent(1, 0, 0.01)]), 1,
                     observe_fn=lambda positions: 0.3)

    def test_dimension_mismatch_rejected(self):
        prior = diag_belief(0.02, 0.0005)
        with pytest.raises(InvalidInputError):
            schedule(prior, np.array([0.01]), indexed([]), capacity=1)

    def test_fleet_of_another_state_dimension_rejected(self):
        with pytest.raises(InvalidInputError, match="fleet"):
            schedule(diag_belief(0.02, 0.0005), basic_caps(),
                     indexed([scalar_agent(1, 2, 0.01)], dim=3), capacity=1)


class TestScheduleProperties:
    def _random_instance(self, rng):
        cov = np.diag(10.0 ** rng.uniform(-4, -1, size=2))
        prior = Belief(rng.normal(size=2), cov)
        caps = 10.0 ** rng.uniform(-4, -1.5, size=2)
        eta = np.where(rng.random(2) < 0.5, 0.0, 10.0 ** rng.uniform(0, 3, size=2))
        m = int(rng.integers(2, 9))
        fleet = [scalar_agent(i + 1, (i % 2 if m > 1 else 0),
                              float(10 ** rng.uniform(-4, -1)),
                              distance=float(rng.uniform(1, 20)))
                 for i in range(m)]
        capacity = int(rng.integers(0, m + 2))
        return prior, effective_thresholds(caps, eta), fleet, capacity

    def test_randomized_invariants(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            prior, caps, fleet, capacity = self._random_instance(rng)
            decision = schedule(prior, caps, indexed(fleet), capacity)
            # capacity and termination
            assert len(decision.selected_ids) <= capacity
            assert decision.iterations <= capacity
            # no re-selection
            assert len(set(decision.selected_ids)) == len(decision.selected_ids)
            # empty-set branch is exact
            pre_ok = np.all(np.diag(prior.cov) <= caps)
            if pre_ok:
                assert decision.selected_ids == ()
            elif capacity > 0 and any(
                    np.diag(prior.cov)[k] > caps[k]
                    and any(a.feature == k for a in fleet)
                    for k in range(2)):
                assert len(decision.selected_ids) >= 1
            # posterior diagonal never above prior diagonal
            assert np.all(np.diag(decision.posterior.cov)
                          <= np.diag(prior.cov) * (1 + 1e-10) + 1e-15)

    def test_monotone_progress_on_selected_feature(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            prior, caps, fleet, capacity = self._random_instance(rng)
            if capacity == 0:
                continue
            running_cov = prior.cov
            chosen = []
            decision = schedule(prior, caps, indexed(fleet), capacity)
            for agent_id in decision.selected_ids:
                agent = next(a for a in fleet if a.id == agent_id)
                feature = agent.feature
                before = running_cov[feature, feature]
                chosen.append(agent)
                running_cov, _ = posterior_cov(prior.cov, stack(chosen, 2))
                assert running_cov[feature, feature] < before

    def test_greedy_meets_thresholds_when_bruteforce_can(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            cov = np.diag(10.0 ** rng.uniform(-3.5, -1, size=2))
            prior = Belief(np.zeros(2), cov)
            caps = 10.0 ** rng.uniform(-4, -1.5, size=2)
            m = int(rng.integers(2, 7))
            fleet = [scalar_agent(i + 1, i % 2, float(10 ** rng.uniform(-4, -1)))
                     for i in range(m)]
            capacity = int(rng.integers(1, 4))

            def feasible(subset):
                if not subset:
                    return bool(np.all(np.diag(prior.cov) <= caps))
                post, _ = posterior_cov(prior.cov, stack(subset, 2))
                return bool(np.all(np.diag(post) <= caps))

            brute_can = any(
                feasible(combo)
                for r in range(0, capacity + 1)
                for combo in itertools.combinations(fleet, r))
            decision = schedule(prior, caps, indexed(fleet), capacity)
            if brute_can:
                assert decision.satisfied.all(), (
                    prior.cov, caps, [(a.id, a.variance) for a in fleet],
                    capacity, decision)


class TestMatchesReference:
    """The indexed scheduler makes the list-based loop's selections. Its
    rank-1 steps give the batch posterior up to roundoff, within the
    criterion-1 tolerance; an empty selection keeps the prior's bits."""

    def assert_same(self, got, want):
        assert got.selected_ids == want.selected_ids
        assert got.iterations == want.iterations
        assert got.posterior.qi == want.posterior.qi
        assert np.array_equal(got.posterior.mean, want.posterior.mean)
        assert np.array_equal(got.posterior.cov, want.posterior.cov)
        assert np.array_equal(got.satisfied, want.satisfied)

    def assert_close(self, got, want):
        assert got.selected_ids == want.selected_ids
        assert got.iterations == want.iterations
        assert got.posterior.qi == want.posterior.qi
        assert relative_error(got.posterior.mean, want.posterior.mean) <= 1e-9
        assert relative_error(got.posterior.cov, want.posterior.cov) <= 1e-9
        assert np.array_equal(got.satisfied, want.satisfied)

    def test_randomized_instances(self):
        rng = np.random.default_rng(2024)
        seen = {"tie": 0, "empty": 0, "zero_capacity": 0, "selected": 0}
        for case in range(1500):
            prior, caps, index, capacity = random_case(rng)
            fleet = list(index.agents)
            want = reference_schedule(prior, caps, fleet, capacity,
                                      observe_fn=seeded_observer(case, prior))
            got = schedule(prior, caps, index, capacity,
                           observe_fn=seeded_reader(case, prior, index))
            self.assert_close(got, want)
            self.assert_close(schedule(prior, caps, index, capacity),
                              reference_schedule(prior, caps, fleet, capacity))
            variances = [a.variance for a in fleet]
            seen["tie"] += len(set(variances)) < len(variances)
            seen["empty"] += not fleet
            seen["zero_capacity"] += capacity == 0
            seen["selected"] += len(want.selected_ids) > 1
        assert min(seen.values()) >= 20, seen

    def test_requested_caps_match_effective_thresholds(self):
        # what TwinLoop computes per QI, unchecked, against the checked form
        rng = np.random.default_rng(2026)
        for _ in range(2000):
            dim = int(rng.integers(1, 5))
            caps = 10.0 ** rng.uniform(-6, 2, size=dim)
            eta = rng.choice([0.0, 1e-300, 1.0 / caps[0], 1000.0, 1e300], size=dim)
            eta = np.where(rng.random(dim) < 0.5, eta, 10.0 ** rng.uniform(-3, 4, dim))
            assert same_bits(requested_caps(caps, eta), effective_thresholds(caps, eta))

    def test_requested_caps_match_the_array_form(self):
        # the per-feature division and minimum on floats, against np.divide
        # where eta > 0 and np.minimum; 1e-320 overflows 1 / eta to inf
        rng = np.random.default_rng(2027)
        for _ in range(2000):
            dim = int(rng.integers(1, 5))
            caps = 10.0 ** rng.uniform(-6, 2, size=dim)
            eta = rng.choice([0.0, -0.0, 1e-320, 1e-300, 1.0 / caps[0], 1000.0, 1e300],
                             size=dim)
            eta = np.where(rng.random(dim) < 0.5, eta, 10.0 ** rng.uniform(-3, 4, dim))
            with np.errstate(over="ignore"):
                want = reference_requested_caps(caps, eta)
            got = requested_caps(caps.tolist(), eta.tolist())
            assert type(got) is list and same_bits(got, want)

    def test_tie_on_error_size_breaks_on_lowest_id(self):
        prior = diag_belief(0.05, 0.0005)
        fleet = [scalar_agent(7, 0, 0.004), scalar_agent(3, 0, 0.004),
                 scalar_agent(5, 0, 0.004)]
        got = schedule(prior, basic_caps(), indexed(fleet), capacity=1)
        assert got.selected_ids == (3,)
        self.assert_close(got, reference_schedule(prior, basic_caps(),
                                                  fleet, capacity=1))

    def test_zero_capacity_and_empty_fleet(self):
        prior = diag_belief(0.05, 0.005)
        fleet = [scalar_agent(1, 0, 0.004), scalar_agent(2, 1, 0.0001)]
        for given, capacity in ((fleet, 0), ([], 3)):
            got = schedule(prior, basic_caps(), indexed(given), capacity)
            assert got.selected_ids == () and got.iterations == 0
            self.assert_same(got, reference_schedule(prior, basic_caps(), given,
                                                     capacity))

    def test_one_posterior_per_selection(self, monkeypatch):
        # one rank-1 step per pick, and no batch posterior
        calls = {"scalar": 0, "batch": 0}

        def counted(name, original):
            def wrapper(*args):
                calls[name] += 1
                return original(*args)
            return wrapper

        monkeypatch.setattr(estimator, "scalar_posterior_cov",
                            counted("scalar", estimator.scalar_posterior_cov))
        monkeypatch.setattr(estimator, "posterior_cov",
                            counted("batch", estimator.posterior_cov))
        rng = np.random.default_rng(9)
        picked = 0
        for case in range(200):
            prior, caps, index, capacity = random_case(rng)
            calls.update(scalar=0, batch=0)
            decision = schedule(prior, caps, index, capacity,
                                observe_fn=seeded_reader(case, prior, index))
            assert calls == {"scalar": decision.iterations, "batch": 0}
            picked += decision.iterations
        assert picked >= 200

    def test_duplicate_ids_rejected(self):
        fleet = [scalar_agent(1, 0, 0.01), scalar_agent(1, 1, 0.001)]
        with pytest.raises(InvalidInputError, match="duplicate agent ids"):
            FleetIndex(fleet, 2)


class TestFleetIndex:
    def test_tables_match_stack(self):
        # a selection's ids, one-hot rows and noise, looked up by position,
        # are those estimator.stack builds from its agents
        rng = np.random.default_rng(11)
        for _ in range(200):
            _, _, index, _ = random_case(rng)
            if not index:
                continue
            positions = rng.permutation(len(index))[:int(rng.integers(1, len(index) + 1))]
            want = stack([index.agents[p] for p in positions], index.state_dim)
            features = [index.features[p] for p in positions]
            assert tuple(index.ids[p] for p in positions) == want.agent_ids
            assert np.array_equal(estimator.identity(index.state_dim)[features],
                                  want.matrix)
            assert same_bits(np.diag(np.take(index.variance, positions)), want.noise_cov)
            assert same_bits(np.take(index.std, positions),
                             np.sqrt(want.noise_cov.diagonal()))

    def test_orders(self):
        fleet = [scalar_agent(5, 0, 0.01, distance=3.0),
                 scalar_agent(2, 1, 0.001, distance=3.0),
                 scalar_agent(9, 0, 0.001, distance=1.0)]
        index = FleetIndex(fleet, 2)
        assert index.by_error == (1, 2, 0)
        assert index.by_distance == (2, 1, 0)
        assert index.measuring == ((0, 2), (1,))
        assert index.by_feature == ((2, 0), (1,))
        assert index.ids == (5, 2, 9)
        assert index.features == (0, 1, 0)
        assert index.variance == (0.01, 0.001, 0.001)
        assert same_bits(index.std, np.sqrt([0.01, 0.001, 0.001]))
        assert same_bits(index.precision, 1.0 / np.array([0.01, 0.001, 0.001]))
        assert all(type(v) is float for v in index.variance + index.std + index.precision)
        assert index.state_dim == 2

    def test_immutable(self):
        index = indexed([scalar_agent(1, 0, 0.01), scalar_agent(2, 1, 0.001)])
        for name in ("by_error", "variance", "std", "precision"):
            with pytest.raises(AttributeError):
                setattr(index, name, ())
        with pytest.raises(TypeError):
            index.variance[0] = 2.0
        with pytest.raises(TypeError):
            index.std[0] = 2.0
        with pytest.raises(TypeError):
            index.precision[0] = 2.0

    @pytest.mark.parametrize("variances, overflows", [
        ([1e-320], True), ([1e-308, 1e-308], True), ([1e-308], False),
        ([1e-308, 1e-2], False)])
    def test_fleet_whose_summed_precision_overflows_rejected(self, variances,
                                                             overflows):
        # no selection sums more of a feature's precisions than the fleet
        fleet = [scalar_agent(1, 0, 0.01)] + [scalar_agent(2 + i, 1, v)
                                              for i, v in enumerate(variances)]
        if overflows:
            with pytest.raises(InvalidInputError, match="precision"):
                FleetIndex(fleet, 2)
        else:
            assert np.isfinite(FleetIndex(fleet, 2).precision).all()

    @pytest.mark.parametrize("feature, state_dim", [(2, 2), (5, 2), (0, 0)])
    def test_feature_outside_the_state_rejected(self, feature, state_dim):
        with pytest.raises(InvalidInputError,
                           match=f"agent 1: feature {feature} is not in 0..{state_dim - 1}"):
            FleetIndex([scalar_agent(1, feature, 0.1)], state_dim)


class TestWeightedObjective:
    # the per-QI reference the trace's weighted_objective column is held to
    def test_pure_power_when_thresholds_met(self):
        prior = diag_belief(0.005, 0.0005)
        decision = schedule(prior, basic_caps(), indexed([]), capacity=0)
        value = weighted_objective(decision, basic_caps(), 1.0,
                                   [0.001, 0.002])
        assert value == pytest.approx(0.003)

    def test_pure_hinge_for_empty_schedule(self):
        prior = diag_belief(0.02, 0.0005)   # ratio 2 on position
        decision = schedule(prior, basic_caps(), indexed([]), capacity=0)
        value = weighted_objective(decision, basic_caps(), 0.0, [])
        assert value == pytest.approx(1.0)

    def test_mixed_weight(self):
        prior = diag_belief(0.02, 0.0005)
        decision = schedule(prior, basic_caps(), indexed([]), capacity=0)
        value = weighted_objective(decision, basic_caps(), 0.5, [0.004])
        assert value == pytest.approx(0.502)

    def test_weight_range_enforced(self):
        prior = diag_belief(0.005, 0.0005)
        decision = schedule(prior, basic_caps(), indexed([]), capacity=0)
        with pytest.raises(InvalidInputError):
            weighted_objective(decision, basic_caps(), 1.5, [])
