"""Benchmark scheduling mode tests."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from twinloop import (Belief, ExperimentConfig, InvalidInputError, SchedulingMode,
                      TwinLoop, baseline_schedule)
from twinloop.scheduler import greedy_selection
from tests.helpers import (diag_belief, exact_posterior, indexed, random_case,
                           reference_baseline_schedule, reference_traditional,
                           relative_error, same_bits, scalar_agent, seeded_observer,
                           seeded_reader)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def fleet_with_distances(distances, feature=0, variance=0.01):
    return [scalar_agent(i + 1, feature, variance, distance=d)
            for i, d in enumerate(distances)]


def greedy(mode, prior, index, capacity, **kwargs):
    """A greedy mode's decision on the selection its loop would hold."""
    return baseline_schedule(mode, prior, index, np.random.default_rng(0),
                             greedy=greedy_selection(mode, index, capacity),
                             traditional_count=2, **kwargs)


class TestPerfect:
    def test_truth_with_zero_covariance(self):
        prior = diag_belief(0.02, 0.001, mean=[0.0, 0.0])
        decision = baseline_schedule(SchedulingMode.PERFECT, prior, indexed([]),
                                     np.random.default_rng(0),
                                     true_state=np.array([-0.3, 0.05]),
                                     traditional_count=2)
        np.testing.assert_allclose(decision.posterior.mean, [-0.3, 0.05])
        np.testing.assert_allclose(decision.posterior.cov, 0.0)
        assert decision.selected_ids == ()

    def test_requires_true_state(self):
        with pytest.raises(InvalidInputError):
            baseline_schedule(SchedulingMode.PERFECT, diag_belief(0.1, 0.1),
                              indexed([]), np.random.default_rng(0), traditional_count=2)


class TestGreedy:
    def test_cost_greedy_sorts_by_distance(self):
        fleet = fleet_with_distances([5.0, 3.0, 12.0])
        fleet.append(scalar_agent(4, 1, 0.01, distance=19.0))
        decision = greedy(SchedulingMode.COST_GREEDY, diag_belief(0.1, 0.1),
                          indexed(fleet), 2)
        chosen = {fleet[i].id for i in (0, 1)}
        assert set(decision.selected_ids) == chosen  # distances 3 and 5

    def test_error_greedy_sorts_by_variance(self):
        fleet = [scalar_agent(1, 0, 0.1), scalar_agent(2, 0, 0.01),
                 scalar_agent(3, 1, 0.05)]
        decision = greedy(SchedulingMode.ERROR_GREEDY, diag_belief(0.1, 0.1),
                          indexed(fleet), 2)
        assert set(decision.selected_ids) == {2, 3}

    def test_capacity_above_fleet_selects_all(self):
        fleet = fleet_with_distances([5.0, 3.0])
        decision = greedy(SchedulingMode.COST_GREEDY, diag_belief(0.1, 0.1),
                          indexed(fleet), 10)
        assert len(decision.selected_ids) == 2

    def test_greedy_fuses_through_filter(self):
        fleet = [scalar_agent(1, 0, 0.01)]
        prior = diag_belief(0.02, 0.001)
        decision = greedy(SchedulingMode.COST_GREEDY, prior, indexed(fleet), 1,
                          observe_fn=lambda positions: np.array([0.5]))
        assert decision.posterior.cov[0, 0] == pytest.approx(
            0.02 * 0.01 / 0.03, rel=1e-12)

    @pytest.mark.parametrize("mode", [SchedulingMode.COST_GREEDY,
                                      SchedulingMode.ERROR_GREEDY])
    @pytest.mark.parametrize("reading", [lambda positions: 0.5,
                                         lambda positions: np.array([[0.5]])])
    def test_readings_that_are_not_vectors_rejected(self, mode, reading):
        fleet = [scalar_agent(1, 0, 0.01), scalar_agent(2, 1, 0.001)]
        with pytest.raises(InvalidInputError):
            greedy(mode, diag_belief(0.02, 0.001), indexed(fleet), 2,
                   observe_fn=reading)

    def test_one_reading_for_two_rows_rejected(self):
        fleet = [scalar_agent(1, 0, 0.01), scalar_agent(2, 1, 0.001)]
        readings = iter([np.array([0.5]), np.empty(0)])
        with pytest.raises(InvalidInputError):
            greedy(SchedulingMode.COST_GREEDY, diag_belief(0.02, 0.001),
                   indexed(fleet), 2, observe_fn=lambda positions: next(readings))

    @pytest.mark.parametrize("mode", [SchedulingMode.COST_GREEDY,
                                      SchedulingMode.ERROR_GREEDY])
    def test_greedy_mode_without_its_selection_rejected(self, mode):
        with pytest.raises(InvalidInputError, match="greedy_selection"):
            baseline_schedule(mode, diag_belief(0.1, 0.1),
                              indexed([scalar_agent(1, 0, 0.01)]),
                              np.random.default_rng(0), traditional_count=2)

    @pytest.mark.parametrize("mode", [SchedulingMode.COST_GREEDY,
                                      SchedulingMode.ERROR_GREEDY])
    def test_fleet_of_another_state_dimension_rejected(self, mode):
        with pytest.raises(InvalidInputError, match="fleet"):
            greedy(mode, diag_belief(0.02, 0.001),
                   indexed([scalar_agent(1, 2, 0.01)], dim=3), 1)


class TestMatchesReference:
    """The greedy baselines, one rank-1 step per measured feature and the
    scheduler's fusion tail, make the selections of the list-based greedy
    fused through estimator.update, with its posterior up to roundoff
    (within the criterion-1 tolerance) and the same met caps."""

    MODES = (SchedulingMode.COST_GREEDY, SchedulingMode.ERROR_GREEDY)

    def assert_same(self, got, want):
        assert got.selected_ids == want.selected_ids
        assert got.iterations == want.iterations
        assert got.posterior.qi == want.posterior.qi
        assert relative_error(got.posterior.mean, want.posterior.mean) <= 1e-9
        assert relative_error(got.posterior.cov, want.posterior.cov) <= 1e-9
        assert np.array_equal(got.satisfied, want.satisfied)

    def test_randomized_fleets(self):
        rng = np.random.default_rng(2025)
        seen = {"empty": 0, "zero_capacity": 0, "selected": 0, "no_caps": 0}
        for case in range(600):
            prior, caps, index, capacity = random_case(rng)
            fleet = list(index.agents)
            if case % 4 == 0:
                caps = None
            for mode in self.MODES:
                want = reference_baseline_schedule(
                    mode, prior, fleet, capacity,
                    observe_fn=seeded_observer(case, prior), caps=caps)
                got = greedy(mode, prior, index, capacity,
                             observe_fn=seeded_reader(case, prior, index), caps=caps)
                self.assert_same(got, want)
                self.assert_same(
                    greedy(mode, prior, index, capacity, caps=caps),
                    reference_baseline_schedule(mode, prior, fleet, capacity,
                                                caps=caps))
            seen["empty"] += not fleet
            seen["zero_capacity"] += capacity == 0
            seen["selected"] += len(want.selected_ids) > 1
            seen["no_caps"] += caps is None
        assert min(seen.values()) >= 20, seen


    def test_traditional_randomized_fleets(self):
        rng = np.random.default_rng(2027)
        seen = {"read": 0, "round_robin": 0, "uniform": 0}
        for case in range(600):
            prior, caps, index, _ = random_case(rng)
            count = int(rng.integers(1, 4))
            observed = case % 3 != 0
            want_ids, want = reference_traditional(
                prior, list(index.agents), np.random.default_rng(case),
                seeded_observer(case, prior) if observed else None, count)
            got = baseline_schedule(
                SchedulingMode.TRADITIONAL, prior, index, np.random.default_rng(case),
                observe_fn=seeded_reader(case, prior, index) if observed else None,
                caps=caps, traditional_count=count)
            assert got.selected_ids == want_ids
            assert got.iterations == len(want_ids)
            assert same_bits(got.posterior.mean, want.mean)
            assert same_bits(got.posterior.cov, want.cov)
            seen["read"] += observed and len(want_ids) > 1
            seen["round_robin"] += len(want_ids) >= prior.mean.shape[0]
            seen["uniform"] += 0 < len(want_ids) < prior.mean.shape[0]
        assert min(seen.values()) >= 20, seen


class TestIllConditionedFleet:
    """Agents 6 and 7 of the acceptance fleet read velocity with noise 1e-14
    and agent 2 reads position with 50. The batch guard refuses the stacked
    innovation (its condition number passes 1e12), so the oracle here is
    exact rational arithmetic: the readings fused one at a time without
    roundoff, which equals the batch posterior."""

    def test_greedy_posteriors_match_exact_arithmetic(self):
        config = json.loads((PERFBENCH / "acceptance.json").read_text())
        for record in config["fleet"]["agents"]:
            record["variance"] = {6: 1e-14, 7: 1e-14, 2: 50.0}.get(
                record["id"], record["variance"])
        config = ExperimentConfig.from_dict(config).validate()
        env = TwinLoop(dataclasses.replace(config, mode="cost_greedy"))
        env.reset(0)
        rng = np.random.default_rng(5)
        for _ in range(30):
            prior = env._prior
            for mode in TestMatchesReference.MODES:
                greedy = greedy_selection(mode, env.fleet_index, config.capacity)
                chosen = greedy[0]
                values = np.take(env._true_state,
                    [env.fleet_index.features[p] for p in chosen]) \
                    + np.take(env.fleet_index.std, chosen) * rng.standard_normal(len(chosen))
                got = baseline_schedule(mode, prior, env.fleet_index, rng,
                                        observe_fn=lambda positions: values,
                                        greedy=greedy, traditional_count=2).posterior
                index = env.fleet_index
                mean, cov = exact_posterior(prior.mean, prior.cov, [
                    (index.features[p], index.variance[p], value)
                    for p, value in zip(chosen, values)])
                mean, cov = np.array(mean, dtype=float), np.array(cov, dtype=float)
                assert relative_error(got.mean, mean) <= 1e-9
                assert relative_error(got.cov, cov) <= 1e-9
                # each variance to its own size, the velocity's near 5e-15 too
                assert np.all(np.abs(got.cov.diagonal() / cov.diagonal() - 1.0) <= 1e-9)
            env.step(np.zeros(env.action_dim))


class TestTraditional:
    def test_substitutes_raw_observations(self):
        fleet = [scalar_agent(1, 0, 0.04), scalar_agent(2, 1, 0.001)]
        prior = diag_belief(0.02, 0.0005, mean=[0.0, 0.0])
        decision = baseline_schedule(
            SchedulingMode.TRADITIONAL, prior, indexed(fleet), np.random.default_rng(0),
            observe_fn=lambda positions: np.array([-0.42, 0.031]).take(
                [fleet[p].feature for p in positions]),
            traditional_count=2)
        np.testing.assert_allclose(decision.posterior.mean, [-0.42, 0.031])
        assert decision.posterior.cov[0, 0] == pytest.approx(0.04)
        assert decision.posterior.cov[1, 1] == pytest.approx(0.001)
        assert len(decision.selected_ids) == 2

    def test_each_feature_gets_its_own_agents_variance(self):
        # three agents per feature, every variance different: the variance
        # substituted for feature k is that of the agent read for k
        fleet = [scalar_agent(i + 1, i % 3, 10.0 ** -(i + 1)) for i in range(9)]
        by_id = {a.id: a for a in fleet}
        prior = Belief(np.zeros(3), np.full((3, 3), 0.01) + np.eye(3), qi=4)
        truth = np.array([0.5, -0.25, 2.0])
        read = set()
        for seed in range(20):
            decision = baseline_schedule(
                SchedulingMode.TRADITIONAL, prior, indexed(fleet, dim=3),
                np.random.default_rng(seed),
                observe_fn=lambda positions: truth.take(
                    [fleet[p].feature for p in positions]),
                traditional_count=3)
            want = np.zeros((3, 3))
            for agent in map(by_id.get, decision.selected_ids):
                want[agent.feature, agent.feature] = agent.variance
            assert sorted(by_id[i].feature for i in decision.selected_ids) == [0, 1, 2]
            assert decision.posterior.cov.tolist() == want.tolist()
            assert decision.posterior.mean.tolist() == truth.tolist()
            read.update(decision.selected_ids)
        assert len(read) == 9

    def test_single_agent_keeps_other_feature_prior(self):
        fleet = [scalar_agent(1, 0, 0.04)]
        prior = diag_belief(0.02, 0.0005, mean=[0.1, 0.02])
        decision = baseline_schedule(
            SchedulingMode.TRADITIONAL, prior, indexed(fleet), np.random.default_rng(3),
            observe_fn=lambda positions: np.array([-0.5]), traditional_count=1)
        assert decision.posterior.mean[1] == pytest.approx(0.02)
        assert decision.posterior.cov[1, 1] == pytest.approx(0.0005)
        assert decision.posterior.mean[0] == pytest.approx(-0.5)

    @pytest.mark.parametrize("reading", [lambda positions: -0.5,
                                     lambda positions: np.array([-0.5, 0.1])])
    def test_reading_that_does_not_fit_the_agent_rejected(self, reading):
        with pytest.raises(InvalidInputError):
            baseline_schedule(SchedulingMode.TRADITIONAL, diag_belief(0.02, 0.0005),
                              indexed([scalar_agent(1, 0, 0.04)]),
                              np.random.default_rng(3),
                              observe_fn=reading, traditional_count=1)

    def test_single_pick_is_uniform_over_the_fleet(self):
        fleet = [scalar_agent(1, 0, 0.04), scalar_agent(2, 1, 0.001)]
        prior = diag_belief(0.02, 0.0005)
        rng = np.random.default_rng(0)
        picked = set()
        for _ in range(50):
            decision = baseline_schedule(
                SchedulingMode.TRADITIONAL, prior, indexed(fleet), rng,
                traditional_count=1)
            picked.update(decision.selected_ids)
        assert picked == {1, 2}

    def test_reverb_rejected_here(self):
        with pytest.raises(InvalidInputError):
            baseline_schedule(SchedulingMode.REVERB, diag_belief(0.1, 0.1),
                              indexed([]), np.random.default_rng(0), traditional_count=2)


class TestPowerAccounting:
    def test_perfect_consumes_nothing(self):
        decision = baseline_schedule(SchedulingMode.PERFECT,
                                     diag_belief(0.1, 0.1), indexed([]),
                                     np.random.default_rng(0),
                                     true_state=np.zeros(2), traditional_count=2)
        assert decision.selected_ids == ()

    def test_greedy_selects_exactly_capacity(self):
        fleet = [scalar_agent(i + 1, i % 2, 0.01 + i * 0.01,
                              distance=1.0 + i) for i in range(6)]
        decision = greedy(SchedulingMode.ERROR_GREEDY, diag_belief(0.1, 0.1),
                          indexed(fleet), 4)
        assert len(decision.selected_ids) == 4
