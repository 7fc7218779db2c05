"""Fleet generation and observation model tests."""

import re

import numpy as np
import pytest

from twinloop import (ConfigurationError, InvalidInputError, SensingAgentSpec,
                      observe, place_agents)
from twinloop.harness import ExperimentConfig
from twinloop.sensing import FleetIndex, read
from tests.helpers import indexed, random_case, same_bits, scalar_agent


class TestObserve:
    def test_position_row_noiseless(self):
        agent = scalar_agent(1, 0, 0.01)
        values = observe(agent, np.array([-0.5, 0.02]), np.random.default_rng(0),
                         noiseless=True)
        np.testing.assert_allclose(values, [-0.5])

    def test_velocity_row_noiseless(self):
        agent = scalar_agent(1, 1, 0.01)
        values = observe(agent, np.array([-0.5, 0.02]), np.random.default_rng(0),
                         noiseless=True)
        np.testing.assert_allclose(values, [0.02])

    def test_empirical_variance_matches_configured(self):
        agent = scalar_agent(1, 0, 0.01)
        rng = np.random.default_rng(5)
        state = np.array([0.1, 0.0])
        draws = np.array([observe(agent, state, rng)[0]
                          for _ in range(100_000)])
        assert draws.var() == pytest.approx(0.01, rel=0.05)
        assert draws.mean() == pytest.approx(0.1, abs=0.002)

    def test_noise_whiteness(self):
        agent = scalar_agent(1, 0, 0.04)
        rng = np.random.default_rng(9)
        state = np.zeros(2)
        n = 100_000
        noise = np.array([observe(agent, state, rng)[0] for _ in range(n)])
        noise -= noise.mean()
        for lag in (1, 2, 5):
            corr = np.dot(noise[:-lag], noise[lag:]) / (n * noise.var())
            assert abs(corr) <= 3.0 / np.sqrt(n)

    def test_linearity_in_the_state(self):
        agent = scalar_agent(1, 0, 0.01)
        rng = np.random.default_rng(2)
        s1 = np.array([0.3, -0.01])
        s2 = np.array([-0.2, 0.04])
        diffs = [observe(agent, s1 + s2, rng)[0]
                 - observe(agent, s2, rng)[0] for _ in range(50_000)]
        assert np.mean(diffs) == pytest.approx(s1[agent.feature], abs=0.003)

    def test_dimension_mismatch(self):
        agent = scalar_agent(1, 2, 0.01)
        with pytest.raises(InvalidInputError, match="feature 2 of a state of dim 2"):
            observe(agent, np.array([1.0, 2.0]), np.random.default_rng(0))

    def test_returns_a_float_vector_per_observation_row(self):
        agent = SensingAgentSpec(1, 2, 0.01, 5.0)
        values = observe(agent, [1, 2, 3], np.random.default_rng(0), noiseless=True)
        assert isinstance(values, np.ndarray)
        assert values.shape == (1,) and values.dtype == np.float64
        np.testing.assert_array_equal(values, [3.0])

    def test_non_finite_reading_rejected(self):
        agent = scalar_agent(7, 0, 0.01)
        with pytest.raises(InvalidInputError, match="agent 7 at QI 12"):
            observe(agent, np.array([np.inf, 0.0]), np.random.default_rng(0),
                    qi=12)


class TestAgentSpecValidation:
    # the spec is a plain record; its FleetIndex checks each field's rule
    def test_rejects_singular_noise(self):
        for variance in (0.0, -0.1, np.nan):
            with pytest.raises(ConfigurationError, match=re.escape(
                    "fleet.agents[0].variance must lie in (0, inf)")):
                FleetIndex([SensingAgentSpec(1, 0, variance, 5.0)], 2)

    @pytest.mark.parametrize("feature", [-1, -5])
    def test_rejects_feature_outside_the_state(self, feature):
        # a negative one; one past the state is the FleetIndex's to reject
        with pytest.raises(ConfigurationError, match=re.escape(
                f"fleet.agents[0].feature must be >= 0: {feature}")):
            FleetIndex([SensingAgentSpec(1, feature, 0.1, 5.0)], 2)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ConfigurationError, match=re.escape(
                "fleet.agents[1].distance must lie in (0, inf): 0.0")):
            FleetIndex([scalar_agent(1, 0, 0.01),
                        scalar_agent(2, 1, 0.01, distance=0.0)], 2)


class TestPlacement:
    def test_distances_within_bound(self):
        fleet = place_agents(10, 20.0, [1e-3, 1e-1], [1e-4, 1e-2],
                             np.random.default_rng(0), 2, 1.0)
        assert all(1.0 < a.distance <= 20.0 for a in fleet)
        assert len(fleet) == 10

    def test_minimal_fleet_covers_both_features(self):
        fleet = place_agents(2, 20.0, [1e-2], [1e-3], np.random.default_rng(0), 2, 1.0)
        assert [a.feature for a in fleet] == [0, 1]

    def test_same_seed_same_fleet(self):
        kwargs = dict(count=6, max_distance_m=20.0,
                      position_noise_levels=[1e-3, 1e-1],
                      velocity_noise_levels=[1e-4, 1e-2], state_dim=2,
                      min_distance_m=1.0)
        a = place_agents(rng=np.random.default_rng(3), **kwargs)
        b = place_agents(rng=np.random.default_rng(3), **kwargs)
        for x, y in zip(a, b):
            assert x.distance == y.distance
            assert x.variance == y.variance

    def test_variances_within_levels(self):
        fleet = place_agents(40, 20.0, [1e-3, 1e-1], [1e-4, 1e-2],
                             np.random.default_rng(1), 2, 1.0)
        for agent in fleet:
            lo, hi = (1e-3, 1e-1) if agent.feature == 0 else (1e-4, 1e-2)
            assert lo <= agent.variance <= hi

    def test_impossible_coverage_is_rejected(self):
        # place_agents returns the one agent; the fleet's builder rejects it
        config = ExperimentConfig()
        config.fleet.count = 1
        assert len(place_agents(1, 20.0, [1e-2], [1e-3], np.random.default_rng(0),
                                2, 1.0)) == 1
        with pytest.raises(ConfigurationError, match="cover every plant feature"):
            config.build_fleet(config.build_plant())


class TestPinnedRecords:
    # a record is the keyword arguments of its SensingAgentSpec, built by
    # build_fleet and checked by the FleetIndex it builds; RECORD is the
    # fleet's second, after OTHER
    RECORD = {"id": 3, "feature": 1, "variance": 2e-3, "distance": 7.5}
    OTHER = {"id": 4, "feature": 0, "variance": 1e-3, "distance": 5.0}

    def build(self, record):
        config = ExperimentConfig()
        config.fleet.agents = [self.OTHER, record]
        return config.build_fleet(config.build_plant())

    def test_builds_the_agent(self):
        assert self.build(self.RECORD).agents[1] == SensingAgentSpec(3, 1, 2e-3, 7.5)

    @pytest.mark.parametrize("field", ["id", "feature", "variance", "distance"])
    def test_missing_field_is_a_configuration_error(self, field):
        record = {k: v for k, v in self.RECORD.items() if k != field}
        with pytest.raises(ConfigurationError, match=re.escape(
                f"bad fleet.agents[1]: ") + f".*missing .*'{field}'"):
            self.build(record)

    def test_unknown_field_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match=re.escape(
                "bad fleet.agents[1]: ") + ".*unexpected keyword argument 'colour'"):
            self.build(dict(self.RECORD, colour="red"))

    @pytest.mark.parametrize("record", [[3, 1, 2e-3, 7.5], 5, None, "record"])
    def test_record_that_is_not_an_object_is_a_configuration_error(self, record):
        with pytest.raises(ConfigurationError, match=re.escape("bad fleet.agents[1]: ")):
            self.build(record)

    @pytest.mark.parametrize("field, value", [("variance", "small"), ("feature", None),
                                              ("distance", "7.5"), ("variance", True)])
    def test_value_that_is_not_a_number_is_a_configuration_error(self, field, value):
        with pytest.raises(ConfigurationError, match=re.escape(
                f"fleet.agents[1].{field} must be a")):
            self.build(dict(self.RECORD, **{field: value}))

    @pytest.mark.parametrize("feature, error, message", [
        (-1, ConfigurationError, "fleet.agents[1].feature must be >= 0: -1"),
        (2, InvalidInputError, "agent 3: feature 2 is not in 0..1")])
    def test_feature_outside_the_state_is_rejected(self, feature, error, message):
        with pytest.raises(error, match=re.escape(message)):
            self.build(dict(self.RECORD, feature=feature))

    @pytest.mark.parametrize("field, value", [
        ("feature", 0.7), ("feature", 1.0), ("feature", True), ("feature", "1"),
        ("id", 2.9), ("id", 3.0), ("id", True), ("id", False)])
    def test_id_or_feature_that_is_not_an_integer_is_a_configuration_error(
            self, field, value):
        with pytest.raises(ConfigurationError, match=re.escape(
                f"fleet.agents[1].{field} must be an integer: {value!r}")):
            self.build(dict(self.RECORD, **{field: value}))

    def test_numpy_integers_are_integers(self):
        record = dict(self.RECORD, id=np.int64(3), feature=np.int32(1))
        assert self.build(record).agents[1] == SensingAgentSpec(3, 1, 2e-3, 7.5)

    @pytest.mark.parametrize("field", ["variance", "distance"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, 0.0])
    def test_variance_or_distance_that_is_not_positive_and_finite_is_rejected(
            self, field, value):
        with pytest.raises(ConfigurationError, match=re.escape(
                f"fleet.agents[1].{field} must lie in (0, inf): {value!r}")):
            self.build(dict(self.RECORD, **{field: value}))


class TestMatchesReference:
    """One draw per selection gives the bits of the per-agent readers."""

    def test_read_matches_per_agent_observe(self):
        # a part of the selection and all of it, each in a random order
        rng = np.random.default_rng(31)
        seen = {"several": 0, "reordered": 0}
        for case in range(1500):
            prior, _, index, _ = random_case(rng)
            if not index:
                continue
            order = rng.permutation(len(index))
            state = prior.mean + rng.normal(size=prior.mean.shape[0])
            for selection in (tuple(order[:rng.integers(1, len(index) + 1)]), tuple(order)):
                got = read(index, selection, state, np.random.default_rng(case))
                draws = np.random.default_rng(case)
                want = np.concatenate([observe(index.agents[p], state, draws)
                                       for p in selection])
                assert same_bits(got, want)
                seen["several"] += len(selection) > 1
                seen["reordered"] += list(selection) != sorted(selection)
        assert min(seen.values()) >= 20, seen

    def test_read_rejects_a_non_finite_reading_with_the_qi(self):
        index = indexed([scalar_agent(7, 0, 0.01), scalar_agent(9, 1, 0.01)])
        with pytest.raises(InvalidInputError, match=r"agents \(9, 7\) at QI 12"):
            read(index, (1, 0), np.array([np.nan, 0.0]), np.random.default_rng(0),
                 qi=12)

    def test_feature_table_lists_the_fleet_in_fleet_order(self):
        fleet = [scalar_agent(5, 1, 0.01), scalar_agent(2, 0, 0.03),
                 scalar_agent(8, 0, 0.001), scalar_agent(1, 1, 0.02)]
        index = indexed(fleet)
        for k in (0, 1):
            assert [index.agents[p] for p in index.measuring[k]] == \
                [a for a in fleet if a.feature == k]
