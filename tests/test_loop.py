"""Control-loop environment tests: wiring between filter, scheduler, plant."""

import csv
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from twinloop import (PLANT_REGISTRY, ConfigurationError, ExperimentConfig,
                      InvalidInputError, LinearPlant, NumericalFailureError,
                      PolicyNetwork, SchedulingMode, TwinLoop, estimator,
                      export_traces, run_episode, run_monte_carlo, scheduler)
from twinloop.harness import fresh_policy, write_csv
from tests.helpers import (reference_episode_metrics, reference_policy_input,
                           reference_trace_columns, reference_trace_rows, same_bits)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def loop_config(mode="reverb"):
    config = ExperimentConfig()
    config.mode = mode
    config.fleet.count = 4
    config.capacity = 4
    config.plant.episode_cap = 25
    config.plant.process_noise_std = (0.02, 1e-3)
    config.rl.eta_max = 500.0
    return config.validate()


class TestPolicyInput:
    def test_layout_is_mean_then_std(self):
        env = TwinLoop.from_config(loop_config())
        obs = env.reset(0)
        assert obs.shape == (4,)
        np.testing.assert_allclose(obs[:2], env._prior.mean)
        np.testing.assert_allclose(obs[2:], env._prior.deviations)

    def test_float_form_matches_concatenated_mean_and_std(self):
        # Belief.deviations takes sqrt(max(var, 0)) on floats: a negative or
        # signed-zero variance gives +0.0, NaN stays NaN, as np.maximum and
        # np.sqrt give them
        env = TwinLoop.from_config(loop_config())
        rng = np.random.default_rng(81)
        specials = (0.0, -0.0, -1e-3, np.inf, np.nan, 1e-320)
        for _ in range(500):
            diag = rng.uniform(0, 1, 2)
            swap = rng.random(2) < 0.4
            diag[swap] = rng.choice(specials, size=int(swap.sum()))
            belief = estimator.Belief(rng.normal(size=2), np.diag(diag))
            with np.errstate(invalid="ignore"):
                want = reference_policy_input(belief)
            assert same_bits(env._policy_input(belief), want)

    def test_initial_belief_matches_start_distribution(self):
        env = TwinLoop.from_config(loop_config())
        obs = env.reset(1)
        assert obs[0] == pytest.approx(-0.5)      # center of start range
        assert obs[1] == 0.0
        assert obs[2] == pytest.approx(np.sqrt(0.2 ** 2 / 12))

    def test_action_dim(self):
        env = TwinLoop.from_config(loop_config())
        assert env.action_dim == 3
        assert env.obs_dim == 4


class TestFleetIndex:
    def test_built_once_and_passed_to_the_schedulers(self, monkeypatch):
        from twinloop import scheduler

        env = TwinLoop.from_config(loop_config())
        assert [a.id for a in env.fleet_index.agents] == [1, 2, 3, 4]
        seen = []
        real = scheduler.schedule

        def spy(prior, caps, fleet, capacity, observe_fn=None):
            seen.append(fleet)
            return real(prior, caps, fleet, capacity, observe_fn)

        monkeypatch.setattr(scheduler, "schedule", spy)
        env.reset(0)
        for _ in range(3):
            env.step(np.zeros(env.action_dim))
        assert seen and all(f is env.fleet_index for f in seen)

    def test_duplicate_agent_ids_rejected(self):
        config = loop_config()
        config.fleet.agents = [
            {"id": 1, "feature": 0, "variance": 1e-3, "distance": 5.0},
            {"id": 1, "feature": 1, "variance": 1e-4, "distance": 6.0}]
        with pytest.raises(InvalidInputError, match="duplicate agent ids"):
            TwinLoop.from_config(config)

    def test_generated_fleet_follows_the_plant_dimension(self, monkeypatch):
        # the fleet's state dimension is the plant's, stated nowhere else
        def build_linear_3d(process_noise_std, episode_cap):
            return LinearPlant(transition=np.eye(3), control_matrix=[[0.0], [1.0], [0.0]],
                               process_cov=np.diag([1e-4, 1e-6, 1e-6]),
                               feature_names=("x", "y", "z"), episode_cap=episode_cap)

        monkeypatch.setitem(PLANT_REGISTRY, "linear_3d", build_linear_3d)
        config = loop_config()
        config.plant.name = "linear_3d"
        config.fleet.count = 6
        config.variance_caps = (0.01, 0.001, 0.001)
        env = TwinLoop.from_config(config.validate(), record_trace=True)
        assert env.fleet_index.state_dim == 3
        assert [len(m) for m in env.fleet_index.measuring] == [2, 2, 2]
        env.reset(0)
        step = env.step(np.zeros(env.action_dim))
        assert step.policy_input.shape == (6,)
        assert env.episode_totals(env.trace)["qis"] == 1

    def test_uncovered_feature_rejected(self):
        config = loop_config()
        config.fleet.agents = [
            {"id": 1, "feature": 0, "variance": 1e-3, "distance": 5.0},
            {"id": 2, "feature": 0, "variance": 1e-4, "distance": 6.0}]
        with pytest.raises(ConfigurationError, match="cover"):
            TwinLoop.from_config(config)

    @pytest.mark.parametrize("caps", [(0.01,), (0.01, 0.001, 0.1)])
    def test_caps_of_the_wrong_length_rejected(self, caps):
        # checked once, at construction: no QI checks the caps again
        config = loop_config()
        config.variance_caps = caps
        with pytest.raises(ConfigurationError, match="one variance cap"):
            TwinLoop.from_config(config)

    @pytest.mark.parametrize("caps", [(np.nan, 0.001), (0.01, 0.0), (-0.01, 0.001)])
    def test_caps_that_are_not_positive_rejected(self, caps):
        # a NaN cap is never met, yet never makes the scheduler pick an agent
        config = loop_config()
        config.variance_caps = caps
        with pytest.raises(ConfigurationError, match=re.escape(
                "variance_caps must hold values in [2.2250738585072014e-308, inf)")):
            TwinLoop(config)

    @pytest.mark.parametrize("caps", ["x", ("0.01", "x"), [[0.01], [1e-3, 1]],
                                      (True, 0.001)])
    def test_caps_that_are_not_numbers_rejected_unvalidated(self, caps):
        # by the caps' rule: no ValueError or TypeError, and no bool read as 1.0
        config = ExperimentConfig()
        config.variance_caps = caps
        with pytest.raises(ConfigurationError, match=re.escape(
                "variance_caps must be a non-empty list of numbers")):
            TwinLoop(config)

    def test_unknown_plant_rejected_unvalidated(self):
        config = ExperimentConfig()
        config.plant.name = "pendulum"
        with pytest.raises(ConfigurationError, match=re.escape(
                "plant.name must be one of ['mountain_car', 'linear_2d']: 'pendulum'")):
            TwinLoop(config)

    @pytest.mark.parametrize("section, name, value, message", [
        ("", "mode", "bogus", "mode must be one of"),
        ("plant", "process_noise_std", (1e-4,), "plant.process_noise_std must be a list of 2"),
        ("plant", "process_noise_std", (1e-4, -1.0), "plant.process_noise_std must hold values"),
        ("plant", "process_noise_std", (1e200, 1.0), "plant.process_noise_std must hold"),
        ("fleet", "agents", [{"id": 1, "feature": 0, "variance": "1e-3", "distance": 5.0}],
         "fleet.agents[0].variance must be a number"),
        ("fleet", "velocity_noise_levels", (), "fleet.velocity_noise_levels must be a non-empty"),
        ("fleet", "seed", -1, "fleet.seed must be >= 0"),
        ("rl", "discount", 7.0, "rl.discount must lie in")])
    def test_every_rule_runs_when_the_loop_is_built(self, section, name, value, message):
        # TwinLoop(config) and from_config, unvalidated, check every field
        # first: no KeyError, unpacking or min() error from below
        config = ExperimentConfig()
        setattr(getattr(config, section) if section else config, name, value)
        for build in (TwinLoop, TwinLoop.from_config):
            with pytest.raises(ConfigurationError, match=re.escape(message)):
                build(config)


class TestOneRecordPerQi:
    @pytest.mark.parametrize("mode", [m.value for m in SchedulingMode])
    def test_metrics_equal_the_per_qi_accumulators(self, mode):
        # read from the trace at the end of the episode, with the bits of
        # the per-QI sums and lists the loop once kept beside it
        config = ExperimentConfig.from_json_file(PERFBENCH / "acceptance.json")
        config = dataclasses.replace(config, mode=mode, master_seed=7).validate()
        policy = PolicyNetwork.load(PERFBENCH / "reverb_policy.json")
        env = TwinLoop(config, record_trace=True)
        for episode in range(3):
            metrics = vars(run_episode(policy, config, episode, env=env))
            trace = metrics.pop("trace")
            want, norms = reference_episode_metrics(policy, config, episode)
            assert metrics.keys() == want.keys() and len(trace) == want["qis"]
            for key, value in want.items():
                assert type(metrics[key]) is type(value), key
                assert same_bits(np.array(metrics[key]), np.array(value)), key
            # one QI at a time too: the mean can hide a last-bit difference
            # in a norm (sqrt of np.einsum differs from sqrt(e.dot(e)) on
            # a few QIs of each mode here)
            got = [env.episode_totals([record])["mrmse"] for record in trace]
            assert same_bits(np.array(got), np.array(norms))

    @pytest.mark.parametrize("mode", [m.value for m in SchedulingMode])
    def test_a_loop_without_a_trace_keeps_no_per_qi_state(self, mode):
        env = TwinLoop(loop_config(mode))
        env.reset(0)
        sizes = {k: len(v) for k, v in vars(env).items() if isinstance(v, (list, dict))}
        for _ in range(10):
            env.step(np.zeros(env.action_dim))
        assert env.trace == []
        assert sizes == {k: len(v) for k, v in vars(env).items()
                         if isinstance(v, (list, dict))}

    def test_run_episode_needs_a_recording_loop(self):
        config = loop_config()
        env = TwinLoop(config)
        with pytest.raises(InvalidInputError, match="records its trace"):
            run_episode(fresh_policy(config, env), config, 0, env=env)


class TestEtaCoupling:
    def test_requested_accuracy_tightens_caps(self):
        # prior position variance starts at 3.33e-3 < cap 0.01, so only a
        # tight accuracy request can force scheduling on the first interval
        config = loop_config()
        env = TwinLoop.from_config(config, record_trace=True)
        env.reset(3)
        lazy = env.step(np.array([0.0, -1.0, -1.0]))   # eta = 0
        assert env.trace_table(env.trace)["n_selected"][0] == 0

        env.reset(3)
        env.step(np.array([0.0, 1.0, -1.0]))   # eta_pos = 500 -> cap 2e-3
        table = env.trace_table(env.trace)
        assert table["n_selected"][0] >= 1
        assert table["prior_ratio_pos"][0] > 1.0

    def test_eta_ignored_outside_adaptive_mode(self):
        config = loop_config(mode="cost_greedy")
        env = TwinLoop.from_config(config, record_trace=True)
        env.reset(3)
        env.step(np.array([0.0, 1.0, 1.0]))
        assert env.trace_table(env.trace)["n_selected"][0] == 4   # always min(C, M)


class TestModeBehaviors:
    def test_perfect_posterior_tracks_truth(self):
        env = TwinLoop.from_config(loop_config(mode="perfect"), record_trace=True)
        env.reset(5)
        truth_before = env._true_state.copy()
        env.step(np.array([0.3, 0.0, 0.0]))
        row = {name: column[0] for name, column in env.trace_table(env.trace).items()}
        assert row["belief_pos"] == pytest.approx(truth_before[0])
        assert row["belief_vel"] == pytest.approx(truth_before[1])
        assert row["power_w"] == 0.0

    def test_shaping_applies_only_to_adaptive_mode(self):
        raw = np.array([0.5, 1.0, 1.0])
        rewards = {}
        for mode in ("reverb", "perfect"):
            config = loop_config(mode)
            config.rl.cost_mode = "paper_eq24"
            env = TwinLoop.from_config(config)
            env.reset(7)
            step = env.step(raw)
            rewards[mode] = (step.base_reward, step.shaped_reward)
        base, shaped = rewards["reverb"]
        assert shaped == pytest.approx(base + 5e-6 * 0.5 * 1000.0)
        base, shaped = rewards["perfect"]
        assert shaped == base

    def test_termination_at_goal(self):
        config = loop_config(mode="perfect")
        env = TwinLoop.from_config(config)
        env.reset(0)
        env._true_state = np.array([0.44, 0.07])
        step = env.step(np.array([1.0, 0.0, 0.0]))
        assert step.terminated
        assert step.base_reward > 99.0

    def test_truncation_at_cap(self):
        config = loop_config(mode="perfect")
        config.plant.episode_cap = 3
        config.validate()
        env = TwinLoop.from_config(config)
        env.reset(0)
        outcomes = [env.step(np.array([0.0, 0.0, 0.0])) for _ in range(3)]
        assert not outcomes[0].truncated and not outcomes[1].truncated
        assert outcomes[2].truncated and not outcomes[2].terminated


class TestGreedyModel:
    @pytest.mark.parametrize("mode", ["cost_greedy", "error_greedy"])
    def test_built_once_per_loop_and_read_only(self, mode, monkeypatch):
        # mode, fleet and capacity fix the selection and its fusion steps:
        # the loop builds them once, as tuples, and no QI builds them again
        config = loop_config(mode)   # validate builds a loop of its own
        calls = []
        real = scheduler.greedy_selection
        monkeypatch.setattr(scheduler, "greedy_selection",
                            lambda *args: calls.append(1) or real(*args))
        env = TwinLoop.from_config(config, record_trace=True)
        env.reset(0)
        for _ in range(5):
            env.step(np.zeros(env.action_dim))
        assert len(calls) == 1
        chosen, steps = env._greedy
        assert isinstance(chosen, tuple) and isinstance(steps, tuple)
        assert all(isinstance(step, tuple) for step in steps)
        # one step per measured feature, in feature order, whose noise is
        # that of the feature's readings taken together: 1 / sum(1 / r)
        index = env.fleet_index
        features = [index.features[p] for p in chosen]
        assert [k for k, _ in steps] == sorted(set(features))
        for k, r in steps:
            precision = sum(1.0 / index.variance[p] for p in chosen
                            if index.features[p] == k)
            assert r == pytest.approx(1.0 / precision, rel=1e-15)

    @pytest.mark.parametrize("mode", [m.value for m in SchedulingMode])
    def test_no_qi_calls_the_batch_oracle(self, mode, monkeypatch):
        # every mode fuses with rank-1 steps: no stacked model, batch
        # posterior, solve or eigenvalue guard, in the loop or in a QI
        def forbidden(name):
            def call(*args, **kwargs):
                raise AssertionError(f"{name} was called")
            return call

        for name in ("posterior_cov", "stack", "update"):
            monkeypatch.setattr(estimator, name, forbidden(name))
        env = TwinLoop.from_config(loop_config(mode), record_trace=True)
        # the plant checks its process covariance with eigvalsh when built
        for name in ("eigvalsh", "solve"):
            monkeypatch.setattr(np.linalg, name, forbidden(name))
        env.reset(0)
        for _ in range(10):
            env.step(np.zeros(env.action_dim))
        selected = env.episode_totals(env.trace)["mean_selected"]
        assert (selected > 0) is (mode != "perfect")


class TestTrace:
    def test_columns_follow_the_plant_features(self, tmp_path, monkeypatch):
        def build_linear_3d(process_noise_std, episode_cap):
            return LinearPlant(transition=np.eye(3), control_matrix=[[0.0], [1.0], [0.0]],
                               process_cov=np.diag([1e-4, 1e-6, 1e-6]),
                               episode_cap=episode_cap, feature_names=("x", "y", "z"))

        monkeypatch.setitem(PLANT_REGISTRY, "linear_3d", build_linear_3d)
        config = loop_config()
        config.plant.name = "linear_3d"
        config.fleet.count = 6
        config.variance_caps = (0.01, 0.001, 0.001)
        config.plant.episode_cap = 8
        env = TwinLoop.from_config(config.validate(), record_trace=True)
        metrics = run_episode(fresh_policy(config, env), config, 0, env=env)
        export_traces([metrics], tmp_path / "out", env=env)
        path = tmp_path / "out" / "trace_0.csv"
        with open(path, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        for prefix in ("true_", "belief_", "std_", "prior_ratio_", "eta_"):
            assert [c for c in header if c.startswith(prefix)] == [
                prefix + name for name in ("x", "y", "z")]
        assert len(header) == 9 + 5 * 3      # 19 for the two-feature car
        assert len(rows) == metrics.qis == 8
        assert all(len(row) == len(header) for row in rows)
        # the same bytes as the rows built one QI at a time
        want = tmp_path / "want.csv"
        write_csv(want, reference_trace_columns(("x", "y", "z")), reference_trace_rows(
            metrics.trace, ("x", "y", "z"), env.power_by_id, env.accuracy_weight))
        assert path.read_bytes() == want.read_bytes()

    def test_linear_plant_names_its_features(self):
        plant = LinearPlant(np.eye(3), np.ones((3, 1)), np.zeros((3, 3)), ["a", "b", "c"],
                            episode_cap=999)
        assert plant.feature_names == ("a", "b", "c")
        with pytest.raises(InvalidInputError, match="3 feature names"):
            LinearPlant(np.eye(3), np.ones((3, 1)), np.zeros((3, 3)),
                        feature_names=("a", "b"), episode_cap=999)


class TestNonFinitePolicyAction:
    @pytest.mark.parametrize("mode", ["reverb", "perfect", "error_greedy"])
    @pytest.mark.parametrize("raw", [[np.nan, 0.0, 0.0], [0.0, np.nan, 0.0],
                                     [0.0, 0.0, np.nan]])
    def test_raises_numerical_failure_with_the_qi(self, mode, raw):
        env = TwinLoop.from_config(loop_config(mode))
        env.reset(0)
        for _ in range(2):
            env.step(np.zeros(env.action_dim))
        with pytest.raises(NumericalFailureError) as err:
            env.step(np.array(raw))
        assert err.value.qi == 3
        assert "non-finite policy action (QI 3)" in str(err.value)

    def test_nothing_runs_before_the_check(self, monkeypatch):
        from twinloop import scheduler

        env = TwinLoop.from_config(loop_config(), record_trace=True)
        env.reset(0)
        state, prior = env._true_state.copy(), env._prior
        monkeypatch.setattr(scheduler, "schedule", None)   # must not be reached
        with pytest.raises(NumericalFailureError):
            env.step(np.array([0.2, np.nan, 0.1]))
        assert np.array_equal(env._true_state, state) and env._prior is prior
        assert env._qi == 1 and env.trace == []

    @pytest.mark.parametrize("mode", ["reverb", "error_greedy"])
    def test_infinite_entries_are_clamped_as_before(self, mode):
        results = []
        for raw in ([np.inf, -np.inf, np.inf], [1.0, -1.0, 1.0]):
            env = TwinLoop.from_config(loop_config(mode))
            env.reset(0)
            results.append([env.step(np.array(raw)) for _ in range(3)])
        for clamped, bounded in zip(*results):
            assert np.array_equal(clamped.policy_input, bounded.policy_input)
            assert clamped.shaped_reward == bounded.shaped_reward
            assert np.isfinite(clamped.shaped_reward)

    @pytest.mark.parametrize("raw", [[0.0, 1.0], [0.0, 1.0, 1.0, 1.0], [[0.0, 1.0, 1.0]]])
    def test_action_of_the_wrong_shape_rejected(self, raw):
        # the accuracy request is applied to the caps without a second check,
        # so its length is settled here
        env = TwinLoop.from_config(loop_config())
        env.reset(0)
        with pytest.raises(InvalidInputError, match="action shape"):
            env.step(np.array(raw))
        assert env._qi == 1

    def test_nan_accuracy_no_longer_yields_a_nan_reward(self):
        env = TwinLoop.from_config(loop_config())
        env.reset(0)
        with pytest.raises(NumericalFailureError):
            env.step(np.array([0.0, np.nan, np.nan]))


class TestFixedThresholds:
    def test_non_adaptive_modes_share_one_threshold_object(self, monkeypatch):
        from twinloop import loop as loop_mod

        env = TwinLoop.from_config(loop_config("cost_greedy"))
        seen = []
        real = loop_mod.baseline_schedule

        def spy(*args, **kwargs):
            seen.append(kwargs["caps"])
            return real(*args, **kwargs)

        monkeypatch.setattr(loop_mod, "baseline_schedule", spy)
        env.reset(0)
        for _ in range(3):
            env.step(np.array([0.0, 1.0, 1.0]))
        assert len(seen) == 3 and all(t is env.variance_caps for t in seen)
        np.testing.assert_array_equal(env.variance_caps, [0.01, 0.001])


class TestStepWritesIntoNothingItHolds:
    @pytest.mark.parametrize("mode", [m.value for m in SchedulingMode])
    def test_previous_prior_and_posterior_unchanged(self, mode, monkeypatch):
        # each QI's prior and posterior are new arrays: the trace, the
        # caller and the next QI may hold the ones before
        posteriors = []
        real = estimator.predict
        monkeypatch.setattr(estimator, "predict", lambda posterior, *args: (
            posteriors.append(posterior) or real(posterior, *args)))
        env = TwinLoop.from_config(loop_config(mode), record_trace=True)
        env.reset(3)
        rng = np.random.default_rng(4)
        held = []
        for _ in range(12):
            prior = env._prior
            held.append((prior, prior.mean.copy(), prior.cov.copy()))
            env.step(rng.uniform(-1.0, 1.0, env.action_dim))
            posterior = posteriors[-1]
            held.append((posterior, posterior.mean.copy(), posterior.cov.copy()))
            assert env._prior is not prior and env._prior.mean is not posterior.mean
        for belief, mean, cov in held:
            assert same_bits(belief.mean, mean) and same_bits(belief.cov, cov)

    def test_episode_csv_writes_a_goal_as_one(self, tmp_path):
        # is_goal gives a Python bool, which the CSV writer writes as 0 or 1
        class Swing:
            """Full force along the believed velocity: climbs in time."""

            def act(self, obs):
                return np.array([1.0 if obs[1] >= 0 else -1.0, 0.0, 0.0]), obs

        config = loop_config("perfect")
        config.plant.episode_cap = 400
        config.episodes = 2
        config.output_dir = str(tmp_path)
        report = run_monte_carlo(config, policy=Swing())
        assert all(type(m.reached_goal) is bool for m in report["episodes"])
        rows = list(csv.DictReader(open(tmp_path / "episodes.csv")))
        assert [row["reached_goal"] for row in rows] == ["1", "1"]
