"""Orchestration tests: config handling, episode runs, persistence, determinism."""

import csv
import dataclasses
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from twinloop import (ConfigurationError, EpisodeMetrics, ExperimentConfig,
                      SchedulingMode, TwinLoop, aggregate_metrics,
                      export_traces, run_episode, run_monte_carlo)
from twinloop.errors import InvalidInputError, NumericalFailureError
from twinloop.agent import PolicyNetwork
from twinloop.harness import csv_line, fresh_policy, write_csv
from tests.helpers import (overflow_error_norm, reference_aggregate_metrics,
                           reference_trace_columns, reference_trace_rows,
                           reference_write_csv)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# the trace header of a plant with features pos and vel, as it has always been
MOUNTAIN_CAR_TRACE_HEADER = (
    b"qi,true_pos,true_vel,belief_pos,belief_vel,std_pos,std_vel,"
    b"prior_ratio_pos,prior_ratio_vel,n_selected,selected_ids,iterations,"
    b"power_w,eta_pos,eta_vel,control,base_reward,satisfied,weighted_objective\r\n")
from twinloop.agent import train


def small_config(mode="reverb", episodes=2, seed=5):
    config = ExperimentConfig()
    config.mode = mode
    config.master_seed = seed
    config.episodes = episodes
    config.fleet.count = 4
    config.capacity = 3
    config.plant.episode_cap = 40
    config.plant.process_noise_std = (0.02, 1e-3)
    config.rl.total_steps = 0
    return config.validate()


class TestConfig:
    def test_json_round_trip(self):
        config = small_config()
        text = json.dumps(config.to_dict(), indent=2)
        back = ExperimentConfig.from_dict(json.loads(text))
        assert back.to_dict() == config.to_dict()

    def test_file_round_trip(self, tmp_path):
        config = small_config()
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.to_dict(), indent=2))
        loaded = ExperimentConfig.from_json_file(path)
        assert loaded.to_dict() == config.to_dict()

    def test_missing_file(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_json_file("/nonexistent/config.json")

    def test_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_json_file(path)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_dict({"made_up_key": 1})

    def test_invalid_values_rejected(self):
        for patch in ({"mode": "bogus"}, {"episodes": 0},
                      {"variance_caps": (0.0, 0.001)},
                      {"variance_caps": (float("nan"), 0.001)},
                      {"variance_caps": ("a", 0.001)}):
            config = small_config()
            data = config.to_dict()
            data.update(patch)
            with pytest.raises(ConfigurationError):
                ExperimentConfig.from_dict(data).validate()

    @pytest.mark.parametrize("section", ["plant", "fleet", "channel", "rl"])
    def test_section_that_is_not_an_object_rejected(self, section):
        data = small_config().to_dict()
        data[section] = 5
        with pytest.raises(ConfigurationError, match=f"bad {section} section"):
            ExperimentConfig.from_dict(data)

    @pytest.mark.parametrize("fleet, error", [
        ({"count": 1}, ConfigurationError),
        ({"agents": [{"id": 1, "feature": 0, "variance": 0.01}]}, ConfigurationError),
        ({"agents": [{"id": 1, "feature": 2, "variance": 0.01, "distance": 5.0}]},
         InvalidInputError),
    ])
    def test_bad_fleet_rejected_before_any_episode(self, fleet, error):
        # in validate, so a run fails as a whole, not once per episode
        data = small_config().to_dict()
        data["fleet"].update(fleet)
        with pytest.raises(error):
            ExperimentConfig.from_dict(data).validate()

    def test_explicit_fleet_wins(self):
        config = small_config()
        config.fleet.agents = [
            {"id": 1, "feature": 0, "variance": 0.01, "distance": 5.0},
            {"id": 2, "feature": 1, "variance": 0.001, "distance": 8.0},
        ]
        fleet = config.build_fleet(config.build_plant()).agents
        assert [a.id for a in fleet] == [1, 2]
        assert fleet[0].distance == 5.0


def evaluate_episode(config, index):
    """Evaluation episode ``index`` of ``config``'s fresh policy, on a new
    loop that records its trace."""
    env = TwinLoop(config, record_trace=True)
    return run_episode(fresh_policy(config, env), config, index, env)


class TestRunEpisode:
    def test_each_episode_keeps_its_own_trace(self):
        # the metrics hold the loop's list itself; the next reset starts a
        # new one instead of clearing it
        config = small_config(mode="reverb")
        env = TwinLoop(config, record_trace=True)
        policy = fresh_policy(config, env)
        first = run_episode(policy, config, 0, env)
        kept = list(first.trace)
        second = run_episode(policy, config, 1, env)
        assert second.trace is env.trace and first.trace is not second.trace
        assert first.trace == kept
        assert first.trace == evaluate_episode(config, 0).trace

    def test_perfect_mode_has_zero_error(self):
        config = small_config(mode="perfect")
        metrics = evaluate_episode(config, 0)
        assert metrics.mrmse == 0.0
        assert metrics.total_power_w == 0.0

    def test_untrained_policy_hits_the_cap(self):
        config = small_config(mode="reverb")
        config.plant.process_noise_std = (1e-4, 1e-5)  # no free rides to the goal
        config.validate()
        metrics = evaluate_episode(config, 0)
        assert metrics.qis == 40
        assert not metrics.reached_goal

    def test_relaxed_caps_mean_zero_power(self):
        config = small_config(mode="reverb")
        config.variance_caps = (1e6, 1e6)
        config.rl.eta_max = 1e-9   # requested accuracy cannot tighten caps
        config.validate()
        metrics = evaluate_episode(config, 0)
        assert metrics.total_power_w == 0.0
        assert metrics.mean_selected == 0.0

    def test_power_accounting_identity(self):
        config = small_config(mode="cost_greedy")
        metrics = evaluate_episode(config, 1)
        env = TwinLoop.from_config(config)
        power = env.trace_table(metrics.trace)["power_w"]
        trace_total = sum(power)
        assert metrics.total_power_w == pytest.approx(trace_total, rel=1e-12)
        nearest = sorted(env.fleet_index.agents, key=lambda a: (a.distance, a.id))[:3]
        per_qi = sum(env.power_by_id[a.id] for a in nearest)
        assert power[0] == pytest.approx(per_qi, rel=1e-12)


class TestCommonRandomNumbers:
    def test_same_episode_same_initial_state_across_modes(self):
        states = {}
        for mode in ("perfect", "reverb", "cost_greedy"):
            config = small_config(mode=mode)
            metrics = evaluate_episode(config, 3)
            table = TwinLoop.from_config(config).trace_table(metrics.trace)
            states[mode] = (table["true_pos"][0],
                            table["true_vel"][0])
        assert len(set(states.values())) == 1

    def test_perfect_rerun_is_identical(self):
        config = small_config(mode="perfect")
        a = evaluate_episode(config, 2)
        b = evaluate_episode(config, 2)
        env = TwinLoop.from_config(config)
        assert (env.trace_table(a.trace)["true_pos"]
                == env.trace_table(b.trace)["true_pos"])
        assert a.total_base_reward == b.total_base_reward


class TestMonteCarlo:
    def test_single_episode_aggregate_equals_episode(self):
        config = small_config(episodes=1)
        report = run_monte_carlo(config)
        episode = report["episodes"][0]
        agg = report["aggregate"]
        assert agg["episodes"] == 1
        assert agg["qis"]["mean"] == episode.qis
        assert agg["total_power_w"]["mean"] == pytest.approx(episode.total_power_w)

    def test_byte_identical_outputs_for_same_seed(self, tmp_path):
        outputs = []
        for name in ("a", "b"):
            config = small_config(episodes=3)
            config.output_dir = str(tmp_path / name)
            run_monte_carlo(config)
            outputs.append(tmp_path / name)
        for fname in ("episodes.csv", "trace_0.csv", "trace_1.csv",
                      "trace_2.csv"):
            assert (outputs[0] / fname).read_bytes() == \
                (outputs[1] / fname).read_bytes(), fname

    def test_failures_reported_not_raised(self, monkeypatch):
        config = small_config(episodes=2)
        from twinloop import harness as harness_mod

        real = harness_mod.run_episode

        def flaky(policy, cfg, index, env):
            if index == 1:
                raise NumericalFailureError("boom", qi=4)
            return real(policy, cfg, index, env=env)

        monkeypatch.setattr(harness_mod, "run_episode", flaky)
        report = harness_mod.run_monte_carlo(config)
        assert report["failures"] == {1: "NumericalFailureError: boom (QI 4)"}
        assert len(report["episodes"]) == 1

    def test_non_finite_error_norm_reported_by_episode(self, monkeypatch):
        overflow_error_norm(monkeypatch, episode=1, qi=3)
        report = run_monte_carlo(small_config(episodes=3))
        assert report["failures"] == {
            1: "NumericalFailureError: non-finite estimation error norm (QI 3)"}
        assert [m.episode for m in report["episodes"]] == [0, 2]
        assert math.isfinite(report["aggregate"]["mrmse"]["max"])

    def test_untyped_exception_propagates(self, monkeypatch):
        from twinloop import harness as harness_mod

        def broken(policy, cfg, index, env):
            raise RuntimeError("bug")

        monkeypatch.setattr(harness_mod, "run_episode", broken)
        with pytest.raises(RuntimeError, match="bug"):
            harness_mod.run_monte_carlo(small_config(episodes=2))

    def test_one_process_only(self):
        with pytest.raises(InvalidInputError, match="one process"):
            run_monte_carlo(small_config(episodes=1), workers=2)

    def test_summary_differs_only_in_output_path(self, tmp_path):
        summaries = []
        for name in ("a", "b"):
            config = small_config(episodes=2)
            config.output_dir = str(tmp_path / name)
            run_monte_carlo(config)
            data = json.loads((tmp_path / name / "summary.json").read_text())
            data["config"].pop("output_dir")
            summaries.append(data)
        assert summaries[0] == summaries[1]

    @pytest.mark.parametrize("count", [0, 1, 2, 7, 100, 1000])
    def test_aggregate_equals_the_per_field_reference(self, count):
        # each field of about half the episodes is drawn from a few values,
        # so the order statistics meet ties
        rng = np.random.default_rng(count)

        def draw(values, scale):
            return np.where(rng.random(count) < 0.5, rng.choice(values, count),
                            rng.lognormal(scale, 1.0, count)).tolist()

        qis = rng.integers(1, 8, count).tolist()
        columns = zip(qis, (rng.random(count) < 0.5).tolist(), draw([0.1, 0.3], -2),
                      draw([0.05, 0.2], -3), draw([2.0, 10.0], 1),
                      draw([0.0, 1.0], -1), draw([-300.0, 90.0], 3))
        metrics = [EpisodeMetrics(i, *values) for i, values in enumerate(columns)]
        got, want = aggregate_metrics(metrics), reference_aggregate_metrics(metrics)
        assert list(got) == list(want)
        for key, value in want.items():
            if isinstance(value, dict):
                assert list(got[key]) == list(value), key
                assert all(type(v) is float and v == value[stat]
                           for stat, v in got[key].items()), key
            else:
                assert got[key] == value and type(got[key]) is type(value), key


class TestExport:
    def test_empty_metrics_writes_header_only(self, tmp_path):
        export_traces([], tmp_path / "out", {}, env=TwinLoop.from_config(small_config()))
        lines = (tmp_path / "out" / "episodes.csv").read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("episode,")

    def test_trace_rows_match_qis(self, tmp_path):
        config = small_config(episodes=1)
        config.plant.episode_cap = 3
        config.validate()
        env = TwinLoop.from_config(config, record_trace=True)
        metrics = run_episode(fresh_policy(config, env), config, 0, env=env)
        export_traces([metrics], tmp_path / "out", {}, env=env)
        lines = (tmp_path / "out" / f"trace_{metrics.episode}.csv").read_text().splitlines()
        assert len(lines) == 1 + 3

    @pytest.mark.parametrize("mode", list(SchedulingMode))
    def test_trace_files_equal_the_per_row_reference(self, tmp_path, mode):
        # the acceptance experiment and the committed checkpoint: each
        # trace_<i>.csv has the bytes of rows built one QI at a time, with
        # weighted_objective, Belief.deviations and the prior ratio per row
        config = dataclasses.replace(
            ExperimentConfig.from_json_file(PERFBENCH / "acceptance.json"),
            mode=mode.value, episodes=3, output_dir=str(tmp_path / "out"))
        policy = PolicyNetwork.load(PERFBENCH / "reverb_policy.json")
        report = run_monte_carlo(config, policy=policy)
        env = TwinLoop.from_config(config)
        assert [m.episode for m in report["episodes"]] == [0, 1, 2]
        for m in report["episodes"]:
            want = tmp_path / f"want_{m.episode}.csv"
            want_rows = reference_trace_rows(m.trace, ("pos", "vel"), env.power_by_id,
                                             env.accuracy_weight)
            reference_write_csv(want, reference_trace_columns(("pos", "vel")), want_rows)
            got = (tmp_path / "out" / f"trace_{m.episode}.csv").read_bytes()
            assert got.startswith(MOUNTAIN_CAR_TRACE_HEADER)
            assert got == want.read_bytes()

    def test_summary_round_trips(self, tmp_path):
        config = small_config(episodes=2)
        config.output_dir = str(tmp_path / "out")
        report = run_monte_carlo(config)
        parsed = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert parsed["aggregate"] == json.loads(
            json.dumps(report["aggregate"]))
        assert parsed["config"] == json.loads(json.dumps(report["config"]))


# the values the files hold, with the floats whose text is easy to get
# wrong and strings that csv must quote
CSV_VALUES = st.one_of(
    st.integers(-10**20, 10**20), st.booleans(),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e16, 1e-05]),
    st.floats(), st.text(alphabet='ab ,;"\n\r', max_size=5))
CSV_PROPERTY = settings(max_examples=300, derandomize=True, deadline=None,
                        database=None,
                        suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestCsvWriter:
    @CSV_PROPERTY
    @given(st.lists(st.lists(CSV_VALUES, max_size=6), max_size=4))
    @example([[""], [], ["", ""]])
    def test_line_has_csv_writer_bytes(self, rows):
        for row in rows:
            buf = io.StringIO(newline="")
            csv.writer(buf).writerow(row)
            assert csv_line(row) == buf.getvalue(), row

    @CSV_PROPERTY
    @given(st.data())
    def test_file_has_the_references_bytes(self, tmp_path, data):
        columns = data.draw(st.lists(st.text(alphabet='ab,"\n', max_size=3),
                                     max_size=5, unique=True))
        rows = data.draw(st.lists(st.fixed_dictionaries(
            {c: st.one_of(CSV_VALUES, st.none()) for c in columns}), max_size=4))
        write_csv(tmp_path / "got.csv", columns, rows)
        reference_write_csv(tmp_path / "want.csv", columns, rows)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


class TestTrainingDeterminism:
    def test_zero_iterations_returns_initial_policy(self):
        config = small_config()
        config.rl.total_steps = 0
        policy, curve = train(config, config.rl, seed=9)
        # a different seed path, the same shape
        reference = fresh_policy(config, TwinLoop(config))
        assert curve == []
        assert policy.actor.sizes == reference.actor.sizes

    def test_same_seed_same_curve(self):
        config = small_config()
        config.rl.total_steps = 512
        config.rl.batch_size = 256
        config.rl.minibatch_size = 64
        config.rl.epochs = 2
        a = train(config, config.rl, seed=4)[1]
        b = train(config, config.rl, seed=4)[1]
        assert a == b
        assert len(a) == 2

    def test_different_seeds_differ(self):
        config = small_config()
        config.rl.total_steps = 256
        config.rl.batch_size = 256
        config.rl.epochs = 1
        a = train(config, config.rl, seed=1)[1]
        b = train(config, config.rl, seed=2)[1]
        assert a != b
