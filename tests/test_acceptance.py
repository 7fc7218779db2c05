"""Acceptance suite: one test per exit criterion, with a PASS/FAIL line each.

Criterion 5 trains every scheduling mode with three seeds on the benchmark
experiment configuration and is by far the slowest part (tens of minutes on
a desktop CPU); everything else finishes in about a minute. Criterion 3's
threshold-vs-Marcum grid includes the (10 dB, 1e-5) corner, just inside the
strong line-of-sight precondition, where the paper's bare closed form is
~10.9% off; ``y_q`` refines it on the exact tail, so every grid point must
meet the 5% bound.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from twinloop import (Belief, ExperimentConfig, PpoHyperparams, SchedulingMode,
                      TwinLoop, baseline_schedule, required_power,
                      run_monte_carlo, schedule, y_q)
from twinloop.agent import PolicyNetwork, ppo_loss_and_grads, train
from twinloop.channel import ChannelParams, outage_probability_mc
from twinloop.estimator import predict
from twinloop.scheduler import greedy_selection
from twinloop.dynamics import build_linear_2d
from tests.helpers import (batch_linear_gaussian_posterior, effective_thresholds,
                           finite_difference_gradient, invert_marcum_tail,
                           indexed, relative_gradient_error, scalar_agent)


def report(criterion, passed, detail=""):
    flag = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {criterion}: {flag} {detail}")
    return passed


# One strong position sensor among four poor ones: pooling ten sensors then
# buys the greedy baselines little accuracy, while cost/error ordering and
# the value-of-information selection stay distinct. Velocity sensors span
# the default quality range.
BENCHMARK_FLEET = [
    {"id": 1, "feature": 0, "variance": 6e-3, "distance": 11.5},
    {"id": 2, "feature": 0, "variance": 0.2, "distance": 3.0},
    {"id": 3, "feature": 0, "variance": 0.22, "distance": 16.2},
    {"id": 4, "feature": 0, "variance": 0.25, "distance": 6.8},
    {"id": 5, "feature": 0, "variance": 0.3, "distance": 18.9},
    {"id": 6, "feature": 1, "variance": 1e-4, "distance": 4.4},
    {"id": 7, "feature": 1, "variance": 4e-4, "distance": 14.7},
    {"id": 8, "feature": 1, "variance": 1.02e-3, "distance": 9.5},
    {"id": 9, "feature": 1, "variance": 1.76e-3, "distance": 1.2},
    {"id": 10, "feature": 1, "variance": 3.56e-3, "distance": 15.7},
]


def benchmark_config(mode: str, seed: int) -> ExperimentConfig:
    """The benchmark experiment used for the training-outcome criterion."""
    config = ExperimentConfig()
    config.mode = mode
    config.master_seed = seed
    config.episodes = 100
    config.capacity = 10
    config.variance_caps = (0.01, 0.001)
    config.traditional_count = 2
    config.plant.process_noise_std = (0.045, 1e-3)
    config.plant.episode_cap = 999
    config.fleet.agents = BENCHMARK_FLEET
    config.rl.cost_mode = "paper_eq24"
    config.rl.eta_max = 380.0
    config.rl.total_steps = 51_200
    return config.validate()


class TestCriterion1EstimatorOracle:
    def test_filter_matches_batch_least_squares(self):
        # fused as the schedulers fuse: the rank-1 steps of a greedy
        # selection and their shared tail, through baseline_schedule
        start = time.time()
        rng = np.random.default_rng(2024)
        plant = build_linear_2d(process_noise_std=(0.05, 0.02), episode_cap=999)
        agents = [scalar_agent(1, 0, 0.04), scalar_agent(2, 1, 0.09)]
        index = indexed(agents)
        # equal distances: cost order is id order, so capacity 1 reads agent 1
        greedy = {c: greedy_selection(SchedulingMode.COST_GREEDY, index, c)
                  for c in (1, 2)}
        init = Belief(np.array([0.4, -0.2]), np.diag([0.25, 0.09]))

        belief = init.copy()
        state = np.array([0.3, -0.15])
        controls, observations, track = [], [], []
        for t in range(50):
            control = float(np.cos(t / 6.0))
            state = plant.step(state, control, rng)
            belief = predict(belief, control, plant)
            read = []

            def observe(positions):
                values = np.take(state, [index.features[p] for p in positions]) \
                    + 0.1 * rng.standard_normal(len(positions))
                read.extend(zip(positions, values.tolist()))
                return values

            belief = baseline_schedule(
                SchedulingMode.COST_GREEDY, belief, index, rng, observe_fn=observe,
                greedy=greedy[2 if t % 2 == 0 else 1], traditional_count=2).posterior
            step_obs = [(np.eye(2)[index.features[p]], index.variance[p], value)
                        for p, value in read]
            controls.append(control)
            observations.append(step_obs)
            track.append((belief.mean.copy(), belief.cov.copy()))

        oracle = batch_linear_gaussian_posterior(
            plant.transition, plant.control_matrix, plant.process_cov,
            init.mean, init.cov, controls, observations)
        worst_mean = worst_cov = 0.0
        for (f_mean, f_cov), (o_mean, o_cov) in zip(track, oracle):
            worst_mean = max(worst_mean, np.linalg.norm(f_mean - o_mean)
                             / max(1.0, np.linalg.norm(o_mean)))
            worst_cov = max(worst_cov, np.linalg.norm(f_cov - o_cov)
                            / np.linalg.norm(o_cov))
        elapsed = time.time() - start
        ok = worst_mean <= 1e-9 and worst_cov <= 1e-9 and elapsed < 1.0
        assert report(1, ok, f"mean err {worst_mean:.2e}, cov err "
                             f"{worst_cov:.2e}, {elapsed:.2f}s")


class TestCriterion2SchedulerProperties:
    def test_randomized_invariants_hold(self):
        start = time.time()
        rng = np.random.default_rng(777)
        checked = 0
        for _ in range(10_000):
            cov = np.diag(10.0 ** rng.uniform(-4, -1, size=2))
            prior = Belief(rng.normal(size=2), cov)
            caps = 10.0 ** rng.uniform(-4, -1.5, size=2)
            eta = np.where(rng.random(2) < 0.5, 0.0,
                           10.0 ** rng.uniform(0, 3, size=2))
            effective = effective_thresholds(caps, eta)
            m = int(rng.integers(2, 9))
            fleet = [scalar_agent(i + 1, i % 2, float(10 ** rng.uniform(-4, -1)))
                     for i in range(m)]
            capacity = int(rng.integers(0, m + 2))
            decision = schedule(prior, effective, indexed(fleet), capacity)

            assert decision.iterations <= capacity
            assert len(decision.selected_ids) <= capacity
            assert len(set(decision.selected_ids)) == len(decision.selected_ids)
            pre_ok = np.all(np.diag(prior.cov) <= effective)
            if pre_ok:
                assert decision.selected_ids == ()
            elif capacity > 0:
                # both features are covered, so a violation must trigger
                assert len(decision.selected_ids) >= 1
            assert np.all(np.diag(decision.posterior.cov)
                          <= np.diag(prior.cov) * (1 + 1e-10) + 1e-15)
            checked += 1
        elapsed = time.time() - start
        ok = checked == 10_000 and elapsed < 30.0
        assert report(2, ok, f"{checked} instances, {elapsed:.1f}s")


class TestCriterion3LinkBudget:
    def test_monte_carlo_outage_at_design_power(self):
        start = time.time()
        eps = 1e-2
        params = ChannelParams(rician_factor_db=15.0,
                               noise_power_dbm=-11.5,
                               bandwidth_hz=5e6,
                               outage_epsilon=eps,
                               latency_max_s=5e-3,
                               packet_bits=1024.0)
        power = required_power(20.0, params)
        outage = outage_probability_mc(power, 20.0, params, 1_000_000,
                                       np.random.default_rng(99))
        elapsed = time.time() - start
        ok = 0.2 * eps <= outage <= 1.5 * eps and elapsed < 60.0
        assert report(3, ok, f"outage {outage:.2e} vs target {eps:.0e}, "
                             f"p*={power:.3e} W, {elapsed:.1f}s")

    @pytest.mark.skipif("TWINLOOP_SLOW" not in __import__("os").environ,
                        reason="deep-tail outage needs >= 1e8 draws; "
                               "set TWINLOOP_SLOW=1 to run")
    def test_deep_tail_outage_at_published_epsilon(self):
        eps = 1e-5
        params = ChannelParams(outage_epsilon=eps)
        power = required_power(20.0, params)
        outage = outage_probability_mc(power, 20.0, params, 200_000_000,
                                       np.random.default_rng(7))
        assert report(3, 0.2 * eps <= outage <= 1.5 * eps,
                      f"deep-tail outage {outage:.2e} vs {eps:.0e}")

    @pytest.mark.parametrize("g_db", [10.0, 15.0, 20.0])
    @pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-5])
    def test_closed_form_matches_marcum_inversion(self, g_db, eps):
        g = 10 ** (g_db / 10)
        approx = y_q(g, eps)
        exact = invert_marcum_tail(g, eps)
        rel = abs(approx - exact) / exact
        # (10 dB, 1e-5) sits at the edge of the strong-LoS validity region,
        # where the unrefined closed form alone would be ~10.9% off.
        assert report(3, rel <= 0.05,
                      f"y approx G={g_db}dB eps={eps:g}: rel {rel:.3%}")


class TestCriterion4GradientChecks:
    def test_twenty_random_networks(self):
        start = time.time()
        worst = 0.0
        for trial in range(20):
            rng = np.random.default_rng(5000 + trial)
            obs_dim = int(rng.integers(2, 6))
            action_dim = int(rng.integers(1, 4))
            hidden = tuple(int(h) for h in rng.integers(3, 9, size=2))
            hyper = PpoHyperparams(hidden_sizes=hidden)
            policy = PolicyNetwork(obs_dim, action_dim, hyper,
                                   np.random.default_rng(rng.integers(1 << 31)))
            policy.logstd[:] = rng.uniform(-0.5, 0.3, size=action_dim)
            n = 12
            obs = rng.normal(size=(n, obs_dim))
            mean0 = np.tanh(policy.actor.forward(obs)[0])
            actions = mean0 + np.exp(policy.logstd) * rng.standard_normal(
                (n, action_dim))
            from twinloop.agent import gaussian_logprob
            batch = {
                "obs": obs,
                "actions": actions,
                "logp": gaussian_logprob(actions, mean0, policy.logstd)
                        + rng.uniform(-0.2, 0.2, size=n),
                "advantages": rng.normal(size=n),
                "value_targets": rng.normal(size=n),
            }

            def total_loss():
                d, _, _ = ppo_loss_and_grads(policy, batch, hyper)
                return (d["policy_loss"] + hyper.value_coef * d["value_loss"]
                        - hyper.entropy_coef * d["entropy"])

            _, actor_grads, critic_grads = ppo_loss_and_grads(policy, batch, hyper)
            nw = len(policy.actor.weights)
            arrays = (policy.actor.weights + policy.actor.biases
                      + [policy.logstd] + policy.critic.weights
                      + policy.critic.biases)
            analytic = (actor_grads[:nw] + actor_grads[nw:-1]
                        + [actor_grads[-1]] + critic_grads)
            numeric = finite_difference_gradient(total_loss, arrays, step=1e-5)
            worst = max(worst, relative_gradient_error(analytic, numeric))
        elapsed = time.time() - start
        ok = worst <= 1e-4 and elapsed < 10.0
        assert report(4, ok, f"worst rel err {worst:.2e}, {elapsed:.1f}s")


MODES = ("perfect", "reverb", "traditional", "cost_greedy", "error_greedy")
SEEDS = (101, 102, 103)


@pytest.fixture(scope="session")
def trained_runs():
    """Train every mode with every seed and evaluate 100 episodes each."""
    runs = {}
    for mode in MODES:
        runs[mode] = []
        for seed in SEEDS:
            config = benchmark_config(mode, seed)
            t0 = time.time()
            policy, curve = train(config, config.rl, seed)
            report_dict = run_monte_carlo(config, policy=policy)
            print(f"[acceptance] trained {mode} seed {seed}: "
                  f"goal {report_dict['aggregate']['goal_rate']:.2f} "
                  f"({time.time() - t0:.0f}s)")
            runs[mode].append(report_dict)
    return runs


def pooled(runs, mode, field):
    values = []
    for rep in runs[mode]:
        values += [getattr(m, field) for m in rep["episodes"]]
    return np.asarray(values, dtype=float)


class TestCriterion5TrainingOutcome:
    def test_a_goal_rates(self, trained_runs):
        perfect = pooled(trained_runs, "perfect", "reached_goal").mean()
        reverb = pooled(trained_runs, "reverb", "reached_goal").mean()
        ok = perfect >= 0.90 and reverb >= 0.90
        assert report("5a", ok, f"goal rates perfect {perfect:.2f}, "
                                f"adaptive {reverb:.2f} (>= 0.90)")

    def test_b_steps_to_goal_near_perfect(self, trained_runs):
        reverb = np.median(pooled(trained_runs, "reverb", "qis"))
        perfect = np.median(pooled(trained_runs, "perfect", "qis"))
        ok = reverb <= 1.5 * perfect
        assert report("5b", ok, f"median QIs {reverb:.0f} vs perfect "
                                f"{perfect:.0f} (ratio {reverb / perfect:.2f} <= 1.5)")

    def test_c_unfiltered_baseline_is_slower(self, trained_runs):
        traditional = np.median(pooled(trained_runs, "traditional", "qis"))
        reverb = np.median(pooled(trained_runs, "reverb", "qis"))
        ok = traditional >= 1.3 * reverb
        assert report("5c", ok, f"median QIs traditional {traditional:.0f} vs "
                                f"{reverb:.0f} (ratio {traditional / reverb:.2f} >= 1.3)")

    def test_d_power_savings(self, trained_runs):
        reverb = pooled(trained_runs, "reverb", "total_power_w").mean()
        error = pooled(trained_runs, "error_greedy", "total_power_w").mean()
        ok = reverb <= 0.5 * error
        assert report("5d", ok, f"episode power {reverb:.3f} W vs greedy "
                                f"{error:.3f} W (ratio {reverb / error:.2f} <= 0.5)")

    def test_e_estimation_error_stays_comparable(self, trained_runs):
        reverb = pooled(trained_runs, "reverb", "mrmse").mean()
        cost = pooled(trained_runs, "cost_greedy", "mrmse").mean()
        ok = reverb <= 1.5 * cost
        assert report("5e", ok, f"MRMSE {reverb:.4f} vs cost-greedy "
                                f"{cost:.4f} (ratio {reverb / cost:.2f} <= 1.5)")

    def test_constraint_satisfaction_rate(self, trained_runs):
        rate = pooled(trained_runs, "reverb", "satisfaction_rate").mean()
        assert report("5+", rate > 0.95, f"cap satisfaction {rate:.3f} > 0.95")


class TestCriterion6Determinism:
    def test_evaluate_twice_byte_identical(self, tmp_path):
        digests = []
        for name in ("first", "second"):
            config = benchmark_config("reverb", 11)
            config.episodes = 4
            config.plant.episode_cap = 120
            config.output_dir = str(tmp_path / name)
            run_monte_carlo(config)
            blob = b""
            for csv_file in sorted(Path(config.output_dir).glob("*.csv")):
                blob += csv_file.name.encode() + csv_file.read_bytes()
            digests.append(blob)
        ok = digests[0] == digests[1]
        assert report(6, ok, "evaluate CSV outputs byte-identical")

    def test_train_twice_identical_curves(self):
        config = benchmark_config("reverb", 13)
        config.rl.total_steps = 4096
        curves = [train(config, config.rl, 13)[1] for _ in range(2)]
        ok = curves[0] == curves[1]
        assert report(6, ok, "training curves identical across reruns")


class TestCriterion7UncertaintyBehavior:
    def test_scheduling_only_when_caps_violated(self, trained_runs):
        with_selection = 0
        justified = 0
        env = TwinLoop.from_config(benchmark_config("reverb", SEEDS[0]))
        for rep in trained_runs["reverb"]:
            for metric in rep["episodes"]:
                table = env.trace_table(metric.trace)
                for row in (dict(zip(table, values))
                            for values in zip(*table.values())):
                    if row["n_selected"] > 0:
                        with_selection += 1
                        if max(row["prior_ratio_pos"],
                               row["prior_ratio_vel"]) > 1.0:
                            justified += 1
        fraction = justified / with_selection if with_selection else 1.0
        ok = fraction >= 0.95
        assert report(7, ok, f"{justified}/{with_selection} selections "
                             f"followed a cap violation ({fraction:.3f} >= 0.95)")
