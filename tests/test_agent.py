"""Policy, reward shaping, gradients, and PPO machinery tests."""

import copy
import json
import pickle
from pathlib import Path

import numpy as np
import pytest

from twinloop import (CostMode, NumericalFailureError, PolicyNetwork, PpoHyperparams,
                      TrainingFailureError, base_reward, decode_action, shape_reward)
from twinloop.agent import (Adam, Net, _Layout, _Workspace, compute_gae,
                            gaussian_logprob, ppo_update)
from twinloop.agent import RunningNormalizer
from tests.helpers import (ReferenceAdam, edgy_floats, finite_difference_gradient,
                           loss_and_grads, reference_act, reference_backward,
                           reference_clip_global_norm, reference_compute_gae,
                           reference_decode_action, reference_forward,
                           reference_initial_arrays, reference_normalize,
                           reference_ppo_loss_and_grads, reference_ppo_update,
                           reference_train, relative_gradient_error, same_bits)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


class TestRewards:
    def test_base_reward_full_force(self):
        assert base_reward(1.0, False, 100.0) == pytest.approx(-0.1)

    def test_base_reward_idle(self):
        assert base_reward(0.0, False, 100.0) == 0.0

    def test_base_reward_goal_bonus(self):
        assert base_reward(0.5, True, 100.0) == pytest.approx(-0.025 + 100.0)

    def test_shaping_disabled(self):
        assert shape_reward(-0.3, [500.0, 100.0], 0.0,
                            CostMode.PENALTY) == pytest.approx(-0.3)

    def test_penalty_mode(self):
        assert shape_reward(-0.1, [100.0, 100.0], 5e-6,
                            CostMode.PENALTY) == pytest.approx(-0.1005)

    def test_literal_bonus_mode(self):
        assert shape_reward(-0.1, [100.0, 100.0], 5e-6,
                            CostMode.PAPER_EQ24) == pytest.approx(-0.0995)

    def test_penalty_monotone_in_each_accuracy(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            r = rng.normal()
            eta = rng.uniform(0, 1000, size=2)
            kappa = 10 ** rng.uniform(-7, -4)
            bumped = eta.copy()
            k = rng.integers(2)
            bumped[k] += rng.uniform(0, 500)
            assert (shape_reward(r, bumped, kappa, CostMode.PENALTY)
                    <= shape_reward(r, eta, kappa, CostMode.PENALTY))


class TestDecodeAction:
    def test_lower_bound(self):
        act = decode_action([0.0, -1.0, -1.0], 1000.0)
        assert act.control[0] == 0.0
        np.testing.assert_allclose(act.accuracy, [0.0, 0.0])

    def test_upper_bound(self):
        act = decode_action([1.0, 1.0, 1.0], 1000.0)
        assert act.control[0] == 1.0
        np.testing.assert_allclose(act.accuracy, [1000.0, 1000.0])

    def test_midpoint_affine(self):
        act = decode_action([0.5, 0.0, 0.0], 1000.0)
        assert act.control[0] == 0.5
        np.testing.assert_allclose(act.accuracy, [500.0, 500.0])

    def test_infinite_inputs_clamped(self):
        act = decode_action([np.inf, -np.inf, np.inf], 1000.0)
        assert act.control[0] == 1.0
        np.testing.assert_allclose(act.accuracy, [0.0, 1000.0])

    def test_random_inputs_always_in_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            raw = rng.normal(scale=10.0, size=3).tolist()
            act = decode_action(raw, 1000.0)
            assert -1.0 <= act.control[0] <= 1.0
            assert all(0.0 <= eta <= 1000.0 for eta in act.accuracy)


def small_policy(seed=0, obs_dim=4, action_dim=3, hidden=(8, 8)):
    hyper = PpoHyperparams(hidden_sizes=hidden, batch_size=64,
                           minibatch_size=16, epochs=2)
    return PolicyNetwork(obs_dim, action_dim, hyper, np.random.default_rng(seed)), hyper


class TestPolicyForward:
    def test_zero_weights_give_zero_outputs(self):
        policy, _ = small_policy()
        for w in policy.actor.weights + policy.critic.weights:
            w[:] = 0.0
        x = np.array([0.3, -0.2, 0.05, 0.01])
        mean, _ = policy.act(x)
        value = policy.value(x)
        np.testing.assert_allclose(mean, 0.0)
        assert value == 0.0
        np.testing.assert_allclose(np.exp(policy.logstd), 1.0)   # exp(0)

    def test_deterministic_repeat(self):
        policy, _ = small_policy(3)
        x = np.array([0.1, 0.2, 0.3, 0.4])
        first = policy.act(x)[0], policy.value(x)
        second = policy.act(x)[0], policy.value(x)
        np.testing.assert_array_equal(first[0], second[0])
        assert first[1] == second[1]

    def test_deterministic_act_reads_the_networks_on_the_normalized_input(self):
        policy, _ = small_policy(5)
        policy.normalizer._update([1.0, 2.0, 3.0, 4.0])
        policy.normalizer._update([2.0, 1.0, 0.0, -1.0])
        x = np.array([0.1, -0.2, 0.3, 0.4])
        action, normalized = policy.act(x)
        value = policy.value(x)
        assert same_bits(normalized, policy.normalizer.normalize(x))
        assert same_bits(action, np.tanh(policy.actor.forward(normalized[None, :])[0]))
        assert value == policy.critic.forward(normalized[None, :])[0, 0]

    def test_deterministic_act_runs_no_critic(self, monkeypatch):
        # act gives the mean action and its input only; the critic is
        # value()'s, and training's batch pass
        policy, _ = small_policy(6)
        x = np.array([0.1, -0.2, 0.3, 0.4])
        calls = []
        real = Net.forward
        monkeypatch.setattr(Net, "forward",
                            lambda net, h: calls.append(net is policy.critic) or real(net, h))
        assert len(policy.act(x)) == 2 and calls == [False]
        policy.value(x)
        assert calls == [False, True]

    def test_network_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        net = small_policy(7, obs_dim=3, action_dim=2, hidden=(8,))[0].actor
        net.weights[-1][...] = rng.normal(size=net.weights[-1].shape)
        x = rng.normal(size=(5, 3))
        dout = rng.normal(size=(5, 2))

        def scalar():
            return float(np.sum(net.forward(x) * dout))

        _, cache = reference_forward(net, x)
        gw, gb = reference_backward(net, cache, dout)
        numeric = finite_difference_gradient(scalar, net.weights + net.biases,
                                             step=1e-6)
        assert relative_gradient_error(gw + gb, numeric) <= 1e-7


class TestLogprob:
    def test_density_integrates_to_one(self):
        # 1-D action: quadrature over the squashed-mean Gaussian
        mean = np.tanh(np.array([[0.37]]))
        logstd = np.array([-0.3])
        grid = np.linspace(-12, 12, 20001)
        dens = np.exp(gaussian_logprob(grid[:, None], mean, logstd))
        integral = np.trapezoid(dens, grid)
        assert integral == pytest.approx(1.0, abs=1e-2)

    def test_matches_scipy_normal(self):
        from scipy import stats
        mean = np.array([[0.2, -0.4]])
        logstd = np.array([0.1, -0.5])
        a = np.array([[0.5, 0.1]])
        ours = gaussian_logprob(a, mean, logstd)[0]
        ref = stats.norm.logpdf(a[0], loc=mean[0], scale=np.exp(logstd)).sum()
        assert ours == pytest.approx(ref, rel=1e-12)


class TestGae:
    def test_hand_computed_chain(self):
        rewards = np.array([1.0, 0.0, 2.0])
        values = np.array([0.5, 0.4, 0.3])
        boundary = np.array([False, False, True])
        bootstrap = np.array([0.0, 0.0, 0.0])
        adv, targets = compute_gae(rewards, values, boundary, bootstrap,
                                   discount=0.9, lam=0.8)
        d2 = 2.0 - 0.3
        d1 = 0.0 + 0.9 * 0.3 - 0.4
        d0 = 1.0 + 0.9 * 0.4 - 0.5
        assert adv[2] == pytest.approx(d2)
        assert adv[1] == pytest.approx(d1 + 0.9 * 0.8 * d2)
        assert adv[0] == pytest.approx(d0 + 0.9 * 0.8 * adv[1])
        np.testing.assert_allclose(targets, adv + values)

    def test_truncation_bootstrap(self):
        rewards = np.array([1.0])
        values = np.array([0.2])
        adv, _ = compute_gae(rewards, values, np.array([True]),
                             np.array([3.0]), discount=0.5, lam=1.0)
        assert adv[0] == pytest.approx(1.0 + 0.5 * 3.0 - 0.2)

    def test_no_flow_across_boundary(self):
        rewards = np.array([0.0, 10.0])
        values = np.array([0.0, 0.0])
        boundary = np.array([True, True])
        adv, _ = compute_gae(rewards, values, boundary, np.zeros(2),
                             discount=0.99, lam=0.95)
        assert adv[0] == pytest.approx(0.0)
        assert adv[1] == pytest.approx(10.0)

    def test_float_loop_keeps_the_array_forms_bits(self):
        # random boundaries and bootstraps, signed zeros, and a values
        # array that may hold the value after the last step
        rng = np.random.default_rng(31)
        for _ in range(300):
            n = int(rng.integers(0, 60))
            rewards = edgy_floats(rng, n, 10.0 ** rng.uniform(-3, 3), (0.0, -0.0, 100.0))
            values = edgy_floats(rng, n + int(rng.integers(0, 2)),
                                 10.0 ** rng.uniform(-3, 3))
            boundary = rng.random(n) < rng.uniform(0.0, 0.5)
            if n and len(values) == n:
                boundary[-1] = True
            bootstrap = np.where(boundary, edgy_floats(rng, n, 5.0), 0.0)
            discount = float(rng.uniform(0.5, 1.0))
            lam = float(rng.choice([0.0, 1.0, rng.uniform()]))
            got = compute_gae(rewards, values, boundary, bootstrap, discount, lam)
            want = reference_compute_gae(rewards, values, boundary, bootstrap, discount,
                                         lam)
            assert all(same_bits(a, b) for a, b in zip(got, want))


def synthetic_batch(policy, hyper, n=48, seed=11):
    rng = np.random.default_rng(seed)
    obs = rng.normal(size=(n, policy.obs_dim))
    actions, logps = [], []
    for x in obs:
        mean = np.tanh(policy.actor.forward(x[None])[0])
        a = mean + np.exp(policy.logstd) * rng.standard_normal(policy.action_dim)
        actions.append(a)
        logps.append(gaussian_logprob(a[None], mean[None], policy.logstd)[0])
    return {
        "obs": obs,
        "actions": np.array(actions),
        "logp": np.array(logps),
        "advantages": rng.normal(size=n),
        "value_targets": rng.normal(size=n),
    }


class TestPpoLoss:
    def test_ratio_one_equals_vanilla_policy_gradient(self):
        policy, hyper = small_policy(5)
        hyper.entropy_coef = 0.0
        batch = synthetic_batch(policy, hyper)
        diags, actor_grads, _ = loss_and_grads(policy, batch, hyper)

        # vanilla: -(1/N) sum_i A_i * grad logp_i
        obs, actions, adv = batch["obs"], batch["actions"], batch["advantages"]
        head, cache = reference_forward(policy.actor, obs)
        mean = np.tanh(head)
        std = np.exp(policy.logstd)
        z = (actions - mean) / std
        coef = -(adv / obs.shape[0])
        dhead = coef[:, None] * (z / std) * (1 - mean ** 2)
        gw, gb = reference_backward(policy.actor, cache, dhead)
        dlogstd = np.sum(coef[:, None] * (z * z - 1.0), axis=0)
        for got, want in zip(actor_grads, gw + gb + [dlogstd]):
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_saturated_clip_zeroes_gradient(self):
        policy, hyper = small_policy(6)
        hyper.entropy_coef = 0.0
        batch = synthetic_batch(policy, hyper, n=4)
        batch["advantages"] = np.ones(4)
        batch["logp"] = batch["logp"] - 1.0   # ratio = e > 1 + clip
        _, actor_grads, _ = loss_and_grads(policy, batch, hyper)
        for g in actor_grads:
            np.testing.assert_allclose(g, 0.0, atol=1e-15)

    def test_total_loss_gradient_matches_finite_differences(self):
        policy, hyper = small_policy(8)
        batch = synthetic_batch(policy, hyper, n=24)

        def total_loss():
            diags, _, _ = loss_and_grads(policy, batch, hyper)
            return diags["policy_loss"] + hyper.value_coef * diags["value_loss"] \
                - hyper.entropy_coef * diags["entropy"]

        diags, actor_grads, critic_grads = loss_and_grads(policy, batch, hyper)
        arrays = (policy.actor.weights + policy.actor.biases + [policy.logstd]
                  + policy.critic.weights + policy.critic.biases)
        numeric = finite_difference_gradient(total_loss, arrays, step=1e-5)
        analytic = (actor_grads[:len(policy.actor.weights)]
                    + actor_grads[len(policy.actor.weights):-1]
                    + [actor_grads[-1]] + critic_grads)
        assert relative_gradient_error(analytic, numeric) <= 1e-6

    def test_value_loss_decreases_monotonically(self):
        policy, hyper = small_policy(9)
        rng = np.random.default_rng(0)
        obs = rng.normal(size=(32, policy.obs_dim))
        targets = rng.normal(size=32)
        # one Adam over the whole buffer; the actor's gradient stays zero
        opt = Adam(policy.params, lr=1e-3)
        grad = np.zeros_like(policy.params)
        grads = policy._layout.carve(grad)
        losses = []
        for _ in range(100):
            values, cache = reference_forward(policy.critic, obs)
            err = values[:, 0] - targets
            losses.append(0.5 * float(np.mean(err ** 2)))
            gw, gb = reference_backward(policy.critic, cache, (err / 32)[:, None])
            for view, g in zip(grads.of_critic(), gw + gb):
                view[...] = g
            opt.step(policy.params, grad)
        diffs = np.diff(losses)
        assert np.all(diffs <= 1e-9)
        assert losses[-1] < 0.75 * losses[0]


class TestPpoUpdate:
    def test_diagnostics_present_and_finite(self):
        policy, hyper = small_policy(10)
        batch = synthetic_batch(policy, hyper, n=64)
        diags = ppo_update(batch, policy, hyper, np.random.default_rng(0))
        for key in ("policy_loss", "value_loss", "entropy", "approx_kl",
                    "clip_fraction"):
            assert np.isfinite(diags[key])

    def test_non_finite_batch_raises_with_diagnostics(self):
        policy, hyper = small_policy(11)
        batch = synthetic_batch(policy, hyper, n=32)
        batch["advantages"] = np.full(32, np.inf)
        hyper.normalize_advantages = False
        with pytest.raises(TrainingFailureError) as err:
            ppo_update(batch, policy, hyper, np.random.default_rng(0))
        assert err.value.diagnostics


class TestCheckpoint:
    def test_round_trip_preserves_outputs(self, tmp_path):
        policy, _ = small_policy(12)
        policy.normalizer._update([1.0, 2.0, 3.0, 4.0])
        policy.normalizer._update([2.0, 1.0, 0.0, -1.0])
        path = tmp_path / "ckpt.json"
        policy.save(path)
        loaded = PolicyNetwork.load(path)
        x = np.array([0.2, -0.4, 1.0, 0.5])
        want = policy.act(x)[0], policy.value(x)
        got = loaded.act(x)[0], loaded.value(x)
        np.testing.assert_array_equal(got[0], want[0])
        assert got[1] == want[1]
        np.testing.assert_array_equal(loaded.logstd, policy.logstd)
        assert loaded.normalizer.count == policy.normalizer.count

    def test_load_draws_no_initialisation(self, tmp_path, monkeypatch):
        # the checkpoint's arrays go straight into the flat buffer: no
        # orthogonal initialisation is drawn only to be overwritten
        policy, _ = small_policy(14)
        policy.normalizer._update([1.0, 2.0, 3.0, 4.0])
        policy.normalizer._update([2.0, 1.0, 0.0, -1.0])
        path = tmp_path / "ckpt.json"
        policy.save(path)
        calls = []
        qr = np.linalg.qr

        def spy(*args, **kwargs):
            calls.append(args)
            return qr(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", spy)
        loaded = PolicyNetwork.load(path)
        assert calls == []
        assert loaded.state_dict() == policy.state_dict()
        committed = json.loads((PERFBENCH / "reverb_policy.json").read_text())
        assert PolicyNetwork.load(PERFBENCH / "reverb_policy.json").state_dict() == committed
        assert calls == []
        small_policy(14)      # the spy sees a fresh policy's draws: one per layer
        assert len(calls) == 2 * 3

    def test_copies_hold_their_own_parameters(self):
        # the networks' arrays view the policy's flat buffer; a deep copy and
        # an unpickled policy view their own, so training one leaves the
        # other as it was
        policy, hyper = small_policy(13)
        x = np.array([0.2, -0.4, 1.0, 0.5])
        before = policy.act(x)[0]
        for clone in (copy.deepcopy(policy), pickle.loads(pickle.dumps(policy))):
            assert same_bits(clone.act(x)[0], before)
            ppo_update(synthetic_batch(clone, hyper), clone, hyper,
                       np.random.default_rng(0))
            assert not same_bits(clone.act(x)[0], before)
            assert same_bits(policy.act(x)[0], before)


def policy_arrays(policy) -> list:
    """Every parameter array of ``policy``, read through its public names."""
    return (policy.actor.weights + policy.actor.biases + [policy.logstd]
            + policy.critic.weights + policy.critic.biases)


class TestFlatBuffer:
    """A policy's parameters live only in ``params``: its networks and
    logstd are views of it."""

    def test_fresh_arrays_equal_a_per_layer_draw(self):
        for hidden in ((8, 8), (5,), (), (6, 7, 5), (64, 64)):
            for dims in ((4, 3), (2, 1), (7, 2)):
                hyper = PpoHyperparams(hidden_sizes=hidden, initial_logstd=-0.5)
                rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
                policy = PolicyNetwork(*dims, hyper, rng)
                want = reference_initial_arrays(*dims, hyper, ref_rng)
                got = policy_arrays(policy)
                assert len(got) == len(want)
                assert all(same_bits(a, b) for a, b in zip(got, want))
                assert rng.random() == ref_rng.random()     # as many draws
                assert sum(a.size for a in got) == policy.params.size
                assert all(np.shares_memory(a, policy.params) for a in got)

    def test_nan_written_through_the_actor_weights_reaches_act(self):
        # the benchmark's self-test poisons a policy this way
        policy, _ = small_policy(4)
        x = np.array([0.2, -0.4, 1.0, 0.5])
        assert np.isfinite(policy.act(x)[0]).all()
        for weights in policy.actor.weights:
            weights[...] = np.nan
        assert np.isnan(policy.params[:policy._layout.actor_size]).any()
        assert np.isnan(policy.act(x)[0]).all()
        assert np.isfinite(policy.value(x))

    def test_copies_view_their_own_params(self):
        policy, _ = small_policy(13)
        for clone in (copy.deepcopy(policy), pickle.loads(pickle.dumps(policy))):
            arrays = policy_arrays(clone)
            assert same_bits(clone.params, policy.params)
            assert all(np.shares_memory(a, clone.params) for a in arrays)
            assert not any(np.shares_memory(a, policy.params) for a in arrays)
            assert all(np.shares_memory(w, clone.params) for w in clone._arrays.w_stacks)

    def test_pickle_writes_each_parameter_once(self):
        # the views are carved again when unpickled, so the pickle holds the
        # flat buffer and the optimizer's moments and rates, each once: four
        # buffers of the parameters' size, where writing the views as well
        # took about seven
        policy = PolicyNetwork.load(PERFBENCH / "reverb_policy.json")
        data = pickle.dumps(policy)
        assert len(data) < 4 * policy.params.nbytes + 4096
        clone = pickle.loads(data)
        assert same_bits(clone.params, policy.params)
        assert all(np.shares_memory(a, clone.params) for a in policy_arrays(clone))
        assert clone.state_dict() == policy.state_dict()


class TestMatchesReference:
    """Flat Adam, the per-network clip, min/max clamps and skipped coercion
    change no bit."""

    def test_adam_step(self):
        # one Adam over a flat buffer, with a rate per element, against a
        # ReferenceAdam per rate over arrays holding the same numbers
        rng = np.random.default_rng(21)
        for _ in range(50):
            groups = [[tuple(rng.integers(1, 9, size=rng.integers(1, 3)))
                       for _ in range(rng.integers(1, 8))] for _ in range(2)]
            shapes = groups[0] + groups[1]
            split = len(groups[0])
            params = [rng.normal(size=shape) for shape in shapes]
            flat = np.concatenate([p.ravel() for p in params])
            rates = 10.0 ** rng.uniform(-5, -1, size=2)
            lr = np.repeat(rates, [sum(p.size for p in params[:split]),
                                   sum(p.size for p in params[split:])])
            opt = Adam(flat, lr)
            refs = (ReferenceAdam(params[:split], rates[0]),
                    ReferenceAdam(params[split:], rates[1]))
            for _ in range(int(rng.integers(1, 6))):
                grads = [edgy_floats(rng, shape, 10.0 ** rng.uniform(-6, 2))
                         for shape in shapes]
                opt.step(flat, np.concatenate([g.ravel() for g in grads]))
                refs[0].step(params[:split], grads[:split])
                refs[1].step(params[split:], grads[split:])
            assert same_bits(flat, np.concatenate([p.ravel() for p in params]))

    def test_adam_step_with_a_float_rate(self):
        # a float rate moves every element as an array of that rate does
        rng = np.random.default_rng(22)
        params = rng.normal(size=40)
        mine = params.copy()
        opt, ref = Adam(mine, 1e-2), Adam(params, np.full(40, 1e-2))
        for _ in range(3):
            grad = edgy_floats(rng, 40, 1.0)
            opt.step(mine, grad)
            ref.step(params, grad)
        assert same_bits(mine, params)

    def test_clip_in_place_then_adam(self):
        # what ppo_update does to its gradient buffer, each network's part
        # clipped on its own and then one Adam step, against the clipped
        # copies of each network's arrays fed to a ReferenceAdam per network
        rng = np.random.default_rng(27)
        clipped = 0
        for _ in range(60):
            hidden = tuple(int(h) for h in rng.integers(1, 9, size=rng.integers(0, 4)))
            layout = _Layout(int(rng.integers(1, 6)), hidden, int(rng.integers(1, 4)))
            flat = rng.normal(size=layout.size)
            views = layout.carve(flat)
            networks = views.of_actor(), views.of_critic()
            copies = [[a.copy() for a in arrays] for arrays in networks]
            rates = 10.0 ** rng.uniform(-5, -1, size=2)
            opt = Adam(flat, np.repeat(rates, [layout.actor_size,
                                               layout.size - layout.actor_size]))
            refs = [ReferenceAdam(arrays, rate) for arrays, rate in zip(copies, rates)]
            work = _Workspace(layout)
            written = work.grads.of_actor(), work.grads.of_critic()
            for _ in range(int(rng.integers(1, 5))):
                grads = [[edgy_floats(rng, a.shape, 10.0 ** rng.uniform(-3, 1))
                          for a in arrays] for arrays in networks]
                for views_of, arrays in zip(written, grads):
                    for view, g in zip(views_of, arrays):
                        view[...] = g
                max_norm = float(rng.choice([0.0, 0.5, 10.0 ** rng.uniform(-2, 2)]))
                norms = work.clip(max_norm)
                for got, g, norm, ref, arrays in zip(written, grads, norms, refs, copies):
                    want, want_norm = reference_clip_global_norm(g, max_norm)
                    clipped += want_norm > max_norm > 0
                    assert norm == want_norm
                    assert all(same_bits(a, b) for a, b in zip(got, want))
                    ref.step(arrays, want)
                opt.step(flat, work.grad)
            assert all(same_bits(a, b) for a, b in
                       zip(networks[0] + networks[1], copies[0] + copies[1]))
        assert clipped >= 50

    def test_decode_action(self):
        rng = np.random.default_rng(23)
        specials = (0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, 1e300, -1e300)
        for _ in range(2000):
            control_dim = int(rng.integers(1, 3))
            raw = edgy_floats(rng, control_dim + int(rng.integers(1, 4)),
                              10.0 ** rng.uniform(-3, 1), specials)
            eta_max = float(rng.choice([1.0, 380.0, 1000.0, 10.0 ** rng.uniform(-3, 6)]))
            act = decode_action(raw.tolist(), eta_max, control_dim)
            control, eta = reference_decode_action(raw, eta_max, control_dim)
            assert type(act.control) is list and type(act.accuracy) is list
            assert same_bits(act.control, control)
            assert same_bits(act.accuracy, eta)

    def test_normalize(self):
        rng = np.random.default_rng(24)
        specials = (0.0, -0.0, 10.0, -10.0, 1e6, -1e6)
        for _ in range(200):
            dim = int(rng.integers(1, 6))
            mine, ref = RunningNormalizer(dim), RunningNormalizer(dim)
            for _ in range(int(rng.integers(1, 8))):
                x = edgy_floats(rng, dim, 10.0 ** rng.uniform(-2, 2), specials)
                update = bool(rng.random() < 0.7)
                assert same_bits(mine.normalize(x, update=update),
                                 reference_normalize(ref, x, update=update))
                for key in ("mean", "var"):
                    assert same_bits(mine.state()[key], ref.state()[key])

    def test_normalize_leaves_its_input_alone(self):
        x = np.array([-0.0, 3.0])
        out = RunningNormalizer(2).normalize(x)
        out[1] = 7.0
        assert same_bits(x, [-0.0, 3.0])

    def test_update_whose_variance_overflows_raises_typed(self):
        # two finite inputs further apart than the largest float: d is -inf,
        # the variance -inf, and math.sqrt raised an untyped ValueError
        norm = RunningNormalizer(1)
        norm.normalize(np.array([1.7e308]), update=True)
        with pytest.raises(NumericalFailureError, match="input variance overflowed"):
            norm.normalize(np.array([-1.7e308]), update=True)

    def test_loss_and_grads_keep_the_bits_at_the_edges(self):
        # ratios that overflow to inf or underflow to 0, and advantages that
        # are signed zeros, infinite or NaN: the fused loss gives the
        # per-network form's diagnostics and gradients in every bit
        rng = np.random.default_rng(28)
        for seed in range(40):
            policy, hyper = small_policy(seed, hidden=((8, 8), (5,), ())[seed % 3])
            batch = synthetic_batch(policy, hyper, n=int(rng.integers(1, 20)), seed=seed)
            n = batch["obs"].shape[0]
            batch["logp"] = batch["logp"] + rng.choice(
                [0.0, 800.0, -800.0, np.nan], size=n, p=[0.7, 0.1, 0.1, 0.1])
            batch["advantages"] = edgy_floats(rng, n, 2.0,
                                              (0.0, -0.0, np.inf, -np.inf, np.nan))
            diags, actor_grads, critic_grads = loss_and_grads(policy, batch, hyper)
            want, want_actor, want_critic = reference_ppo_loss_and_grads(policy, batch,
                                                                         hyper)
            assert list(diags) == list(want)
            assert same_bits(list(diags.values()), list(want.values()))
            assert all(same_bits(a, b) for a, b in
                       zip(actor_grads + critic_grads, want_actor + want_critic))

    @pytest.mark.parametrize("hidden, changes, covers", [
        ((8, 8), {"max_grad_norm": 1.0}, "clipped and unclipped"),
        ((5,), {"normalize_advantages": False}, ""),
        ((6, 7, 5), {}, ""),
        ((8, 8), {"max_grad_norm": 0.0}, ""),
        ((8, 8), {"min_logstd": -0.002}, "logstd floor"),
        ((64, 64), {"batch_size": 200, "minibatch_size": 64}, ""),
        ((), {}, "")])
    def test_ppo_update_keeps_the_bits_of_one_network_at_a_time(self, hidden, changes,
                                                                 covers):
        # three consecutive batches through the fused update and through
        # reference_ppo_update, whose networks, clips and ReferenceAdams are
        # separate; the last minibatch of each epoch is short
        hyper = PpoHyperparams(**{"hidden_sizes": hidden, "batch_size": 50,
                                  "minibatch_size": 16, "epochs": 3, **changes})
        assert hyper.batch_size % hyper.minibatch_size != 0
        policy, ref = (PolicyNetwork(4, 3, hyper, np.random.default_rng(41))
                       for _ in range(2))
        optimizers = (
            ReferenceAdam(ref.actor.weights + ref.actor.biases + [ref.logstd],
                          hyper.actor_lr),
            ReferenceAdam(ref.critic.weights + ref.critic.biases, hyper.critic_lr))
        norms, floored = [], False
        for seed in range(3):
            batch = synthetic_batch(policy, hyper, n=hyper.batch_size, seed=seed)
            batch["advantages"] *= 3.0
            diags = ppo_update(batch, policy, hyper, np.random.default_rng(seed))
            want, batch_norms = reference_ppo_update(
                batch, ref, hyper, np.random.default_rng(seed), optimizers)
            norms += batch_norms
            assert json.dumps(diags) == json.dumps(want)
            assert all(type(v) is float for v in diags.values())   # as CSVs write them
            for net in ("actor", "critic"):
                mine, theirs = getattr(policy, net), getattr(ref, net)
                assert all(same_bits(a, b) for a, b in zip(
                    mine.weights + mine.biases, theirs.weights + theirs.biases))
            assert same_bits(policy.logstd, ref.logstd)
            floored |= bool((policy.logstd == hyper.min_logstd).any())
        actor_norms = [a for a, _ in norms]
        if covers == "clipped and unclipped":
            assert min(actor_norms) <= hyper.max_grad_norm < max(actor_norms)
        assert floored == (covers == "logstd floor")

    def test_forward_rows_keeps_the_one_row_bits(self):
        from twinloop.agent import ROW_BLOCK

        policy, _ = small_policy(26, hidden=(64, 64))
        x = np.random.default_rng(26).normal(size=(2 * ROW_BLOCK + 5, policy.obs_dim))
        for net in (policy.actor, policy.critic):
            one_row = [net.forward(row[None, :])[0] for row in x]
            assert same_bits(net.forward_rows(x), one_row)

    @pytest.mark.parametrize("normalize", [True, False])
    def test_training_matches_the_per_step_collector(self, normalize):
        # noise drawn once per batch, log-probs and critic values computed
        # after collection: the curve and the weights keep every bit. The
        # episodes end by reaching the goal and at the cap, and a batch of
        # 100 steps cuts one, and leaves a part block of ROW_BLOCK rows.
        from twinloop import ExperimentConfig, train
        from twinloop.agent import ROW_BLOCK

        config = ExperimentConfig()
        config.fleet.count = 4
        config.capacity = 3
        config.plant.episode_cap = 60
        config.plant.process_noise_std = (0.02, 0.01)
        config.rl.batch_size = 100
        config.rl.minibatch_size = 32
        config.rl.epochs = 2
        config.rl.total_steps = 3 * config.rl.batch_size
        config.rl.normalize_observations = normalize
        config.validate()
        assert config.rl.batch_size % ROW_BLOCK != 0
        policy, curve = train(config, config.rl, seed=6)
        ref, ref_curve, kinds = reference_train(config, config.rl, seed=6)
        assert kinds == {"terminated", "truncated", "cut"}
        assert len(curve) == 3 and json.dumps(curve) == json.dumps(ref_curve)
        for net in ("actor", "critic"):
            mine, want = getattr(policy, net), getattr(ref, net)
            assert all(same_bits(a, b) for a, b in
                       zip(mine.weights + mine.biases, want.weights + want.biases))
        assert same_bits(policy.logstd, ref.logstd)
        for key in ("mean", "var"):
            assert same_bits(policy.normalizer.state()[key], ref.normalizer.state()[key])


class TestFloatFormMatchesArrayForm:
    """The per-QI policy layers keep the bits of their array forms: the
    actor's one row through ``Net.forward``, the normalizer with its scale
    cached, decoding with signed zeros at a zero bound, and the shaped
    reward through np.mean and np.sum."""

    SPECIALS = (0.0, -0.0, 10.0, -10.0, 1e6, -1e6, 1e-300)

    def test_act(self):
        rng = np.random.default_rng(71)
        for seed in range(30):
            policy, _ = small_policy(seed, hidden=((8, 8), (64, 64), (5,))[seed % 3])
            for _ in range(int(rng.integers(0, 6))):
                policy.normalizer.normalize(rng.normal(size=4), update=True)
            for _ in range(40):
                x = edgy_floats(rng, 4, 10.0 ** rng.uniform(-2, 2), self.SPECIALS)
                mean, normalized = policy.act(x)
                want_mean, want_normalized = reference_act(policy, x)
                assert same_bits(mean, want_mean)
                assert same_bits(normalized, want_normalized)

    def test_act_on_the_committed_checkpoint(self):
        policy = PolicyNetwork.load(PERFBENCH / "reverb_policy.json")
        rng = np.random.default_rng(72)
        for _ in range(500):
            x = edgy_floats(rng, 4, 10.0 ** rng.uniform(-3, 0), self.SPECIALS)
            mean, normalized = policy.act(x)
            want_mean, want_normalized = reference_act(policy, x)
            assert same_bits(mean, want_mean) and same_bits(normalized, want_normalized)

    def test_forward_of_batches(self):
        # the one-row act and value take Net.forward, as would any 2-D batch
        rng = np.random.default_rng(76)
        for seed, rows in enumerate((1, 2, 63, 64, 65, 2048)):
            policy, _ = small_policy(seed, hidden=(64, 64))
            x = edgy_floats(rng, (rows, 4), 2.0, self.SPECIALS)
            for net in (policy.actor, policy.critic):
                want, cache = reference_forward(net, x)
                assert same_bits(net.forward(x), want) and cache[-1] is want

    def test_cached_scale_follows_every_new_variance(self):
        # an update or a reload each gives the scale of the new variance
        rng = np.random.default_rng(73)
        norm = RunningNormalizer(3)
        for _ in range(5):
            norm.normalize(rng.normal(size=3), update=True)
        x = edgy_floats(rng, 3, 2.0, self.SPECIALS)
        for change in ("update", "reload"):
            before = norm.normalize(x)
            if change == "update":
                norm.normalize(rng.normal(size=3) * 5.0, update=True)
            else:
                state = norm.state()
                state["var"] = [v * 4.0 for v in state["var"]]
                norm = RunningNormalizer.from_state(state)
            got = norm.normalize(x)
            assert same_bits(got, reference_normalize(norm, x))
            assert not same_bits(got, before)

    def test_decode_action_at_a_zero_eta_max(self):
        # eta_max 0 makes the accuracy bounds 0 and 0: signed-zero ties
        rng = np.random.default_rng(74)
        specials = (0.0, -0.0, 1.0, -1.0, -1.5, np.inf, -np.inf, np.nan)
        for _ in range(500):
            raw = edgy_floats(rng, 3, 2.0, specials)
            for eta_max in (0.0, 1.0):
                act = decode_action(raw.tolist(), eta_max)
                with np.errstate(invalid="ignore"):     # 0 * inf in the reference
                    control, eta = reference_decode_action(raw, eta_max)
                assert same_bits(act.control, control) and same_bits(act.accuracy, eta)

    @pytest.mark.parametrize("cost_mode", ["penalty", "paper_eq24"])
    def test_shape_reward(self, cost_mode):
        rng = np.random.default_rng(75)
        for _ in range(500):
            eta = edgy_floats(rng, int(rng.integers(1, 5)), 300.0, (0.0, -0.0, 380.0))
            if rng.random() < 0.2:
                eta[:] = rng.choice([0.0, -0.0])        # no accuracy requested
            reward = float(rng.choice([0.0, -0.0, rng.normal()]))
            kappa = float(rng.choice([0.0, 10.0 ** rng.uniform(-7, 0)]))
            want = (reward - kappa * eta.mean() if cost_mode == "penalty"
                    else reward + kappa * 0.5 * eta.sum())
            assert same_bits(shape_reward(reward, eta.tolist(), kappa, CostMode(cost_mode)),
                             float(want))


class TestBlasAssumptions:
    """The fused PPO step keeps the bits of one network at a time only if
    the BLAS does. Each test names the assumption it pins; on a BLAS where
    one fails, training bits would differ from the per-network form."""

    @staticmethod
    def cases(seed, count=300):
        """Policies of random sizes, as laid out in their flat buffer, and
        minibatches of 1 to 65 rows, some as wide as training's."""
        rng = np.random.default_rng(seed)
        for _ in range(count):
            width = int(rng.choice([1, 3, 8, 17, 64]))
            hidden = (width,) * int(rng.integers(1, 4))
            hyper = PpoHyperparams(hidden_sizes=hidden)
            dims = int(rng.integers(1, 6)), int(rng.integers(1, 4))
            policy = PolicyNetwork(*dims, hyper,
                                   np.random.default_rng(int(rng.integers(1 << 31))))
            for view in policy.actor.weights + policy.critic.weights:
                view[...] = rng.normal(size=view.shape)
            rows = int(rng.choice([1, 2, 7, 16, 33, 63, 64, 65]))
            yield rng, policy, rng.normal(size=(rows, policy.obs_dim))

    def test_matmul_on_network_stacks_equals_each_networks_dot(self):
        for rng, policy, x in self.cases(81):
            stacks = policy._arrays.w_stacks
            h = x
            for i, w in enumerate(stacks):
                out = np.matmul(h, w)              # x broadcast on the first layer
                g = rng.normal(size=out.shape)
                below = h.transpose(0, 2, 1) if i else h.T
                products = [(out, lambda k: (h[k] if i else h).dot(w[k]), "forward"),
                            (np.matmul(below, g),
                             lambda k: (h[k] if i else h).T @ g[k], "weight gradient"),
                            (np.matmul(g, w.transpose(0, 2, 1)),
                             lambda k: g[k] @ w[k].T, "backward delta")]
                for stacked, single, name in products:
                    for k in range(2):
                        assert same_bits(stacked[k], single(k)), (
                            f"np.matmul on a (2, {x.shape[0]}, {w.shape[1]}) stack "
                            f"differs from one network's 2-D product ({name}, "
                            f"layer {i}) on this BLAS")
                h = np.tanh(out)

    def test_vector_dot_equals_the_one_row_products(self):
        # act and value hand Net.forward the normalized row as a vector, so
        # each layer is a gemv: it must give the bits of the one-row 2-D
        # product and of forward_rows' stacked row, on every layer shape,
        # the acceptance policy's (4, 64), (64, 64), (64, 3) and (64, 1) too
        trained = PolicyNetwork.load(PERFBENCH / "reverb_policy.json")
        rng = np.random.default_rng(84)
        policies = [(trained, rng.normal(size=(64, trained.obs_dim)))]
        policies += [(policy, x) for _, policy, x in self.cases(83, count=100)]
        for policy, x in policies:
            for net in (policy.actor, policy.critic):
                h = x
                for w, b in zip(net.weights, net.biases):
                    stacked = (h[:, None, :] @ w)[:, 0]
                    for row, want in zip(h, stacked):
                        got = row.dot(w)
                        assert same_bits(got, row[None, :].dot(w)[0]) and same_bits(got, want), (
                            f"a vector-by-matrix dot differs from the one-row product "
                            f"({w.shape}) on this BLAS")
                    h = np.tanh(h.dot(w) + b)

    def test_act_and_value_equal_the_one_row_forward(self):
        trained = PolicyNetwork.load(PERFBENCH / "reverb_policy.json")
        rng = np.random.default_rng(85)
        policies = [(trained, rng.normal(size=(16, trained.obs_dim)))]
        policies += [(policy, x) for _, policy, x in self.cases(86, count=60)]
        for policy, x in policies:
            for row in x:
                mean, normalized = policy.act(row)
                assert same_bits(mean, np.tanh(policy.actor.forward(normalized[None, :])[0]))
                assert same_bits(policy.value(row),
                                 policy.critic.forward(normalized[None, :])[0, 0])

    def test_one_row_dot_on_buffer_views_equals_contiguous_copies(self):
        for rng, policy, x in self.cases(82):
            for net in (policy.actor, policy.critic):
                h = x[:1]
                for w in net.weights:
                    assert same_bits(h.dot(w), h.dot(w.copy())), (
                        f"a one-row dot on weights viewed at an offset of the flat "
                        f"buffer differs from one on a contiguous copy ({w.shape}) "
                        f"on this BLAS")
                    h = np.tanh(h.dot(w))
