"""Uncertainty-aware control agent: augmented actions, shaped reward, PPO.

The policy maps the twin's belief summary (mean and per-feature standard
deviation) to a raw action vector in [-1, 1]^(Z+K): the first Z entries are
plant controls, the remaining K are requested accuracies squashed onto
[0, eta_max]. Actor and critic are small tanh networks written directly on
numpy with hand-derived gradients, so every gradient can be checked against
finite differences; optimization is the clipped-surrogate objective with
generalized advantage estimation and Adam.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from enum import Enum

import numpy as np

from .errors import InvalidInputError, TrainingFailureError
from .sensing import integer

LOG_2PI = math.log(2.0 * math.pi)
# rows per stacked product in Mlp.forward_rows: bounds its temporaries
ROW_BLOCK = 64


class CostMode(str, Enum):
    """How requested accuracy enters the shaped reward.

    PENALTY charges kappa * mean(eta) (cost non-increasing in accuracy is
    impossible to reward, so higher requests cost reward); PAPER_EQ24 adds
    kappa * sum(eta) / 2 as a bonus instead, reproducing the published
    formula literally.
    """

    PENALTY = "penalty"
    PAPER_EQ24 = "paper_eq24"


@dataclass(frozen=True)
class AugmentedAction:
    """Physical control plus requested per-feature accuracies, both float
    vectors, as ``decode_action`` builds them."""

    control: np.ndarray   # (Z,) in [-1, 1]
    accuracy: np.ndarray  # (K,) in [0, eta_max]


@dataclass
class PpoHyperparams:
    actor_lr: float = 1e-3
    critic_lr: float = 1e-3
    discount: float = 0.99
    gae_lambda: float = 0.95
    clip_ratio: float = 0.2
    epochs: int = 10
    batch_size: int = 2048
    minibatch_size: int = 64
    entropy_coef: float = 0.005
    value_coef: float = 0.5
    max_grad_norm: float = 0.5
    hidden_sizes: tuple = (64, 64)
    total_steps: int = 150_000
    reward_weight: float = 5e-6       # kappa
    eta_max: float = 1000.0
    cost_mode: CostMode = CostMode.PENALTY
    initial_logstd: float = 0.0
    min_logstd: float = -4.0
    normalize_observations: bool = True
    normalize_advantages: bool = True
    termination_bonus: float = 100.0

    def __post_init__(self):
        # values are range-checked by ExperimentConfig.validate, after their
        # types, so that a string is reported by its field's name
        try:
            self.cost_mode = CostMode(self.cost_mode)
        except ValueError:
            raise InvalidInputError(
                f"cost_mode must be one of {[m.value for m in CostMode]}: "
                f"{self.cost_mode!r}") from None
        # parsed, not truncated, whether from a config or a checkpoint
        try:
            self.hidden_sizes = tuple(integer(h) for h in self.hidden_sizes)
        except TypeError:
            raise InvalidInputError(f"hidden_sizes must hold integers: "
                                    f"{self.hidden_sizes!r}") from None
        if any(h < 1 for h in self.hidden_sizes):
            raise InvalidInputError(f"hidden_sizes must be >= 1: {self.hidden_sizes!r}")

    def to_dict(self) -> dict:
        """Plain JSON-ready fields: the cost mode by value, the hidden sizes
        as a list."""
        d = asdict(self)
        d["cost_mode"] = CostMode(self.cost_mode).value
        d["hidden_sizes"] = list(self.hidden_sizes)
        return d


def base_reward(control: float, reached_goal: bool,
                termination_bonus: float = 100.0) -> float:
    """Quadratic effort cost plus the goal bonus: -0.1 a^2 (+ bonus)."""
    r = -0.1 * float(control) ** 2
    if reached_goal:
        r += termination_bonus
    return r


def shape_reward(reward: float, accuracy, kappa: float,
                 cost_mode: CostMode = CostMode.PENALTY) -> float:
    """Fold the accuracy request into the reward according to ``cost_mode``.

    The request's sum is numpy's; its mean is that sum over its length, as
    np.mean takes it."""
    if kappa < 0:
        raise InvalidInputError("kappa must be nonnegative")
    eta = np.asarray(accuracy, dtype=float)
    if type(cost_mode) is not CostMode:
        cost_mode = CostMode(cost_mode)
    total = float(eta.sum())
    if cost_mode is CostMode.PENALTY:
        return float(reward - kappa * (total / eta.size))
    return float(reward + kappa * 0.5 * total)


def decode_action(raw, eta_max: float, control_dim: int = 1) -> AugmentedAction:
    """Map a raw policy output in [-1, 1]^(Z+K) onto controls and accuracies.

    Out-of-range raw entries (including +-inf) are clamped before mapping.
    The clamps are taken on floats: min(max(x, lo), hi) keeps x on a tie
    and a NaN x, as np.minimum(hi, np.maximum(lo, x)) does.
    """
    raw = np.asarray(raw, dtype=float).tolist()
    if not isinstance(raw, list):   # a 0-d input, as np.atleast_1d takes it
        raw = [raw]
    control = [min(max(x, -1.0), 1.0) for x in raw[:control_dim]]
    eta = [min(max(eta_max * (x + 1.0) / 2.0, 0.0), eta_max)
           for x in raw[control_dim:]]
    return AugmentedAction(np.array(control), np.array(eta))


class RunningNormalizer:
    """Streaming mean/variance used to whiten policy inputs."""

    def __init__(self, dim: int, clip: float = 10.0):
        self.mean = np.zeros(dim)
        self.var = np.ones(dim)
        self.count = 0.0
        self.clip = clip
        self._scaled = (None, None)

    def normalize(self, x, update: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.count > 1:
            out = (x - self.mean) / self._scale()
        else:
            out = x
        if update:
            self._update(x)
        return np.minimum(self.clip, np.maximum(-self.clip, out))

    def _scale(self) -> np.ndarray:
        """sqrt(var + 1e-8), computed once per ``var`` array: ``_update``
        and ``from_state`` replace the array rather than write into it."""
        var, scale = self._scaled
        if var is not self.var:
            scale = np.sqrt(self.var + 1e-8)
            self._scaled = (self.var, scale)
        return scale

    def _update(self, x):
        # Welford update, one sample at a time, elementwise on floats
        if x.shape != self.mean.shape:
            raise InvalidInputError(f"input shape {x.shape} != {self.mean.shape}")
        self.count += 1.0
        count = self.count
        x, mean = x.tolist(), self.mean.tolist()
        delta = [v - m for v, m in zip(x, mean)]
        mean = [m + d / count for m, d in zip(mean, delta)]
        self.mean = np.array(mean)
        if count > 1:
            self.var = np.array([
                s * (count - 2) / (count - 1) + d * (v - m) / (count - 1)
                for s, d, v, m in zip(self.var.tolist(), delta, x, mean)])

    def state(self) -> dict:
        return {"mean": self.mean.tolist(), "var": self.var.tolist(),
                "count": self.count}

    @classmethod
    def from_state(cls, state, clip: float = 10.0) -> "RunningNormalizer":
        norm = cls(len(state["mean"]), clip)
        norm.mean = np.asarray(state["mean"], dtype=float)
        norm.var = np.asarray(state["var"], dtype=float)
        norm.count = float(state["count"])
        return norm


def _orthogonal(rows, cols, gain, rng):
    a = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    # contiguous layout so reloaded checkpoints take identical BLAS paths
    return np.ascontiguousarray(gain * q[:rows, :cols])


class Mlp:
    """Feed-forward net with tanh hidden layers and a linear output."""

    def __init__(self, sizes, rng, final_gain: float = 0.01):
        self.sizes = tuple(sizes)
        self.weights = []
        self.biases = []
        for i in range(len(sizes) - 1):
            last = i == len(sizes) - 2
            gain = final_gain if last else math.sqrt(2.0)
            self.weights.append(_orthogonal(sizes[i], sizes[i + 1], gain, rng))
            self.biases.append(np.zeros(sizes[i + 1]))

    def forward(self, x):
        """Returns the output (N, out) and the activation cache for backward."""
        if not (type(x) is np.ndarray and x.ndim == 2 and x.dtype == np.float64):
            x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.sizes[0]:
            raise InvalidInputError(
                f"input width {x.shape[1]} != expected {self.sizes[0]}")
        # ndarray.dot calls the BLAS product that @ calls, with less
        # dispatch; the bias and tanh go into the product's own array
        cache = [x]
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h.dot(w)
            h += b
            if i != last:
                np.tanh(h, out=h)
            cache.append(h)
        return h, cache

    def forward_rows(self, x) -> np.ndarray:
        """The output (N, out) of each row of ``x`` (N, in) with the bits of
        its own one-row ``forward``. A 2-D product over many rows may sum in
        another order; a stack of (1, in) products does not. Works ROW_BLOCK
        rows at a time, so its temporaries do not grow with N."""
        out = np.empty((x.shape[0], self.sizes[-1]))
        last = len(self.weights) - 1
        for start in range(0, x.shape[0], ROW_BLOCK):
            h = x[start:start + ROW_BLOCK, None, :]
            for i, (w, b) in enumerate(zip(self.weights, self.biases)):
                z = h @ w + b
                h = z if i == last else np.tanh(z)
            out[start:start + ROW_BLOCK] = h[:, 0, :]
        return out

    def backward(self, cache, grad_out):
        """Gradients (grad_w, grad_b) of sum(grad_out * output) w.r.t. the
        parameters; no caller needs the input's, so none is computed."""
        grad_w = [None] * len(self.weights)
        grad_b = [None] * len(self.biases)
        g = np.atleast_2d(grad_out)
        for i in reversed(range(len(self.weights))):
            if i != len(self.weights) - 1:
                g = (g @ self.weights[i + 1].T) * (1.0 - cache[i + 1] ** 2)  # tanh'
            grad_w[i] = cache[i].T @ g
            grad_b[i] = g.sum(axis=0)
        return grad_w, grad_b

    def parameters(self):
        return self.weights + self.biases


class Adam:
    """Adam over a fixed list of parameter arrays.

    The moment estimates live in two flat buffers that follow the
    parameters' C order, and a step works in place in three more (the
    gradient, a scratch term and the step), so it allocates no array of the
    parameters' total size: one elementwise update of all of them, in the
    operation order of the textbook form, then one in-place subtraction per
    parameter.
    """

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        size = sum(p.size for p in params)
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._grad, self._work, self._delta = (np.empty(size) for _ in range(3))
        self.t = 0

    def step(self, params, grads):
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        g, w, delta, m, v = self._grad, self._work, self._delta, self.m, self.v
        np.concatenate([q.ravel() for q in grads], out=g)
        m *= self.beta1
        m += np.multiply(g, 1 - self.beta1, out=w)          # (1 - b1) g
        v *= self.beta2
        v += np.multiply(np.multiply(g, 1 - self.beta2, out=w), g, out=w)
        np.divide(m, b1c, out=delta)
        delta *= self.lr                                    # lr (m / b1c)
        np.sqrt(np.divide(v, b2c, out=w), out=w)
        w += self.eps
        delta /= w
        at = 0
        for p in params:
            p -= delta[at:at + p.size].reshape(p.shape)
            at += p.size


def _clip_global_norm(grads, max_norm) -> float:
    """Scale ``grads`` in place so that their global norm is at most
    ``max_norm``; returns the norm before scaling."""
    total = math.sqrt(sum(float((g * g).sum()) for g in grads))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / (total + 1e-12)
        for g in grads:
            g *= scale
    return total


class PolicyNetwork:
    """Actor-critic pair with a state-independent learnable log-std."""

    def __init__(self, obs_dim: int, action_dim: int, hyper: PpoHyperparams, rng):
        self.obs_dim = obs_dim
        self.action_dim = action_dim
        self.hyper = hyper
        hidden = list(hyper.hidden_sizes)
        self.actor = Mlp([obs_dim] + hidden + [action_dim], rng, final_gain=0.01)
        self.critic = Mlp([obs_dim] + hidden + [1], rng, final_gain=1.0)
        self.logstd = np.full(action_dim, float(hyper.initial_logstd))
        self.normalizer = RunningNormalizer(obs_dim)
        self._actor_opt = Adam(self.actor.parameters() + [self.logstd], hyper.actor_lr)
        self._critic_opt = Adam(self.critic.parameters(), hyper.critic_lr)

    # -- forward passes ----------------------------------------------------

    def act(self, policy_input, update_stats: bool = False):
        """The mean of the action distribution: returns (mean,
        normalized_obs). Evaluation takes the mean; training adds its own
        exploration noise, and computes log-probs and the critic's values
        once per batch."""
        x = self.normalizer.normalize(policy_input, update=update_stats)
        head, _ = self.actor.forward(x[None, :])
        return np.tanh(head[0]), x

    def value(self, policy_input) -> float:
        x = self.normalizer.normalize(policy_input, update=False)
        v, _ = self.critic.forward(x[None, :])
        return float(v[0, 0])

    # -- persistence ---------------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "format": "twinloop-policy-v1",
            "obs_dim": self.obs_dim,
            "action_dim": self.action_dim,
            "hyper": self.hyper.to_dict(),
            "actor": _mlp_state(self.actor),
            "critic": _mlp_state(self.critic),
            "logstd": self.logstd.tolist(),
            "normalizer": self.normalizer.state(),
        }

    @classmethod
    def from_state(cls, payload: dict) -> "PolicyNetwork":
        """The policy of a ``state_dict``. Raises InvalidInputError naming
        the field, before the policy is used, for layer sizes other than
        [obs_dim, *hidden_sizes, action_dim] (the critic's end in 1), an
        array of the wrong shape, a non-finite entry, or a negative
        normalizer variance or count."""
        if payload.get("format") != "twinloop-policy-v1":
            raise InvalidInputError("unrecognized checkpoint format")
        hyper = PpoHyperparams(**payload["hyper"])
        policy = cls(payload["obs_dim"], payload["action_dim"], hyper,
                     np.random.default_rng(0))
        _mlp_load(policy.actor, payload["actor"], "actor")
        _mlp_load(policy.critic, payload["critic"], "critic")
        policy.logstd = _checkpoint_array(payload["logstd"], (policy.action_dim,),
                                          "logstd")
        state, dim = payload["normalizer"], (policy.obs_dim,)
        policy.normalizer = RunningNormalizer.from_state({
            "mean": _checkpoint_array(state["mean"], dim, "normalizer.mean"),
            # a negative variance makes the scale sqrt(var + 1e-8) zero or NaN
            "var": _checkpoint_array(state["var"], dim, "normalizer.var",
                                     nonnegative=True),
            "count": _checkpoint_array(state["count"], (), "normalizer.count",
                                       nonnegative=True)})
        policy._actor_opt = Adam(policy.actor.parameters() + [policy.logstd],
                                 hyper.actor_lr)
        policy._critic_opt = Adam(policy.critic.parameters(), hyper.critic_lr)
        return policy

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.state_dict(), fh)

    @classmethod
    def load(cls, path) -> "PolicyNetwork":
        with open(path) as fh:
            return cls.from_state(json.load(fh))


def gaussian_logprob(actions, means, logstd):
    """Row-wise diagonal Gaussian log density."""
    std = np.exp(logstd)
    z = (actions - means) / std
    return -0.5 * (z * z).sum(axis=1) - logstd.sum() \
        - 0.5 * actions.shape[1] * LOG_2PI


def compute_gae(rewards, values, boundary, bootstrap, discount, lam):
    """Generalized advantage estimation over a flat step array.

    ``boundary[t]`` marks the last step of an episode segment; ``bootstrap[t]``
    is the value used beyond a boundary step (0 for terminal states, the
    critic's estimate of the next input for truncations and batch cuts).
    Returns (advantages, value_targets).
    """
    n = len(rewards)
    adv = np.zeros(n)
    gae = 0.0
    for t in range(n - 1, -1, -1):
        if boundary[t]:
            next_value = bootstrap[t]
            gae = 0.0
        else:
            next_value = values[t + 1]
        delta = rewards[t] + discount * next_value - values[t]
        gae = delta + discount * lam * gae
        adv[t] = gae
    return adv, adv + values[:n]


def ppo_loss_and_grads(policy: PolicyNetwork, minibatch: dict,
                       hyper: PpoHyperparams):
    """Clipped-surrogate + value + entropy losses with analytic gradients.

    ``minibatch`` holds normalized observations, raw actions, collection-time
    log-probs, advantages, and value targets. Returns (diagnostics, actor
    grads aligned with actor.parameters() + [logstd], critic grads).
    """
    obs = minibatch["obs"]
    actions = minibatch["actions"]
    logp_old = minibatch["logp"]
    adv = minibatch["advantages"]
    targets = minibatch["value_targets"]
    n = obs.shape[0]

    # overflow from poisoned batches surfaces as TrainingFailureError instead
    with np.errstate(over="ignore", invalid="ignore"):
        head, actor_cache = policy.actor.forward(obs)
        mean = np.tanh(head)
        std = np.exp(policy.logstd)
        logp = gaussian_logprob(actions, mean, policy.logstd)
        ratio = np.exp(logp - logp_old)
        clipped = np.minimum(1.0 + hyper.clip_ratio,
                             np.maximum(1.0 - hyper.clip_ratio, ratio))
        surr1 = ratio * adv
        surr2 = clipped * adv
        policy_loss = -np.minimum(surr1, surr2).mean()
        entropy = (policy.logstd + 0.5 * (1.0 + LOG_2PI)).sum()

        # surrogate gradient flows only where the unclipped branch is active
        active = (surr1 <= surr2).astype(float)
        dlogp = -(active * ratio * adv) / n           # d policy_loss / d logp
        z = (actions - mean) / std
        dmean = dlogp[:, None] * z / std              # d logp / d mean = z / std
        dhead = dmean * (1.0 - mean ** 2)
        grad_w, grad_b = policy.actor.backward(actor_cache, dhead)
        dlogstd = (dlogp[:, None] * (z * z - 1.0)).sum(axis=0) \
            - hyper.entropy_coef
        actor_grads = grad_w + grad_b + [dlogstd]

        values, critic_cache = policy.critic.forward(obs)
        values = values[:, 0]
        verr = values - targets
        value_loss = 0.5 * float((verr ** 2).mean())
        dv = (hyper.value_coef * verr / n)[:, None]
        cw, cb = policy.critic.backward(critic_cache, dv)
        critic_grads = cw + cb

        diags = {
            "policy_loss": float(policy_loss),
            "value_loss": value_loss,
            "entropy": float(entropy),
            "approx_kl": float((logp_old - logp).mean()),
            "clip_fraction": float((np.abs(ratio - 1.0)
                                    > hyper.clip_ratio).mean()),
            "total_loss": float(policy_loss + hyper.value_coef * value_loss
                                - hyper.entropy_coef * entropy),
        }
    return diags, actor_grads, critic_grads


def ppo_update(batch: dict, policy: PolicyNetwork, hyper: PpoHyperparams,
               rng) -> dict:
    """Run the clipped-surrogate epochs over ``batch``; mutates the policy.

    Returns averaged loss diagnostics. Raises TrainingFailureError with a
    diagnostic dump if any loss turns non-finite.
    """
    n = batch["obs"].shape[0]
    adv = batch["advantages"]
    if hyper.normalize_advantages and n > 1:
        adv = (adv - adv.mean()) / (adv.std() + 1e-8)
    data = dict(batch, advantages=adv)
    order = np.arange(n)
    totals = {}
    count = 0
    for _ in range(hyper.epochs):
        rng.shuffle(order)
        shuffled = {k: v[order] for k, v in data.items()}
        for start in range(0, n, hyper.minibatch_size):
            mb = {k: v[start:start + hyper.minibatch_size]
                  for k, v in shuffled.items()}
            diags, actor_grads, critic_grads = ppo_loss_and_grads(policy, mb, hyper)
            if not all(map(math.isfinite, diags.values())):
                raise TrainingFailureError("non-finite PPO loss", diagnostics=diags)
            _clip_global_norm(actor_grads, hyper.max_grad_norm)
            _clip_global_norm(critic_grads, hyper.max_grad_norm)
            policy._actor_opt.step(policy.actor.parameters() + [policy.logstd],
                                   actor_grads)
            policy._critic_opt.step(policy.critic.parameters(), critic_grads)
            np.maximum(policy.logstd, hyper.min_logstd, out=policy.logstd)
            for k, v in diags.items():
                totals[k] = totals.get(k, 0.0) + v
            count += 1
    return {k: v / count for k, v in totals.items()}


def train(config, hyper: PpoHyperparams, seed: int, progress=None):
    """Collect-and-update loop over the full twin control loop.

    Returns (policy, training curve), one curve row per PPO batch; writing
    them to files is the caller's job. Deterministic for a fixed seed. With
    ``total_steps`` = 0 the initial policy is returned untouched.

    A collection step runs the actor only. The batch's exploration noise is
    drawn in one call before its steps (the same numbers as one draw per
    step), and the log-probs and critic values of its fixed networks are
    computed after them. The bootstrap values at truncations and at the
    batch cut are taken when they happen, since the input normalizer moves
    during collection.
    """
    from .loop import TwinLoop, episode_seed  # deferred: loop depends on this module

    env = TwinLoop.from_config(config)
    root = np.random.SeedSequence(seed)
    init_rng, action_rng, shuffle_rng = [
        np.random.default_rng(s) for s in root.spawn(3)]
    policy = PolicyNetwork(env.obs_dim, env.action_dim, hyper, init_rng)

    curve = []
    iterations = hyper.total_steps // hyper.batch_size
    episode_counter = 0
    obs = env.reset(seed=episode_seed(seed, 1, episode_counter))
    ep_return = 0.0
    ep_len = 0
    finished_returns, finished_lengths, finished_goals = [], [], []

    for it in range(iterations):
        n = hyper.batch_size
        obs_buf = np.zeros((n, env.obs_dim))
        act_buf = np.zeros((n, env.action_dim))
        mean_buf = np.zeros((n, env.action_dim))
        rew_buf = np.zeros(n)
        boundary = np.zeros(n, dtype=bool)
        bootstrap = np.zeros(n)
        noise = action_rng.standard_normal((n, env.action_dim))
        std = np.exp(policy.logstd)

        for t in range(n):
            mean, norm_obs = policy.act(
                obs, update_stats=hyper.normalize_observations)
            action = mean + std * noise[t]
            step = env.step(action)
            obs_buf[t] = norm_obs
            act_buf[t] = action
            mean_buf[t] = mean
            rew_buf[t] = step.shaped_reward
            ep_return += step.base_reward
            ep_len += 1
            if step.terminated or step.truncated:
                boundary[t] = True
                bootstrap[t] = 0.0 if step.terminated else policy.value(step.policy_input)
                finished_returns.append(ep_return)
                finished_lengths.append(ep_len)
                finished_goals.append(step.terminated)
                ep_return, ep_len = 0.0, 0
                episode_counter += 1
                obs = env.reset(seed=episode_seed(seed, 1, episode_counter))
            else:
                obs = step.policy_input
                if t == n - 1:  # batch cut inside an episode
                    boundary[t] = True
                    bootstrap[t] = policy.value(obs)

        # obs_buf holds each step's input as normalized then: not again
        values = policy.critic.forward_rows(obs_buf)[:, 0]
        adv, targets = compute_gae(rew_buf, values, boundary, bootstrap,
                                   hyper.discount, hyper.gae_lambda)
        logp = gaussian_logprob(act_buf, mean_buf, policy.logstd)
        batch = {"obs": obs_buf, "actions": act_buf, "logp": logp,
                 "advantages": adv, "value_targets": targets}
        diags = ppo_update(batch, policy, hyper, shuffle_rng)

        window = slice(-20, None)
        row = {
            "iteration": it + 1,
            "steps": (it + 1) * hyper.batch_size,
            "episodes": episode_counter,
            "mean_return": float(np.mean(finished_returns[window])) if finished_returns else float("nan"),
            "mean_length": float(np.mean(finished_lengths[window])) if finished_lengths else float("nan"),
            "goal_rate": float(np.mean(finished_goals[window])) if finished_goals else float("nan"),
            "logstd_mean": float(np.mean(policy.logstd)),
        }
        row.update(diags)
        curve.append(row)
        if progress is not None:
            progress(row)

    return policy, curve


def _mlp_state(mlp: Mlp) -> dict:
    return {"sizes": list(mlp.sizes),
            "weights": [w.tolist() for w in mlp.weights],
            "biases": [b.tolist() for b in mlp.biases]}


def _checkpoint_array(value, shape, name, nonnegative=False) -> np.ndarray:
    """A checkpoint field as a float array of ``shape`` whose entries are
    finite (and >= 0 if ``nonnegative``); raises InvalidInputError naming
    the field otherwise."""
    try:
        array = np.asarray(value, dtype=float)
    except (TypeError, ValueError):   # a ragged list or a string
        array = None
    if array is None or array.shape != shape:
        raise InvalidInputError(f"checkpoint {name} must have shape {shape}")
    if not np.isfinite(array).all():
        raise InvalidInputError(f"checkpoint {name} must be finite")
    if nonnegative and not (array >= 0).all():
        raise InvalidInputError(f"checkpoint {name} must be >= 0")
    return array


def _mlp_load(mlp: Mlp, state: dict, name: str):
    """Load a checkpoint's layers into ``mlp``, whose sizes they must have."""
    sizes = list(mlp.sizes)
    if not (list(state["sizes"]) == sizes
            and len(state["weights"]) == len(state["biases"]) == len(sizes) - 1):
        raise InvalidInputError(f"checkpoint {name} must have sizes {sizes}, "
                                f"with a weight and a bias per layer")
    mlp.weights = [_checkpoint_array(w, shape, f"{name}.weights[{i}]") for i, (w, shape)
                   in enumerate(zip(state["weights"], zip(sizes, sizes[1:])))]
    mlp.biases = [_checkpoint_array(b, (n,), f"{name}.biases[{i}]")
                  for i, (b, n) in enumerate(zip(state["biases"], sizes[1:]))]
