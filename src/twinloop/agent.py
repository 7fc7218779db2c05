"""Uncertainty-aware control agent: augmented actions, shaped reward, PPO.

The policy maps the twin's belief summary (mean and per-feature standard
deviation) to a raw action vector in [-1, 1]^(Z+K): the first Z entries are
plant controls, the remaining K are requested accuracies squashed onto
[0, eta_max]. Actor and critic are small tanh networks written directly on
numpy with hand-derived gradients, so every gradient can be checked against
finite differences; optimization is the clipped-surrogate objective with
generalized advantage estimation and Adam.

A policy's parameters live only in its flat buffer ``params``: the actor
and the critic are ``Net``s whose weights and biases are views of it, and
both networks' hidden layers (they share ``hidden_sizes``) form (2, in,
out) stacks in it. A fresh policy draws each weight straight into its
view; a loaded one writes the checkpoint's arrays there. A PPO minibatch
takes both networks through each hidden layer in one call, writes the
gradient into a flat buffer of the same layout, clips each network's part
on its own and steps the whole buffer with one ``Adam`` whose learning
rate is set per element. Every float is the one that the per-network form
gives (``tests/helpers.py:reference_ppo_update``). A copied or pickled
policy writes ``params`` alone and carves its views again.

Each function takes the one form that ``TwinLoop`` and ``train`` hand it:
``decode_action`` a list of floats, ``shape_reward`` a ``CostMode``, and
``ppo_loss_and_grads`` the ``_Workspace`` its gradient goes into.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError, NumericalFailureError, TrainingFailureError
from .settings import FLAG, at_least, check, integers, one_of, setting, within

LOG_2PI = math.log(2.0 * math.pi)
# rows per stacked product in Net.forward_rows: bounds its temporaries
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


class AugmentedAction(NamedTuple):
    """Physical control plus requested per-feature accuracies, both lists
    of floats, as ``decode_action`` builds them."""

    control: list   # Z floats in [-1, 1]
    accuracy: list  # K floats in [0, eta_max]


@dataclass
class PpoHyperparams:
    """The ``rl`` section of an experiment config, saved in a checkpoint as
    its ``hyper``. Its values are checked (``settings.check``) by
    ``loop.TwinLoop`` and by ``PolicyNetwork.from_state``,
    which name a bad one ``rl.<field>`` and ``checkpoint hyper.<field>``.

    The bounds keep the run inside a float: a logstd within +-20 keeps
    std = exp(logstd) in [2e-9, 5e8], so the standardized actions and their
    squares stay far inside a float; an entropy_coef, value_coef, reward
    weight or eta_max within 1e6 of zero keeps the losses and their
    gradients, which the global-norm clip squares, as far inside; an Adam
    step moves each parameter by about the learning rate, and one above 1
    (100 in a 2,048-step run) drove logstd past exp's range. At 1e308 each
    of them, and a gae_lambda, ended training with a non-finite loss, as a
    value_coef of 1e300 did with the reward weight and eta_max at 1e6. A
    max_grad_norm of 0 turns clipping off; below 0 it would do so unasked.
    A total_steps of 0 returns the initial policy.
    """

    actor_lr: float = setting(1e-3, within("[0, 1]"))
    critic_lr: float = setting(1e-3, within("[0, 1]"))
    discount: float = setting(0.99, within("(0, 1)"))
    gae_lambda: float = setting(0.95, within("[0, 1]"))
    clip_ratio: float = setting(0.2, within("(0, inf)"))
    epochs: int = setting(10, at_least(1))
    batch_size: int = setting(2048, at_least(1))
    minibatch_size: int = setting(64, at_least(1))
    entropy_coef: float = setting(0.005, within("[-1e6, 1e6]"))
    value_coef: float = setting(0.5, within("[0, 1e6]"))
    max_grad_norm: float = setting(0.5, within("[0, inf)"))
    hidden_sizes: tuple = setting((64, 64), integers(1))
    total_steps: int = setting(150_000, at_least(0))
    reward_weight: float = setting(5e-6, within("[0, 1e6]"))   # kappa
    eta_max: float = setting(1000.0, within("[0, 1e6]"))
    cost_mode: CostMode = setting(CostMode.PENALTY, one_of(CostMode))
    initial_logstd: float = setting(0.0, within("[-20, 20]"))
    min_logstd: float = setting(-4.0, within("[-20, 20]"))
    normalize_observations: bool = setting(True, FLAG)
    normalize_advantages: bool = setting(True, FLAG)
    termination_bonus: float = setting(100.0, within("(-inf, inf)"))

    def to_dict(self) -> dict:
        """Plain JSON-ready fields: the cost mode by value, the hidden sizes
        as a list."""
        d = asdict(self)
        d["cost_mode"] = CostMode(self.cost_mode).value
        d["hidden_sizes"] = list(self.hidden_sizes)
        return d


def base_reward(control: float, reached_goal: bool,
                termination_bonus: float) -> float:
    """Quadratic effort cost plus the goal bonus: -0.1 a^2 (+ bonus)."""
    r = -0.1 * float(control) ** 2
    if reached_goal:
        r += termination_bonus
    return r


def shape_reward(reward: float, accuracy, kappa: float,
                 cost_mode: CostMode) -> float:
    """Fold the accuracy request, floats, into the reward according to
    ``cost_mode``.

    The request's sum is taken in order from 0.0, which is numpy's sum for
    fewer than eight entries (one per plant feature: the plants have two);
    its mean is that sum over its length, as np.mean takes it. ``kappa``
    is the config's ``rl.reward_weight``, checked >= 0 with it."""
    total = 0.0
    for eta in accuracy:
        total += eta
    if cost_mode is CostMode.PENALTY:
        return float(reward - kappa * (total / len(accuracy)))
    return float(reward + kappa * 0.5 * total)


def decode_action(raw, eta_max: float, control_dim: int = 1) -> AugmentedAction:
    """Map a raw policy output in [-1, 1]^(Z+K), a list of floats, onto
    controls and accuracies.

    Out-of-range raw entries (including +-inf) are clamped before mapping.
    The clamps are taken on floats: min(max(x, lo), hi) keeps x on a tie
    and a NaN x, as np.minimum(hi, np.maximum(lo, x)) does.
    """
    control = [min(max(x, -1.0), 1.0) for x in raw[:control_dim]]
    eta = [min(max(eta_max * (x + 1.0) / 2.0, 0.0), eta_max)
           for x in raw[control_dim:]]
    return AugmentedAction(control, eta)


class RunningNormalizer:
    """Streaming mean/variance used to whiten policy inputs.

    The statistics are lists of floats (``state`` gives them), with the
    scale sqrt(var + 1e-8) computed whenever the variance changes. Every
    operation is elementwise, taken on floats with numpy's bits. The
    variance is never negative: Welford's update keeps it >= 0 in floating
    point unless two inputs differ by more than the largest float (it then
    raises NumericalFailureError), and ``PolicyNetwork.from_state`` rejects
    a negative one, so the scale is at least 1e-4.
    """

    clip = 10.0

    def __init__(self, dim: int):
        self._mean = [0.0] * dim
        self._set_var([1.0] * dim)
        self.count = 0.0

    def _set_var(self, var: list):
        self._var = var
        try:
            self._scale = [math.sqrt(v + 1e-8) for v in var]
        except ValueError:  # a negative variance: the update overflowed
            raise NumericalFailureError("input variance overflowed") from None

    def normalize(self, x, update: bool = False) -> np.ndarray:
        """(x - mean) / sqrt(var + 1e-8) once two samples are in, clipped
        to +-clip, as a new array; with ``update`` the statistics then take
        ``x`` in."""
        values = np.asarray(x, dtype=float).tolist()
        if not (isinstance(values, list) and len(values) == len(self._mean)):
            raise InvalidInputError(f"input shape {np.shape(x)} != ({len(self._mean)},)")
        out = values
        if self.count > 1:
            out = [(v - m) / s for v, m, s in zip(values, self._mean, self._scale)]
        if update:
            self._update(values)
        # np.minimum(clip, np.maximum(-clip, out)), a NaN kept
        clip = self.clip
        return np.array([-clip if o < -clip else clip if o > clip else o for o in out])

    def _update(self, values: list):
        """Welford update by one sample, a list of floats of the input
        dimension."""
        self.count += 1.0
        count = self.count
        mean, var = [], []
        for v, m, s in zip(values, self._mean, self._var):
            d = v - m
            m += d / count
            mean.append(m)
            if count > 1:
                var.append(s * (count - 2) / (count - 1) + d * (v - m) / (count - 1))
        self._mean = mean
        if count > 1:
            self._set_var(var)

    def state(self) -> dict:
        return {"mean": list(self._mean), "var": list(self._var),
                "count": self.count}

    @classmethod
    def from_state(cls, state) -> "RunningNormalizer":
        norm = cls(len(state["mean"]))
        norm._mean = np.asarray(state["mean"], dtype=float).tolist()
        norm._set_var(np.asarray(state["var"], dtype=float).tolist())
        norm.count = float(state["count"])
        return norm


def _orthogonal(out, gain, rng):
    """Draw an orthogonal (rows, cols) matrix scaled by ``gain`` into
    ``out``."""
    rows, cols = out.shape
    a = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    out[...] = gain * q[:rows, :cols]


class Net(NamedTuple):
    """Feed-forward net with tanh hidden layers and a linear output, its
    ``weights`` (in, out) and ``biases`` (out,) views of a policy's flat
    buffer."""

    weights: list
    biases: list

    @property
    def sizes(self) -> tuple:
        return (self.weights[0].shape[0], *(w.shape[1] for w in self.weights))

    def forward(self, x) -> np.ndarray:
        """The output of ``x``, a float64 array: (out,) of a 1-D row (in,),
        (N, out) of an (N, in) batch. A row's products are vector-by-matrix
        (gemv), with the bits of its one-row batch on OpenBLAS
        (``tests/test_agent.py::TestBlasAssumptions``)."""
        # ndarray.dot calls the BLAS product that @ calls, with less
        # dispatch; the bias and tanh go into the product's own array
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h.dot(w)
            h += b
            if i != last:
                np.tanh(h, out=h)
        return h

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


class Adam:
    """Adam over one flat parameter buffer, with a learning rate per element.

    The moment estimates follow the buffer, and a step works in place in
    two scratch buffers, allocated at the first step: one elementwise
    update in the operation order of the textbook form, with the rate
    entering by one multiply, then one in-place subtraction. An element
    moves as it would under an Adam of its own rate, so one optimizer over
    two networks' arrays keeps the bits of one per network.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, lr):
        self.lr = lr                       # a float, or an array like params
        self.m = np.zeros(params.size)
        self.v = np.zeros(params.size)
        self._scratch = None
        self.t = 0

    def step(self, params, grad):
        """One step of the flat ``params`` along the flat ``grad``."""
        if self._scratch is None:
            self._scratch = np.empty(self.m.size), np.empty(self.m.size)
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        (w, delta), m, v = self._scratch, self.m, self.v
        m *= self.beta1
        m += np.multiply(grad, 1 - self.beta1, out=w)       # (1 - b1) g
        v *= self.beta2
        v += np.multiply(np.multiply(grad, 1 - self.beta2, out=w), grad, out=w)
        np.divide(m, b1c, out=delta)
        delta *= self.lr                                    # lr (m / b1c)
        np.sqrt(np.divide(v, b2c, out=w), out=w)
        w += self.eps
        delta /= w
        params -= delta


def _clip_global_norm(grad, sums, max_norm) -> float:
    """Scale ``grad``, one network's flat gradient, in place so that its
    global norm is at most ``max_norm``; returns the norm before scaling.
    ``sums`` are the sums of squares of its arrays, one per array, each
    numpy's sum of that array's squares; they are added in order, which
    fixes the norm's bits."""
    total = math.sqrt(sum(sums))
    if max_norm > 0 and total > max_norm:
        grad *= max_norm / (total + 1e-12)
    return total


@dataclass(frozen=True)
class _Arrays:
    """Views of one flat buffer in the layout of ``_Layout``."""

    actor: Net
    logstd: np.ndarray
    critic: Net
    w_stacks: list       # (2, in, out) per hidden layer: actor, critic
    b_stacks: list       # (2, 1, out) per hidden layer
    regions: tuple       # the actor's flat region, logstd included, and the critic's

    def of_actor(self) -> list:
        """The actor's arrays in checkpoint order: weights, biases, logstd."""
        return self.actor.weights + self.actor.biases + [self.logstd]

    def of_critic(self) -> list:
        return self.critic.weights + self.critic.biases


class _Layout:
    """Where each array of an actor-critic pair lives in one flat buffer.

    The actor's arrays come first, then the critic's. Each network begins
    with its hidden layers, a layer's weights then its bias, and both
    networks' hidden layers have the shapes of ``hidden_sizes``: so hidden
    layer i of the two is one (2, in, out) stack whose critic slice lies
    the actor's size further on. The actor's output layer and logstd
    follow its hidden layers, the critic's output layer follows its own.
    Every array is C-contiguous.
    """

    def __init__(self, obs_dim: int, hidden, action_dim: int):
        sizes = [obs_dim, *hidden]
        self.layers = list(zip(sizes, sizes[1:]))
        self.width = sizes[-1]
        self.action_dim = action_dim
        shared = sum(fan_in * fan_out + fan_out for fan_in, fan_out in self.layers)
        self.actor_size = shared + self.width * action_dim + 2 * action_dim
        self.size = self.actor_size + shared + self.width + 1

    def carve(self, buf: np.ndarray) -> _Arrays:
        """Views of the flat float buffer ``buf`` of ``size`` entries."""
        at = 0

        def take(shape, stacked=False):
            nonlocal at
            count = math.prod(shape)
            if stacked:
                view = np.ndarray((2, *shape), buffer=buf, offset=8 * at,
                                  strides=(8 * self.actor_size, 8 * shape[1], 8))
            else:
                view = buf[at:at + count].reshape(shape)
            at += count
            return view

        w_stacks, b_stacks = [], []
        for fan_in, fan_out in self.layers:
            w_stacks.append(take((fan_in, fan_out), stacked=True))
            b_stacks.append(take((1, fan_out), stacked=True))
        hidden_end = at
        actor = Net([w[0] for w in w_stacks] + [take((self.width, self.action_dim))],
                    [b[0, 0] for b in b_stacks] + [take((self.action_dim,))])
        logstd = take((self.action_dim,))
        at = self.actor_size + hidden_end
        critic = Net([w[1] for w in w_stacks] + [take((self.width, 1))],
                     [b[1, 0] for b in b_stacks] + [take((1,))])
        return _Arrays(actor, logstd, critic, w_stacks, b_stacks,
                       (buf[:self.actor_size], buf[self.actor_size:]))


class _Workspace:
    """What one ``ppo_update`` writes into, allocated when it starts: a
    gradient buffer in the parameters' layout with views of its arrays,
    the squares of its entries with a flat view of each array's, and the
    work arrays of each minibatch length that it meets."""

    def __init__(self, layout: _Layout):
        self.layout = layout
        self.grad = np.empty(layout.size)
        self.grads = layout.carve(self.grad)
        self.squares = np.empty(layout.size)
        squares = layout.carve(self.squares)
        self._squares = list(zip(self.grads.regions,
                                 ([a.reshape(-1) for a in squares.of_actor()],
                                  [a.reshape(-1) for a in squares.of_critic()])))
        self._rows = {}

    def rows(self, n: int) -> tuple:
        """The work arrays of an n-row minibatch: the (2, n, width) stacks
        of each hidden layer's activations and backward terms, three
        (n, action_dim) arrays and the (n, 1) values."""
        work = self._rows.get(n)
        if work is None:
            widths = [fan_out for _, fan_out in self.layout.layers]
            work = self._rows[n] = (
                [np.empty((2, n, w)) for w in widths],
                [np.empty((2, n, w)) for w in widths],
                *(np.empty((n, self.layout.action_dim)) for _ in range(3)),
                np.empty((n, 1)))
        return work

    def clip(self, max_norm) -> tuple:
        """Clip each network's part of ``grad`` to ``max_norm`` on its own;
        returns the (actor, critic) norms before clipping."""
        np.multiply(self.grad, self.grad, out=self.squares)
        return tuple(_clip_global_norm(grad, [float(np.add.reduce(s)) for s in squares],
                                       max_norm)
                     for grad, squares in self._squares)


class PolicyNetwork:
    """Actor-critic pair with a state-independent learnable log-std.

    Every parameter lives in the flat buffer ``params``, laid out by
    ``_Layout``: the networks' weights and biases and ``logstd`` are views
    of it, and one ``Adam`` steps it with the actor's learning rate on the
    actor's region and the critic's on the critic's.
    """

    def __init__(self, obs_dim: int, action_dim: int, hyper: PpoHyperparams, rng):
        """A fresh policy: orthogonal weights drawn from ``rng`` into their
        views, the actor's layers and then the critic's, zero biases,
        logstd at ``initial_logstd`` and an empty normalizer."""
        self._allocate(obs_dim, action_dim, hyper, RunningNormalizer(obs_dim))
        for net, final_gain in ((self.actor, 0.01), (self.critic, 1.0)):
            for w in net.weights[:-1]:
                _orthogonal(w, math.sqrt(2.0), rng)
            _orthogonal(net.weights[-1], final_gain, rng)
        self.logstd[...] = hyper.initial_logstd

    def _allocate(self, obs_dim, action_dim, hyper, normalizer):
        """Take the sizes, hyperparameters and normalizer in, allocate the
        zeroed flat buffer ``params`` with its views, and make the
        optimizer."""
        self.obs_dim = obs_dim
        self.action_dim = action_dim
        self.hyper = hyper
        self._layout = layout = _Layout(obs_dim, list(hyper.hidden_sizes), action_dim)
        self.params = np.zeros(layout.size)
        self._carve()
        self.normalizer = normalizer
        lr = np.empty(layout.size)
        lr[:layout.actor_size] = hyper.actor_lr
        lr[layout.actor_size:] = hyper.critic_lr
        self._opt = Adam(self.params, lr)

    def _carve(self):
        self._arrays = views = self._layout.carve(self.params)
        self.actor, self.critic, self.logstd = views.actor, views.critic, views.logstd

    def __getstate__(self):
        # the views are carved again when unpickled: each parameter is
        # written once, in params
        state = dict(self.__dict__)
        for name in ("actor", "critic", "logstd", "_arrays"):
            del state[name]
        return state

    def __setstate__(self, state):
        # a copy or an unpickled policy gets its own params with views of
        # them, not separate copies of the old views
        self.__dict__.update(state)
        self._carve()

    # -- forward passes ----------------------------------------------------

    def act(self, policy_input, update_stats: bool = False):
        """The mean of the action distribution: returns (mean,
        normalized_obs), both 1-D arrays. The normalized row goes through
        the actor as it is, one gemv per layer. Evaluation takes the mean;
        training adds its own exploration noise, and computes log-probs and
        the critic's values once per batch."""
        x = self.normalizer.normalize(policy_input, update=update_stats)
        return np.tanh(self.actor.forward(x)), x

    def value(self, policy_input) -> float:
        x = self.normalizer.normalize(policy_input, update=False)
        return float(self.critic.forward(x)[0])

    # -- persistence ---------------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "format": "twinloop-policy-v1",
            "obs_dim": self.obs_dim,
            "action_dim": self.action_dim,
            "hyper": self.hyper.to_dict(),
            "actor": _net_state(self.actor),
            "critic": _net_state(self.critic),
            "logstd": self.logstd.tolist(),
            "normalizer": self.normalizer.state(),
        }

    @classmethod
    def from_state(cls, payload: dict) -> "PolicyNetwork":
        """The policy of a ``state_dict``, built from its arrays with no
        initialisation drawn. Raises ConfigurationError for a ``hyper``
        value its rule rejects (``settings.check``), and InvalidInputError
        naming the field, before any network is built, for a missing field,
        an unknown ``hyper`` key, a dimension that is not an integer >= 1,
        layer sizes other than [obs_dim, *hidden_sizes, action_dim] (the
        critic's end in 1), an array of the wrong shape, a non-finite
        entry, or a negative normalizer variance or count."""
        if not isinstance(payload, dict) or payload.get("format") != "twinloop-policy-v1":
            raise InvalidInputError("unrecognized checkpoint format")
        try:
            hyper = PpoHyperparams(**_field(payload, "hyper"))
        except TypeError as exc:
            raise InvalidInputError(f"checkpoint hyper is malformed: {exc}") from None
        check(hyper, "checkpoint hyper.")
        for name in ("obs_dim", "action_dim"):
            value = _field(payload, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise InvalidInputError(f"checkpoint {name} must be an integer >= 1: "
                                        f"{value!r}")
        obs_dim, action_dim = payload["obs_dim"], payload["action_dim"]
        hidden = list(hyper.hidden_sizes)
        actor = _net_arrays(payload, "actor", [obs_dim, *hidden, action_dim])
        critic = _net_arrays(payload, "critic", [obs_dim, *hidden, 1])
        logstd = _checkpoint_array(_field(payload, "logstd"), (action_dim,), "logstd")
        # the normalizer takes var >= 0: its scale sqrt(var + 1e-8) is then >= 1e-4
        normalizer = RunningNormalizer.from_state({
            key: _checkpoint_array(_field(payload, f"normalizer.{key}"), shape,
                                   f"normalizer.{key}", nonnegative=key != "mean")
            for key, shape in (("mean", (obs_dim,)), ("var", (obs_dim,)), ("count", ()))})
        policy = cls.__new__(cls)
        policy._allocate(obs_dim, action_dim, hyper, normalizer)
        views = policy._arrays
        for view, array in zip(views.of_actor() + views.of_critic(),
                               actor + [logstd] + critic):
            view[...] = array
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
    Returns (advantages, value_targets). The backward loop runs on floats,
    each input read with one ``tolist()``: the bits of numpy's float64
    scalars.
    """
    values = np.asarray(values, dtype=float)
    n = len(rewards)
    reward, value = np.asarray(rewards, dtype=float).tolist(), values.tolist()
    ends = np.asarray(boundary).tolist()
    beyond = np.asarray(bootstrap, dtype=float).tolist()
    adv = [0.0] * n
    gae = 0.0
    for t in range(n - 1, -1, -1):
        if ends[t]:
            next_value = beyond[t]
            gae = 0.0
        else:
            next_value = value[t + 1]
        delta = reward[t] + discount * next_value - value[t]
        gae = delta + discount * lam * gae
        adv[t] = gae
    adv = np.array(adv)
    return adv, adv + values[:n]


def ppo_loss_and_grads(policy: PolicyNetwork, minibatch: dict,
                       hyper: PpoHyperparams, work: _Workspace) -> dict:
    """Clipped-surrogate + value + entropy losses with analytic gradients.

    ``minibatch`` holds normalized observations, raw actions, collection-time
    log-probs, advantages, and value targets. The gradient is written into
    the flat buffer of ``work``, a ``_Workspace``, whose ``grads`` view it
    in the parameters' layout. Returns the loss diagnostics.

    Both networks take each hidden layer as one (2, rows, width) stack,
    forward and backward; np.matmul gives each slice of a stack the BLAS
    product, and so the bits, of that network's own 2-D product. The
    output layers run on their own. Each array gets the operations of the
    per-network form in their order, many of them written in place.
    """
    obs = minibatch["obs"]
    actions = minibatch["actions"]
    logp_old = minibatch["logp"]
    adv = minibatch["advantages"]
    targets = minibatch["value_targets"]
    n = obs.shape[0]
    acts, deltas, mean, z, zz, values = work.rows(n)
    params, grads = policy._arrays, work.grads

    # overflow from poisoned batches surfaces as TrainingFailureError instead
    with np.errstate(over="ignore", invalid="ignore"):
        h = obs
        for w, b, out in zip(params.w_stacks, params.b_stacks, acts):
            np.matmul(h, w, out=out)
            out += b
            np.tanh(out, out=out)
            h = out
        actor_in, critic_in = (h[0], h[1]) if acts else (obs, obs)
        actor_w, critic_w = params.actor.weights[-1], params.critic.weights[-1]

        actor_in.dot(actor_w, out=mean)
        mean += params.actor.biases[-1]
        np.tanh(mean, out=mean)
        logstd = policy.logstd
        std = np.exp(logstd)
        z = np.subtract(actions, mean, out=z)
        z /= std
        zz = np.multiply(z, z, out=zz)
        logp = (-0.5 * np.add.reduce(zz, axis=1) - np.add.reduce(logstd)
                - 0.5 * actions.shape[1] * LOG_2PI)
        ratio = np.exp(logp - logp_old)
        surr1 = ratio * adv
        surr2 = np.minimum(1.0 + hyper.clip_ratio,
                           np.maximum(1.0 - hyper.clip_ratio, ratio)) * adv
        low = np.minimum(surr1, surr2)
        # np.mean is the sum over the count, as are the means below
        policy_loss = -(np.add.reduce(low) / n)
        entropy = np.add.reduce(logstd + 0.5 * (1.0 + LOG_2PI))

        # surrogate gradient flows only where the unclipped branch is active
        active = np.less_equal(surr1, surr2, out=low)       # 1.0 where active
        dlogp = (-(active * ratio * adv) / n)[:, None]      # d policy_loss / d logp
        zz -= 1.0
        zz *= dlogp
        np.subtract(np.add.reduce(zz, axis=0), hyper.entropy_coef, out=grads.logstd)
        dhead = np.multiply(dlogp, z, out=z)
        dhead /= std                                        # d logp / d mean = z / std
        np.square(mean, out=mean)
        np.subtract(1.0, mean, out=mean)
        dhead *= mean                                       # tanh' = 1 - mean^2
        np.matmul(actor_in.T, dhead, out=grads.actor.weights[-1])
        np.add.reduce(dhead, axis=0, out=grads.actor.biases[-1])

        critic_in.dot(critic_w, out=values)
        values += params.critic.biases[-1]
        verr = values[:, 0] - targets
        value_loss = 0.5 * float(np.add.reduce(verr ** 2) / n)
        dv = (hyper.value_coef * verr / n)[:, None]
        np.matmul(critic_in.T, dv, out=grads.critic.weights[-1])
        np.add.reduce(dv, axis=0, out=grads.critic.biases[-1])

        if acts:
            np.matmul(dhead, actor_w.T, out=deltas[-1][0])
            np.matmul(dv, critic_w.T, out=deltas[-1][1])
        for i in reversed(range(len(acts))):
            g, h = deltas[i], acts[i]
            np.square(h, out=h)
            np.subtract(1.0, h, out=h)
            g *= h                                          # tanh' = 1 - h^2
            np.matmul(acts[i - 1].transpose(0, 2, 1) if i else obs.T, g,
                      out=grads.w_stacks[i])
            np.add.reduce(g, axis=1, keepdims=True, out=grads.b_stacks[i])
            if i:
                np.matmul(g, params.w_stacks[i].transpose(0, 2, 1), out=deltas[i - 1])
        return {
            "policy_loss": float(policy_loss),
            "value_loss": value_loss,
            "entropy": float(entropy),
            "approx_kl": float(np.add.reduce(logp_old - logp) / n),
            "clip_fraction":
                float(np.count_nonzero(np.abs(ratio - 1.0) > hyper.clip_ratio)) / n,
            "total_loss": float(policy_loss + hyper.value_coef * value_loss
                                - hyper.entropy_coef * entropy),
        }


def ppo_update(batch: dict, policy: PolicyNetwork, hyper: PpoHyperparams,
               rng) -> dict:
    """Run the clipped-surrogate epochs over ``batch``; mutates the policy.

    Each minibatch's gradient is written into one flat buffer, allocated
    with the other work arrays when the update starts, and each network's
    part of it is clipped on its own before one ``Adam`` step of
    ``policy.params``. Returns averaged loss diagnostics. Raises
    TrainingFailureError with a diagnostic dump if any loss turns
    non-finite.
    """
    n = batch["obs"].shape[0]
    adv = batch["advantages"]
    if hyper.normalize_advantages and n > 1:
        adv = (adv - adv.mean()) / (adv.std() + 1e-8)
    data = dict(batch, advantages=adv)
    order = np.arange(n)
    work = _Workspace(policy._layout)
    totals = {}
    count = 0
    for _ in range(hyper.epochs):
        rng.shuffle(order)
        shuffled = {k: v[order] for k, v in data.items()}
        for start in range(0, n, hyper.minibatch_size):
            mb = {k: v[start:start + hyper.minibatch_size]
                  for k, v in shuffled.items()}
            diags = ppo_loss_and_grads(policy, mb, hyper, work)
            if not all(map(math.isfinite, diags.values())):
                raise TrainingFailureError("non-finite PPO loss", diagnostics=diags)
            work.clip(hyper.max_grad_norm)
            policy._opt.step(policy.params, work.grad)
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
    drawn and scaled by exp(logstd) in one call each before its steps (the
    numbers and bits of one draw and one scaling per step), and the
    log-probs and critic values of its fixed networks are computed after
    them. The bootstrap values at truncations and at the batch cut are
    taken when they happen, since the input normalizer moves during
    collection.
    """
    from .loop import TwinLoop, episode_seed  # deferred: loop depends on this module

    env = TwinLoop(config)
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
        scaled = np.exp(policy.logstd) * action_rng.standard_normal((n, env.action_dim))

        for t in range(n):
            mean, norm_obs = policy.act(
                obs, update_stats=hyper.normalize_observations)
            action = mean + scaled[t]
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


def _net_state(net: Net) -> dict:
    return {"sizes": list(net.sizes),
            "weights": [w.tolist() for w in net.weights],
            "biases": [b.tolist() for b in net.biases]}


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


def _field(payload, path):
    """The checkpoint field at the dotted ``path`` of ``payload``; raises
    InvalidInputError naming it when it is missing."""
    value = payload
    for key in path.split("."):
        if not isinstance(value, dict) or key not in value:
            raise InvalidInputError(f"checkpoint {path} is missing")
        value = value[key]
    return value


def _net_arrays(payload, name, sizes):
    """The weights and then the biases of a checkpoint's network ``name``,
    one list, whose layers must have ``sizes``; checked before any array of
    them is built."""
    weights, biases = (_field(payload, f"{name}.{key}") for key in ("weights", "biases"))
    if not (_field(payload, f"{name}.sizes") == sizes
            and isinstance(weights, list) and isinstance(biases, list)
            and len(weights) == len(biases) == len(sizes) - 1):
        raise InvalidInputError(f"checkpoint {name} must have sizes {sizes}, "
                                f"with a weight and a bias per layer")
    return ([_checkpoint_array(w, shape, f"{name}.weights[{i}]")
             for i, (w, shape) in enumerate(zip(weights, zip(sizes, sizes[1:])))]
            + [_checkpoint_array(b, (n,), f"{name}.biases[{i}]")
               for i, (b, n) in enumerate(zip(biases, sizes[1:]))])
