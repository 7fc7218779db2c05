"""Experiment orchestration: seeded Monte Carlo runs, metrics, persistence.

A single JSON config describes the whole experiment (plant, fleet, channel,
caps, mode, RL hyperparameters, seeds); every run echoes it into
summary.json so results can be replayed exactly. Its channel section is
``channel.ChannelParams``, checked when the config is read, and its rl
section ``agent.PpoHyperparams``, whose values ``validate`` checks with the
rest: types first, then ranges, so a bad value is named by its field. The
episodes of a run share one ``TwinLoop`` in one process and take the policy
mean. Per-episode seeds derive from the master seed by episode index, so
repeated runs are byte-identical and different modes see common random
numbers.

The episode error metric (reported as ``mrmse``) is the per-episode mean
over query intervals of the Euclidean distance between the true state and
the fused belief mean, averaged over episodes.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import sensing
from .agent import PolicyNetwork, PpoHyperparams
from .channel import ChannelParams
from .dynamics import PLANT_REGISTRY
from .errors import ConfigurationError, InvalidInputError, TwinloopError
from .loop import TwinLoop, episode_seed
from .scheduler import SchedulingMode

MRMSE_DEFINITION = ("per-episode mean over query intervals of "
                    "||true_state - belief_mean||_2, averaged over episodes")


@dataclass
class FleetConfig:
    count: int = 10
    max_distance_m: float = 20.0
    min_distance_m: float = 1.0
    position_noise_levels: tuple = (1e-3, 1e-1)
    velocity_noise_levels: tuple = (1e-4, 1e-2)
    seed: int = 7
    agents: list = None   # explicit [{id, feature, variance, distance}] wins


@dataclass
class PlantConfig:
    name: str = "mountain_car"
    process_noise_std: tuple = (1e-4, 1e-5)
    episode_cap: int = 999


@dataclass
class ExperimentConfig:
    mode: str = "reverb"
    master_seed: int = 0
    episodes: int = 100
    output_dir: str = None
    capacity: int = 10
    variance_caps: tuple = (0.01, 0.001)
    traditional_count: int = 2
    accuracy_weight: float = 0.5   # mixing weight of the per-QI diagnostic
    plant: PlantConfig = field(default_factory=PlantConfig)
    fleet: FleetConfig = field(default_factory=FleetConfig)
    channel: ChannelParams = field(default_factory=ChannelParams)
    rl: PpoHyperparams = field(default_factory=PpoHyperparams)

    # -- validation / builders ----------------------------------------------

    def validate(self) -> "ExperimentConfig":
        # every field declared int, here and in the sections, must hold an
        # integer (2.5 is rejected, not truncated), every field declared
        # float a number that is not a bool (checked, not converted), and
        # every field declared bool a bool ("no" is not false)
        for prefix, section in (("", self), ("plant.", self.plant),
                                ("fleet.", self.fleet), ("channel.", self.channel),
                                ("rl.", self.rl)):
            for f in dataclasses.fields(section):
                value = getattr(section, f.name)
                if f.type == "int":
                    try:
                        setattr(section, f.name, sensing.integer(value))
                    except TypeError:
                        raise ConfigurationError(f"{prefix}{f.name} must be an "
                                                 f"integer: {value!r}") from None
                elif f.type == "float" and (isinstance(value, bool) or
                                            not isinstance(value, numbers.Real)):
                    raise ConfigurationError(f"{prefix}{f.name} must be a "
                                             f"number: {value!r}")
                elif f.type == "bool" and not isinstance(value, bool):
                    raise ConfigurationError(f"{prefix}{f.name} must be true "
                                             f"or false: {value!r}")
        try:
            SchedulingMode(self.mode)
        except ValueError:
            raise ConfigurationError(f"unknown mode {self.mode!r}")
        if self.master_seed < 0:
            raise ConfigurationError("master_seed must be >= 0")
        for name, value in (("episodes", self.episodes), ("rl.epochs", self.rl.epochs),
                            ("rl.batch_size", self.rl.batch_size),
                            ("rl.minibatch_size", self.rl.minibatch_size),
                            ("plant.episode_cap", self.plant.episode_cap)):
            if value < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        if self.capacity < 0:
            raise ConfigurationError("capacity must be >= 0")
        if not 0.0 <= self.accuracy_weight <= 1.0:
            raise ConfigurationError("accuracy_weight must lie in [0, 1]")
        # max_grad_norm 0 turns clipping off; below 0 it would do so unasked
        for name, value in (("rl.reward_weight", self.rl.reward_weight),
                            ("rl.eta_max", self.rl.eta_max),
                            ("rl.max_grad_norm", self.rl.max_grad_norm)):
            if not 0.0 <= value < np.inf:   # NaN compares false
                raise ConfigurationError(f"{name} must be finite and >= 0: {value!r}")
        for f in dataclasses.fields(self.rl):
            value = getattr(self.rl, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise ConfigurationError(f"rl.{f.name} must be finite: {value!r}")
        # a logstd within +-20 keeps std = exp(logstd) in [2e-9, 5e8], so the
        # standardized actions and their squares stay far inside a float;
        # an entropy_coef, value_coef, reward weight or eta_max within 1e6
        # of zero keeps the losses and their gradients, which the
        # global-norm clip squares, as far inside; an Adam step moves each
        # parameter by about the learning rate, and one above 1 (100 in a
        # 2,048-step run) drove logstd past exp's range. At 1e308 each of
        # them, and a gae_lambda, ended training with a non-finite loss, as
        # a value_coef of 1e300 did with the reward weight and eta_max at 1e6
        rl = self.rl
        for name, ok, bounds in (
                ("discount", 0.0 < rl.discount < 1.0, "(0, 1)"),
                ("gae_lambda", 0.0 <= rl.gae_lambda <= 1.0, "[0, 1]"),
                ("clip_ratio", rl.clip_ratio > 0.0, "(0, inf)"),
                ("entropy_coef", -1e6 <= rl.entropy_coef <= 1e6, "[-1e6, 1e6]"),
                ("value_coef", 0.0 <= rl.value_coef <= 1e6, "[0, 1e6]"),
                ("actor_lr", 0.0 <= rl.actor_lr <= 1.0, "[0, 1]"),
                ("critic_lr", 0.0 <= rl.critic_lr <= 1.0, "[0, 1]"),
                ("reward_weight", rl.reward_weight <= 1e6, "[0, 1e6]"),
                ("eta_max", rl.eta_max <= 1e6, "[0, 1e6]"),
                ("initial_logstd", -20.0 <= rl.initial_logstd <= 20.0, "[-20, 20]"),
                ("min_logstd", -20.0 <= rl.min_logstd <= 20.0, "[-20, 20]")):
            if not ok:
                raise ConfigurationError(f"rl.{name} must lie in {bounds}: "
                                         f"{getattr(rl, name)!r}")
        # a bad cap, plant, fleet or link power fails here, before any
        # episode runs
        TwinLoop(self)
        return self

    def build_plant(self):
        if self.plant.name not in PLANT_REGISTRY:
            raise ConfigurationError(f"unknown plant {self.plant.name!r}")
        return PLANT_REGISTRY[self.plant.name](
            process_noise_std=tuple(self.plant.process_noise_std),
            episode_cap=self.plant.episode_cap)

    def build_fleet(self, plant) -> sensing.FleetIndex:
        """The pinned or generated fleet, indexed against the state dimension
        of ``plant`` (as ``build_plant`` returns it); raises
        ConfigurationError unless it covers every feature."""
        f = self.fleet
        state_dim = plant.dim
        if f.agents is not None:
            agents = [sensing.agent_from_record(rec) for rec in f.agents]
        else:
            rng = np.random.default_rng(np.random.SeedSequence(f.seed))
            agents = sensing.place_agents(
                f.count, f.max_distance_m, f.position_noise_levels,
                f.velocity_noise_levels, rng, state_dim,
                min_distance_m=f.min_distance_m)
        index = sensing.FleetIndex(agents, state_dim)
        if not all(index.measuring):
            raise ConfigurationError("fleet does not cover every plant feature")
        return index

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["rl"] = self.rl.to_dict()
        return json.loads(json.dumps(d))   # canonical JSON types (tuples -> lists)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        data = dict(data)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        for key, sub in (("plant", PlantConfig), ("fleet", FleetConfig),
                         ("channel", ChannelParams), ("rl", PpoHyperparams)):
            if key in data and not isinstance(data[key], sub):
                try:
                    data[key] = sub(**data[key])
                except TypeError as exc:
                    raise ConfigurationError(f"bad {key} section: {exc}")
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigurationError(str(exc))

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        path = Path(path)
        if not path.exists():
            raise ConfigurationError(f"config file not found: {path}")
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(f"config is not valid JSON: {exc}")
        return cls.from_dict(data).validate()


@dataclass
class EpisodeMetrics:
    episode: int
    qis: int
    reached_goal: bool
    total_power_w: float
    mrmse: float
    mean_selected: float
    satisfaction_rate: float
    total_base_reward: float
    # one TwinLoop.trace record per QI; TwinLoop.trace_table gives the columns
    trace: list = field(default_factory=list, repr=False)


def run_episode(policy: PolicyNetwork, config: ExperimentConfig,
                episode_index: int, env: TwinLoop = None) -> EpisodeMetrics:
    """Roll one evaluation episode; numerical failures propagate. ``env``
    must record its trace, from which the metrics are read."""
    if env is None:
        env = TwinLoop.from_config(config, record_trace=True)
    if not env.record_trace:
        raise InvalidInputError("run_episode needs a loop that records its trace")
    obs = env.reset(episode_seed(config.master_seed, 2, episode_index))
    while True:
        action, _ = policy.act(obs)
        step = env.step(action)
        if step.terminated or step.truncated:
            break
        obs = step.policy_input
    return EpisodeMetrics(episode=episode_index, reached_goal=step.terminated,
                          **env.episode_totals(env.trace), trace=list(env.trace))


def run_monte_carlo(config: ExperimentConfig, policy: PolicyNetwork = None,
                    workers: int = 1) -> dict:
    """Run the configured number of seeded episodes and aggregate metrics.

    The episodes run one after another in this process, on one
    ``TwinLoop``, and their results are ordered by episode index. Episodes
    that fail with a package error (``TwinloopError``) are reported by
    index instead of aborting the whole run; any other exception is a bug
    and propagates. ``workers`` must be 1: evaluation runs in one process.
    """
    if workers != 1:
        raise InvalidInputError(f"evaluation runs in one process: workers must "
                                f"be 1, not {workers!r}")
    config.validate()
    if policy is None:
        policy = fresh_policy(config)
    env = TwinLoop.from_config(config, record_trace=True)
    metrics = []
    failures = {}
    for i in range(config.episodes):
        try:
            metrics.append(run_episode(policy, config, i, env=env))
        except TwinloopError as exc:   # record, keep going
            failures[i] = f"{type(exc).__name__}: {exc}"
    report = {
        "aggregate": aggregate_metrics(metrics),
        "failures": failures,
        "config": config.to_dict(),
        "mrmse_definition": MRMSE_DEFINITION,
    }
    if config.output_dir:
        export_traces(metrics, config.output_dir, report, env=env)
    report["episodes"] = metrics
    return report


def fresh_policy(config: ExperimentConfig) -> PolicyNetwork:
    """Untrained policy drawn from the master seed (for baseline/no-training runs)."""
    rng = np.random.default_rng(np.random.SeedSequence(config.master_seed,
                                                       spawn_key=(0,)))
    env = TwinLoop.from_config(config)
    return PolicyNetwork(env.obs_dim, env.action_dim, config.rl, rng)


def aggregate_metrics(metrics) -> dict:
    fieldnames = ("qis", "total_power_w", "power_per_qi_w", "mrmse",
                  "mean_selected", "satisfaction_rate", "total_base_reward")
    out = {"episodes": len(metrics)}
    if metrics:
        out["goal_rate"] = float(np.mean([m.reached_goal for m in metrics]))
    for name in fieldnames:
        if name == "power_per_qi_w":
            values = np.array([m.total_power_w / m.qis for m in metrics],
                              dtype=float)
        else:
            values = np.array([getattr(m, name) for m in metrics], dtype=float)
        if values.size == 0:
            continue
        out[name] = {
            "mean": float(values.mean()),
            "std": float(values.std()),
            "median": float(np.median(values)),
            "p10": float(np.percentile(values, 10)),
            "p90": float(np.percentile(values, 90)),
            "min": float(values.min()),
            "max": float(values.max()),
        }
    return out


EPISODE_COLUMNS = ("episode", "qis", "reached_goal", "total_power_w", "mrmse",
                   "mean_selected", "satisfaction_rate", "total_base_reward")


def _fmt(value):
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float):
        return repr(value)
    return value


def write_csv(path, columns, rows):
    """Write ``rows`` (mappings) as CSV under a header of ``columns``.

    Floats are written with ``repr``, so they read back bit for bit, and
    bools as 0/1. With no columns the file is empty.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if columns:
            writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])


def export_traces(metrics, out_dir, report=None, *, env):
    """Write episodes.csv, one trace_<i>.csv per episode, and summary.json.

    ``env`` is the ``TwinLoop`` that recorded the traces; each trace file is
    its ``trace_table`` of the episode's records, written in one go (the
    values are ints, strings and floats, whose ``str`` is their ``repr``).
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        write_csv(out / "episodes.csv", EPISODE_COLUMNS, map(vars, metrics))
        for m in metrics:
            table = env.trace_table(m.trace)
            with open(out / f"trace_{m.episode}.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(table)
                writer.writerows(zip(*table.values()))
        if report is not None:
            summary = {k: v for k, v in report.items() if k != "episodes"}
            with open(out / "summary.json", "w") as fh:
                json.dump(summary, fh, indent=2, sort_keys=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot write outputs under {out}: {exc}")
    return out
