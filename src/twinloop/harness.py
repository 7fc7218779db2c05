"""Experiment orchestration: seeded Monte Carlo runs, metrics, persistence.

A single JSON config describes the whole experiment (plant, fleet, channel,
caps, mode, RL hyperparameters, seeds); every run echoes it into
summary.json so results can be replayed exactly. Its channel section is
``channel.ChannelParams``, checked when the config is read, and its rl
section ``agent.PpoHyperparams``. Every field declares its type and range
next to its default (``settings.setting``), and building a ``TwinLoop``
checks them all: types first, then ranges, so a bad value is named by its
field. The episodes of a run share one ``TwinLoop`` in one process and take
the policy mean. Per-episode seeds derive from the master seed by episode
index, so repeated runs are byte-identical and different modes see common
random numbers.

The episode error metric (reported as ``mrmse``) is the per-episode mean
over query intervals of the Euclidean distance between the true state and
the fused belief mean, averaged over episodes.
"""

from __future__ import annotations

import csv
import dataclasses
import json
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
from .settings import (PER_FEATURE, RECORDS, SECTION, TEXT, at_least, numbers,
                       one_of, setting, within)

MRMSE_DEFINITION = ("per-episode mean over query intervals of "
                    "||true_state - belief_mean||_2, averaged over episodes")


@dataclass
class FleetConfig:
    count: int = setting(10, at_least(0))
    max_distance_m: float = setting(20.0, within("(0, inf)"))
    min_distance_m: float = setting(1.0, within("[0, inf)"))
    position_noise_levels: tuple = setting((1e-3, 1e-1), numbers("(0, inf)"))
    velocity_noise_levels: tuple = setting((1e-4, 1e-2), numbers("(0, inf)"))
    seed: int = setting(7, at_least(0))
    # explicit [{id, feature, variance, distance}] wins
    agents: list = setting(None, RECORDS)


@dataclass
class PlantConfig:
    name: str = setting("mountain_car", one_of(PLANT_REGISTRY))
    process_noise_std: tuple = setting((1e-4, 1e-5), numbers("[0, inf)", 2))
    episode_cap: int = setting(999, at_least(1))


@dataclass
class ExperimentConfig:
    mode: str = setting("reverb", one_of(SchedulingMode))
    master_seed: int = setting(0, at_least(0))
    episodes: int = setting(100, at_least(1))
    output_dir: str = setting(None, TEXT)
    capacity: int = setting(10, at_least(0))
    variance_caps: tuple = setting((0.01, 0.001), PER_FEATURE)
    traditional_count: int = setting(2, at_least(0))
    # mixing weight of the per-QI diagnostic
    accuracy_weight: float = setting(0.5, within("[0, 1]"))
    plant: PlantConfig = setting(PlantConfig, SECTION)
    fleet: FleetConfig = setting(FleetConfig, SECTION)
    channel: ChannelParams = setting(ChannelParams, SECTION)
    rl: PpoHyperparams = setting(PpoHyperparams, SECTION)

    # -- validation / builders ----------------------------------------------

    def validate(self) -> "ExperimentConfig":
        """Check the config by building its ``TwinLoop``, which checks every
        field against its rule and then the caps, plant, fleet and link
        powers, and return it: a bad setting fails here, before any episode
        runs."""
        TwinLoop(self)
        return self

    def build_plant(self):
        return PLANT_REGISTRY[self.plant.name](
            process_noise_std=self.plant.process_noise_std,
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
        return cls.from_dict(read_json(path)).validate()


def read_json(path) -> dict:
    """The content of the config file at ``path``, unchecked; raises
    ConfigurationError when the file is missing or is not JSON."""
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"config file not found: {path}")
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config is not valid JSON: {exc}")


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

    The config is checked by building the run's one ``TwinLoop``. The
    episodes run one after another in this process, on that loop, and their
    results are ordered by episode index. Episodes that fail with a package error
    (``TwinloopError``) are reported by index instead of aborting the whole
    run; any other exception is a bug and propagates. ``workers`` must be
    1: evaluation runs in one process.
    """
    if workers != 1:
        raise InvalidInputError(f"evaluation runs in one process: workers must "
                                f"be 1, not {workers!r}")
    env = TwinLoop(config, record_trace=True)
    if policy is None:
        policy = fresh_policy(config, env)
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


def fresh_policy(config: ExperimentConfig, env: TwinLoop) -> PolicyNetwork:
    """Untrained policy drawn from the master seed (for baseline/no-training
    runs), sized for ``env``, a loop of ``config``."""
    rng = np.random.default_rng(np.random.SeedSequence(config.master_seed,
                                                       spawn_key=(0,)))
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
