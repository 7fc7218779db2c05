"""The names and decision fields the benchmark in ``perfbench/`` relies on.

``perfbench/workloads.py`` wraps the package's functions by looking them up
in ``owner.__dict__`` and counts what ``scheduler.schedule`` returns, and
its set-up builds a ``TwinLoop`` in every mode from
``perfbench/acceptance.json``, a config with a pinned fleet; a rename or a
change of the config format would crash the benchmark, so it fails here
first. That config must stay the experiment the acceptance suite runs, so
the benchmark measures it. The files are loaded, never changed. The
benchmark's own self-test of its failure accounting,
``perfbench/selftest.py``, runs here in a subprocess.
"""

import dataclasses
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

from twinloop import SchedulingMode, agent, channel, harness, loop, scheduler
from tests.helpers import diag_belief, indexed, prior_mean_reader, scalar_agent
from tests.test_acceptance import benchmark_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS_PATH = PERFBENCH / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    name = "perfbench_workloads"
    spec = importlib.util.spec_from_file_location(name, WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module        # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


def test_every_span_target_is_in_its_owner_dict(workloads):
    missing = [name for name, owner, attr in workloads.SPAN_TARGETS
               if attr not in owner.__dict__]
    assert not missing


def test_schedule_decision_feeds_the_counter(workloads):
    fleet = indexed([scalar_agent(1, 0, 0.004), scalar_agent(2, 1, 0.0001)])
    prior = diag_belief(0.05, 0.005)
    decision = scheduler.schedule(prior, [0.01, 0.001], fleet, 2,
                                  prior_mean_reader(prior, fleet))
    counter = workloads.ScheduleCounter()
    counter(decision)
    assert (counter.calls, counter.iterations, counter.selected,
            counter.caps_met) == (1, 2, 2, 1)


def test_benchmark_self_test_passes():
    # the benchmark's failure accounting: a clean run of each workload must
    # report no failed operation, a poisoned one (NaN actor weights written
    # through policy.actor.weights, a NaN link distance) its failures
    result = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stdout + result.stderr


def test_entry_points_take_the_benchmark_arguments():
    inspect.signature(agent.train).bind("config", "hyper", 0)
    inspect.signature(harness.run_monte_carlo).bind("config", policy=None, workers=1)


def test_channel_workload_builds_params_like_the_constructor():
    # perfbench's channel set-up builds its grid through from_config
    params = channel.ChannelParams.from_config(rician_factor_db=10.0,
                                               outage_epsilon=1e-2)
    assert params == channel.ChannelParams(rician_factor_db=10.0,
                                           outage_epsilon=1e-2)


def counted(monkeypatch, owner, name, counts):
    """Count the calls of ``owner.name``, replaced on its owner as the
    benchmark's probe replaces it."""
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


@pytest.mark.parametrize("mode", list(SchedulingMode))
def test_evaluation_acts_and_steps_once_per_qi(mode, monkeypatch):
    # the probe times a QI from the start of act to the end of step and
    # counts step calls as the work: a path that skipped either call would
    # corrupt eval_modes' throughput and latency without failing
    config = dataclasses.replace(
        harness.ExperimentConfig.from_json_file(PERFBENCH / "acceptance.json"),
        mode=mode.value)
    policy = agent.PolicyNetwork.load(PERFBENCH / "reverb_policy.json")
    counts = {}
    counted(monkeypatch, agent.PolicyNetwork, "act", counts)
    counted(monkeypatch, loop.TwinLoop, "step", counts)
    env = loop.TwinLoop(config, record_trace=True)
    metrics = harness.run_episode(policy, config, 0, env)
    assert counts == {"act": metrics.qis, "step": metrics.qis}


def test_training_acts_and_steps_once_per_step(monkeypatch):
    config = harness.ExperimentConfig.from_json_file(PERFBENCH / "acceptance.json")
    config.rl = dataclasses.replace(config.rl, batch_size=64, minibatch_size=32,
                                    epochs=1, total_steps=128)
    counts = {}
    counted(monkeypatch, agent.PolicyNetwork, "act", counts)
    counted(monkeypatch, loop.TwinLoop, "step", counts)
    _, curve = agent.train(config, config.rl, 0)
    assert curve[-1]["steps"] == 128
    assert counts == {"act": 128, "step": 128}


def test_acceptance_config_is_the_acceptance_experiment():
    config = harness.ExperimentConfig.from_json_file(PERFBENCH / "acceptance.json")
    assert config.to_dict() == benchmark_config("reverb", 101).to_dict()


@pytest.mark.parametrize("mode", list(SchedulingMode))
def test_acceptance_config_builds_a_loop_in_every_mode(mode):
    config = harness.ExperimentConfig.from_json_file(PERFBENCH / "acceptance.json")
    env = loop.TwinLoop.from_config(dataclasses.replace(config, mode=mode.value),
                                    record_trace=True)
    assert env.mode is mode
    assert [a.id for a in env.fleet_index.agents] == list(range(1, 11))
    assert [len(m) for m in env.fleet_index.measuring] == [5, 5]


# the layers the traced run times per QI, by span name, and the modes whose
# QIs enter each (every mode when None)
QI_LAYERS = {"agent.act": None, "loop.step": None, "estimator.predict": None,
             "dynamics.step": None, "scheduler.schedule": {SchedulingMode.REVERB},
             "baselines.baseline_schedule": set(SchedulingMode) - {SchedulingMode.REVERB}}


@pytest.mark.parametrize("mode", list(SchedulingMode))
def test_traced_layers_are_entered_once_per_qi(mode, workloads, monkeypatch):
    # each layer is wrapped on the owner the traced run wraps it on; a QI
    # that skipped an owner's lookup, or entered a layer twice, would move
    # its per-layer numbers without failing the run
    owners = {name: (owner, attr) for name, owner, attr in workloads.SPAN_TARGETS}
    counts = dict.fromkeys(QI_LAYERS, 0)
    for name in QI_LAYERS:
        owner, attr = owners[name]
        real = owner.__dict__[attr]

        def wrapper(*args, _name=name, _real=real, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)
    config = dataclasses.replace(
        harness.ExperimentConfig.from_json_file(PERFBENCH / "acceptance.json"),
        mode=mode.value)
    env = loop.TwinLoop(config)
    policy = agent.PolicyNetwork.load(PERFBENCH / "reverb_policy.json")
    episode = 0
    obs = env.reset(episode)
    for _ in range(50):
        step = env.step(policy.act(obs)[0])
        obs = step.policy_input
        if step.terminated or step.truncated:
            episode += 1
            obs = env.reset(episode)
    assert counts == {name: 50 if modes is None or mode in modes else 0
                      for name, modes in QI_LAYERS.items()}
