#!/usr/bin/env python3
"""Regenerate perfbench/reference.json, the eval_modes outcome references.

    python3 perfbench/make_reference.py

Evaluates the committed checkpoint in every mode over REFERENCE_EPISODES
episodes drawn the way the workload draws them (from seeds disjoint from
the ones a run derives from small --seed values) and stores the pooled
outcomes. The tolerances are the 99.99% bootstrap quantiles of each pooled
statistic at the smallest pool a run checks (12 episodes per mode), rounded
up: the check catches broken behaviour, while the printed digest shows
whether outputs stayed bit-identical.
"""

import dataclasses
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
from twinloop import agent, harness  # noqa: E402

REFERENCE_EPISODES = 180   # per mode
FIRST_SEED = 900_000
TOLERANCE = {
    "goal_rate": {"minus": 0.3},
    "median_qis": {"factor": 2.5},
    "mean_power_per_qi_w": {"factor": 1.15},
    "mean_mrmse": {"factor": 1.3},
}


def main():
    config = wl.load_config()
    policy = agent.PolicyNetwork.load(wl.CHECKPOINT_PATH)
    modes = {}
    for mode in wl.MODES:
        episodes = []
        for rep in range(REFERENCE_EPISODES // wl.EVAL_EPISODES):
            run = dataclasses.replace(
                config, mode=mode, episodes=wl.EVAL_EPISODES,
                master_seed=wl.sub_seed(FIRST_SEED + rep, 0))
            report = harness.run_monte_carlo(run, policy=policy, workers=1)
            if report["failures"]:
                raise SystemExit(f"{mode}: {report['failures']}")
            episodes += report["episodes"]
        modes[mode] = wl.outcomes(episodes)
        print(mode, len(episodes), modes[mode], flush=True)
    reference = {"episodes_per_mode": REFERENCE_EPISODES,
                 "tolerance": TOLERANCE, "modes": modes}
    wl.REFERENCE_PATH.write_text(json.dumps(reference, indent=2) + "\n")


if __name__ == "__main__":
    main()
