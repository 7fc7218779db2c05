#!/usr/bin/env python3
"""Self-test of the benchmark's failure accounting.

    python3 perfbench/selftest.py

Runs the smallest measurement of each workload twice, once clean and once
poisoned: the trained checkpoint with NaN actor weights (eval_modes), a
policy whose actor weights are NaN from construction (train_reverb) and a
NaN link distance (channel_validate). A clean run must report no failed
operation and correct=true; a poisoned run must report failed operations
and correct=false without raising. Exit code 0 when all of that holds.
"""

import math
import sys
import tempfile

import run

if not run.import_package():
    raise SystemExit(f"no twinloop package under {run.SRC}")

import numpy as np  # noqa: E402
import workloads as wl  # noqa: E402
from gauge import Gauge  # noqa: E402
from spans import patched  # noqa: E402
from twinloop import agent  # noqa: E402


def poison(policy):
    for weights in policy.actor.weights:
        weights[...] = np.nan
    return policy


def poisoned_init(self, *args, **kwargs):
    clean_init(self, *args, **kwargs)
    poison(self)


clean_init = agent.PolicyNetwork.__init__
POISONS = {
    "train_reverb": lambda w: [(agent.PolicyNetwork, "__init__", poisoned_init)],
    "eval_modes": lambda w: setattr(
        w, "policy_override", poison(agent.PolicyNetwork.load(wl.CHECKPOINT_PATH))),
    "channel_validate": lambda w: setattr(w, "distance_m", math.nan),
}


def measure_once(name, poisoned, out_root):
    gauge = Gauge(wl.WORKLOADS[name].gauge_kind)
    probe = wl.QiProbe(wl.ScheduleCounter(), gauge)
    workload = wl.WORKLOADS[name](7, probe, out_root)
    replacements = POISONS[name](workload) if poisoned else None
    with patched(replacements or []):
        reps, setup_s, _ = run.measure(workload, probe, seconds=1e-3)
    run.end_to_end_metrics(reps, setup_s)   # must not raise either
    return run.outcome(workload, reps)


def main():
    ok = True
    with tempfile.TemporaryDirectory(prefix=".perfbench_selftest_",
                                     dir=run.ROOT) as out_root:
        for name in run.WORKLOAD_NAMES:
            for poisoned in (False, True):
                correct, attempted, failed, problems = measure_once(
                    name, poisoned, out_root)
                expected = (not correct and failed > 0) if poisoned \
                    else (correct and failed == 0)
                ok &= expected
                print(f"{name:<17} {'poisoned' if poisoned else 'clean':<8} "
                      f"attempted {attempted:4d} failed {failed:4d} "
                      f"correct {str(correct):<5} -> "
                      f"{'as expected' if expected else 'UNEXPECTED'}")
                if problems:
                    print(f"    first problem: {problems[0]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
