"""Command line front end: train, evaluate, validate-channel, sweep.

Exit codes: 0 on success, 1 for configuration errors and rejected inputs
(including channel parameters outside the strong line-of-sight regime and
files or directories that cannot be read or written), 2 for numerical or
training failures. Errors print one line to stderr, never a traceback. Flags
replace the corresponding config keys before the config is checked.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from . import agent as agent_mod
from . import channel as channel_mod
from .errors import (ConfigurationError, InvalidInputError,
                     NumericalFailureError, TrainingFailureError,
                     WeakLineOfSightError)
from .harness import ExperimentConfig, read_json, run_monte_carlo, write_csv

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2


def _load_config(args) -> ExperimentConfig:
    """The config file's (or the default) config with the flags applied,
    checked once: a flag replaces a key before the check sees it."""
    config = (ExperimentConfig.from_dict(read_json(args.config)) if args.config
              else ExperimentConfig())
    flags = {"mode": args.mode or None, "master_seed": args.seed,
             "episodes": getattr(args, "episodes", None),
             "output_dir": args.out or None}
    steps = getattr(args, "steps", None)
    if steps is not None:
        flags["rl"] = dataclasses.replace(config.rl, total_steps=steps)
    return dataclasses.replace(
        config, **{k: v for k, v in flags.items() if v is not None}).validate()


def cmd_train(args) -> int:
    config = _load_config(args)
    out = Path(config.output_dir or "train_out")
    out.mkdir(parents=True, exist_ok=True)     # a bad path fails before training

    def progress(row):
        if args.verbose:
            print(f"iter {row['iteration']:4d} steps {row['steps']:8d} "
                  f"return {row['mean_return']:8.2f} len {row['mean_length']:6.1f} "
                  f"goal {row['goal_rate']:.2f}")

    policy, curve = agent_mod.train(config, config.rl, config.master_seed,
                                    progress=progress)
    policy.save(out / "policy.json")
    write_csv(out / "training_curve.csv", list(curve[0]) if curve else [], curve)
    final = curve[-1] if curve else {}
    print(f"trained mode={config.mode} seed={config.master_seed} "
          f"steps={final.get('steps', 0)} "
          f"goal_rate={final.get('goal_rate', float('nan'))} "
          f"checkpoint={out / 'policy.json'}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    config = _load_config(args)
    policy = None
    if args.policy:
        policy = agent_mod.PolicyNetwork.load(args.policy)
    report = run_monte_carlo(config, policy=policy)
    agg = report["aggregate"]
    line = {"mode": config.mode, "episodes": agg.get("episodes", 0),
            **_headline(agg)}
    print(json.dumps(line))
    if report["failures"]:
        print(f"episode failures: {report['failures']}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_validate_channel(args) -> int:
    if args.seed < 0:
        raise InvalidInputError(f"seed must be nonnegative: {args.seed}")
    # a flag left out keeps the channel section's default
    given = {f.name: getattr(args, f.name)
             for f in dataclasses.fields(channel_mod.ChannelParams)}
    params = channel_mod.ChannelParams(
        **{name: value for name, value in given.items() if value is not None})
    power = channel_mod.required_power(args.distance_m, params)
    rng = np.random.default_rng(args.seed)
    outage = channel_mod.outage_probability_mc(power, args.distance_m, params,
                                               args.trials, rng)
    print("rician_db,epsilon,bandwidth_hz,packet_bits,latency_s,distance_m,"
          "alpha,trials,required_power_w,empirical_outage")
    print(f"{params.rician_factor_db!r},{params.outage_epsilon!r},"
          f"{params.bandwidth_hz!r},{params.packet_bits!r},"
          f"{params.latency_max_s!r},{args.distance_m!r},"
          f"{params.path_loss_exponent!r},{args.trials},{power!r},{outage!r}")
    return EXIT_OK


SWEEP_COLUMNS = ("kappa", "capacity", "epsilon", "goal_rate", "median_qis",
                 "mean_power_w", "mean_mrmse")


def cmd_sweep(args) -> int:
    """Run the grid; each point's row reaches sweep.csv as soon as it finishes,
    so a failing point keeps the rows of the points before it."""
    config = _load_config(args)
    out = Path(config.output_dir or "sweep_out")
    out.mkdir(parents=True, exist_ok=True)
    grid = itertools.product(args.kappa or [config.rl.reward_weight],
                             args.capacity or [config.capacity],
                             args.epsilon or [config.channel.outage_epsilon])

    def points():
        for kappa, capacity, eps in grid:
            row = _sweep_point(config, kappa, capacity, eps, args.train_steps)
            yield row               # printed once write_csv has written it
            print(json.dumps(row))

    write_csv(out / "sweep.csv", SWEEP_COLUMNS, points())
    print(f"wrote {out / 'sweep.csv'}")
    return EXIT_OK


def _sweep_point(config, kappa, capacity, eps, train_steps) -> dict:
    """One grid point's row. ``train`` and ``run_monte_carlo`` each build
    the point's loop, which checks it, before any work, so a bad point
    fails before its policy is trained."""
    rl = dataclasses.replace(config.rl, reward_weight=kappa)
    if train_steps:
        rl = dataclasses.replace(rl, total_steps=train_steps)
    point = dataclasses.replace(
        config, capacity=capacity, output_dir=None, rl=rl,
        channel=dataclasses.replace(config.channel, outage_epsilon=eps))
    policy = None
    if train_steps:
        policy, _ = agent_mod.train(point, point.rl, point.master_seed)
    agg = run_monte_carlo(point, policy=policy)["aggregate"]
    return {"kappa": kappa, "capacity": capacity, "epsilon": eps,
            **_headline(agg)}


def _headline(agg) -> dict:
    """Goal rate, median QIs, mean power and mean MRMSE of an aggregate,
    None where it has no episodes."""
    return {
        "goal_rate": agg.get("goal_rate"),
        "median_qis": agg.get("qis", {}).get("median"),
        "mean_power_w": agg.get("total_power_w", {}).get("mean"),
        "mean_mrmse": agg.get("mrmse", {}).get("mean"),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twinloop",
        description="Digital-twin control loop simulator and benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)
    # the flags of a run, which _load_config applies to its config
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--config", help="experiment config JSON")
    run.add_argument("--mode", help="scheduling mode")
    run.add_argument("--seed", type=int)
    run.add_argument("--out", help="output directory")

    train = sub.add_parser("train", parents=[run], help="train a policy for one mode")
    train.add_argument("--steps", type=int, help="total training steps")
    train.add_argument("--verbose", action="store_true")
    train.set_defaults(func=cmd_train)

    ev = sub.add_parser("evaluate", parents=[run], help="run seeded evaluation episodes")
    ev.add_argument("--policy", help="policy checkpoint (JSON); fresh policy if omitted")
    ev.add_argument("--episodes", type=int)
    ev.set_defaults(func=cmd_evaluate)

    vc = sub.add_parser("validate-channel",
                        help="required power and Monte Carlo outage as CSV")
    vc.add_argument("--rician-db", dest="rician_factor_db", type=float)
    vc.add_argument("--epsilon", dest="outage_epsilon", type=float, default=1e-2)
    vc.add_argument("--bandwidth-hz", type=float)
    vc.add_argument("--packet-bits", type=float)
    vc.add_argument("--latency-s", dest="latency_max_s", type=float)
    vc.add_argument("--distance-m", type=float, default=20.0)
    vc.add_argument("--alpha", dest="path_loss_exponent", type=float)
    vc.add_argument("--noise-dbm", dest="noise_power_dbm", type=float)
    vc.add_argument("--system-gain", type=float)
    vc.add_argument("--trials", type=int, default=1_000_000)
    vc.add_argument("--seed", type=int, default=0)
    vc.set_defaults(func=cmd_validate_channel)

    sw = sub.add_parser("sweep", parents=[run], help="grid over kappa, capacity, epsilon")
    sw.add_argument("--episodes", type=int)
    sw.add_argument("--kappa", type=float, nargs="*")
    sw.add_argument("--capacity", type=int, nargs="*")
    sw.add_argument("--epsilon", type=float, nargs="*")
    sw.add_argument("--train-steps", type=int,
                    help="train a policy per grid point with this many steps")
    sw.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InvalidInputError, WeakLineOfSightError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalFailureError, TrainingFailureError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
