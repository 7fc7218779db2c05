"""Command-line surface tests: subcommands, outputs, exit codes."""

import csv
import dataclasses
import io
import json
import math
import warnings
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from twinloop import (ChannelParams, ExperimentConfig, FleetConfig, PlantConfig,
                      PpoHyperparams, SensingAgentSpec, required_power)
from twinloop.cli import main
from tests.helpers import overflow_error_norm

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# train and evaluate share validate: a config it rejects must stop either
# command before the output directory is made
VALIDATING_COMMANDS = pytest.mark.parametrize("command", ["evaluate", "train"])
RL_FLOATS = [f.name for f in dataclasses.fields(PpoHyperparams) if f.type == "float"]
# a pinned fleet's second record, named by its position in fleet.agents
RECORD = "fleet.agents[1]"
SECTIONS = ((None, ExperimentConfig), ("plant", PlantConfig), ("fleet", FleetConfig),
            (RECORD, SensingAgentSpec), ("channel", ChannelParams), ("rl", PpoHyperparams))
# every field that settings.check checks, with its rule
DECLARED = [(section, f.name, f.metadata["rule"]) for section, cls in SECTIONS
            for f in dataclasses.fields(cls) if f.metadata["rule"].test is not None]
PINNED = [{"id": 1, "feature": 0, "variance": 6e-3, "distance": 11.5},
          {"id": 2, "feature": 1, "variance": 1e-4, "distance": 4.4}]


def dotted(section, key):
    """A field's name in messages: ``<section>.<key>``, or the key alone at
    the top level."""
    return key if section is None else f"{section}.{key}"


DECLARED_IDS = [dotted(s, k) for s, k, _ in DECLARED]


def wrong_type(rule):
    """A value of a type the rule rejects: 2.5, or "x" for a number."""
    return next(v for v in (2.5, "x") if not rule.test(v))


def out_of_range(rule, above=False):
    """A value of the rule's type just outside its range: below the lower
    bound, or -inf when that is the lowest float (an interval open at
    -inf), or with ``above`` just above a number's upper bound, inf when
    that is the largest float; a list holds it in every entry."""
    if above:
        bad = math.nextafter(rule.hi, math.inf)
    else:
        bad = rule.lo - 1 if isinstance(rule.lo, int) else math.nextafter(rule.lo, -math.inf)
    return next(v for v in ([bad], [bad, bad]) if rule.test(v)) if rule.many else bad


def target(config, section):
    """Where ``section``'s keys live in ``config``: the top level for None,
    and for ``RECORD`` the second record of a pinned fleet, written in."""
    if section is None:
        return config
    if section == RECORD:
        config["fleet"]["agents"] = [dict(record) for record in PINNED]
        return config["fleet"]["agents"][1]
    return config[section]


def rejects(section, key, value, tmp_path, capsys, command):
    """Run ``command`` on the small config with ``key`` of ``section`` (see
    ``target``) set to ``value``; return the exit code and stderr, having
    checked that nothing was written."""
    config = json.loads(small_config_file(tmp_path).read_text())
    target(config, section)[key] = value
    path = tmp_path / "declared.json"
    path.write_text(json.dumps(config))
    args = [command, "--config", str(path)]
    if key != "output_dir":            # --out would replace the value
        args += ["--out", str(tmp_path / "out")]
    code = main(args)
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert not (tmp_path / "out").exists() and not Path("train_out").exists()
    return code, captured.err


def small_config_file(tmp_path, **overrides):
    config = ExperimentConfig()
    config.mode = overrides.pop("mode", "reverb")
    config.episodes = overrides.pop("episodes", 2)
    config.master_seed = overrides.pop("master_seed", 3)
    config.fleet.count = 4
    config.capacity = 3
    config.plant.episode_cap = 30
    config.plant.process_noise_std = (0.02, 1e-3)
    config.rl.total_steps = overrides.pop("total_steps", 0)
    config.rl.batch_size = 128
    config.rl.minibatch_size = 32
    config.rl.epochs = 2
    for key, value in overrides.items():
        setattr(config, key, value)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.to_dict(), indent=2))
    return path


class TestValidateChannel:
    def test_csv_output_matches_library(self):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(["validate-channel", "--epsilon", "1e-2",
                         "--distance-m", "20", "--trials", "20000",
                         "--seed", "1"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
        assert len(rows) == 1
        params = ChannelParams(outage_epsilon=1e-2)
        assert float(rows[0]["required_power_w"]) == pytest.approx(
            required_power(20.0, params), rel=1e-12)
        assert 0.0 <= float(rows[0]["empirical_outage"]) <= 0.05

    def test_every_flag_reaches_the_params(self):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(["validate-channel", "--rician-db", "12", "--epsilon", "1e-3",
                         "--bandwidth-hz", "4e6", "--packet-bits", "2048",
                         "--latency-s", "8e-3", "--distance-m", "15",
                         "--alpha", "2.5", "--noise-dbm", "-14",
                         "--system-gain", "0.8", "--trials", "1000",
                         "--seed", "2"])
        assert code == 0
        row = next(csv.DictReader(io.StringIO(buf.getvalue())))
        params = ChannelParams(rician_factor_db=12.0, noise_power_dbm=-14.0,
                               bandwidth_hz=4e6, outage_epsilon=1e-3,
                               latency_max_s=8e-3, packet_bits=2048.0,
                               system_gain=0.8, path_loss_exponent=2.5)
        assert (row["rician_db"], row["epsilon"], row["bandwidth_hz"],
                row["packet_bits"], row["latency_s"], row["alpha"]) == (
            "12.0", "0.001", "4000000.0", "2048.0", "0.008", "2.5")
        assert float(row["required_power_w"]) == required_power(15.0, params)

    def test_weak_line_of_sight_exits_one_without_traceback(self, capsys):
        code = main(["validate-channel", "--rician-db", "3",
                     "--epsilon", "1e-5", "--trials", "10"])
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_invalid_input_exits_one_without_traceback(self, capsys):
        code = main(["validate-channel", "--distance-m", "-5",
                     "--trials", "10"])
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_negative_seed_exits_one_before_any_output(self, capsys):
        # numpy's default_rng raised ValueError with a traceback
        code = main(["validate-channel", "--seed", "-1", "--trials", "10"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err == "invalid input: seed must be nonnegative: -1\n"

    def test_overflowing_link_power_exits_one_before_any_output(self, capsys):
        # 1e200 m is finite, but d ** alpha overflows: ** raised OverflowError
        code = main(["validate-channel", "--distance-m", "1e200", "--trials", "10"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err == ("invalid input: the link power at 1e+200 m is not a "
                       "positive finite float: inf\n")


class TestEvaluate:
    def test_writes_outputs_and_returns_zero(self, tmp_path):
        config_path = small_config_file(tmp_path)
        out = tmp_path / "results"
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(["evaluate", "--config", str(config_path),
                         "--out", str(out)])
        assert code == 0
        assert (out / "episodes.csv").exists()
        assert (out / "summary.json").exists()
        line = json.loads(buf.getvalue().splitlines()[-1])
        assert line["episodes"] == 2

    def test_flag_overrides_mode(self, tmp_path):
        config_path = small_config_file(tmp_path)
        out = tmp_path / "results"
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(["evaluate", "--config", str(config_path),
                         "--mode", "perfect", "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["mode"] == "perfect"
        assert summary["aggregate"]["mrmse"]["mean"] == 0.0

    def test_missing_config_exits_one(self, capsys):
        assert main(["evaluate", "--config", "/no/such/file.json"]) == 1

    def test_invalid_config_exits_one(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"mode": "bogus"}))
        assert main(["evaluate", "--config", str(path)]) == 1

    @pytest.mark.parametrize("flag, content, message", [
        ("--policy", b"not json", "invalid input: checkpoint is not valid JSON: "),
        ("--policy", b'{"obs_dim": "\xff"}', "invalid input: checkpoint is not valid JSON: "),
        ("--config", b"not json", "configuration error: config is not valid JSON: "),
        ("--config", b'{"mode": "\xff"}', "configuration error: config is not valid JSON: "),
        ("--policy", b"[" * 100_000, "invalid input: checkpoint is not valid JSON: "),
        ("--config", b"[" * 100_000, "configuration error: config is not valid JSON: "),
    ], ids=["policy-not-json", "policy-not-utf8", "config-not-json", "config-not-utf8",
            "policy-too-deep", "config-too-deep"])
    def test_undecodable_file_exits_one_with_one_line(self, tmp_path, capsys, flag,
                                                      content, message):
        # a checkpoint that is not JSON, and either file that is not UTF-8
        # or nests past the recursion limit, ended in a JSONDecodeError,
        # UnicodeDecodeError or RecursionError traceback
        path = tmp_path / "undecodable.json"
        path.write_bytes(content)
        files = {"--config": str(small_config_file(tmp_path)), flag: str(path)}
        out = tmp_path / "out"
        code = main(["evaluate", *[a for item in files.items() for a in item],
                     "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith(message) and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert not out.exists()

    def test_non_finite_error_norm_exits_two_with_valid_json(self, tmp_path, capsys,
                                                             monkeypatch):
        # the overflowing episode once reached the aggregate, and the
        # headline read "mean_mrmse": Infinity
        overflow_error_norm(monkeypatch, episode=0, qi=2)
        assert main(["evaluate", "--config", str(small_config_file(tmp_path))]) == 2
        out, err = capsys.readouterr()
        line = json.loads(out, parse_constant=lambda c: pytest.fail(f"{c} in {out}"))
        assert line["episodes"] == 1 and math.isfinite(line["mean_mrmse"])
        assert err == ("episode failures: {0: 'NumericalFailureError: non-finite "
                       "estimation error norm (QI 2)'}\n")

    def test_prior_ratio_that_overflows_is_written_as_inf(self, tmp_path, capsys):
        # caps at the smallest the rules accept and a process noise std of
        # 10: at QI 2 the prior variance over the cap passes the largest
        # float. The run succeeded, so its trace reads inf there; numpy's
        # overflow warning once escaped it as an untyped exception
        config = json.loads((PERFBENCH / "acceptance.json").read_text())
        config.update(variance_caps=[2.3e-308, 2.3e-308], episodes=1)
        config["plant"]["process_noise_std"] = [10, 10]
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(config))
        with warnings.catch_warnings():
            warnings.simplefilter("error")          # as python -W error runs it
            code = main(["evaluate", "--config", str(path), "--mode", "cost_greedy",
                         "--out", str(tmp_path / "out")])
        out, err = capsys.readouterr()
        assert code == 0 and err == "" and json.loads(out)["episodes"] == 1
        with open(tmp_path / "out" / "trace_0.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[1]["qi"] == "2" and rows[1]["prior_ratio_pos"] == "inf"

    def test_overflowing_hinge_at_accuracy_weight_one(self, tmp_path, capsys):
        # as above with nothing read, so the posterior is the prior and the
        # hinge is inf at QI 2; at accuracy_weight 1 it weighs 0, and
        # 0 * inf once escaped as numpy's invalid-value warning
        config = json.loads((PERFBENCH / "acceptance.json").read_text())
        config.update(variance_caps=[2.3e-308, 2.3e-308], capacity=0,
                      accuracy_weight=1.0, mode="cost_greedy", episodes=1)
        config["plant"]["process_noise_std"] = [10, 10]
        path = tmp_path / "hinge.json"
        path.write_text(json.dumps(config))
        with warnings.catch_warnings():
            warnings.simplefilter("error")          # as python -W error runs it
            code = main(["evaluate", "--config", str(path), "--out", str(tmp_path / "out")])
        out, err = capsys.readouterr()
        assert code == 0 and err == "" and json.loads(out)["episodes"] == 1
        with open(tmp_path / "out" / "trace_0.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[1]["qi"] == "2" and rows[1]["prior_ratio_pos"] == "inf"
        assert [float(r["weighted_objective"]) for r in rows] == \
            [float(r["power_w"]) for r in rows]

    def test_workers_variable_is_not_read(self, tmp_path, capsys, monkeypatch):
        # the package reads no environment variable: a worker count that
        # is not even a number changes nothing
        args = ["evaluate", "--config", str(small_config_file(tmp_path))]
        assert main(args) == 0
        expected = capsys.readouterr()
        monkeypatch.setenv("TWINLOOP_WORKERS", "abc")
        assert main(args) == 0
        assert capsys.readouterr() == expected

    def test_nan_variance_cap_exits_one_with_one_line(self, tmp_path, capsys):
        # json.dumps writes NaN, which json.load reads back
        path = small_config_file(tmp_path, variance_caps=[float("nan"), 0.001])
        assert "NaN" in path.read_text()
        code = main(["evaluate", "--config", str(path), "--out",
                     str(tmp_path / "results")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("configuration error: variance_caps must hold values in")
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "results").exists()


class TestPinnedFleetRecords:
    @pytest.mark.parametrize("record, prefix", [
        ({"id": 2, "feature": 5, "variance": 1e-4, "distance": 4.4}, "invalid input:"),
        ({"id": 2, "feature": -1, "variance": 1e-4, "distance": 4.4},
         "configuration error: fleet.agents[1].feature must be >= 0: -1\n"),
        # a missing key, an unknown key, and a record that is not an object
        ({"id": 2, "feature": 1, "distance": 4.4},
         "configuration error: bad fleet.agents[1]: "),
        ({"id": 2, "feature": 1, "variance": 1e-4, "distance": 4.4, "colour": "red"},
         "configuration error: bad fleet.agents[1]: "),
        ([2, 1, 1e-4, 4.4], "configuration error: bad fleet.agents[1]: "),
        (5, "configuration error: bad fleet.agents[1]: "),
    ], ids=["feature-past-the-state", "negative-feature", "missing-key", "unknown-key",
            "list-record", "number-record"])
    @VALIDATING_COMMANDS
    def test_bad_record_exits_one_with_one_line(self, tmp_path, capsys,
                                                record, prefix, command):
        self.assert_rejected(tmp_path, capsys, record, prefix, command)

    @pytest.mark.parametrize("record, prefix", [
        # an id or feature that int() would truncate
        ({"id": 2, "feature": 1.7, "variance": 1e-4, "distance": 4.4},
         "configuration error:"),
        ({"id": 2.9, "feature": 1, "variance": 1e-4, "distance": 4.4},
         "configuration error:"),
        ({"id": 2, "feature": True, "variance": 1e-4, "distance": 4.4},
         "configuration error:"),
        ({"id": True, "feature": 1, "variance": 1e-4, "distance": 4.4},
         "configuration error:"),
        # written by json.dumps as Infinity, which json.loads reads back
        ({"id": 2, "feature": 1, "variance": float("inf"), "distance": 4.4},
         "configuration error: fleet.agents[1].variance must lie in (0, inf): inf\n"),
        ({"id": 2, "feature": 1, "variance": 1e-4, "distance": float("inf")},
         "configuration error: fleet.agents[1].distance must lie in (0, inf): inf\n"),
        # no agent left for the velocity: rejected before any episode runs
        ({"id": 2, "feature": 0, "variance": 1e-4, "distance": 4.4},
         "configuration error:"),
        # finite, yet d ** alpha overflows: the link power is checked by
        # validate, not first by TwinLoop after train has made --out
        ({"id": 2, "feature": 1, "variance": 1e-4, "distance": 1e200},
         "invalid input: the link power at 1e+200 m"),
    ], ids=["fractional-feature", "fractional-id", "bool-feature", "bool-id",
            "infinite-variance", "infinite-distance", "uncovered-feature",
            "overflowing-link-power"])
    @VALIDATING_COMMANDS
    def test_record_that_would_run_wrongly_exits_one_with_one_line(
            self, tmp_path, capsys, record, prefix, command):
        self.assert_rejected(tmp_path, capsys, record, prefix, command)

    @pytest.mark.parametrize("edit", [
        lambda c: c["fleet"]["agents"][2].update(variance=True),
        lambda c: c["fleet"]["agents"][2].update(distance="16.2"),
        lambda c: c["fleet"]["agents"][2].update(colour="red"),
        lambda c: c.update(variance_caps=[True, 0.001]),
        lambda c: c.update(variance_caps=["0.01", 0.001]),
    ], ids=["bool-variance", "string-distance", "unknown-key", "bool-cap", "string-cap"])
    @VALIDATING_COMMANDS
    def test_value_that_ran_exits_one_with_one_line(self, tmp_path, capsys, edit,
                                                     command):
        # each ran with exit 0 on the acceptance config: the bool as 1.0,
        # the string through float(), the unknown key unread
        config = json.loads((PERFBENCH / "acceptance.json").read_text())
        config["episodes"], config["rl"]["total_steps"] = 1, 0
        edit(config)
        path = tmp_path / "probe.json"
        path.write_text(json.dumps(config))
        code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1 and err.count("\n") == 1
        assert err.startswith(("configuration error: fleet.agents[2]",
                               "configuration error: bad fleet.agents[2]: ",
                               "configuration error: variance_caps must be a "))
        assert not (tmp_path / "out").exists()

    @staticmethod
    def assert_rejected(tmp_path, capsys, record, prefix, command):
        config = json.loads(small_config_file(tmp_path).read_text())
        config["fleet"]["agents"] = [
            {"id": 1, "feature": 0, "variance": 6e-3, "distance": 11.5}, record]
        path = tmp_path / "pinned.json"
        path.write_text(json.dumps(config))
        code = main([command, "--config", str(path), "--mode", "cost_greedy",
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(prefix) and err.count("\n") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("variances", [[1e-320], [1e-308, 1e-308]],
                             ids=["one-agent", "summed"])
    @VALIDATING_COMMANDS
    def test_fleet_whose_precision_overflows_exits_one_with_one_line(
            self, tmp_path, capsys, variances, command):
        # 1/r overflows for one agent, or the 1/r of two agents of one
        # feature sum past the largest float: no fusion could stay finite
        config = json.loads(small_config_file(tmp_path).read_text())
        config["fleet"]["agents"] = [
            {"id": 1, "feature": 0, "variance": 6e-3, "distance": 11.5},
            *({"id": 2 + i, "feature": 1, "variance": v, "distance": 4.4}
              for i, v in enumerate(variances))]
        path = tmp_path / "pinned.json"
        path.write_text(json.dumps(config))
        code = main([command, "--config", str(path), "--mode", "cost_greedy",
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err == ("invalid input: the fleet's summed noise precision "
                       "1/variance of a feature overflows a float\n")
        assert not (tmp_path / "out").exists()


class TestFieldTypes:
    @pytest.mark.parametrize("section, key, rule", DECLARED, ids=DECLARED_IDS)
    @VALIDATING_COMMANDS
    def test_every_declared_field_rejects_a_wrong_type(
            self, tmp_path, capsys, monkeypatch, section, key, rule, command):
        # generated from the rules, so a new field cannot go unchecked
        monkeypatch.chdir(tmp_path)
        value = wrong_type(rule)
        code, err = rejects(section, key, value, tmp_path, capsys, command)
        name = dotted(section, key)
        assert code == 1 and err.count("\n") == 1
        assert err.startswith(f"configuration error: {name} must be ")
        assert err.endswith(f": {value!r}\n")

    @pytest.mark.parametrize("section, key, value", [
        (None, "master_seed", 3.5),
        (None, "episodes", 1.5),
        (None, "episodes", "2"),
        (None, "capacity", 2.5),
        (None, "capacity", True),
        (None, "traditional_count", 1.5),
        ("plant", "episode_cap", 30.5),
        ("fleet", "count", 10.5),
        ("fleet", "seed", 7.5),
        ("rl", "epochs", 2.5),
        ("rl", "batch_size", 128.5),
        ("rl", "minibatch_size", 32.5),
        ("rl", "total_steps", 100.5),
    ])
    @VALIDATING_COMMANDS
    def test_value_that_is_not_an_integer_exits_one_with_one_line(
            self, tmp_path, capsys, section, key, value, command):
        # not truncated by int(), and no traceback from range() or a seed
        config = json.loads(small_config_file(tmp_path, mode="traditional").read_text())
        (config if section is None else config[section])[key] = value
        path = tmp_path / "fractional.json"
        path.write_text(json.dumps(config))
        code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("configuration error:") and err.count("\n") == 1
        assert f"{key} must be an integer" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, key, value", [
        # SeedSequence raised a ValueError traceback for a generated fleet
        ("fleet", "seed", -1),
        # export_traces raised a TypeError traceback after every episode ran
        (None, "output_dir", 5),
    ])
    @VALIDATING_COMMANDS
    def test_setting_that_was_a_traceback_exits_one_with_one_line(
            self, tmp_path, capsys, monkeypatch, section, key, value, command):
        monkeypatch.chdir(tmp_path)
        code, err = rejects(section, key, value, tmp_path, capsys, command)
        name = dotted(section, key)
        assert code == 1 and err.count("\n") == 1
        assert err.startswith(f"configuration error: {name} must ")


class TestConfigRanges:
    @pytest.mark.parametrize("section, key, value, message", [
        (None, "master_seed", -1, "master_seed must be >= 0"),
        ("rl", "batch_size", 0, "rl.batch_size must be >= 1"),
        ("rl", "minibatch_size", 0, "rl.minibatch_size must be >= 1"),
        ("rl", "epochs", 0, "rl.epochs must be >= 1"),
        ("rl", "epochs", -1, "rl.epochs must be >= 1"),
        ("rl", "hidden_sizes", [64.5, 64],
         "configuration error: rl.hidden_sizes must be a list of integers: [64.5, 64]"),
        ("rl", "hidden_sizes", [True, 64],
         "configuration error: rl.hidden_sizes must be a list of integers: [True, 64]"),
        ("rl", "hidden_sizes", [0, 64],
         "configuration error: rl.hidden_sizes must hold values >= 1: [0, 64]"),
        # kappa < 0 would fail every episode in shape_reward, and
        # eta_max < 0 would clamp every accuracy request below zero
        ("rl", "reward_weight", -1, "rl.reward_weight must lie in [0, 1e6]"),
        ("rl", "reward_weight", float("nan"), "rl.reward_weight must lie in [0, 1e6]"),
        ("rl", "eta_max", -5, "rl.eta_max must lie in [0, 1e6]"),
        ("rl", "eta_max", float("inf"), "rl.eta_max must lie in [0, 1e6]"),
        # below 0 would turn gradient clipping off unasked
        ("rl", "max_grad_norm", -1, "rl.max_grad_norm must lie in [0, inf)"),
        ("rl", "cost_mode", "foo",
         "configuration error: rl.cost_mode must be one of ['penalty', 'paper_eq24']: 'foo'"),
        # "no" is truthy: it would train with normalization on
        ("rl", "normalize_observations", "no",
         "configuration error: rl.normalize_observations must be true or false: 'no'"),
        ("rl", "normalize_advantages", 0,
         "configuration error: rl.normalize_advantages must be true or false: 0"),
        # a cap of 0 would still run one-QI episodes
        ("plant", "episode_cap", 0, "plant.episode_cap must be >= 1"),
        # a float field holding a string or a bool: checked before any
        # arithmetic, so no TypeError or ValueError traceback, and no
        # training run that fails part way
        (None, "accuracy_weight", "0.5",
         "configuration error: accuracy_weight must be a number: '0.5'"),
        (None, "accuracy_weight", True,
         "configuration error: accuracy_weight must be a number: True"),
        ("fleet", "max_distance_m", "20",
         "configuration error: fleet.max_distance_m must be a number: '20'"),
        ("rl", "termination_bonus", "x",
         "configuration error: rl.termination_bonus must be a number: 'x'"),
        ("rl", "actor_lr", "1e-3",
         "configuration error: rl.actor_lr must be a number: '1e-3'"),
        ("rl", "max_grad_norm", "0.5",
         "configuration error: rl.max_grad_norm must be a number: '0.5'"),
        # named by the field, not by the comparison that a string fails
        ("rl", "discount", "0.9",
         "configuration error: rl.discount must be a number: '0.9'"),
        ("rl", "clip_ratio", None,
         "configuration error: rl.clip_ratio must be a number: None"),
        ("rl", "discount", 1.0, "configuration error: rl.discount must lie in (0, 1): 1.0"),
        ("rl", "clip_ratio", 0.0,
         "configuration error: rl.clip_ratio must lie in (0, inf): 0.0"),
        # finite, yet exp(logstd) or the entropy bonus would overflow and end
        # training with exit 2 after the output directory was made
        ("rl", "entropy_coef", 1e308,
         "configuration error: rl.entropy_coef must lie in [-1e6, 1e6]: 1e+308"),
        ("rl", "entropy_coef", -1e308, "rl.entropy_coef must lie in"),
        ("rl", "initial_logstd", 800.0,
         "configuration error: rl.initial_logstd must lie in [-20, 20]: 800.0"),
        ("rl", "initial_logstd", -800.0, "rl.initial_logstd must lie in"),
        ("rl", "min_logstd", 800.0, "rl.min_logstd must lie in [-20, 20]"),
        ("channel", "packet_bits", True,
         "configuration error: channel.packet_bits must be a number: True"),
        # the channel section is checked when the config is read; json.dumps
        # writes inf as Infinity, which json.loads reads back
        ("channel", "rician_factor_db", float("inf"),
         "configuration error: channel.rician_factor_db must lie in (-inf, 60]: inf"),
        # y_q's cost grows with sqrt(G): 6 s at 90 dB, and past 120 dB
        # arrays of hundreds of megabytes before any episode ran
        ("channel", "rician_factor_db", 90.0,
         "configuration error: channel.rician_factor_db must lie in (-inf, 60]: 90.0"),
        ("channel", "latency_max_s", float("inf"),
         "configuration error: channel.latency_max_s must lie in (0, inf): inf"),
        ("channel", "packet_bits", float("inf"),
         "configuration error: channel.packet_bits must lie in (0, inf): inf"),
        ("channel", "outage_epsilon", 0.7,
         "configuration error: channel.outage_epsilon must lie in (0, 0.5): 0.7"),
        ("channel", "bandwidth_hz", "5e6",
         "configuration error: channel.bandwidth_hz must be a number: '5e6'"),
        ("channel", "bandwidth_hz", True,
         "configuration error: channel.bandwidth_hz must be a number: True"),
        ("channel", "rician_factor_db", 3.0,
         "invalid input: sqrt(2G) must exceed Qinv(epsilon)"),
        # finite, yet the rate demand 2 ** (D / (tau W)) or the noise power
        # over the band leaves a float's range: 2 ** x raises, D / (tau W)
        # gives inf, tau W gives 0.0, the demand or the noise rounds to 0.0
        ("channel", "packet_bits", 1e8,
         "invalid input: channel values overflow or underflow a float"),
        ("channel", "latency_max_s", 5e-324,
         "invalid input: channel values overflow or underflow a float"),
        ("channel", None, {"latency_max_s": 1e-200, "bandwidth_hz": 1e-200},
         "invalid input: channel values overflow or underflow a float"),
        ("channel", "packet_bits", 1e-300,
         "invalid input: channel values overflow or underflow a float"),
        ("channel", "noise_power_dbm", -4000.0,
         "invalid input: channel values overflow or underflow a float"),
        # every rl float must be finite: a NaN learning rate would fail the
        # first PPO update with exit 2, after the output directory was made
        *[("rl", key, value, key) for key in RL_FLOATS
          for value in (float("nan"), float("inf"), -float("inf"))],
        # finite, yet the PPO loss turned non-finite in the first batches
        ("rl", "actor_lr", 1e308,
         "configuration error: rl.actor_lr must lie in [0, 1]: 1e+308"),
        ("rl", "actor_lr", -1e308, "rl.actor_lr must lie in [0, 1]"),
        ("rl", "actor_lr", 100.0, "rl.actor_lr must lie in [0, 1]"),
        ("rl", "critic_lr", 1e308, "rl.critic_lr must lie in [0, 1]"),
        ("rl", "critic_lr", -1e308, "rl.critic_lr must lie in [0, 1]"),
        ("rl", "reward_weight", 1e308,
         "configuration error: rl.reward_weight must lie in [0, 1e6]: 1e+308"),
        ("rl", "eta_max", 1e308, "rl.eta_max must lie in [0, 1e6]"),
        ("rl", "gae_lambda", 1e308,
         "configuration error: rl.gae_lambda must lie in [0, 1]: 1e+308"),
        ("rl", "gae_lambda", -1e308, "rl.gae_lambda must lie in [0, 1]"),
        # with the reward weight and eta_max at 1e6 the value loss grew past
        # a float, and train ended with exit 2 after --out was made
        ("rl", None, {"value_coef": 1e300, "reward_weight": 1e6, "eta_max": 1e6,
                      "critic_lr": 1.0, "cost_mode": "paper_eq24"},
         "configuration error: rl.value_coef must lie in [0, 1e6]: 1e+300"),
        ("rl", "value_coef", -1.0, "rl.value_coef must lie in [0, 1e6]"),
        # a subnormal cap: variance / cap overflowed with a numpy warning
        (None, "variance_caps", [1e-320, 1e-3],
         "configuration error: variance_caps must hold values in "
         "[2.2250738585072014e-308, inf): [1e-320, 0.001]"),
        # the plant's process covariance squares it: ** raised OverflowError
        ("plant", "process_noise_std", [1e200, 1],
         "configuration error: plant.process_noise_std must hold values in [0, 1e154]: "
         "[1e+200, 1]"),
        # a square that is a float, yet past the rule's bound
        ("plant", "process_noise_std", [1.2e154, 1e-3],
         "configuration error: plant.process_noise_std must hold values in [0, 1e154]: "
         "[1.2e+154, 0.001]"),
        # a generated agent's d ** alpha overflows: ** raised OverflowError
        # in TwinLoop, after train had made --out
        ("fleet", "max_distance_m", 1e300, "invalid input: the link power at"),
        # the plant's noise: a ValueError or TypeError traceback for a wrong
        # count or a string, and an infinite std (1e400 in the file) ran
        # until every episode failed at QI 2, after the outputs were written
        *[("plant", "process_noise_std", value,
           "configuration error: plant.process_noise_std must be a list of 2 numbers")
          for value in ([0.001], [0.001, 0.001, 0.001], ["a", 1], 5)],
        *[("plant", "process_noise_std", value,
           "configuration error: plant.process_noise_std must hold values in [0, 1e154]")
          for value in ([float("inf"), 0.001], [0.001, float("nan")], [-0.1, 0.001])],
        # a generated fleet's noise levels: a TypeError or OverflowError
        # traceback
        *[("fleet", key, value,
           f"configuration error: fleet.{key} must be a non-empty list of numbers")
          for key, value in (("position_noise_levels", ["a"]),
                             ("position_noise_levels", 5),
                             ("velocity_noise_levels", []))],
        *[("fleet", key, value,
           f"configuration error: fleet.{key} must hold values in (0, inf)")
          for key, value in (("position_noise_levels", [float("nan"), 1e-3]),
                             ("position_noise_levels", [1e-3, float("inf")]),
                             ("velocity_noise_levels", [0.0, 1e-3]))],
        # accepted before: no training at all with exit 0, a negative count,
        # and a distance rejected only when some agent's draw landed <= 0,
        # by a message that named no field
        ("rl", "total_steps", -5, "configuration error: rl.total_steps must be >= 0: -5"),
        (None, "traditional_count", -3,
         "configuration error: traditional_count must be >= 0: -3"),
        ("fleet", "min_distance_m", -5.0,
         "configuration error: fleet.min_distance_m must lie in [0, inf): -5.0"),
        ("plant", "name", "pendulum",
         "configuration error: plant.name must be one of ['mountain_car', 'linear_2d']"),
        (None, "mode", "bogus", "configuration error: mode must be one of ['reverb', "),
    ])
    @VALIDATING_COMMANDS
    def test_value_out_of_range_exits_one_with_one_line(
            self, tmp_path, capsys, section, key, value, message, command):
        # rejected by validate, which train and evaluate share: no traceback
        # from SeedSequence, a zero division or range(), no training run
        # without an update, and no truncated layer size
        config = json.loads(small_config_file(tmp_path).read_text())
        target = config if section is None else config[section]
        target.update({key: value} if key is not None else value)
        path = tmp_path / "range.json"
        path.write_text(json.dumps(config))
        code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(("configuration error:", "invalid input:"))
        assert err.count("\n") == 1 and message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, key, rule", [d for d in DECLARED if d[2].bounds],
                             ids=[i for i, d in zip(DECLARED_IDS, DECLARED) if d[2].bounds])
    @VALIDATING_COMMANDS
    def test_every_declared_range_rejects_a_value_outside_it(
            self, tmp_path, capsys, monkeypatch, section, key, rule, command):
        # generated from the rules: the value just past the lower bound
        monkeypatch.chdir(tmp_path)
        value = out_of_range(rule)
        code, err = rejects(section, key, value, tmp_path, capsys, command)
        name = dotted(section, key)
        assert code == 1
        assert err == f"configuration error: {name} must {rule.bounds}: {value!r}\n"

    @pytest.mark.parametrize("section, key, rule",
                             [d for d in DECLARED if d[2].hi < math.inf],
                             ids=[i for i, d in zip(DECLARED_IDS, DECLARED)
                                  if d[2].hi < math.inf])
    @VALIDATING_COMMANDS
    def test_every_declared_number_range_rejects_a_value_above_it(
            self, tmp_path, capsys, monkeypatch, section, key, rule, command):
        # generated from the rules: the value just past the upper bound, inf
        # where that bound is the largest float
        monkeypatch.chdir(tmp_path)
        value = out_of_range(rule, above=True)
        code, err = rejects(section, key, value, tmp_path, capsys, command)
        name = dotted(section, key)
        assert code == 1
        assert err == f"configuration error: {name} must {rule.bounds}: {value!r}\n"

    @pytest.mark.parametrize("sizes, message", [
        ([64.5, 64], "checkpoint hyper.hidden_sizes must be a list of integers"),
        ([64, 0], "checkpoint hyper.hidden_sizes must hold values >= 1"),
        ([64, 64], None),           # the committed checkpoint, as it is
    ])
    def test_checkpoint_layer_sizes_are_parsed(self, tmp_path, capsys, sizes, message):
        checkpoint = json.loads((PERFBENCH / "reverb_policy.json").read_text())
        checkpoint["hyper"]["hidden_sizes"] = sizes
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(checkpoint))
        with redirect_stdout(io.StringIO()):
            code = main(["evaluate", "--config", str(small_config_file(tmp_path)),
                         "--policy", str(path), "--episodes", "1"])
        err = capsys.readouterr().err
        if message is None:
            assert code == 0 and err == ""
        else:
            assert code == 1 and err.startswith(f"configuration error: {message}")
            assert err.count("\n") == 1


def _set(path, value):
    """A checkpoint edit: set the field at ``path`` (keys and indices)."""
    def edit(checkpoint):
        *head, last = path
        for key in head:
            checkpoint = checkpoint[key]
        checkpoint[last] = value(checkpoint[last]) if callable(value) else value
    return edit


def _delete(path):
    """A checkpoint edit: delete the field at ``path``."""
    def edit(checkpoint):
        *head, last = path
        for key in head:
            checkpoint = checkpoint[key]
        del checkpoint[last]
    return edit


class TestCheckpointChecks:
    # each was a traceback, warnings before a clipped run, a silent
    # acceptance or a failure of every episode with exit 2
    @pytest.mark.parametrize("edit, message", [
        (_set(["actor", "weights", 0], lambda w: w[:-1]),
         "checkpoint actor.weights[0] must have shape (4, 64)"),
        (_set(["actor", "weights", 1, 5], lambda row: row[:-1]),   # ragged
         "checkpoint actor.weights[1] must have shape (64, 64)"),
        (_set(["critic", "biases", 2], [0.0, 0.0]),
         "checkpoint critic.biases[2] must have shape (1,)"),
        (_set(["actor", "sizes"], [4, 64, 3]),
         "checkpoint actor must have sizes [4, 64, 64, 3], with a weight and a bias"),
        (_set(["critic", "sizes"], [4, 64, 64, 3]),
         "checkpoint critic must have sizes [4, 64, 64, 1], with a weight and a bias"),
        (_set(["actor", "biases"], lambda b: b[:2]),
         "checkpoint actor must have sizes [4, 64, 64, 3], with a weight and a bias"),
        (_set(["actor", "weights", 2, 0, 1], float("nan")),
         "checkpoint actor.weights[2] must be finite"),
        (_set(["critic", "biases", 0, 3], float("inf")),
         "checkpoint critic.biases[0] must be finite"),
        (_set(["logstd"], [0.0]), "checkpoint logstd must have shape (3,)"),
        (_set(["logstd", 1], float("-inf")), "checkpoint logstd must be finite"),
        (_set(["normalizer", "var", 0], -1e-8), "checkpoint normalizer.var must be >= 0"),
        (_set(["normalizer", "var", 2], float("nan")),
         "checkpoint normalizer.var must be finite"),
        (_set(["normalizer", "var"], lambda v: v[:3]),
         "checkpoint normalizer.var must have shape (4,)"),
        (_set(["normalizer", "mean"], lambda m: m + [0.0]),
         "checkpoint normalizer.mean must have shape (4,)"),
        (_set(["normalizer", "mean", 0], float("inf")),
         "checkpoint normalizer.mean must be finite"),
        (_set(["normalizer", "count"], -1.0), "checkpoint normalizer.count must be >= 0"),
        (_set(["normalizer", "count"], float("inf")),
         "checkpoint normalizer.count must be finite"),
        # a KeyError or TypeError traceback, checked before anything is built
        (_delete(["logstd"]), "checkpoint logstd is missing"),
        (_delete(["normalizer", "var"]), "checkpoint normalizer.var is missing"),
        (_delete(["actor", "weights"]), "checkpoint actor.weights is missing"),
        (_set(["normalizer"], 5), "checkpoint normalizer.mean is missing"),
        (_set(["obs_dim"], "4"), "checkpoint obs_dim must be an integer >= 1: '4'"),
        (_set(["action_dim"], 0), "checkpoint action_dim must be an integer >= 1: 0"),
        (_set(["hyper", "bogus"], 1), "checkpoint hyper is malformed"),
    ])
    def test_bad_checkpoint_exits_one_before_any_episode(self, tmp_path, capsys,
                                                         edit, message):
        checkpoint = json.loads((PERFBENCH / "reverb_policy.json").read_text())
        edit(checkpoint)
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(checkpoint))
        out = tmp_path / "out"
        code = main(["evaluate", "--config", str(small_config_file(tmp_path)),
                     "--policy", str(path), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith(f"invalid input: {message}")
        assert captured.err.count("\n") == 1
        assert not out.exists()


    @pytest.mark.parametrize("key, value, message", [
        ("discount", 7.0, "must lie in (0, 1): 7.0"),
        ("eta_max", float("nan"), "must lie in [0, 1e6]: nan"),
        ("epochs", "ten", "must be an integer: 'ten'"),
        ("normalize_observations", "no", "must be true or false: 'no'"),
        ("cost_mode", "foo", "must be one of ['penalty', 'paper_eq24']: 'foo'"),
    ])
    def test_bad_hyper_value_exits_one_before_any_episode(self, tmp_path, capsys,
                                                          key, value, message):
        # each loaded silently before: the hyperparameters a checkpoint
        # carries are checked by the rules of the config's rl section
        checkpoint = json.loads((PERFBENCH / "reverb_policy.json").read_text())
        checkpoint["hyper"][key] = value
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(checkpoint))
        out = tmp_path / "out"
        code = main(["evaluate", "--config", str(small_config_file(tmp_path)),
                     "--policy", str(path), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"configuration error: checkpoint hyper.{key} {message}\n"
        assert not out.exists()

    def test_huge_dimension_is_rejected_before_any_network_is_built(
            self, tmp_path, capsys, monkeypatch):
        # a fresh network of this size was built first: a 477 GiB allocation
        from twinloop import agent

        def must_not_build(*args):
            raise AssertionError("a network was built before the checks")

        monkeypatch.setattr(agent, "_orthogonal", must_not_build)
        checkpoint = json.loads((PERFBENCH / "reverb_policy.json").read_text())
        checkpoint["obs_dim"] = 1_000_000_000
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(checkpoint))
        code = main(["evaluate", "--config", str(small_config_file(tmp_path)),
                     "--policy", str(path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == ("invalid input: checkpoint actor must have sizes "
                                "[1000000000, 64, 64, 3], with a weight and a bias "
                                "per layer\n")


class TestOneCheckPerRun:
    @pytest.fixture
    def counts(self, monkeypatch):
        from twinloop import ExperimentConfig, TwinLoop

        counts = {"loops": 0, "validates": 0}
        init, validate = TwinLoop.__init__, ExperimentConfig.validate

        def counting_init(self, *args, **kwargs):
            counts["loops"] += 1
            init(self, *args, **kwargs)

        def counting_validate(self):
            counts["validates"] += 1
            return validate(self)

        monkeypatch.setattr(TwinLoop, "__init__", counting_init)
        monkeypatch.setattr(ExperimentConfig, "validate", counting_validate)
        return counts

    @pytest.mark.parametrize("with_policy", [False, True])
    def test_evaluate_builds_two_loops_and_validates_once(
            self, tmp_path, counts, with_policy):
        # one check after the flags, which builds a loop, and the one loop of
        # run_monte_carlo, whose build checks the config again and which
        # runs the episodes and sizes a fresh policy
        args = ["evaluate", "--config", str(small_config_file(tmp_path))]
        if with_policy:
            args += ["--policy", str(PERFBENCH / "reverb_policy.json")]
        with redirect_stdout(io.StringIO()):
            assert main(args) == 0
        assert counts == {"loops": 2, "validates": 1}

    def test_sweep_validates_each_point_once(self, tmp_path, counts):
        # the checked flags, then per point run_monte_carlo's one loop,
        # whose build is the point's check
        with redirect_stdout(io.StringIO()):
            assert main(["sweep", "--config", str(small_config_file(tmp_path, episodes=1)),
                         "--out", str(tmp_path / "sweep"), "--capacity", "1", "3"]) == 0
        assert counts == {"loops": 3, "validates": 1}

    def test_train_builds_two_loops_and_validates_once(self, tmp_path, counts):
        with redirect_stdout(io.StringIO()):
            assert main(["train", "--config", str(small_config_file(tmp_path)),
                         "--steps", "0", "--out", str(tmp_path / "out")]) == 0
        assert counts == {"loops": 2, "validates": 1}

    def test_flags_apply_before_the_check(self, tmp_path):
        # the file's mode alone is rejected; the flag replaces it first
        config = json.loads(small_config_file(tmp_path).read_text())
        config["mode"] = "bogus"
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps(config))
        assert main(["evaluate", "--config", str(path)]) == 1
        with redirect_stdout(io.StringIO()):
            assert main(["evaluate", "--config", str(path), "--mode", "reverb"]) == 0

    def test_sweep_rejects_a_point_before_training_it(self, tmp_path, capsys,
                                                     monkeypatch):
        from twinloop import agent

        def must_not_train(*args, **kwargs):
            raise AssertionError("trained a point that fails the check")

        # train builds its policy only after its loop has checked the point
        monkeypatch.setattr(agent.PolicyNetwork, "__init__", must_not_train)
        code = main(["sweep", "--config", str(small_config_file(tmp_path, episodes=1)),
                     "--out", str(tmp_path / "sweep"), "--train-steps", "256",
                     "--kappa", "-1"])
        err = capsys.readouterr().err
        assert code == 1
        assert err == ("configuration error: rl.reward_weight must lie in "
                       "[0, 1e6]: -1.0\n")


class TestNumericalFailure:
    def test_failure_in_the_schedulers_carries_its_qi(self, tmp_path, capsys):
        # the linear plant does not mix its velocity into anything and has
        # no velocity noise here, so after agent 2's reading of variance
        # 1e-308 (finite precision 1e308) the prior velocity variance is
        # 1e-308 too, and the next rank-1 step's innovation 2e-308 is below
        # the smallest normal float: the guard TINY <= s fails at QI 2
        config = {"episodes": 2, "capacity": 4, "variance_caps": [0.01, 0.001],
                  "plant": {"name": "linear_2d", "process_noise_std": [0.02, 0.0],
                            "episode_cap": 30},
                  "fleet": {"agents": [
                      {"id": 1, "feature": 0, "variance": 6e-3, "distance": 11.5},
                      {"id": 2, "feature": 1, "variance": 1e-308, "distance": 4.4}]}}
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(config))
        for mode in ("cost_greedy", "error_greedy"):
            with redirect_stdout(io.StringIO()):
                code = main(["evaluate", "--config", str(path), "--mode", mode])
            err = capsys.readouterr().err
            assert code == 2
            assert err.count("NumericalFailureError: ill-conditioned innovation "
                             "covariance (QI 2)") == 2

    def test_a_greedy_fleet_the_batch_guard_refused_now_runs(self, tmp_path, capsys):
        # agents 6 and 7 read velocity with noise 1e-14 and agent 2 position
        # with 50: the stacked innovation covariance exceeds the batch
        # guard's condition limit, but the rank-1 steps need no solve
        # (tests/test_baselines.py holds their posteriors to exact arithmetic)
        config = json.loads((PERFBENCH / "acceptance.json").read_text())
        config["episodes"] = 2
        for record in config["fleet"]["agents"]:
            record["variance"] = {6: 1e-14, 7: 1e-14, 2: 50.0}.get(
                record["id"], record["variance"])
        path = tmp_path / "ill.json"
        path.write_text(json.dumps(config))
        with redirect_stdout(io.StringIO()):
            code = main(["evaluate", "--config", str(path), "--mode", "cost_greedy",
                         "--out", str(tmp_path / "out")])
        assert code == 0 and capsys.readouterr().err == ""
        assert (tmp_path / "out" / "episodes.csv").exists()


    @pytest.mark.parametrize("mode", ["cost_greedy", "error_greedy"])
    def test_a_rank_one_covariance_reads_on(self, tmp_path, capsys, mode):
        # no process noise and a velocity reading of variance 1e-100: the
        # covariance is rank-1 up to roundoff, and unprojected a variance
        # went negative, so a later reading's innovation failed the guard
        # ("ill-conditioned innovation covariance (QI 3)") in episode 1
        config = json.loads((PERFBENCH / "acceptance.json").read_text())
        config["episodes"] = 2
        config["plant"]["process_noise_std"] = [0.0, 0.0]
        config["fleet"]["agents"] = [
            {"id": 1, "feature": 0, "variance": 6e-3, "distance": 11.5},
            {"id": 2, "feature": 1, "variance": 1e-100, "distance": 4.4}]
        path = tmp_path / "rank_one.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with redirect_stdout(io.StringIO()):
                code = main(["evaluate", "--config", str(path), "--mode", mode,
                             "--out", str(out)])
        assert code == 0 and capsys.readouterr().err == ""
        with open(out / "episodes.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2
        assert all(math.isfinite(float(v)) for row in rows for v in row.values()
                   if v not in ("True", "False"))


class TestTrain:
    def test_tiny_training_run(self, tmp_path):
        config_path = small_config_file(tmp_path, total_steps=256)
        out = tmp_path / "trained"
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(["train", "--config", str(config_path),
                         "--out", str(out)])
        assert code == 0
        assert (out / "policy.json").exists()
        assert (out / "training_curve.csv").exists()

    def test_policy_feeds_evaluate(self, tmp_path):
        config_path = small_config_file(tmp_path, total_steps=256)
        out = tmp_path / "trained"
        with redirect_stdout(io.StringIO()):
            assert main(["train", "--config", str(config_path),
                         "--out", str(out)]) == 0
            code = main(["evaluate", "--config", str(config_path),
                         "--policy", str(out / "policy.json"),
                         "--out", str(tmp_path / "eval")])
        assert code == 0

    @pytest.mark.parametrize("caps", [[0.01], [0.01, 0.001, 0.01]])
    def test_wrong_cap_count_exits_one_before_the_output_directory(
            self, tmp_path, capsys, caps):
        path = small_config_file(tmp_path, variance_caps=caps)
        code = main(["train", "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "configuration error: need one variance cap per state feature\n"
        assert not (tmp_path / "out").exists()

    def test_unwritable_out_exits_one_before_training(self, tmp_path, capsys,
                                                      monkeypatch):
        from twinloop import agent

        def must_not_train(*args, **kwargs):
            raise AssertionError("trained before the output directory was made")

        monkeypatch.setattr(agent, "train", must_not_train)
        blocker = tmp_path / "a_file"
        blocker.write_text("")
        code = main(["train", "--config", str(small_config_file(tmp_path)),
                     "--out", str(blocker / "x")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("configuration error:") and err.count("\n") == 1
        assert "Traceback" not in err


class TestSweep:
    def test_grid_csv(self, tmp_path):
        config_path = small_config_file(tmp_path, episodes=1)
        out = tmp_path / "sweep"
        with redirect_stdout(io.StringIO()):
            code = main(["sweep", "--config", str(config_path),
                         "--out", str(out),
                         "--capacity", "1", "2", "--epsilon", "1e-2"])
        assert code == 0
        rows = list(csv.DictReader((out / "sweep.csv").open()))
        assert len(rows) == 2
        assert {row["capacity"] for row in rows} == {"1", "2"}

    def test_rows_before_a_failing_point_stay_on_disk(self, tmp_path, capsys):
        # eps = 1e-30 is outside the strong line-of-sight regime at 15 dB, so
        # the second grid point fails validation after the first finished
        config_path = small_config_file(tmp_path, episodes=1)
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", str(config_path), "--out", str(out),
                     "--capacity", "2", "--epsilon", "1e-2", "1e-30"])
        assert code == 1
        assert "Traceback" not in capsys.readouterr().err
        rows = list(csv.DictReader((out / "sweep.csv").open()))
        assert len(rows) == 1
        assert (rows[0]["capacity"], rows[0]["epsilon"]) == ("2", "0.01")
        assert float(rows[0]["median_qis"]) > 0

    def test_unwritable_out_exits_one(self, tmp_path, capsys):
        blocker = tmp_path / "a_file"
        blocker.write_text("")
        code = main(["sweep", "--config", str(small_config_file(tmp_path, episodes=1)),
                     "--out", str(blocker / "y"), "--capacity", "1"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("configuration error:") and err.count("\n") == 1
        assert "Traceback" not in err
