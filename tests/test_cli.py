import hashlib
import inspect
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ilfo_lab.cli as cli_mod
from ilfo_lab import ConfigurationError, MobileConfig
from ilfo_lab.cli import (
    ENV_FACTORIES,
    TABULAR_KINDS,
    ExperimentConfig,
    main,
    parse_config,
    resolve_jobs,
    run_experiment,
    serialize_config,
)
from ilfo_lab.mab import ALGORITHMS, BanditConfig
from ilfo_lab.planner import KnrSearchConfig, MinMaxConfig
from ilfo_lab.verify import CheckReport

TINY_TABULAR = {
    "subcommand": "mobile-tabular",
    "env": {"kind": "chain", "num_states": 3, "num_actions": 2, "horizon": 3},
    "mobile": {"t_iters": 3, "n_expert": 10, "minmax": {"k_iters": 3}},
    "seeds": [0, 1],
}


class TestParseConfig:
    def test_minimal_tabular_defaults(self):
        cfg = parse_config('{"subcommand": "mobile-tabular"}')
        assert cfg.mobile.t_iters == 300
        assert cfg.mobile.delta == 0.05
        assert cfg.mobile.bonus_mode == "theory"
        assert cfg.env["kind"] == "chain"
        assert cfg.seeds == (0,)
        assert cfg.out == "runs"

    def test_lambda_is_disambiguated(self):
        with pytest.raises(ConfigurationError) as err:
            parse_config('{"subcommand": "mobile-tabular", '
                         '"mobile": {"lambda": 0.1}}')
        assert "lam_ridge" in str(err.value)
        assert "lam_bonus" in str(err.value)

    def test_unknown_keys_are_path_qualified(self):
        with pytest.raises(ConfigurationError, match="mobile.t_iterz"):
            parse_config('{"subcommand": "mobile-tabular", '
                         '"mobile": {"t_iterz": 5}}')
        with pytest.raises(ConfigurationError, match="env.slipp"):
            parse_config('{"subcommand": "mobile-tabular", '
                         '"env": {"kind": "chain", "slipp": 0.1}}')
        with pytest.raises(ConfigurationError,
                           match="mobile.minmax.k_itters"):
            parse_config('{"subcommand": "mobile-tabular", '
                         '"mobile": {"minmax": {"k_itters": 5}}}')

    def test_round_trip(self):
        text = json.dumps({
            "subcommand": "mobile-tabular",
            "env": {"kind": "lock", "horizon": 12},
            "mobile": {"t_iters": 7, "bonus_mode": "off",
                       "minmax": {"k_iters": 2}},
            "seeds": [3, 4], "out": "x"})
        cfg = parse_config(text)
        again = parse_config(serialize_config(cfg))
        assert again == cfg

    def test_subcommand_mismatch(self):
        with pytest.raises(ConfigurationError, match="command line"):
            parse_config('{"subcommand": "mobile-knr"}',
                         default_subcommand="mobile-tabular")

    def test_malformed_json(self):
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            parse_config("{nope")
        with pytest.raises(ConfigurationError, match="JSON object"):
            parse_config("[1, 2]")

    def test_env_kind_validation(self):
        for kind in ('"maze"', '["chain"]'):
            with pytest.raises(ConfigurationError, match="env.kind"):
                parse_config('{"subcommand": "mobile-tabular", '
                             f'"env": {{"kind": {kind}}}}}')
        with pytest.raises(ConfigurationError, match="not a tabular"):
            parse_config('{"subcommand": "mobile-tabular", '
                         '"env": {"kind": "knr_example"}}')
        with pytest.raises(ConfigurationError, match="knr_example"):
            parse_config('{"subcommand": "mobile-knr", '
                         '"env": {"kind": "chain"}}')

    def test_section_scoping(self):
        with pytest.raises(ConfigurationError, match="do not apply"):
            parse_config('{"subcommand": "verify-suite", '
                         '"mobile": {"t_iters": 5}}')
        with pytest.raises(ConfigurationError, match="does not apply"):
            parse_config('{"subcommand": "mobile-tabular", '
                         '"bandit": {"num_arms": 4}}')

    def test_bandit_validation(self):
        cfg = parse_config('{"subcommand": "mab-lb"}')
        assert cfg.bandit.num_arms == 10
        assert cfg.bandit.horizon == 20_000
        with pytest.raises(ConfigurationError, match="unknown 'ts'"):
            parse_config('{"subcommand": "mab-lb", '
                         '"bandit": {"algorithms": ["ts"]}}')
        with pytest.raises(ConfigurationError, match="num_arms"):
            parse_config('{"subcommand": "mab-lb", '
                         '"bandit": {"num_arms": 1}}')

    def test_seed_validation(self):
        with pytest.raises(ConfigurationError, match="seeds"):
            parse_config('{"subcommand": "mobile-tabular", "seeds": []}')
        with pytest.raises(ConfigurationError, match="seeds"):
            parse_config('{"subcommand": "mobile-tabular", "seeds": ["a"]}')


class TestResolveJobs:
    def test_flag_and_default(self, monkeypatch):
        # --jobs is the one way to set the worker count: the retired
        # environment override is ignored
        monkeypatch.setenv("ILFO_LAB_JOBS", "3")
        assert resolve_jobs(None) == 1
        assert resolve_jobs(4) == 4

    def test_invalid_values(self):
        for jobs in (0, -2):
            with pytest.raises(ConfigurationError, match="jobs"):
                resolve_jobs(jobs)


def _tiny_cfg(out_dir, extra=None):
    d = dict(TINY_TABULAR)
    d["out"] = str(out_dir)
    if extra:
        d.update(extra)
    return parse_config(json.dumps(d))


def _tiny_mab_cfg(out_dir):
    return parse_config(json.dumps({
        "subcommand": "mab-lb",
        "bandit": {"num_arms": 3, "horizon": 200,
                   "algorithms": ["ucb1", "eps_greedy", "known_mean_elim"]},
        "seeds": [0, 1], "out": str(out_dir)}))


class TestRunExperiment:
    def test_mobile_tabular_outputs(self, tmp_path):
        cfg = _tiny_cfg(tmp_path / "a")
        assert run_experiment(cfg) == 0
        out = tmp_path / "a"
        assert (out / "config.json").exists()
        assert (out / "mobile-tabular-seed0.csv").exists()
        assert (out / "mobile-tabular-seed1.csv").exists()
        summary = (out / "summary.csv").read_text().strip().split("\n")
        assert summary[0].startswith("seed,expert_value,best_regret")
        assert len(summary) == 3
        snapshot = json.loads((out / "config.json").read_text())
        assert snapshot["mobile"]["t_iters"] == 3

    def test_rerun_is_byte_identical(self, tmp_path):
        run_experiment(_tiny_cfg(tmp_path / "a"))
        run_experiment(_tiny_cfg(tmp_path / "b"))
        for name in ("mobile-tabular-seed0.csv", "summary.csv"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())

    def test_parallel_matches_serial(self, tmp_path):
        run_experiment(_tiny_cfg(tmp_path / "a"), jobs=1)
        run_experiment(_tiny_cfg(tmp_path / "b"), jobs=2)
        for name in ("mobile-tabular-seed0.csv", "mobile-tabular-seed1.csv",
                     "summary.csv"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())

    def test_mobile_knr_outputs(self, tmp_path):
        cfg = parse_config(json.dumps({
            "subcommand": "mobile-knr",
            "env": {"kind": "knr_example", "horizon": 3},
            "mobile": {"t_iters": 2, "n_expert": 8, "mmd_features": 8,
                       "knr_eval_rollouts": 4, "minmax": {"k_iters": 2}},
            "seeds": [0], "out": str(tmp_path)}))
        assert run_experiment(cfg) == 0
        assert (tmp_path / "mobile-knr-seed0.csv").exists()
        body = (tmp_path / "mobile-knr-seed0.csv").read_text()
        assert body.startswith("t,value,expert_value,regret")

    def test_mab_outputs(self, tmp_path):
        cfg = parse_config(json.dumps({
            "subcommand": "mab-lb",
            "bandit": {"num_arms": 3, "horizon": 60,
                       "algorithms": ["ucb1"]},
            "seeds": [0, 1], "out": str(tmp_path)}))
        assert run_experiment(cfg) == 0
        for i in range(4):
            assert (tmp_path / f"mab-ucb1-instance-{i}.csv").exists()
        summary = (tmp_path / "summary.csv").read_text().strip().split("\n")
        assert summary[0] == "algorithm,instance_id,final_mean_regret,loglog_slope"
        assert len(summary) == 5

    def test_mab_csv_bytes_are_pinned(self, tmp_path):
        # digests of the CSVs written by the per-run scalar bandit loop,
        # which the batch engine must reproduce byte for byte
        expected = {
            "mab-eps_greedy-instance-0.csv":
                "d41da55d078eb84f00c659d820ee3066d3d5717fc6508cc958b82f2e1c16191a",
            "mab-eps_greedy-instance-1.csv":
                "3103d0d926ebc1901902725a128ccc90e7674e41b14471f86a981d8a0eed353d",
            "mab-eps_greedy-instance-2.csv":
                "44af10c39e016bea00b52705334254d2962e680fa62250eaf95ef2c6191fba4f",
            "mab-eps_greedy-instance-3.csv":
                "c2b7776d097d378ff3d7a51101ed1ff125740fdf1298568046a96d9bfb8a7c85",
            "mab-known_mean_elim-instance-0.csv":
                "9c92e0c92b05184d2d1ebc8ea7dc4c4932d18b216e5ebeccdbd5e2efc242a2f3",
            "mab-known_mean_elim-instance-1.csv":
                "92d4d228c50c926c6fcd33cff5c2c0958d12b527fc62f5c53d6ef8a0f1c64baf",
            "mab-known_mean_elim-instance-2.csv":
                "186f523bb935726d4e887828a17daf059f133a7f9a40d4ec4ecc3b72ea1c09aa",
            "mab-known_mean_elim-instance-3.csv":
                "34179bec2f85adc1701691d25d4aba3d39640c0a2ec929ed8b3aaf41a3ec8cd9",
            "mab-ucb1-instance-0.csv":
                "aed84c01db63b160df3aa1c8d17fa43e7c841406baca18be95ce6c74c48f2c64",
            "mab-ucb1-instance-1.csv":
                "76081a132e937e760d4cc80d68249cae74868fe13770bf489dc5d8cf72b8fe49",
            "mab-ucb1-instance-2.csv":
                "a51774edcb373df9418393359ce86f1c6a4ed02535db876aaaa0a90db5ece2c8",
            "mab-ucb1-instance-3.csv":
                "da02cac6fdeabdbd7e5a825940cc269148a93bdd7e15c96f660ee2c25c0f86c8",
            "summary.csv":
                "75107018ae07babfeae8caec2068385e032126f608dac8c151889099802c8b22",
        }
        assert run_experiment(_tiny_mab_cfg(tmp_path)) == 0
        written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in tmp_path.glob("*.csv")}
        assert written == expected

    # short mobile runs: chain with the theory bonus, lock with the
    # ensemble bonus over a buffer that evicts, and a KNR run; a digit
    # that moves in any of their CSVs fails the test
    MOBILE_PINS = {
        "chain": ({"subcommand": "mobile-tabular", "env": {"kind": "chain"},
                   "mobile": {"t_iters": 8, "n_expert": 20},
                   "seeds": [0, 1]}, {
            "mobile-tabular-seed0.csv":
                "8357d4158647e366ccb40daf8969bfcba5147dbe6f3fe7a7bb10eddd3dac1e6a",
            "mobile-tabular-seed1.csv":
                "ef0bb72fc7fb4c02150f06d03a40d34f09faf4cbea75dafa0d8d12a46803bcd4",
            "summary.csv":
                "0bc5d141ca5a113297f2124fe2c9bf793499feb037532a8da8fd43b30c3e58f4",
        }),
        "lock_ensemble": ({"subcommand": "mobile-tabular",
                           "env": {"kind": "lock"},
                           "mobile": {"t_iters": 10, "n_expert": 20,
                                      "bonus_mode": "ensemble",
                                      "buffer_capacity": 7,
                                      "minmax": {"k_iters": 2}},
                           "seeds": [0, 1]}, {
            "mobile-tabular-seed0.csv":
                "9d509acf99bb865b9ff660ca69507468c72bc53d990323b9c75de32c52dd5e52",
            "mobile-tabular-seed1.csv":
                "f3bbd50ad4afb8a8b8f2b032596813f5b3f4dc893a9605f006d80d1d7000ee87",
            "summary.csv":
                "d648b8b86a955cd2b398d86b865b5a56036dfbc335499065202606ace8f272ab",
        }),
        "knr": ({"subcommand": "mobile-knr",
                 "env": {"kind": "knr_example", "horizon": 3},
                 "mobile": {"t_iters": 4, "n_expert": 8, "mmd_features": 8,
                            "knr_eval_rollouts": 4,
                            "minmax": {"k_iters": 2}},
                 "seeds": [0]}, {
            "mobile-knr-seed0.csv":
                "25709079dd6b182e84c59a1f24286af006ca8bb0943c516d4940ef676055d10a",
            "summary.csv":
                "956fe0e0c634a062a3dd973cd3c725234d64606306a893016e4f7098a8e32a98",
        }),
    }

    @pytest.mark.parametrize("name", sorted(MOBILE_PINS))
    def test_mobile_csv_bytes_are_pinned(self, tmp_path, name):
        raw, expected = self.MOBILE_PINS[name]
        cfg = parse_config(json.dumps(dict(raw, out=str(tmp_path))))
        assert run_experiment(cfg) == 0
        written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in tmp_path.glob("*.csv")}
        assert written == expected

    def test_mab_parallel_matches_serial(self, tmp_path):
        run_experiment(_tiny_mab_cfg(tmp_path / "a"), jobs=1)
        run_experiment(_tiny_mab_cfg(tmp_path / "b"), jobs=2)
        names = sorted(p.name for p in (tmp_path / "a").glob("*.csv"))
        assert len(names) == 13
        for name in names:
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes()), name

    def test_verify_suite_passes(self, tmp_path):
        cfg = parse_config(json.dumps({"subcommand": "verify-suite",
                                       "out": str(tmp_path)}))
        assert run_experiment(cfg) == 0
        reports = json.loads((tmp_path / "verify_report.json").read_text())
        assert len(reports) == 6
        assert all(r["passed"] for r in reports)

    def test_verify_suite_failure_exits_one(self, tmp_path, monkeypatch):
        bad = CheckReport(name="x", trials=1, failures=1,
                          worst_violation=1.0, passed=False)
        monkeypatch.setattr(cli_mod, "run_all_checks",
                            lambda seed, knr_record=None: [bad])
        monkeypatch.setattr(cli_mod, "_verify_knr_record", lambda seed: None)
        cfg = parse_config(json.dumps({"subcommand": "verify-suite",
                                       "out": str(tmp_path)}))
        assert run_experiment(cfg) == 1


class TestMain:
    def test_happy_path_with_flags(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {k: v for k, v in TINY_TABULAR.items() if k != "seeds"}))
        code = main(["mobile-tabular", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o"), "--seeds", "5",
                     "--jobs", "1"])
        assert code == 0
        assert (tmp_path / "o" / "mobile-tabular-seed5.csv").exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"subcommand": "mobile-tabular", "wat": 1}')
        assert main(["mobile-tabular", "--config", str(cfg_path)]) == 2
        assert "wat" in capsys.readouterr().err

    @pytest.mark.parametrize("mobile, key", [
        ({"seed": 0}, "mobile.seed"),
        ({"f_class_size": 64}, "mobile.f_class_size"),
        ({"minmax": {"averaging": "uniform"}}, "mobile.minmax.averaging"),
        ({"minmax": {"tolerance": 0.01}}, "mobile.minmax.tolerance"),
        ({"minmax": {"solver": "mw_finite"}}, "mobile.minmax.solver"),
        ({"minmax": {"mw_learning_rate": 0.5}},
         "mobile.minmax.mw_learning_rate"),
        ({"minmax": {"mmd_update_mode": "grad"}},
         "mobile.minmax.mmd_update_mode"),
        ({"minmax": {"mmd_eta": 0.67}}, "mobile.minmax.mmd_eta"),
    ])
    def test_removed_keys_are_rejected(self, tmp_path, capsys, mobile, key):
        out = tmp_path / "o"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(TINY_TABULAR, mobile=mobile,
                                            out=str(out))))
        assert main(["mobile-tabular", "--config", str(cfg_path)]) == 2
        assert f"unknown key '{key}'" in capsys.readouterr().err
        assert not (out / "config.json").exists()

    @pytest.mark.parametrize("change, message", [
        ({"env": {"kind": "two_state"}}, "missing key 'env.p_forward'"),
        ({"seeds": [True]}, "'seeds' must be a nonempty list of ints"),
    ], ids=["missing_env_key", "bool_seed"])
    def test_unrunnable_config_fails_at_parse_time(self, tmp_path, capsys,
                                                   change, message):
        out = tmp_path / "o"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(TINY_TABULAR, out=str(out),
                                            **change)))
        assert main(["mobile-tabular", "--config", str(cfg_path)]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "config.json").exists()

    @pytest.mark.parametrize("field, value", [
        ("w_max", 0), ("w_max", -1.0), ("lam_ridge", -1), ("lam_ridge", 0),
        ("buffer_capacity", -1), ("mmd_features", 0),
        ("mmd_bandwidth", "wide"), ("mmd_bandwidth", 0),
        ("mmd_bandwidth", -0.5), ("mmd_bandwidth", True),
        ("knr_eval_rollouts", 1),
    ])
    def test_bad_knr_settings_fail_at_parse_time(self, tmp_path, capsys,
                                                 field, value):
        out = tmp_path / "o"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "subcommand": "mobile-knr", "out": str(out),
            "env": {"kind": "knr_example", "horizon": 3},
            "mobile": {"t_iters": 2, "n_expert": 5, field: value}}))
        assert main(["mobile-knr", "--config", str(cfg_path)]) == 2
        assert field in capsys.readouterr().err
        assert not (out / "config.json").exists()

    @pytest.mark.parametrize("horizon, path", [
        (13, "'mobile.minmax.knr_search.exhaustive_limit': A^H = 8192"),
        (20, "'env.horizon' 20: the expert's open-loop search space 2^20"),
    ], ids=["over_exhaustive_budget", "over_expert_search_limit"])
    def test_unrunnable_knr_search_fails_at_parse_time(self, tmp_path,
                                                       capsys, horizon, path):
        code, wrote = _run_main(tmp_path, "mobile-knr", {
            "env": {"kind": "knr_example", "horizon": horizon},
            "mobile": {"t_iters": 2, "n_expert": 5}})
        assert code == 2
        assert path in capsys.readouterr().err
        assert not wrote

    def test_random_shooting_admits_a_wide_search(self):
        cfg = parse_config(json.dumps({
            "subcommand": "mobile-knr",
            "env": {"kind": "knr_example", "horizon": 13},
            "mobile": {"minmax": {"knr_search": {"n_candidates": 64}}}}))
        assert cfg.mobile.minmax.knr_search.n_candidates == 64

    def test_good_knr_settings_parse(self):
        cfg = parse_config(json.dumps({
            "subcommand": "mobile-knr",
            "mobile": {"w_max": 0.5, "lam_ridge": 0.01, "buffer_capacity": 0,
                       "mmd_features": 1, "mmd_bandwidth": 2,
                       "knr_eval_rollouts": 2}}))
        assert cfg.mobile.mmd_bandwidth == 2
        assert parse_config(json.dumps({
            "subcommand": "mobile-knr",
            "mobile": {"lam_ridge": None}})).mobile.lam_ridge is None

    def test_missing_config_file_is_io_error(self, tmp_path):
        assert main(["mobile-tabular", "--config",
                     str(tmp_path / "nope.json")]) == 3

    def test_bad_seed_list(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(TINY_TABULAR))
        assert main(["mobile-tabular", "--config", str(cfg_path),
                     "--seeds", "1,zap"]) == 2

    def test_zero_jobs_is_a_config_error(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(TINY_TABULAR,
                                            out=str(tmp_path / "o"))))
        assert main(["mobile-tabular", "--config", str(cfg_path),
                     "--jobs", "0"]) == 2


# each config section and the callable its keys are checked against
SECTIONS = [("mobile-tabular", "mobile", {}, MobileConfig),
            ("mobile-tabular", "mobile.minmax", {}, MinMaxConfig),
            ("mobile-tabular", "mobile.minmax.knr_search", {}, KnrSearchConfig),
            ("mab-lb", "bandit", {}, BanditConfig)] + [
    ("mobile-tabular" if kind in TABULAR_KINDS else "mobile-knr", "env",
     {"kind": kind, **({"p_forward": 0.5} if kind == "two_state" else {})},
     factory) for kind, factory in ENV_FACTORIES.items()]


def _nested(path: str, leaf: dict) -> dict:
    for key in reversed(path.split(".")):
        leaf = {key: leaf}
    return leaf


def _int_field_cases():
    for subcommand, section, base, fn in SECTIONS:
        params = inspect.signature(fn, eval_str=True).parameters
        for name, param in params.items():
            if param.annotation is not int:
                continue
            for bad in (2.5, True, "6"):
                change = _nested(section, dict(base, **{name: bad}))
                yield pytest.param(subcommand, change, f"{section}.{name}",
                                   id=f"{base.get('kind', section)}."
                                      f"{name}={bad!r}")


def _run_main(tmp_path, subcommand, change, *flags):
    out = tmp_path / "o"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"out": str(out), **change}))
    code = main([subcommand, "--config", str(cfg_path), *flags])
    return code, (out / "config.json").exists()


class TestSchema:
    @pytest.mark.parametrize("subcommand, change, path", _int_field_cases())
    def test_int_fields_reject_other_types(self, tmp_path, capsys,
                                           subcommand, change, path):
        code, wrote = _run_main(tmp_path, subcommand, change)
        assert code == 2
        assert f"'{path}' must be an int" in capsys.readouterr().err
        assert not wrote

    @pytest.mark.parametrize("subcommand, change, message", [
        ("mobile-tabular", {"env": {"kind": "chain", "horizon": 2.5}},
         "'env.horizon' must be an int, got 2.5"),
        ("mobile-tabular", {"env": {"kind": "chain", "num_states": "6"}},
         "'env.num_states' must be an int, got '6'"),
        ("mobile-tabular", {"mobile": {"minmax": {"k_iters": 1.5}}},
         "'mobile.minmax.k_iters' must be an int, got 1.5"),
        ("mobile-knr",
         {"mobile": {"minmax": {"knr_search": {"n_candidates": 0.5}}}},
         "'mobile.minmax.knr_search.n_candidates' must be an int, got 0.5"),
        ("mobile-tabular", {"mobile": {"t_iters": True}},
         "'mobile.t_iters' must be an int, got True"),
        ("mobile-tabular", {"mobile": {"t_iters": 2.5}},
         "'mobile.t_iters' must be an int, got 2.5"),
        ("mobile-knr", {"mobile": {"mmd_features": 1.5}},
         "'mobile.mmd_features' must be an int, got 1.5"),
        ("mobile-tabular", {"seeds": [-1]},
         "'seeds' must be a nonempty list of ints >= 0"),
        ("mobile-tabular", {"env": {"kind": "chain", "num_states": 1}},
         "env.num_states must be >= 2"),
        ("mobile-tabular", {"env": {"kind": "lock", "code_seed": -1}},
         "env.code_seed must be >= 0"),
        ("mobile-tabular", {"env": {"kind": "two_state", "p_forward": 1.5}},
         "env.p_forward must lie in [0, 1]"),
        ("mobile-tabular", {"mobile": {"lam_ridge": "small"}},
         "'mobile.lam_ridge' must be a number or null, got 'small'"),
        ("mobile-tabular", {"mobile": {"minmax": 5}},
         "'mobile.minmax' must be an object, got 5"),
        ("mab-lb", {"bandit": {"algorithms": "ucb1"}},
         "'bandit.algorithms' must be a nonempty list of strings"),
        ("mab-lb", {"bandit": {"num_arms": 5, "horizon": 4}},
         "bandit.num_arms must be >= 2 and <= horizon"),
    ], ids=["env_horizon_float", "env_num_states_str", "k_iters_float",
            "n_candidates_float", "t_iters_bool", "t_iters_float",
            "mmd_features_float", "negative_seed", "chain_one_state",
            "lock_negative_code_seed", "two_state_p_forward",
            "lam_ridge_str", "minmax_not_object", "algorithms_not_list",
            "horizon_below_num_arms"])
    def test_bad_values_fail_at_parse_time(self, tmp_path, capsys,
                                           subcommand, change, message):
        code, wrote = _run_main(tmp_path, subcommand, change)
        assert code == 2
        assert message in capsys.readouterr().err
        assert not wrote

    def test_negative_seed_flag_fails_before_writing(self, tmp_path, capsys):
        code, wrote = _run_main(tmp_path, "mobile-tabular", {},
                                "--seeds=-1")
        assert code == 2
        assert "'seeds' must be a nonempty list of ints >= 0" in (
            capsys.readouterr().err)
        assert not wrote

    def test_seeds_checked_on_construction(self):
        for seeds in ((), (-1,), (True,), [0]):
            with pytest.raises(ConfigurationError, match="'seeds'"):
                ExperimentConfig(subcommand="verify-suite", seeds=seeds)

    def test_readme_example_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
        assert blocks, "README has no json example"
        for block in blocks:
            parse_config(block)


_UNIT = st.floats(0.0, 1.0)
_POSITIVE = st.floats(1e-6, 1e6)
_TABULAR_ENVS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("chain")}, optional={
        "num_states": st.integers(2, 8), "num_actions": st.integers(2, 4),
        "horizon": st.integers(1, 6), "slip": _UNIT}),
    st.fixed_dictionaries({"kind": st.just("lock")}, optional={
        "n_chain": st.integers(2, 8), "horizon": st.integers(1, 12),
        "q": st.floats(0.0, 1.0, exclude_min=True),
        "code_seed": st.integers(0, 2**32 - 1)}),
    st.fixed_dictionaries({"kind": st.just("two_state"), "p_forward": _UNIT},
                          optional={"horizon": st.integers(1, 4)}))
_KNR_ENVS = st.fixed_dictionaries({"kind": st.just("knr_example")}, optional={
    "noise_std": st.floats(0.0, 1.0), "horizon": st.integers(1, 6)})
_MOBILE = st.fixed_dictionaries({}, optional={
    "t_iters": st.integers(1, 10**6), "n_expert": st.integers(1, 10**6),
    "delta": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    "bonus_mode": st.sampled_from(["theory", "ensemble", "off"]),
    "lam_bonus": st.floats(0.0, 1e6), "lam_ridge": st.none() | _POSITIVE,
    "w_max": _POSITIVE, "buffer_capacity": st.integers(0, 10**6),
    "mmd_features": st.integers(1, 4096),
    "mmd_bandwidth": st.just("auto") | _POSITIVE | st.integers(1, 100),
    "knr_eval_rollouts": st.integers(2, 10**4),
    "minmax": st.fixed_dictionaries({}, optional={
        "k_iters": st.integers(1, 10**4),
        "knr_search": st.fixed_dictionaries({}, optional={
            "exhaustive_limit": st.integers(1, 10**6),
            "n_candidates": st.integers(0, 10**6)})})})
_BANDIT = st.fixed_dictionaries({}, optional={
    "num_arms": st.integers(2, 50), "horizon": st.integers(50, 10**6),
    "algorithms": st.lists(st.sampled_from(ALGORITHMS), min_size=1,
                           max_size=4)})
_SEEDS = st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=5)
_CONFIGS = st.one_of(
    st.fixed_dictionaries({"subcommand": st.just("mobile-tabular"),
                           "env": _TABULAR_ENVS, "mobile": _MOBILE,
                           "seeds": _SEEDS}),
    st.fixed_dictionaries({"subcommand": st.just("mobile-knr"),
                           "env": _KNR_ENVS, "mobile": _MOBILE,
                           "seeds": _SEEDS}),
    st.fixed_dictionaries({"subcommand": st.just("mab-lb"),
                           "bandit": _BANDIT, "seeds": _SEEDS}),
    st.fixed_dictionaries({"subcommand": st.just("verify-suite")},
                          optional={"seeds": _SEEDS, "out": st.just("x")}))


def _search_cannot_run(raw) -> bool:
    """A mobile-knr config whose A^H overflows the exhaustive budget with
    random shooting off (the generated horizons stay under the expert's
    search limit)."""
    if raw["subcommand"] != "mobile-knr":
        return False
    env = {k: v for k, v in raw["env"].items() if k != "kind"}
    system = ENV_FACTORIES["knr_example"](**env)
    search = KnrSearchConfig(
        **raw["mobile"].get("minmax", {}).get("knr_search", {}))
    return (system.num_actions ** system.horizon > search.exhaustive_limit
            and search.n_candidates == 0)


@settings(max_examples=80, deadline=None)
@given(_CONFIGS)
def test_round_trip_on_generated_configs(raw):
    if _search_cannot_run(raw):
        with pytest.raises(ConfigurationError,
                           match="mobile.minmax.knr_search.exhaustive_limit"):
            parse_config(json.dumps(raw))
        return
    cfg = parse_config(json.dumps(raw))
    assert parse_config(serialize_config(cfg)) == cfg
