import json
import os

import numpy as np
import pytest

import ilfo_lab.cli as cli_mod
from ilfo_lab import ConfigurationError
from ilfo_lab.cli import (
    ExperimentConfig,
    main,
    parse_config,
    resolve_jobs,
    run_experiment,
    serialize_config,
)
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
        assert cfg.bandit["num_arms"] == 10
        assert cfg.bandit["horizon"] == 20_000
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
        monkeypatch.delenv("ILFO_LAB_JOBS", raising=False)
        assert resolve_jobs(None) == 1
        assert resolve_jobs(4) == 4

    def test_env_var_overrides_flag(self, monkeypatch):
        monkeypatch.setenv("ILFO_LAB_JOBS", "3")
        assert resolve_jobs(8) == 3

    def test_invalid_values(self, monkeypatch):
        monkeypatch.setenv("ILFO_LAB_JOBS", "many")
        with pytest.raises(ConfigurationError):
            resolve_jobs(None)
        monkeypatch.delenv("ILFO_LAB_JOBS")
        with pytest.raises(ConfigurationError):
            resolve_jobs(0)


def _tiny_cfg(out_dir, extra=None):
    d = dict(TINY_TABULAR)
    d["out"] = str(out_dir)
    if extra:
        d.update(extra)
    return parse_config(json.dumps(d))


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

    def test_env_var_jobs_validation(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ILFO_LAB_JOBS", "zero point five")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(TINY_TABULAR,
                                            out=str(tmp_path / "o"))))
        assert main(["mobile-tabular", "--config", str(cfg_path)]) == 2
