import warnings

import pytest

from fedminimax.cli import main
from fedminimax.config import ConfigError, apply_overrides, parse_config, render_config
from fedminimax.metrics import read_trace_csv
from fedminimax.presets import load_preset, preset_names

MINIMAL = """
[problem]
name = synthetic
"""


class TestParseConfig:
    def test_minimal_config_gets_documented_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.problem.params["k"] == 10
        assert cfg.problem.params["dim"] == 20
        assert cfg.problem.params["s"] == 1.0
        assert cfg.problem.params["tau"] == 10.0
        assert cfg.algorithm.q == 20
        assert cfg.algorithm.gamma == 0.1
        assert cfg.algorithm.lam == 0.1

    def test_duplicate_key_reports_line(self):
        text = "[problem]\nname = synthetic\nk = 3\nk = 4\n"
        with pytest.raises(ConfigError, match="duplicate key 'k' at line 4"):
            parse_config(text)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown problem keys"):
            parse_config("[problem]\nname = synthetic\nwhat = 1\n")
        with pytest.raises(ConfigError, match="unknown algorithm keys"):
            parse_config("[problem]\nname = synthetic\n[algorithm]\nlr = 1\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown sections"):
            parse_config(MINIMAL + "[extra]\nx = 1\n")

    def test_type_mismatch(self):
        with pytest.raises(ConfigError, match="problem.k"):
            parse_config("[problem]\nname = synthetic\nk = small\n")

    def test_comments_allowed(self):
        cfg = parse_config("# top\n[problem]\nname = synthetic\n# note\nk = 4\n")
        assert cfg.problem.params["k"] == 4

    def test_round_trip_identity(self):
        for name in preset_names():
            cfg = load_preset(name)
            assert parse_config(render_config(cfg)) == cfg

    def test_round_trip_identity_minimal(self):
        cfg = parse_config(MINIMAL)
        assert parse_config(render_config(cfg)) == cfg

    def test_overrides(self):
        cfg = parse_config(MINIMAL)
        out = apply_overrides(cfg, {"algorithm.gamma": "0.05", "problem.k": "4"})
        assert out.algorithm.gamma == 0.05
        assert out.problem.params["k"] == 4

    def test_override_unknown_key_rejected(self):
        cfg = parse_config(MINIMAL)
        with pytest.raises(ConfigError):
            apply_overrides(cfg, {"algorithm.nope": "1"})

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ConfigError, match="seeds"):
            parse_config(MINIMAL + "[output]\nseeds =\n")


class TestPresets:
    def test_all_presets_parse(self):
        for name in preset_names():
            cfg = load_preset(name)
            assert cfg.algorithm.T >= 1

    def test_expected_roster(self):
        names = preset_names()
        for expected in ("synthetic-s1", "synthetic-s10", "synthetic-theorem",
                         "auc-imbalanced", "robust-q6", "robust-q12"):
            assert expected in names


class TestCommands:
    def test_run_writes_csv_and_summary_per_seed(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text(
            "[problem]\nname = synthetic\nk = 3\ndim = 4\n"
            "[algorithm]\nt = 30\nq = 5\ngamma = 0.02\nlambda = 0.02\n"
            f"[output]\ncsv_dir = {tmp_path}/out\nseeds = 1,2,3\n"
        )
        assert main(["run", str(cfgfile)]) == 0
        csvs = sorted((tmp_path / "out").glob("*.csv"))
        assert len(csvs) == 3
        records = read_trace_csv(csvs[0])
        assert len(records) == 30
        summaries = sorted((tmp_path / "out").glob("*.summary.txt"))
        assert len(summaries) == 3

    def test_run_embeds_config_hash(self, tmp_path):
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text(
            "[problem]\nname = synthetic\nk = 2\ndim = 3\n"
            "[algorithm]\nt = 10\nq = 5\n"
            f"[output]\ncsv_dir = {tmp_path}/out\nseeds = 7\n"
        )
        assert main(["run", str(cfgfile)]) == 0
        csv = next((tmp_path / "out").glob("*.csv"))
        assert "# config_sha256=" in csv.read_text()

    def test_diverging_run_reports_every_seed_and_exits_3(self, tmp_path, capsys):
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", "--preset", "synthetic-s1", "--algorithm.gamma", "50",
                         "--algorithm.t", "200", "--output.csv_dir", str(out)])
        assert [str(w.message) for w in caught] == []
        assert code == 3
        err = capsys.readouterr().err
        for seed in (1, 2, 3):
            assert f"seed {seed}: diverged: " in err
        assert "Traceback" not in err

    def test_diverging_seed_does_not_stop_the_others(self, tmp_path, capsys, monkeypatch):
        import fedminimax.cli as cli

        def run_or_diverge(problem, hp, heavy_cadence=1):
            if hp.seed == 2:
                raise FloatingPointError("mean contains NaN or Inf")
            return real_run(problem, hp, heavy_cadence=heavy_cadence)

        real_run = cli.run_algorithm
        monkeypatch.setattr(cli, "run_algorithm", run_or_diverge)
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text(
            "[problem]\nname = synthetic\nk = 2\ndim = 3\n"
            "[algorithm]\nt = 10\nq = 5\n"
            f"[output]\ncsv_dir = {tmp_path}/out\nseeds = 1,2,3\n"
        )
        assert main(["run", str(cfgfile)]) == 3
        assert "seed 2: diverged: mean contains NaN or Inf" in capsys.readouterr().err
        stems = sorted(p.name for p in (tmp_path / "out").glob("*.csv"))
        assert stems == ["synthetic_fgda_seed1.csv", "synthetic_fgda_seed3.csv"]

    def test_invalid_config_exits_nonzero(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.ini"
        cfgfile.write_text("[problem]\nname = synthetic\nk = oops\n")
        assert main(["run", str(cfgfile)]) != 0
        assert "error:" in capsys.readouterr().err

    def test_validate_passing_preset(self, capsys):
        assert main(["validate", "--preset", "synthetic-theorem"]) == 0
        out = capsys.readouterr().out
        assert "overall: satisfied" in out
        assert "m_lower=satisfied|" in out

    def test_validate_flags_violations_by_name(self, capsys):
        assert main(["validate", "--preset", "synthetic-theorem", "--algorithm.gamma", "1e9"]) == 1
        out = capsys.readouterr().out
        assert "gamma_upper" in out and "VIOLATED" in out

    def test_run_warns_but_continues_on_violations(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text(
            "[problem]\nname = synthetic\nk = 2\ndim = 3\n"
            "[algorithm]\nt = 10\nq = 5\ngamma = 0.1\nlambda = 0.1\n"
            f"[output]\ncsv_dir = {tmp_path}/out\nseeds = 1\n"
        )
        assert main(["run", str(cfgfile)]) == 0
        assert "warning: constraint system not satisfied" in capsys.readouterr().err

    def test_probe_synthetic_all_checks_pass(self, capsys):
        code = main(["probe", "--preset", "synthetic-s1", "--checks",
                     "pl,lipschitz,gradcheck,unbiased,constants", "--points", "50"])
        assert code == 0
        out = capsys.readouterr().out
        assert "pl: worst_slack=" in out
        assert "gradcheck:" in out

    def test_probe_skips_unsupported_with_warning(self, capsys):
        code = main(["probe", "--preset", "robust-q6", "--checks", "pl,gradcheck", "--points", "20"])
        captured = capsys.readouterr()
        assert code == 0  # exit reflects supported probes only
        assert "skipped" in captured.err
        assert "gradcheck:" in captured.out

    def test_bench_table(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text(
            "[problem]\nname = synthetic\nk = 3\ndim = 4\n"
            "[algorithm]\nt = 20\nq = 5\ngamma = 0.02\nlambda = 0.02\n"
            f"[output]\ncsv_dir = {tmp_path}/out\nseeds = 1\n"
        )
        assert main(["bench", str(cfgfile), "--variants", "fgda,local_sgda"]) == 0
        out = capsys.readouterr().out
        assert "fgda" in out and "local_sgda" in out

    def test_bench_default_roster_on_imbalanced_preset(self, capsys):
        code = main(["bench", "--preset", "auc-imbalanced", "--algorithm.t", "60"])
        assert code == 0
        out = capsys.readouterr().out
        for variant in ("local_sgda", "momentum_local_sgda", "fgda", "adafgda_adam"):
            assert variant in out

    def test_missing_config_is_an_error(self, capsys):
        assert main(["run"]) != 0
