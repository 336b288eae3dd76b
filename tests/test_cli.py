import configparser
import hashlib
import io
import os
import re
import shutil
import subprocess
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import pytest

import numpy as np

import fedminimax
from fedminimax import cli, theory
from fedminimax.algorithms import VARIANTS, init_round, initial_point
from fedminimax.cli import main
from fedminimax.config import (
    ALGORITHM_SCHEMA,
    OUTPUT_SCHEMA,
    PROBLEM_SCHEMAS,
    ConfigError,
    RunConfig,
    _render_value,
    _schema,
    apply_overrides,
    parse_config,
    render_config,
)
from fedminimax.metrics import config_hash, read_trace_csv
from fedminimax.presets import load_preset, preset_names
from fedminimax.theory import CONSTRAINT_NAMES

MINIMAL = """
[problem]
name = synthetic
"""

# config_hash(render_config(load_preset(name))) for every shipped preset:
# pins each section's keys, their order, defaults and rendering.
PRESET_CONFIG_HASHES = {
    "auc-imbalanced": "d71630d2776f8a66",
    "robust-q12": "73518095a344e79f",
    "robust-q6": "6502b6d238608479",
    "synthetic-s1": "7c6faddf722bef63",
    "synthetic-s10": "851efc0678840912",
    "synthetic-theorem": "01a4ddd7481fbe11",
}


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

    @pytest.mark.parametrize("text,message", [
        ("[output]\nseeds = -1\n", r"output\.seeds must be distinct and >= 0, got -1$"),
        ("[output]\nseeds = 1,1\n", r"output\.seeds must be distinct and >= 0, got 1,1$"),
        ("[output]\nseeds = 2,0,-4\n", r"output\.seeds must be distinct and >= 0, got 2,0,-4$"),
        ("seed = -3\n", r"problem\.seed must be >= 0 or none, got -3$"),
    ])
    def test_negative_or_repeated_seed_rejected(self, text, message):
        # numpy would refuse a negative seed without naming the key, and a
        # repeated run seed would run twice and overwrite its own files
        with pytest.raises(ConfigError, match=message):
            parse_config(MINIMAL + text)
        cfg = parse_config(MINIMAL + "seed = 0\n[output]\nseeds = 0,3\n")
        assert cfg.output.seeds == (0, 3) and cfg.problem.params["seed"] == 0

    def test_negative_heavy_cadence_rejected(self):
        with pytest.raises(ConfigError, match=r"output\.heavy_cadence must be >= 0 .*got -2"):
            parse_config(MINIMAL + "[output]\nheavy_cadence = -2\n")
        assert parse_config(MINIMAL + "[output]\nheavy_cadence = 0\n").output.heavy_cadence == 0

    def test_schema_rejects_a_field_type_without_a_tag(self):
        @dataclass
        class Odd:
            z: "complex" = 0j

        with pytest.raises(KeyError):
            _schema(Odd)


def _apply_overrides_by_text(cfg, overrides):
    """apply_overrides as it was: render cfg, patch the text through a
    ConfigParser, write it out and parse it again (the reference)."""
    text_sections = {"problem": {}, "algorithm": {}, "output": {}}
    for path, raw in overrides.items():
        if "." not in path:
            raise ConfigError(f"override {path!r} must look like section.key")
        section, key = path.split(".", 1)
        if section not in text_sections:
            raise ConfigError(f"unknown override section {section!r}")
        text_sections[section][key] = raw
    parser = configparser.ConfigParser(strict=True, interpolation=None, delimiters=("=",))
    parser.read_string(render_config(cfg))
    for section, kv in text_sections.items():
        for key, raw in kv.items():
            if section == "problem" and key.lower() == "name":
                raise ConfigError("problem.name cannot be overridden")
            parser.set(section, key, raw)
    buf = io.StringIO()
    parser.write(buf)
    return parse_config(buf.getvalue())


def _override_table():
    from test_golden_traces import WORKLOADS

    table = [(preset, overrides) for preset, overrides, _ in WORKLOADS.values()]
    table += [
        ("synthetic-s1", {}),
        ("robust-q6", {"Algorithm.gamma": "0.05"}),  # sections are case-sensitive
        ("robust-q6", {"algorithm.GAMMA": "0.05", "Problem.k": "3"}),
        ("robust-q6", {"algorithm.Gamma": "0.05", "algorithm.T": "7", "output.Seeds": "4, 5"}),
        ("auc-imbalanced", {"algorithm.gamma": "  0.05 ", "problem.scheme": " iid", "output.csv_dir": " a b "}),
        ("auc-imbalanced", {"algorithm.tie_varrho_to_momentum": " TRUE "}),
        ("synthetic-s1", {"output.SEEDS": "2"}),
        ("synthetic-s1", {"algorithm.gamma": "0.05", "algorithm.Gamma": "0.07"}),  # the last one wins
        ("synthetic-s1", {"nosection": "1"}),
        ("synthetic-s1", {"model.k": "4"}),
        ("synthetic-s1", {"algorithm.nope": "1"}),
        ("synthetic-s1", {"problem.nope": "1", "algorithm.nope": "1"}),
        ("synthetic-s1", {"algorithm.t": "5", "problem.name": "robust"}),
        ("robust-q6", {"problem.name": "robust"}),
        ("robust-q6", {"problem.Name": " robust "}),  # keys are lower-cased before the name check
        ("auc-imbalanced", {"problem.NAME": "robust"}),
        ("robust-q6", {"problem.k": "1.5"}),
        ("robust-q6", {"algorithm.gamma": "fast"}),
        ("robust-q6", {"algorithm.eta_const": "none", "problem.seed": "None"}),
        ("robust-q6", {"algorithm.tie_varrho_to_momentum": "maybe"}),
        ("robust-q6", {"algorithm.variant": "sgd"}),
        ("robust-q6", {"algorithm.gamma": "-1"}),
        ("robust-q6", {"problem.scheme": "ring"}),
        ("robust-q6", {"output.seeds": ""}),
        ("robust-q6", {"output.seeds": " , "}),
        ("robust-q6", {"output.heavy_cadence": "-1"}),
        ("robust-q6", {"output.heavy_cadence": "0", "output.seeds": "3,1"}),
    ]
    return table


class TestOverridesInOneParse:
    @pytest.mark.parametrize("preset,overrides", _override_table())
    def test_same_config_text_and_error_as_the_text_round_trip(self, preset, overrides):
        base = load_preset(preset)
        try:
            want = _apply_overrides_by_text(base, overrides)
        except ConfigError as exc:
            with pytest.raises(ConfigError) as got:
                apply_overrides(base, overrides)
            assert str(got.value) == str(exc)
            return
        got = apply_overrides(base, overrides)
        assert got == want
        assert render_config(got) == render_config(want)

    def test_the_table_reaches_every_outcome(self):
        outcomes = set()
        for preset, overrides in _override_table():
            try:
                _apply_overrides_by_text(load_preset(preset), overrides)
                outcomes.add("ok")
            except ConfigError as exc:
                outcomes.add(str(exc).split(" ")[0])
        assert {"ok", "override", "unknown", "problem.name", "key", "algorithm.variant", "output.seeds",
                "output.heavy_cadence", "problem.scheme"} <= outcomes

    def test_preset_loading_still_goes_through_parse_config(self, monkeypatch):
        from fedminimax import presets

        calls = []
        monkeypatch.setattr(presets, "parse_config", lambda text: calls.append(text) or parse_config(text))
        load_preset("robust-q6")
        assert len(calls) == 1


class TestPresets:
    def test_all_presets_parse(self):
        for name in preset_names():
            cfg = load_preset(name)
            assert cfg.algorithm.T >= 1

    @pytest.mark.parametrize("name", preset_names())
    def test_rendered_config_is_pinned(self, name):
        assert config_hash(render_config(load_preset(name))) == PRESET_CONFIG_HASHES[name]

    @staticmethod
    def _help_defaults(capsys) -> dict[str, list[str]]:
        """The `key=value` pairs of each defaults line of `fedmm --help`,
        keyed by the line's heading, with the `*` marks stripped."""
        with pytest.raises(SystemExit):
            main(["--help"])
        listed = {}
        for ln in capsys.readouterr().out.splitlines():
            if ln.strip().startswith("[") and ": " in ln:
                heading, pairs = ln.strip().split(": ", 1)
                listed[heading] = [pair.rstrip("*") for pair in pairs.split(", ")]
        return listed

    def test_help_lists_every_algorithm_and_output_default(self, capsys):
        listed = self._help_defaults(capsys)
        sections = [(f"[problem] name={name}", schema) for name, schema in PROBLEM_SCHEMAS.items()]
        sections += [("[algorithm]", ALGORITHM_SCHEMA), ("[output]", OUTPUT_SCHEMA)]
        assert list(listed) == [heading for heading, _ in sections]
        for heading, schema in sections:
            assert listed[heading] == [f"{key}={_render_value(default)}" for key, (_, default) in schema.items()]
        assert "seeds=1" in listed["[output]"]
        assert "tie_varrho_to_momentum=false" in listed["[algorithm]"]
        assert "seed=none" in listed["[problem] name=synthetic"]

    def test_help_defaults_parse_back_to_the_defaults(self, capsys):
        listed = self._help_defaults(capsys)
        for name in PROBLEM_SCHEMAS:
            base = parse_config(f"[problem]\nname = {name}\n")
            overrides = {}
            for heading, pairs in listed.items():
                if heading.startswith("[problem]") and heading != f"[problem] name={name}":
                    continue
                section = heading.split("]", 1)[0][1:]
                overrides.update({f"{section}.{key}": val for key, val in (pair.split("=", 1) for pair in pairs)})
            assert apply_overrides(base, overrides) == base

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
            assert re.search(rf"^seed {seed}: diverged: non-finite objective at t=\d+$", err, re.M)
        assert "Traceback" not in err
        assert not out.exists()  # no seed wrote, so no directory was made

    def test_divergence_is_reported_at_the_same_step_whatever_T(self, tmp_path, capsys):
        # the objective overflows at t = 64 and the iterates at t = 133: the
        # chunk holding t = 64 raises, so a longer run reports the same step
        lines = []
        for T in ("132", "200"):
            argv = ["run", "--preset", "synthetic-s1", "--algorithm.gamma", "50", "--algorithm.t", T,
                    "--output.seeds", "1", "--output.csv_dir", str(tmp_path / "out")]
            assert main(argv) == 3
            lines.append(capsys.readouterr().err.splitlines()[-1])
        assert lines == ["seed 1: diverged: non-finite objective at t=64"] * 2
        assert not (tmp_path / "out").exists()

    def test_auc_run_whose_objective_overflows_exits_3(self, tmp_path, capsys):
        # alpha grows past sqrt(max float) while every iterate stays finite:
        # its libm square overflows, so the objective is non-finite
        argv = ["run", "--preset", "auc-imbalanced", "--algorithm.variant", "fgda", "--algorithm.lambda", "100",
                "--algorithm.t", "400", "--output.seeds", "1", "--output.csv_dir", str(tmp_path / "out")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 3
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert re.search(r"^seed 1: diverged: non-finite objective at t=\d+$", err, re.M)
        assert "Traceback" not in err and "OverflowError" not in err
        assert not list(tmp_path.rglob("*.csv"))

    def test_diverging_seed_does_not_stop_the_others(self, tmp_path, capsys, monkeypatch):
        import fedminimax.cli as cli

        def run_or_diverge(problem, hp, heavy_cadence=1):
            if hp.seed == 2:
                raise FloatingPointError("non-finite iterate or estimate at t=7")
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
        assert "seed 2: diverged: non-finite iterate or estimate at t=7" in capsys.readouterr().err
        stems = sorted(p.name for p in (tmp_path / "out").glob("*.csv"))
        assert stems == ["synthetic_fgda_seed1.csv", "synthetic_fgda_seed3.csv"]

    @pytest.mark.parametrize("overrides,message", [
        (["--output.seeds=-1"], "output.seeds must be distinct and >= 0, got -1"),
        (["--output.seeds", "1,1"], "output.seeds must be distinct and >= 0, got 1,1"),
        (["--problem.seed", "-3"], "problem.seed must be >= 0 or none, got -3"),
    ])
    def test_negative_or_repeated_seed_is_an_error_exit(self, overrides, message, tmp_path, capsys):
        argv = ["run", "--preset", "robust-q6", "--algorithm.t", "13", *overrides,
                "--output.csv_dir", str(tmp_path / "out")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_seed_refused_by_the_run_leaves_no_directory(self, tmp_path, capsys):
        # q exceeds the dataset: init_round refuses the seed after the
        # problem is built and its step sizes are checked
        argv = ["run", "--preset", "robust-q6", "--algorithm.q", "50", "--algorithm.t", "7",
                "--output.csv_dir", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.endswith("error: q=50 exceeds client 0 dataset size 40\n") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_negative_heavy_cadence_is_an_error_exit(self, tmp_path, capsys):
        argv = ["run", "--preset", "robust-q6", "--algorithm.t", "13", "--output.seeds", "1",
                "--output.heavy_cadence", "-2", "--output.csv_dir", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: output.heavy_cadence must be >= 0") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("preset,overrides", [
        ("auc-imbalanced", ["--problem.n_test", "-3"]),
        ("auc-imbalanced", ["--problem.n_test", "0"]),
        ("auc-imbalanced", ["--problem.n_test", "1"]),
        ("auc-imbalanced", ["--problem.n_test", "10", "--problem.pos_ratio", "0.96"]),  # 10 positives
        ("robust-q6", ["--problem.n_test", "-1"]),
    ])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_held_out_size_is_checked_at_construction(self, command, preset, overrides, tmp_path, capsys):
        # a negative size, or an AUC held-out set without both classes, is a
        # problem error before any step, not numpy's error or one mid-run
        argv = [command, "--preset", preset, *overrides, "--output.csv_dir", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "n_test" in err and "Traceback" not in err
        assert not list(tmp_path.rglob("*.csv")) and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_auc_pos_ratio_without_a_negative_cluster_is_an_error_exit(self, command, tmp_path, capsys):
        # round(2K pos_ratio) = 4 of the 4 clusters positive: refused at
        # construction, not an IndexError or numpy's divide-by-zero warning
        argv = [command, "--preset", "auc-imbalanced", "--problem.k", "2", "--problem.pos_ratio", "0.9",
                "--algorithm.q", "5", "--algorithm.t", "10", "--output.csv_dir", str(tmp_path / "out")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 2
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith("error: pos_ratio=0.9 ") and "Traceback" not in err
        assert not list(tmp_path.rglob("*.csv")) and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("preset", ["auc-imbalanced", "robust-q6"])
    def test_problem_name_override_is_refused_in_any_case(self, preset, tmp_path, capsys):
        argv = ["run", "--preset", preset, "--problem.Name", "robust", "--output.csv_dir", str(tmp_path / "out")]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: problem.name cannot be overridden\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("under", ["", "sub"])
    def test_csv_dir_on_a_file_is_an_error_exit(self, under, tmp_path, capsys):
        # the directory is an existing file (FileExistsError) or lies under
        # one (NotADirectoryError)
        (tmp_path / "taken").write_text("x")
        argv = ["run", "--preset", "robust-q6", "--algorithm.t", "13", "--output.seeds", "1",
                "--output.csv_dir", str(tmp_path / "taken" / under)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        # refused before the seed starts: no constraint warning, only the error
        assert [line.startswith("error: ") for line in err.splitlines()] == [True]
        assert "not a directory" in err
        assert (tmp_path / "taken").read_text() == "x"
        assert [p.name for p in tmp_path.rglob("*")] == ["taken"]

    def test_invalid_config_exits_nonzero(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.ini"
        cfgfile.write_text("[problem]\nname = synthetic\nk = oops\n")
        assert main(["run", str(cfgfile)]) != 0
        assert "error:" in capsys.readouterr().err

    def test_non_finite_probe_gradient_is_an_error_exit(self, capsys):
        # tau * x overflows at the heterogeneity probe points, silently: the
        # probe reports it (pyproject makes a RuntimeWarning an error here)
        for command in (["validate"], ["probe", "--checks", "constants"]):
            assert main([*command, "--preset", "synthetic-s1", "--problem.tau", "1e308"]) == 2
            captured = capsys.readouterr()
            assert captured.err == "error: synthetic: non-finite exact gradient at a heterogeneity probe point\n"
            assert captured.out == ""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_constraint_terms_past_a_float_are_an_error_exit(self, command, tmp_path, capsys):
        # L_f = 1e200: the gradients stay finite, but powers of L_f in the
        # step-size system overflow a Python float; for validate, the probe
        # gradients' squared norms overflow too, and print no warning (run
        # evaluates no probe gradient)
        argv = [command, "--preset", "synthetic-s1", "--problem.tau", "1e200", "--output.csv_dir", str(tmp_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert errors == ["error: step-size constraint terms overflow a float (L_f=1e+200, mu=1)"]
        assert "Traceback" not in err and not list(tmp_path.iterdir())

    def test_run_meets_a_float_sized_L_f_before_any_gradient(self, tmp_path, capsys):
        # where validate's probe gradients overflow (tau = 1e308), run, which
        # evaluates none, stops at its step-size check
        argv = ["run", "--preset", "synthetic-s1", "--problem.tau", "1e308", "--output.csv_dir", str(tmp_path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: step-size constraint terms overflow a float (L_f=1e+308, mu=1)\n"
        assert captured.out == "" and not list(tmp_path.iterdir())

    def test_validate_passing_preset(self, capsys):
        assert main(["validate", "--preset", "synthetic-theorem"]) == 0
        out = capsys.readouterr().out
        assert "overall: satisfied" in out
        assert "m_lower=satisfied|" in out

    def test_validate_starts_where_the_run_starts(self, monkeypatch, capsys):
        # On robust-q6 a start of 5 in every y coordinate lies outside the
        # ball, so the projection is active.
        cfg = apply_overrides(load_preset("robust-q6"), {"algorithm.y_init_scale": "5"})
        problem, hp = cfg.build_problem(1), cfg.hp_for_seed(1)
        x1, y1 = initial_point(problem, hp)
        clients, _, _ = init_round(problem, hp)
        assert problem.y_constraint.radius < 5 * np.sqrt(problem.p)
        assert np.linalg.norm(y1) == pytest.approx(problem.y_constraint.radius)
        assert np.array_equal(x1, clients.X[0]) and np.array_equal(y1, clients.Y[0])
        # validate takes the point it bounds from initial_point (only the
        # synthetic family has a saddle, so only it reports a bound).
        seen = []
        monkeypatch.setattr(cli, "initial_point", lambda p, h: seen.append(h) or initial_point(p, h))
        assert main(["validate", "--preset", "synthetic-theorem", "--algorithm.y_init_scale", "5"]) == 0
        assert [h.y_init_scale for h in seen] == [5.0]
        assert "G=" in capsys.readouterr().out

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

    @pytest.mark.parametrize("preset", ["robust-q6", "robust-q12"])
    def test_validate_on_a_family_without_mu_is_not_applicable(self, preset, capsys):
        # exit 0 means "satisfied", so a system that does not apply exits 1
        assert main(["validate", "--preset", preset]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 and lines[0].startswith("not applicable: ")
        assert lines[1].startswith("theorem=not_applicable|")
        assert not any(name in "\n".join(lines) for name in CONSTRAINT_NAMES)

    def test_robust_run_leaves_stderr_empty(self, tmp_path, capsys):
        argv = ["run", "--preset", "robust-q6", "--algorithm.t", "13", "--output.csv_dir", str(tmp_path / "out")]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and len(captured.out.splitlines()) == 3

    @pytest.mark.parametrize("preset", ["robust-q6", "robust-q12"])
    def test_probe_constants_on_a_family_without_mu_print_none(self, preset, capsys):
        assert main(["probe", "--preset", preset, "--checks", "constants", "--points", "20"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "  mu=none (none)" in lines and "  kappa=none L=none" in lines
        assert any(line.startswith("  L_f=") and line.endswith(" (estimated)") for line in lines)

    def test_probe_synthetic_all_checks_pass(self, capsys):
        code = main(["probe", "--preset", "synthetic-s1", "--checks",
                     "pl,lipschitz,gradcheck,unbiased,constants", "--points", "50"])
        assert code == 0
        out = capsys.readouterr().out
        assert "pl: worst_slack=" in out
        assert "gradcheck:" in out

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_probe_without_points_is_a_config_error(self, points, capsys):
        # zero probes would certify every assumption; a negative count would
        # reach numpy as a negative dimension
        code = main(["probe", "--preset", "synthetic-s1", "--checks", "pl,lipschitz", "--points", points])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: --points must be >= 1, got {points}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("checks", ["", ",", " , "])
    def test_probe_without_checks_is_a_config_error(self, checks, capsys):
        # an empty list would check nothing and exit 0
        assert main(["probe", "--preset", "synthetic-s1", "--checks", checks, "--points", "20"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --checks names no check\n" and captured.out == ""

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

    def test_diverging_bench_variant_reports_and_the_others_finish(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["bench", "--preset", "synthetic-s1", "--algorithm.gamma", "50",
                         "--algorithm.t", "200", "--variants", "fgda,adafgda_adam"])
        assert [str(w.message) for w in caught] == []
        assert code == 3
        captured = capsys.readouterr()
        assert re.search(r"^fgda: diverged: non-finite objective at t=\d+$", captured.err, re.M)
        assert "adafgda_adam: diverged" not in captured.err
        assert "Traceback" not in captured.err
        rows = [ln.split()[0] for ln in captured.out.splitlines()[1:]]
        assert rows == ["adafgda_adam"]

    # sha256 of `fedmm bench` stdout, taken when every variant still built
    # its own problem instance
    BENCH_STDOUT_PINS = {
        ("--algorithm.t", "41"): "4318704ae92d8b5adffa038accb6f5eb36d28a22ec9ac35f01f885dc46aa2cd3",
        ("--algorithm.t", "40", "--variants", ",".join(VARIANTS)):
            "efc314b8ac1c5cab3fe7d4d221ed12388ca9878b03da918e981fd43ac0a73294",
    }

    @pytest.mark.parametrize("args", sorted(BENCH_STDOUT_PINS))
    def test_bench_builds_one_instance_and_keeps_its_table(self, args, capsys, monkeypatch):
        built = []
        real_build = RunConfig.build_problem
        monkeypatch.setattr(RunConfig, "build_problem", lambda cfg, seed: built.append(seed) or real_build(cfg, seed))
        assert main(["bench", "--preset", "auc-imbalanced", *args]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == self.BENCH_STDOUT_PINS[args]
        assert built == [1]

    @pytest.mark.parametrize("variants", ["", " , "])
    def test_bench_without_variants_is_a_config_error(self, variants, capsys):
        assert main(["bench", "--preset", "auc-imbalanced", "--variants", variants]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --variants names no variant\n" and captured.out == ""

    def test_bench_default_roster_on_imbalanced_preset(self, capsys):
        code = main(["bench", "--preset", "auc-imbalanced", "--algorithm.t", "60"])
        assert code == 0
        out = capsys.readouterr().out
        for variant in ("local_sgda", "momentum_local_sgda", "fgda", "adafgda_adam"):
            assert variant in out

    def test_missing_config_is_an_error(self, capsys):
        assert main(["run"]) != 0


# (exit code, sha256 of stdout, sha256 of stderr) of `fedmm ARGS` at an
# 80-column terminal: the help text, and the constraint report and the
# probes of every shipped preset, byte for byte. The auc-imbalanced report
# was re-pinned when its L_f moved by 4.5e-16 relative (one 3 x 3 block per
# item); its terms moved in their last digits, its verdict and exit did not.
# The robust probes were re-pinned when the robust exact x-gradient moved to
# one gemv per point: unbiased's worst_gap went from 3.451e-16 to 6.783e-16,
# still ok against 1e-10, and the exit stayed 0. The robust reports and probes
# were re-pinned when the family's nominal mu was retired: validate prints the
# one not-applicable line (exit 1, as before), and probe prints mu, kappa and
# L as none; its other lines did not move.
_EMPTY = hashlib.sha256(b"").hexdigest()
CLI_OUTPUT_PINS = {
    "--help": (0, "1cc03bae71c68e510a210d0261ad3d81a893fd8db4438ce1ff2ca9dce1f33097", _EMPTY),
    "validate --preset auc-imbalanced":
        (1, "35389707762889d8ff586b6019a92326de4e55a38778b98880eae80be61f81ef", _EMPTY),
    "validate --preset robust-q12": (1, "d97b7ea752ab2eb0e225a11adcb151ab8971302d866a72ecac44cff1c2bbca1f", _EMPTY),
    "validate --preset robust-q6": (1, "d97b7ea752ab2eb0e225a11adcb151ab8971302d866a72ecac44cff1c2bbca1f", _EMPTY),
    "validate --preset synthetic-s1": (1, "53fbd699ea1ee4f8abcd818e445e53a9c7cb0cc71cf3b987f0f41425a8d2d12d", _EMPTY),
    "validate --preset synthetic-s10": (1, "53a783e0ee1ca7eba07472b95890eee646f5812d6dd91c8687ebaf9ac7c376b7", _EMPTY),
    "validate --preset synthetic-theorem":
        (0, "59b4078e0044748594f2ae21943c4c901389a98f56d16bcd0ee8303671e205c2", _EMPTY),
    "probe --preset auc-imbalanced --points 20":
        (0, "874179fd7eead21048303174ba559837548e9e0b1af820e04228d9db65ee04f5", _EMPTY),
    "probe --preset robust-q12 --points 20":
        (0, "963379d3aabd63202f8aaa22ffb953a68c519532a6c9e027abc0bfe184f0643c",
         "c9c4eeac9f4d962fa4e37146f26da65335f9f9bd4320cdd5b599c44e748cb87c"),
    "probe --preset robust-q6 --points 20":
        (0, "963379d3aabd63202f8aaa22ffb953a68c519532a6c9e027abc0bfe184f0643c",
         "c9c4eeac9f4d962fa4e37146f26da65335f9f9bd4320cdd5b599c44e748cb87c"),
    "probe --preset synthetic-s1 --points 20":
        (0, "86ad028385580cda1ef413f06f6a8b305eecb2a132cb27880c252f307a21c12b", _EMPTY),
    "probe --preset synthetic-s10 --points 20":
        (0, "8779e80e4ad8b4d468646f29c1f1eedc717488007a10f01ee9cd3b639832077f", _EMPTY),
    "probe --preset synthetic-theorem --points 20":
        (0, "7e394a49d565af4150db7feda67b3d0b391d3b5a11091cf4fbb1a2e6a47c8fbc", _EMPTY),
}


def test_cli_output_roster_covers_every_preset():
    for command in ("validate", "probe"):
        pinned = {args.split()[2] for args in CLI_OUTPUT_PINS if args.startswith(command)}
        assert pinned == set(preset_names())


@pytest.mark.parametrize("args", sorted(CLI_OUTPUT_PINS))
def test_cli_output_is_pinned(args):
    src = str(Path(fedminimax.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "fedminimax.cli", *args.split()], capture_output=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": src, "COLUMNS": "80"})
    digest = (proc.returncode, hashlib.sha256(proc.stdout).hexdigest(), hashlib.sha256(proc.stderr).hexdigest())
    assert digest == CLI_OUTPUT_PINS[args], proc.stdout.decode() + proc.stderr.decode()


# (exit code, sha256 of stdout, sha256 of stderr) of `fedmm run --preset P
# --algorithm.t 2q+1`, every seed of P, taken while `run` still estimated every
# constant for its step-size check; the summaries hold wall_time_s, so they
# are not pinned.
RUN_OUTPUT_PINS = {
    "auc-imbalanced": (0, "0466d70027804d30aeafa21cd3b2bffbf66060b0cc306880581ff1a2d18423a0",
                       "a8f59369c25ae71450a4c16490eb84a80f2cdfa050122b4f6d06694b3583ffbf"),
    "robust-q12": (0, "87db822ee78e16964b8e7bd78a870d568d1ad2c0a51738322b82bb6e12a2e866", _EMPTY),
    "robust-q6": (0, "22655b015a0a5ea413f825e781228967c169017e74fece66234ea4704e9ab4b9", _EMPTY),
    "synthetic-s1": (0, "2ad1f6d080d95ae1c97fec0be4d63c7475ad196e089e6dfc44bcfd9bb3393d20",
                     "a8f59369c25ae71450a4c16490eb84a80f2cdfa050122b4f6d06694b3583ffbf"),
    "synthetic-s10": (0, "f94c2876dd9e6377b135015d47a83a5240825bf6905947d2ddfae5a86f8fd25b",
                      "a8f59369c25ae71450a4c16490eb84a80f2cdfa050122b4f6d06694b3583ffbf"),
    "synthetic-theorem": (0, "507215990399f332e38c7dc653e8c3e57b0f0715108ac9bd66d882c3d522d782", _EMPTY),
}


def _run_short(preset: str, out_dir: Path, capsys) -> tuple[tuple[int, str, str], dict[str, bytes]]:
    """(exit code, stdout sha256, stderr sha256) of `fedmm run` at T = 2q + 1,
    and the CSVs it wrote."""
    q = load_preset(preset).algorithm.q
    code = main(["run", "--preset", preset, "--algorithm.t", str(2 * q + 1), "--output.csv_dir", str(out_dir)])
    captured = capsys.readouterr()
    digest = (code, hashlib.sha256(captured.out.encode()).hexdigest(), hashlib.sha256(captured.err.encode()).hexdigest())
    return digest, {p.name: p.read_bytes() for p in sorted(out_dir.glob("*.csv"))}


@pytest.mark.parametrize("preset", preset_names())
def test_run_output_is_pinned(preset, tmp_path, capsys):
    assert _run_short(preset, tmp_path / "out", capsys)[0] == RUN_OUTPUT_PINS[preset]


@pytest.mark.parametrize("preset", preset_names())
def test_run_estimates_no_constants(preset, tmp_path, capsys, monkeypatch):
    # the step-size check reads the closed-form L_f and mu, so the run ends
    # as it does unpatched: same exit, stdout, stderr and CSVs (one directory
    # for both, since the CSVs' config hash covers csv_dir)
    out_dir = tmp_path / "out"
    plain = _run_short(preset, out_dir, capsys)
    shutil.rmtree(out_dir)

    def refuse(*args, **kwargs):
        raise AssertionError("fedmm run estimated constants")

    monkeypatch.setattr(theory, "estimate_constants", refuse)
    assert _run_short(preset, out_dir, capsys) == plain


def test_import_and_robust_run_load_no_scipy(tmp_path):
    # scipy.special alone is about 24 MB resident; the package runs on numpy
    out = tmp_path / "out"
    code = (
        "import sys\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "import fedminimax\n"
        "print(scipy_modules())\n"
        "from fedminimax.cli import main\n"
        f"assert main(['run', '--preset', 'robust-q6', '--problem.k', '2', '--algorithm.t', '12',"
        f" '--output.csv_dir', {str(out)!r}]) == 0\n"
        "print(scipy_modules())\n"
    )
    src = str(Path(fedminimax.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("[]", "[]")
    assert len(list(out.glob("*.csv"))) == 3
