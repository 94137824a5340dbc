import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from gexlab import cli, pengsum
from gexlab.errors import ValidationError


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


REFERENCE_LAWS = [
    {"step": 0.5, "atoms": [{"k": -2, "p": 0.5}, {"k": 2, "p": 0.5}]},
    {"step": 0.5, "atoms": [{"k": -1, "p": 0.5}, {"k": 1, "p": 0.5}]},
]

DRIFT_LAWS = [{"step": 1.0, "atoms": [{"k": 1, "p": 1.0}], "label": "drift"}]


class TestParseConfig:
    def run_bad(self, tmp_path, obj, fragment):
        path = write_config(tmp_path, obj)
        with pytest.raises(ValidationError, match=fragment):
            cli.parse_config(path)

    def test_unknown_top_key(self, tmp_path):
        self.run_bad(tmp_path, {"extra": {}}, "/extra: unknown key")

    def test_top_level_must_be_object(self, tmp_path):
        self.run_bad(tmp_path, [], "expected an object")

    def test_unknown_atom_key(self, tmp_path):
        laws = [{"step": 0.5, "atoms": [{"k": 1, "p": 0.5}, {"k": -1, "p": 0.5, "q": 1}]}]
        self.run_bad(tmp_path, {"ambiguity": laws}, "/ambiguity/0/atoms/1/q: unknown key")

    def test_missing_atoms(self, tmp_path):
        self.run_bad(tmp_path, {"ambiguity": [{"step": 1.0}]}, "missing required key 'atoms'")

    def test_fractional_index_rejected(self, tmp_path):
        laws = [{"step": 1.0, "atoms": [{"k": 1.5, "p": 1.0}]}]
        self.run_bad(tmp_path, {"ambiguity": laws}, "/ambiguity/0/atoms/0/k: expected an integer")

    def test_bad_probability_sum(self, tmp_path):
        laws = [{"step": 1.0, "atoms": [{"k": 0, "p": 0.75}]}]
        self.run_bad(tmp_path, {"ambiguity": laws}, "/ambiguity/0")

    def test_mixed_steps(self, tmp_path):
        laws = [
            {"step": 0.5, "atoms": [{"k": 0, "p": 1.0}]},
            {"step": 0.25, "atoms": [{"k": 0, "p": 1.0}]},
        ]
        self.run_bad(tmp_path, {"ambiguity": laws}, "/ambiguity: ")

    def test_bad_n_list_element(self, tmp_path):
        self.run_bad(tmp_path, {"experiment": {"nList": [2, 0]}}, "/experiment/nList/1")

    def test_bad_n_list_type(self, tmp_path):
        self.run_bad(tmp_path, {"experiment": {"nList": "all"}}, "/experiment/nList")

    def test_unknown_phi(self, tmp_path):
        self.run_bad(tmp_path, {"experiment": {"phi": "frobnicate"}}, "/experiment/phi")

    def test_unknown_experiment_key(self, tmp_path):
        self.run_bad(tmp_path, {"experiment": {"bogus": 1}}, "/experiment/bogus: unknown key")

    def test_boolean_is_not_a_number(self, tmp_path):
        self.run_bad(tmp_path, {"experiment": {"dx": True}}, "/experiment/dx")

    def test_int_too_large_for_a_float(self, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('{"experiment": {"dx": 1' + "0" * 400 + "}}", encoding="utf-8")
        with pytest.raises(ValidationError, match="/experiment/dx"):
            cli.parse_config(str(path))

    def test_negative_seed(self, tmp_path):
        self.run_bad(tmp_path, {"experiment": {"seed": -1}}, "/experiment/seed")

    def test_n_max_is_unknown(self, tmp_path):
        self.run_bad(tmp_path, {"experiment": {"nMax": 8}}, "/experiment/nMax: unknown key")

    def test_bad_output_format(self, tmp_path):
        self.run_bad(tmp_path, {"output": {"format": "yaml"}}, "/output/format")

    def test_valid_config(self, tmp_path):
        obj = {
            "ambiguity": [dict(REFERENCE_LAWS[0], label="wide"), REFERENCE_LAWS[1]],
            "experiment": {"r": 3.0, "nList": [4, 8, 16, 32], "phi": "abspow:2.5"},
            "output": {"format": "csv"},
        }
        cfg = cli.parse_config(write_config(tmp_path, obj))
        assert cfg.ambiguity.labels == ("wide", "law 1")
        assert cfg.ambiguity.step == 0.5
        assert cfg.experiment["nList"] == [4, 8, 16, 32]
        assert cfg.output == {"format": "csv"}


class TestExitCodes:
    def test_broken_json_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert cli.main(["moments", "--config", str(path)]) == cli.EXIT_PARSE
        assert "config parse error" in capsys.readouterr().err

    def test_non_utf8_config_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"experiment": {"phi": "\xff"}}')
        assert cli.main(["moments", "--config", str(path)]) == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("gexlab: config parse error: ")

    def test_missing_config_is_io_error(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert cli.main(["moments", "--config", missing]) == cli.EXIT_IO
        assert "i/o error" in capsys.readouterr().err

    def test_drift_config_is_hypothesis_error(self, tmp_path, capsys):
        path = write_config(tmp_path, {"ambiguity": DRIFT_LAWS})
        assert cli.main(["moments", "--config", path]) == cli.EXIT_CONFIG
        assert "mean-zero" in capsys.readouterr().err

    def test_negative_seed_flag(self, capsys):
        assert cli.main(["axioms", "--seed", "-3"]) == cli.EXIT_CONFIG
        capsys.readouterr()

    def test_zero_trials_flag(self, capsys):
        assert cli.main(["axioms", "--trials", "0"]) == cli.EXIT_CONFIG
        capsys.readouterr()

    def test_unknown_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_malformed_n_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["moments", "--n", "a,b"])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [["axioms", "--dx", "0.1"], ["oracle", "--sigma-lo", "1"], ["gheat", "--n", "4"],
         ["moments", "--seed", "1"], ["clt", "--r", "3"], ["independence", "--phi", "abs"]],
    )
    def test_unread_flag_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_unattainable_oracle_is_runtime_error(self, capsys):
        assert cli.main(["oracle", "--n", "4"]) == cli.EXIT_RUNTIME
        assert "refuses to enumerate" in capsys.readouterr().err

    def test_half_sigma_pair_rejected(self, capsys):
        assert cli.main(["gheat", "--sigma-lo", "1.0"]) == cli.EXIT_CONFIG
        assert "--sigma-hi" in capsys.readouterr().err

    def test_oversized_pde_grid_is_runtime_error(self, capsys):
        assert cli.main(["gheat", "--dx", "1e-30"]) == cli.EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "nodes" in err

    def test_unexpected_exception_is_runtime_error(self, monkeypatch, capsys):
        def broken(args, cfg):
            raise RuntimeError("lost\nthe plot")

        monkeypatch.setitem(cli._COMMANDS, "moments", (broken, "broken"))
        assert cli.main(["moments"]) == cli.EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err == "gexlab: internal error: RuntimeError: lost the plot\n"

    def test_huge_strategy_count_printed_compactly(self, capsys):
        assert cli.main(["oracle", "--n", "60"]) == cli.EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err) < 200
        assert "at least 10^2149 adapted strategies" in err

    def test_quadrature_overflow_is_runtime_error(self, capsys):
        argv = ["gheat", "--sigma-lo", "1e307", "--sigma-hi", "1e307", "--dx", "1e307", "--phi", "abs"]
        assert cli.main(argv) == cli.EXIT_RUNTIME
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and "quadrature oracle overflowed" in err


# One out-of-range value per option, for a command that reads it.
OUT_OF_RANGE = [
    ("r", "moments", "1"),
    ("n", "moments", "0"),
    ("phi", "clt", "frobnicate"),
    ("dx", "gheat", "0"),
    ("pad", "gheat", "2"),
    ("sigma_lo", "gheat", "-1"),
    ("sigma_hi", "gheat", "-1"),
    ("seed", "axioms", "-3"),
    ("trials", "axioms", "0"),
]


class TestOptionParity:
    def test_every_option_is_covered(self):
        assert sorted(name for name, _, _ in OUT_OF_RANGE) == sorted(cli._OPTIONS)

    @pytest.mark.parametrize("name,command,text", OUT_OF_RANGE, ids=[c[0] for c in OUT_OF_RANGE])
    def test_flag_and_config_refused_alike(self, name, command, text, tmp_path, capsys):
        opt = cli._OPTIONS[name]
        flag = "--" + name.replace("_", "-")
        assert cli.main([command, flag, text]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"gexlab: {flag}")

        value = text if name == "phi" else json.loads(text)
        path = write_config(tmp_path, {"experiment": {opt.key: [value] if name == "n" else value}})
        assert cli.main([command, "--config", path]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"gexlab: /experiment/{opt.key}")


def registered_flags() -> dict:
    """Each command's option flags as ``build_parser`` registers them."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    common = {"-h", "--help", "--config", "--out", "--format"}
    return {
        name: {s for action in p._actions for s in action.option_strings} - common
        for name, p in sub.choices.items()
    }


def test_readme_option_table_matches_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    documented = {name: set() for name in cli._COMMANDS}
    keys = {}
    for line in readme.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if not re.fullmatch(r"`--[a-z-]+`", cells[0]):
            continue
        flag = cells[0].strip("`")
        keys[flag] = cells[1].strip("`")
        for command in re.findall(r"`([a-z]+)`", cells[-1]):
            documented[command].add(flag)
    assert documented == registered_flags()
    assert keys == {"--" + n.replace("_", "-"): opt.key for n, opt in cli._OPTIONS.items()}


class TestAxiomCommands:
    def test_axioms_csv_to_stdout(self, capsys):
        assert cli.main(["axioms", "--trials", "5", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "check,maxResidual"

    def test_independence_json_to_stdout(self, capsys):
        assert cli.main(["independence", "--trials", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True
        assert report["maxViolation"] <= 1e-12


class TestMomentsCommand:
    def test_defaults_to_reference_set(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert cli.main(["moments", "--out", str(out)]) == 0
        assert f"wrote {out}" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert report["pass"] is True
        assert report["entries"][0]["n"] == 4

    def test_csv_header(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        code = cli.main(
            ["moments", "--n", "4,8,16,32", "--format", "csv", "--out", str(out)]
        )
        capsys.readouterr()
        assert code == 0
        assert out.read_text().splitlines()[0] == "n,a_n,n_pow_r_half,ratio"

    def test_r_flag_overrides_config(self, tmp_path, capsys):
        path = write_config(tmp_path, {"experiment": {"r": 3.0, "nList": [4, 8, 16, 32]}})
        out = tmp_path / "m.json"
        code = cli.main(["moments", "--config", path, "--r", "4.0", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        assert json.loads(out.read_text())["r"] == 4.0


class TestCltCommand:
    def test_csv_header(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code = cli.main(
            ["clt", "--n", "2,4", "--dx", "0.05", "--format", "csv", "--out", str(out)]
        )
        capsys.readouterr()
        assert code == 0
        assert out.read_text().splitlines()[0] == "n,dpValue,pdeValue,absError"

    def test_exit_code_tracks_report_flag(self, tmp_path, capsys):
        # contract: exit 0 iff the written report says errorsDecreasing
        out = tmp_path / "c.json"
        code = cli.main(
            ["clt", "--phi", "square", "--n", "2,8", "--dx", "0.05", "--out", str(out)]
        )
        capsys.readouterr()
        report = json.loads(out.read_text())
        assert (code == 0) == report["errorsDecreasing"]
        assert report["phi"]["name"] == "square"
        assert report["envelope"]["varUpper"] == 1.0


class TestGheatCommand:
    def test_degenerate_band_reports_quadrature(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        code = cli.main(
            ["gheat", "--sigma-lo", "1", "--sigma-hi", "1", "--phi", "abs",
             "--dx", "0.05", "--out", str(out)]
        )
        capsys.readouterr()
        assert code == 0
        report = json.loads(out.read_text())
        assert report["sigmaLo"] == report["sigmaHi"] == 1.0
        assert report["absError"] == abs(report["value"] - report["quadratureValue"])
        assert report["absError"] < 1e-3

    def test_strict_band_has_no_quadrature_key(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        code = cli.main(
            ["gheat", "--sigma-lo", "0.5", "--sigma-hi", "1", "--dx", "0.05",
             "--out", str(out)]
        )
        capsys.readouterr()
        assert code == 0
        report = json.loads(out.read_text())
        assert "quadratureValue" not in report
        assert report["value"] == pytest.approx(1.0, abs=2e-2)

    def test_profile_csv(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        code = cli.main(
            ["gheat", "--dx", "0.1", "--format", "csv", "--out", str(out)]
        )
        capsys.readouterr()
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,u"
        assert len(lines) > 50


class TestOracleCommand:
    def test_default_catalog(self, tmp_path, capsys):
        out = tmp_path / "o.json"
        assert cli.main(["oracle", "--n", "1,2", "--out", str(out)]) == 0
        capsys.readouterr()
        report = json.loads(out.read_text())
        assert report["pass"] is True
        assert report["maxAbsDiff"] <= report["tolerance"] == 1e-10
        assert [c["n"] for c in report["strategyCounts"]] == [1, 2]
        assert report["strategyCounts"][1]["strategies"] == 32
        assert len(report["entries"]) == 10

    def test_single_phi_narrows_entries(self, tmp_path, capsys):
        out = tmp_path / "o.json"
        assert cli.main(["oracle", "--n", "1,2", "--phi", "square", "--out", str(out)]) == 0
        capsys.readouterr()
        report = json.loads(out.read_text())
        assert [e["phi"] for e in report["entries"]] == ["square", "square"]
        assert report["entries"][0]["dpValue"] == 1.0
        assert report["entries"][1]["dpValue"] == 2.0

    def test_counts_strategies_once_per_n(self, monkeypatch, capsys):
        seen = []
        count = pengsum.count_adapted_strategies

        def recording(aset, n):
            seen.append(n)
            return count(aset, n)

        monkeypatch.setattr(cli, "count_adapted_strategies", recording)
        monkeypatch.setattr(pengsum, "count_adapted_strategies", recording)
        assert cli.main(["oracle", "--n", "1,2"]) == 0
        assert cli.main(["oracle", "--n", "60"]) == cli.EXIT_RUNTIME
        capsys.readouterr()
        # a refused n is never counted
        assert seen == [1, 2]

    def test_csv_header(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert cli.main(["oracle", "--n", "1", "--format", "csv", "--out", str(out)]) == 0
        capsys.readouterr()
        assert out.read_text().splitlines()[0] == "n,phi,dpValue,oracleValue,absDiff"


class TestConfigDrivenOutput:
    def test_output_section_honored(self, tmp_path, capsys):
        out = tmp_path / "from_config.csv"
        path = write_config(
            tmp_path,
            {
                "ambiguity": REFERENCE_LAWS,
                "experiment": {"trials": 3},
                "output": {"path": str(out), "format": "csv"},
            },
        )
        assert cli.main(["axioms", "--config", path]) == 0
        assert f"wrote {out}" in capsys.readouterr().out
        assert out.read_text().startswith("check,")

    def test_format_flag_beats_config(self, tmp_path, capsys):
        out = tmp_path / "o.json"
        path = write_config(tmp_path, {"output": {"path": str(out), "format": "csv"}})
        assert cli.main(["axioms", "--config", path, "--trials", "3", "--format", "json"]) == 0
        capsys.readouterr()
        json.loads(out.read_text())


def run_gexlab(*argv, env=None):
    return subprocess.run(
        [sys.executable, "-m", "gexlab", *argv], capture_output=True, text=True, env=env
    )


# Environment settings the package must not read.
STALE_KNOBS = {"GEXLAB_BACKEND": "fortran", "GEXLAB_THREADS": "abc"}


class TestSubprocessEntry:
    def test_cli_import_loads_no_scipy(self):
        code = (
            "import sys, gexlab, gexlab.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
        )
        env = {**os.environ, **STALE_KNOBS}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("command", ["axioms", "independence", "moments", "clt", "gheat", "oracle"])
    def test_command_loads_no_numpy_ma_or_scipy(self, command):
        code = (
            "import contextlib, io, sys\n"
            "from gexlab import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = cli.main([{command!r}])\n"
            "print(code, sorted(m for m in sys.modules if m == 'numpy.ma' or m.split('.')[0] == 'scipy'))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0 []"

    def test_stale_environment_knobs_are_ignored(self):
        proc = run_gexlab("moments", "--n", "4,8,16,32", env={**os.environ, **STALE_KNOBS})
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["pass"] is True

    def test_huge_scales_refused_in_one_line(self):
        # x**2 on the 6e200-wide domain overflows; square cannot be evaluated there
        proc = run_gexlab("gheat", "--sigma-lo", "1e200", "--sigma-hi", "1e200", "--dx", "1e200")
        assert proc.returncode == cli.EXIT_RUNTIME, proc.stderr
        assert proc.stderr.count("\n") == 1 and "non-finite" in proc.stderr
        assert proc.stdout == ""

    def test_tiny_scales_solved(self):
        # sigma_hi**2 underflows to 0; the ratio dx/sigma_hi does not
        proc = run_gexlab("gheat", "--sigma-lo", "1e-170", "--sigma-hi", "1e-170")
        assert proc.returncode == cli.EXIT_PASS, proc.stderr
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["value"] == 0.0

    def test_unwritable_out_names_only_the_given_path(self, tmp_path):
        out = str(tmp_path / "missing" / "x.json")
        errs = []
        for _ in range(2):
            proc = run_gexlab("moments", "--out", out)
            assert proc.returncode == cli.EXIT_IO
            assert proc.stdout == ""
            errs.append(proc.stderr)
        assert errs[0] == errs[1]
        assert errs[0] == f"gexlab: i/o error: [Errno 2] No such file or directory: {out!r}\n"

    def test_module_runs_and_is_deterministic(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "gexlab", "moments", "--n", "4,8,16,32",
                 "--out", str(out)],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
