import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from gexlab import _kernels, cli, pengsum
from gexlab.errors import ValidationError
from test_kernels import dp_step_loop_reference


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def config_at(key, value) -> dict:
    """The config that sets ``value`` at the config path ``key``."""
    section, _, field = key.partition("/")
    return {section: {field: value} if field else value}


REFERENCE_LAWS = [
    {"step": 0.5, "atoms": [{"k": -2, "p": 0.5}, {"k": 2, "p": 0.5}]},
    {"step": 0.5, "atoms": [{"k": -1, "p": 0.5}, {"k": 1, "p": 0.5}]},
]

DRIFT_LAWS = [{"step": 1.0, "atoms": [{"k": 1, "p": 1.0}], "label": "drift"}]
ONE_LAW = [{"step": 1.0, "atoms": [{"k": -1, "p": 0.5}, {"k": 1, "p": 0.5}]}]  # the +-1 coin
WIDE_LAW = [{"step": 1.0, "atoms": [{"k": -3, "p": 0.5}, {"k": 3, "p": 0.5}]}]  # the +-3 coin
# one law on {0, 2} at p = 1/2 each: mean 1, E[X^2] = 2
OFF_CENTRE_LAWS = [{"step": 1.0, "atoms": [{"k": 0, "p": 0.5}, {"k": 2, "p": 0.5}]}]
# families of one-atom laws: each such law's term is its own multiply
DIRAC_PAIR = [{"step": 1.0, "atoms": [{"k": -1, "p": 1.0}]}, {"step": 1.0, "atoms": [{"k": 1, "p": 1.0}]}]
DIRAC_AND_COIN = [
    {"step": 0.5, "atoms": [{"k": 0, "p": 1.0}]},
    {"step": 0.5, "atoms": [{"k": -2, "p": 0.5}, {"k": 2, "p": 0.5}]},
]
# an asymmetric mean-zero law beside the +-1 coin: its atoms reach 3 slots left and
# 1 right, so the origin's cone, not the block, ends the window's schedule
SKEWED_AND_COIN = [
    {"step": 0.5, "atoms": [{"k": -3, "p": 0.25}, {"k": 1, "p": 0.75}]},
    {"step": 0.5, "atoms": [{"k": -1, "p": 0.5}, {"k": 1, "p": 0.5}]},
]


class TestParseConfig:
    def run_bad(self, tmp_path, obj, fragment, command="clt"):
        path = write_config(tmp_path, obj)
        with pytest.raises(ValidationError, match=fragment):
            cli.parse_config(path, command)

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
            cli.parse_config(str(path), "clt")

    def test_negative_seed(self, tmp_path):
        self.run_bad(tmp_path, {"experiment": {"seed": -1}}, "/experiment/seed", "axioms")

    def test_n_max_is_unknown(self, tmp_path):
        self.run_bad(tmp_path, {"experiment": {"nMax": 8}}, "/experiment/nMax: unknown key")

    def test_bad_output_format(self, tmp_path):
        self.run_bad(tmp_path, {"output": {"format": "yaml"}}, "/output/format")

    def test_valid_config(self, tmp_path):
        obj = {
            "ambiguity": [dict(REFERENCE_LAWS[0], label="wide"), REFERENCE_LAWS[1]],
            "experiment": {"dx": 0.05, "nList": [4, 8, 16, 32], "phi": "abspow:2.5"},
            "output": {"format": "csv"},
        }
        opts = cli.parse_config(write_config(tmp_path, obj), "clt")
        assert sorted(opts) == ["ambiguity", "dx", "format", "n", "phi"]
        assert opts["ambiguity"].labels == ("wide", "law 1")
        assert opts["ambiguity"].step == 0.5
        assert opts["n"] == [4, 8, 16, 32]
        assert opts["format"] == "csv"


# each names the band by flag and config path alike, wherever its values came from
BAND = "--sigma-lo and --sigma-hi (/experiment/sigmaLo and /experiment/sigmaHi)"
BAND_AND_FAMILY = f"give a band, {BAND}, or an ambiguity family (/ambiguity), not both"
HALF_BAND = f"give both {BAND} or neither"


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

    @pytest.mark.parametrize("k", [2**63, -(2**63), 2**53 + 1], ids=["2^63", "-2^63", "2^53+1"])
    def test_index_out_of_range_is_config_error(self, k, tmp_path, capsys):
        # 2^63 is past int64, -2^63 is not, and all three are past 2^53
        law = {"step": 1.0, "atoms": sorted([{"k": k, "p": 0.5}, {"k": 1, "p": 0.5}], key=lambda a: a["k"])}
        path = write_config(tmp_path, {"ambiguity": [*ONE_LAW, law]})
        assert cli.main(["moments", "--config", path]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "gexlab: /ambiguity/1: lattice indices must be integers in [-2^53, 2^53]\n"

    @pytest.mark.parametrize("command", ["moments", "oracle"])
    def test_overflowing_lattice_is_refused_by_name(self, command, tmp_path, capsys):
        # at step 1e308, k = +-2 has no finite support point; k = +-1 has, but S_n does not
        path = write_config(tmp_path, {"ambiguity": [dict(WIDE_LAW[0], step=1e308)]})
        assert cli.main([command, "--config", path]) == cli.EXIT_CONFIG
        law = "/ambiguity/0: support point of lattice index -3 at step 1e+308 is not a finite float\n"
        assert capsys.readouterr().err == "gexlab: " + law
        path = write_config(tmp_path, {"ambiguity": [dict(ONE_LAW[0], step=1e308)]})
        assert cli.main([command, "--config", path]) == cli.EXIT_RUNTIME
        what, n = ("lattice sweep", 256) if command == "moments" else ("brute-force oracle", 3)
        assert capsys.readouterr().err == (
            f"gexlab: {what} would reach lattice index {n} at step 1e+308, "
            "whose point is not a finite float; reduce n or the step\n"
        )

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
        for text in ("a,b", ","):
            with pytest.raises(SystemExit) as exc:
                cli.main(["moments", "--n", text])
            assert exc.value.code == 2
        assert "expected at least one integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "obj,message",
        [
            ({"ambiguity": []}, "/ambiguity: expected a non-empty list of law specs"),
            ({"ambiguity": [{"step": 1.0, "atoms": []}]},
             "/ambiguity/0/atoms: expected a non-empty list"),
            ({"ambiguity": [{"step": 1.0, "atoms": [{"k": 0}]}]},
             "/ambiguity/0/atoms/0: missing required key 'p'"),
            ({"ambiguity": [dict(REFERENCE_LAWS[0], label=3)]},
             "/ambiguity/0/label: expected a string, got 3"),
            ({"experiment": {"padFactor": 6.0}}, "/experiment/padFactor: unknown key"),
        ],
        ids=["no-laws", "no-atoms", "atom-without-p", "numeric-label", "pad-factor"],
    )
    def test_bad_config_is_config_error(self, obj, message, tmp_path, capsys):
        path = write_config(tmp_path, obj)
        assert cli.main(["clt", "--config", path]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"gexlab: {message}\n"

    @pytest.mark.parametrize(
        "argv",
        [["axioms", "--dx", "0.1"], ["oracle", "--sigma-lo", "1"], ["gheat", "--n", "4"],
         ["moments", "--seed", "1"], ["clt", "--r", "3"], ["independence", "--phi", "abs"],
         ["clt", "--pad", "6"], ["gheat", "--pad", "6"]],
    )
    def test_unread_flag_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_unattainable_oracle_is_runtime_error(self, capsys):
        assert cli.main(["oracle", "--n", "4"]) == cli.EXIT_RUNTIME
        assert "refuses to enumerate" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["gheat", "--dx", "1e-4"], ["moments", "--n", "4,8,16,2097152"], ["clt", "--n", "8,32,4000000"]],
    )
    def test_unfinishable_work_is_runtime_error(self, argv, capsys):
        assert cli.main(argv) == cli.EXIT_RUNTIME
        out, err = capsys.readouterr()
        assert out == ""
        limit = re.escape(f"(limit {_kernels.MAX_WORK:.3g})")
        assert err.count("\n") == 1
        assert re.search(r"would need about [0-9.e+]+ updates " + limit, err)

    @pytest.mark.parametrize(
        "argv, message",
        [
            # one atom at 0: a 1-point block, whose 2^30 steps only the per-step cost prices
            (["moments", "--config", "K0", "--n", "4,8,16,1073741824"],
             "lattice sweep would need about 4.4e+12 updates (limit 2e+10); reduce n or the atom span"),
            # 15 573 287 nodes: the march's work refuses it, not the grid's size
            (["gheat", "--sigma-lo", "0", "--sigma-hi", "1.981585593553972", "--dx", "1.5269113998379529e-06"],
             "PDE march would need about 6.56e+19 updates (limit 2e+10); increase dx"),
            # the largest n is refused before the PDE solve and the smaller n's sweeps
            (["clt", "--n", "8,32,4000000"],
             "lattice sweep would need about 1.34e+12 updates (limit 2e+10); reduce n or the atom span"),
            # each suite is refused before its first draw, not after days of trials
            (["axioms", "--trials", "1000000000"],
             "axiom suite would need about 1.84e+14 updates (limit 2e+10); reduce the trial count"),
            (["independence", "--trials", "100000000"],
             "independence suite would need about 2.4e+14 updates (limit 2e+10); reduce the pair count"),
        ],
    )
    def test_unfinishable_work_refused_before_compute(self, argv, message, tmp_path, no_compute, capsys):
        config = tmp_path / "k0.json"
        config.write_text('{"ambiguity": [{"step": 1.0, "atoms": [{"k": 0, "p": 1.0}]}]}')
        argv = [str(config) if a == "K0" else a for a in argv]
        assert cli.main(argv) == cli.EXIT_RUNTIME
        assert capsys.readouterr() == ("", f"gexlab: {message}\n")

    def test_half_sigma_pair_rejected(self, tmp_path, capsys):
        lo_only = write_config(tmp_path, {"experiment": {"sigmaLo": 1}})
        for argv in (["gheat", "--sigma-lo", "1.0"], ["gheat", "--config", lo_only]):
            assert cli.main(argv) == cli.EXIT_CONFIG
            assert capsys.readouterr() == ("", f"gexlab: {HALF_BAND}\n")

    def test_oversized_pde_grid_is_runtime_error(self, capsys):
        assert cli.main(["gheat", "--dx", "1e-30"]) == cli.EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "points" in err

    def test_unexpected_exception_is_runtime_error(self, monkeypatch, capsys):
        def broken(opts):
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


# One out-of-range value per option with a flag, for a command that reads it;
# every string is a path for --out, so it has none.
OUT_OF_RANGE = [
    ("format", "axioms", "xml"),
    ("r", "moments", "1"),
    ("n", "moments", "0"),
    ("phi", "clt", "frobnicate"),
    ("dx", "gheat", "0"),
    ("sigma_lo", "gheat", "-1"),
    ("sigma_hi", "gheat", "-1"),
    ("seed", "axioms", "-3"),
    ("trials", "axioms", "0"),
]

# One accepted value per option with a flag, as flag text and as config value,
# that differs from every command's default; "OUT" stands for a path.
ACCEPTED = {
    "out": ("OUT", "OUT"),
    "format": ("csv", "csv"),
    "r": ("4", 4.0),
    "n": ("1,2", [1, 2]),
    "phi": ("cube", "cube"),
    "dx": ("0.05", 0.05),
    "sigma_lo": ("0.5", 0.5),
    "sigma_hi": ("1", 1.0),
    "seed": ("3", 3),
    "trials": ("3", 3),
}
# gheat takes both volatilities or neither
PARTNER = {"sigma_lo": ["--sigma-hi", "1"], "sigma_hi": ["--sigma-lo", "0.5"]}

FLAGGED = [name for name, opt in cli._OPTIONS.items() if opt.kind is not None]
READ = [(name, command) for name in FLAGGED for command in cli._OPTIONS[name].defaults]
UNREAD = [
    (name, command) for name, opt in cli._OPTIONS.items() for command in cli._COMMANDS
    if command not in opt.defaults
]


class TestOptionParity:
    def test_every_option_is_covered(self):
        assert sorted(name for name, _, _ in OUT_OF_RANGE) == sorted(set(FLAGGED) - {"out"})
        assert sorted(ACCEPTED) == sorted(FLAGGED)

    @pytest.mark.parametrize("name,command,text", OUT_OF_RANGE, ids=[c[0] for c in OUT_OF_RANGE])
    def test_flag_and_config_refused_alike(self, name, command, text, tmp_path, capsys):
        opt = cli._OPTIONS[name]
        flag = "--" + name.replace("_", "-")
        assert cli.main([command, flag, text]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"gexlab: {flag}")

        value = text if opt.kind is str else json.loads(text)
        path = write_config(tmp_path, config_at(opt.key, [value] if name == "n" else value))
        assert cli.main([command, "--config", path]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"gexlab: /{opt.key}")

    def test_bad_format_flag_names_the_flag(self, capsys):
        assert cli.main(["moments", "--format", "xml"]) == cli.EXIT_CONFIG
        assert capsys.readouterr() == ("", "gexlab: --format: expected 'json' or 'csv', got 'xml'\n")

    @pytest.mark.parametrize("name,command", READ, ids=[f"{c}-{n}" for n, c in READ])
    def test_flag_and_config_accepted_alike(self, name, command, tmp_path, capsys):
        report = tmp_path / "report"
        text, value = (str(report) if v == "OUT" else v for v in ACCEPTED[name])

        def run(*argv):
            report.unlink(missing_ok=True)
            code = cli.main([command, *argv, *PARTNER.get(name, [])])
            out, err = capsys.readouterr()
            return code, out, err, report.read_bytes() if report.exists() else None

        opt = cli._OPTIONS[name]
        by_flag = run("--" + name.replace("_", "-"), text)
        by_config = run("--config", write_config(tmp_path, config_at(opt.key, value)))
        assert by_config == by_flag
        assert by_config != run()  # the value is read, not ignored

    @pytest.mark.parametrize("name,command", UNREAD, ids=[f"{c}-{n}" for n, c in UNREAD])
    def test_unread_config_key_refused(self, name, command, tmp_path, capsys):
        opt = cli._OPTIONS[name]
        value = REFERENCE_LAWS if name == "ambiguity" else ACCEPTED[name][1]
        path = write_config(tmp_path, config_at(opt.key, value))
        assert cli.main([command, "--config", path]) == cli.EXIT_CONFIG
        assert capsys.readouterr() == ("", f"gexlab: /{opt.key}: unknown key\n")

    @pytest.mark.parametrize("command", ["axioms", "independence", "oracle"])
    def test_family_and_foreign_keys_refused(self, command, tmp_path, capsys):
        # a family with the keys r and sigmaLo: refused from a config as from flags
        path = write_config(tmp_path, {"ambiguity": REFERENCE_LAWS, "experiment": {"r": 3, "sigmaLo": 1}})
        assert cli.main([command, "--config", path]) == cli.EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and err.endswith(": unknown key\n")
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--r", "3", "--sigma-lo", "1"])
        assert exc.value.code == 2
        capsys.readouterr()


def registered_flags() -> dict:
    """Each command's option flags as ``build_parser`` registers them."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    common = {"-h", "--help", "--config"}
    return {
        name: {s for action in p._actions for s in action.option_strings} - common
        for name, p in sub.choices.items()
    }


README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_readme_option_table_matches_parser():
    documented = {name: set() for name in cli._COMMANDS}
    keys = {}
    for line in README.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if not re.fullmatch(r"`--[a-z-]+`", cells[0]):
            continue
        flag = cells[0].strip("`")
        keys[flag] = cells[1].strip("`")
        for command in re.findall(r"`([a-z]+)`", cells[-1]):
            documented[command].add(flag)
    assert documented == registered_flags()
    assert keys == {"--" + n.replace("_", "-"): cli._OPTIONS[n].key for n in FLAGGED}


def test_readme_config_example_is_a_clt_config(tmp_path):
    example = re.search(r"```json\n(.*?)```", README, re.DOTALL).group(1)
    path = tmp_path / "example.json"
    path.write_text(example, encoding="utf-8")
    opts = cli.parse_config(str(path), "clt")
    assert sorted(opts) == ["ambiguity", "dx", "format", "n", "out", "phi"]


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

    def test_family_not_mean_zero_needs_a_given_band(self, tmp_path, capsys):
        # its second moments are no variances, so it has no volatility band of its own
        path = write_config(tmp_path, {"ambiguity": OFF_CENTRE_LAWS})
        assert cli.main(["gheat", "--config", path]) == cli.EXIT_CONFIG
        assert capsys.readouterr() == ("", "gexlab: mean-zero hypothesis violated by law 0 (mean 1.000e+00)\n")
        # a band replaces the family, and is refused alongside it
        argv = ["gheat", "--config", path, "--sigma-lo", "1", "--sigma-hi", "1", "--dx", "0.05"]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert capsys.readouterr() == ("", f"gexlab: {BAND_AND_FAMILY}\n")

    def test_band_or_family_not_both(self, tmp_path, capsys):
        band = ["--sigma-lo", "1", "--sigma-hi", "1", "--dx", "0.05"]
        family = write_config(tmp_path, {"ambiguity": REFERENCE_LAWS}, "family.json")
        assert cli.main(["gheat", *band]) == cli.EXIT_PASS
        assert json.loads(capsys.readouterr().out)["sigmaLo"] == 1.0
        assert cli.main(["gheat", "--config", family, "--dx", "0.05"]) == cli.EXIT_PASS
        assert json.loads(capsys.readouterr().out)["sigmaLo"] == 0.5
        both = write_config(
            tmp_path, {"ambiguity": REFERENCE_LAWS, "experiment": {"sigmaLo": 1, "sigmaHi": 1}}, "both.json"
        )
        for argv in (["gheat", "--config", family, *band], ["gheat", "--config", both]):
            assert cli.main(argv) == cli.EXIT_CONFIG
            assert capsys.readouterr() == ("", f"gexlab: {BAND_AND_FAMILY}\n")

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
        for phi, values in [("square", [1.0, 2.0]), ("abs", [1.0, 1.0])]:
            assert cli.main(["oracle", "--n", "1,2", "--phi", phi, "--out", str(out)]) == 0
            capsys.readouterr()
            report = json.loads(out.read_text())
            assert [e["phi"] for e in report["entries"]] == [phi, phi]
            assert [e["dpValue"] for e in report["entries"]] == values

    def test_counts_strategies_once_per_n(self, monkeypatch, capsys):
        seen = []
        count = pengsum.count_adapted_strategies

        def recording(aset, n):
            seen.append(n)
            return count(aset, n)

        monkeypatch.setattr(pengsum, "count_adapted_strategies", recording)
        assert cli.main(["oracle", "--n", "1,2"]) == 0
        assert cli.main(["oracle", "--n", "60"]) == cli.EXIT_RUNTIME
        capsys.readouterr()
        # a refused n is never counted
        assert seen == [1, 2]

    def test_one_sweep_per_phi(self, monkeypatch, capsys):
        seen = []
        sweep = pengsum.sum_expectations

        def recording(aset, ns, phi):
            seen.append((list(ns), phi.label))
            return sweep(aset, ns, phi)

        monkeypatch.setattr(pengsum, "sum_expectations", recording)
        assert cli.main(["oracle", "--n", "3,1,2,1"]) == 0
        capsys.readouterr()
        assert seen == [([1, 2, 3], label) for label in ("abs", "square", "cube", "quartic", "clamp:-1;1")]

    def test_one_law_passes_at_scale(self, tmp_path, capsys):
        # quartic's 3n^2 - 2n = 1918400 comes out 9.3e-10 (4.9e-16 of it) off
        # in the oracle; the pass rule scales by max|phi| on the terminal support
        config = write_config(tmp_path, {"ambiguity": ONE_LAW})
        out = tmp_path / "o.json"
        assert cli.main(["oracle", "--config", config, "--n", "800", "--out", str(out)]) == 0
        capsys.readouterr()
        report = json.loads(out.read_text())
        assert report["pass"] is True
        assert report["tolerance"] == 1e-10 < report["maxAbsDiff"]

    def test_perturbed_dp_value_fails(self, monkeypatch, capsys):
        sweep = pengsum.sum_expectations

        def perturbed(aset, ns, phi):
            values = sweep(aset, ns, phi)
            return values[:-1] + [values[-1] * (1.0 + 1e-9)] if phi.label == "abs" else values

        monkeypatch.setattr(pengsum, "sum_expectations", perturbed)
        assert cli.main(["oracle"]) == cli.EXIT_FAIL
        capsys.readouterr()

    @pytest.mark.parametrize("laws", [ONE_LAW, ONE_LAW + WIDE_LAW], ids=["one-law", "two-law"])
    def test_large_n_refused_before_counting(self, laws, tmp_path, monkeypatch, capsys):
        # two laws on +-1 and +-3 never merge into runs, so counting alone
        # takes seconds; one law is always under the ceiling, and its dense
        # tensors grow as n^3
        def fail(*args):
            raise AssertionError("the refusal must not count or enumerate")

        monkeypatch.setattr(pengsum, "_reachable_runs", fail)
        monkeypatch.setattr(pengsum, "_transition_tensor", fail)
        config = write_config(tmp_path, {"ambiguity": laws})
        start = time.perf_counter()
        assert cli.main(["oracle", "--config", config, "--n", "100000"]) == cli.EXIT_RUNTIME
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("gexlab: brute-force oracle would need about ")

    @pytest.mark.parametrize("laws, ns", [(ONE_LAW, "700,1249,1300"), (REFERENCE_LAWS, "1,2,60")],
                             ids=["work", "ceiling"])
    def test_largest_n_refused_before_any_enumeration(self, laws, ns, tmp_path, monkeypatch, capsys):
        # admission refuses one law at n = 1300 and the strategy ceiling the
        # reference family at n = 60: before any smaller n enumerates, and
        # with the exit code and message of the largest n alone
        config = write_config(tmp_path, {"ambiguity": laws})
        assert cli.main(["oracle", "--config", config, "--n", ns.rsplit(",", 1)[1]]) == cli.EXIT_RUNTIME
        alone = capsys.readouterr()
        enumerated = []
        monkeypatch.setattr(pengsum, "_enumerate_strategy_distributions", lambda aset, n: enumerated.append(n))
        assert cli.main(["oracle", "--config", config, "--n", ns]) == cli.EXIT_RUNTIME
        assert capsys.readouterr() == alone and alone.err.startswith("gexlab: ")
        assert enumerated == []

    def test_csv_header(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert cli.main(["oracle", "--n", "1", "--format", "csv", "--out", str(out)]) == 0
        capsys.readouterr()
        assert out.read_text().splitlines()[0] == "n,phi,dpValue,oracleValue,absDiff"


class TestConfigDrivenOutput:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_refused_report_keeps_old_file(self, fmt, tmp_path, monkeypatch, capsys):
        # _emit renders the whole report before it opens the file
        def unrenderable(opts):
            return {"value": float("nan")}, ("v",), [(float("nan"),)], True

        monkeypatch.setitem(cli._COMMANDS, "moments", (unrenderable, "unrenderable"))
        out = tmp_path / "r.txt"
        out.write_bytes(b"old")
        assert cli.main(["moments", "--format", fmt, "--out", str(out)]) == cli.EXIT_CONFIG
        assert capsys.readouterr() == ("", "gexlab: cannot serialize non-finite value nan\n")
        assert out.read_bytes() == b"old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.txt"]

    def test_output_section_honored(self, tmp_path, capsys):
        out = tmp_path / "from_config.csv"
        path = write_config(
            tmp_path,
            {
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

    @pytest.mark.parametrize(
        "argv", [["--help"], ["moments"], ["gheat", "--format", "csv"], ["oracle", "--n", "60"], ["clt", "--r", "3"]]
    )
    def test_console_script_matches_module(self, argv):
        # the `gexlab` console script of pyproject calls cli.main() on sys.argv
        script = "import sys; from gexlab.cli import main; sys.exit(main())"
        entry, module = (
            subprocess.run([sys.executable, *route, *argv], capture_output=True)
            for route in (["-c", script], ["-m", "gexlab"])
        )
        assert entry.stdout or entry.stderr
        assert (entry.returncode, entry.stdout, entry.stderr) == (module.returncode, module.stdout, module.stderr)

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


# stdout sha256 of each report at its defaults, and of the march with cd = 0
# on negabs, which keeps phi's -0.0 at the origin
REPORT_SHA256 = {
    "axioms": "4cafb7aba11a077d6a04bffc889839991d0735a866fa67cf8920a8aa866d32f5",
    "independence": "2a14eb42bdf52133ee94a31b19b4cf71cc657a72b9281f803368356a58b68157",
    "moments": "8cddec449498fe6987f0a95329895440904d29626a9fe2c268393dc8204062df",
    "clt": "7b6c2dc777e99860b99545edd27c4dc904af6b44b94820e1f41b6305707cedf5",
    "gheat": "819a87f9130481bae0225c04352541ebe520902db84940b5fcb6293a39090d59",
    "oracle": "ef10db63cee97f91e7e68ed179d23b561d391910d8ac5d51a2a1d3fd1a595e61",
    "gheat --format csv": "f98ed80c288d938c4deaf9d3c711c71cc53eac94fbcd9b0b7a894d6cb3356c7f",
    "gheat --sigma-lo 0 --sigma-hi 1 --phi negabs --format csv":
        "9f04182edea26aea08b8ec794bf0d889d98c2718e3c64923bab564fda0b1d332",
    # held sweeps up to n = 4096, through every stage of their window
    "moments --n 256,512,1024,2048,4096": "23aaa18b4dcba02d4bfc847c5cf6a6bdd0602f6a04b15feb60ccde09b2adc163",
    "moments --r 3.5 --n 256,512,1024,2048,4096": "c40bdd4e0f0e307e372ea6ba9095ff02fa525864fde5ad91101480676d16e0a6",
}


@pytest.mark.parametrize("argv", REPORT_SHA256)
def test_default_report_bytes_pinned(argv, capsys):
    assert cli.main(argv.split()) == cli.EXIT_PASS
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == REPORT_SHA256[argv]


def test_skewed_report_bytes_pinned_at_scale(capsys, tmp_path):
    # the skewed family held up to n = 65 536, through 112 stages of its window
    config = write_config(tmp_path, {"ambiguity": SKEWED_AND_COIN})
    assert cli.main(["moments", "--config", config, "--n", "8192,16384,32768,65536"]) == cli.EXIT_PASS
    got = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == "82bf19f6cb57450cb2100d5906752fd0cacbc7747a552b9291f6be00081fddc5"


class TestReportBytesThroughLoop:
    """The lattice reports print the per-atom loop's bytes, at their defaults, on one-atom laws and
    through every stage of a held window (the stand-in's fresh arrays copied into the narrowed rows)."""

    @pytest.mark.parametrize(
        "command, laws",
        [
            ("moments", None), ("clt", None), ("oracle", None), ("oracle", DIRAC_PAIR), ("clt --n 8,32", DIRAC_AND_COIN),
            ("moments --n 256,512,1024,2048,4096", None), ("moments --n 256,512,1024,2048,4096", SKEWED_AND_COIN),
        ],
        ids=["moments", "clt", "oracle", "oracle-dirac-pair", "clt-dirac-and-coin", "moments-held-to-4096",
             "moments-skewed-to-4096"],
    )
    def test_default_report_matches_loop(self, monkeypatch, capsys, tmp_path, command, laws):
        argv = command.split()
        if laws is not None:
            argv += ["--config", write_config(tmp_path, {"ambiguity": laws})]
        assert cli.main(argv) == cli.EXIT_PASS
        got = capsys.readouterr().out

        def loop_step(*args, plan):
            return dp_step_loop_reference(*args)

        monkeypatch.setattr(pengsum._kernels, "dp_step", loop_step)
        assert cli.main(argv) == cli.EXIT_PASS
        assert capsys.readouterr().out == got

    def test_skewed_family_bytes_pinned(self, capsys, tmp_path):
        # 24 stages at n = 4096, each cutting the game; the cone first narrows
        # the window at step 3972, after the last stage's at step 3930
        config = write_config(tmp_path, {"ambiguity": SKEWED_AND_COIN})
        assert cli.main(["moments", "--config", config, "--n", "256,512,1024,2048,4096"]) == cli.EXIT_PASS
        got = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert got == "d60e0d8f52db9cc76bead8de8d0f3af7dcce7e0b952bdbb88e492a5e5aab30a6"
