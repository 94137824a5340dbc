"""Batch command line front door.

Subcommands: axioms, independence, moments, clt, gheat, oracle.  Inputs
come from a JSON config file plus overriding flags; outputs are byte-stable
JSON or CSV reports.  Exit codes: 0 all checks passed, 1 a check failed
(report still written), 2 config parse error, 3 validation or hypothesis
error, 4 I/O error, 5 other runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from .ambiguity import AmbiguitySet, DiscreteDistribution, moment_envelope
from .errors import (
    ConfigurationError,
    GexlabError,
    HypothesisError,
    ValidationError,
)
from .experiments import clt_convergence, moment_scan, reference_set
from .fuzz import axiom_suite, independence_suite
from .gheat import GParams, g_normal_solution, gaussian_quadrature_oracle, params_from_envelope
from .pengsum import brute_force_adapted_oracle_many, count_adapted_strategies, sum_expectation
from .phis import parse_phi
from .serialize import dumps_csv, dumps_json, write_csv, write_json

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_CONFIG = 3
EXIT_IO = 4
EXIT_RUNTIME = 5

ORACLE_TOL = 1e-10

_TOP_KEYS = {"ambiguity", "experiment", "output"}
_LAW_KEYS = {"step", "atoms", "label"}
_ATOM_KEYS = {"k", "p"}
_EXPERIMENT_KEYS = {
    "r", "nList", "phi", "dx", "padFactor", "seed", "trials",
    "sigmaLo", "sigmaHi",
}
_OUTPUT_KEYS = {"path", "format"}


@dataclass
class Config:
    """Validated batch configuration."""

    ambiguity: AmbiguitySet | None = None
    experiment: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)


def _fail(path: str, msg: str):
    raise ValidationError(f"{path or '/'}: {msg}")


def _check_keys(obj, allowed: set, path: str) -> dict:
    if not isinstance(obj, dict):
        _fail(path, f"expected an object, got {type(obj).__name__}")
    for key in obj:
        if key not in allowed:
            _fail(f"{path}/{key}", "unknown key")
    return obj


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")
    return float(value)


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    return int(value)


def _string(value, path: str) -> str:
    if not isinstance(value, str):
        _fail(path, f"expected a string, got {value!r}")
    return value


def _build_ambiguity(spec, path: str) -> AmbiguitySet:
    if not isinstance(spec, list) or not spec:
        _fail(path, "expected a non-empty list of law specs")
    laws = []
    labels = []
    labeled = False
    for i, law_spec in enumerate(spec):
        law_path = f"{path}/{i}"
        _check_keys(law_spec, _LAW_KEYS, law_path)
        for key in ("step", "atoms"):
            if key not in law_spec:
                _fail(law_path, f"missing required key {key!r}")
        step = _number(law_spec["step"], f"{law_path}/step")
        atoms_spec = law_spec["atoms"]
        if not isinstance(atoms_spec, list) or not atoms_spec:
            _fail(f"{law_path}/atoms", "expected a non-empty list")
        atoms = []
        for j, atom in enumerate(atoms_spec):
            atom_path = f"{law_path}/atoms/{j}"
            _check_keys(atom, _ATOM_KEYS, atom_path)
            for key in ("k", "p"):
                if key not in atom:
                    _fail(atom_path, f"missing required key {key!r}")
            atoms.append(
                (_integer(atom["k"], f"{atom_path}/k"), _number(atom["p"], f"{atom_path}/p"))
            )
        try:
            laws.append(DiscreteDistribution.from_atoms(step, atoms))
        except ValidationError as exc:
            _fail(law_path, str(exc))
        if "label" in law_spec:
            labels.append(_string(law_spec["label"], f"{law_path}/label"))
            labeled = True
        else:
            labels.append(f"law {i}")
    try:
        return AmbiguitySet(tuple(laws), labels=tuple(labels) if labeled else None)
    except ValidationError as exc:
        _fail(path, str(exc))


def _parse_experiment(spec, path: str) -> dict:
    _check_keys(spec, _EXPERIMENT_KEYS, path)
    out: dict = {}
    if "r" in spec:
        out["r"] = _number(spec["r"], f"{path}/r")
    if "nList" in spec:
        ns = spec["nList"]
        if not isinstance(ns, list) or not ns:
            _fail(f"{path}/nList", "expected a non-empty list of integers")
        parsed = []
        for j, n in enumerate(ns):
            n = _integer(n, f"{path}/nList/{j}")
            if n < 1:
                _fail(f"{path}/nList/{j}", f"expected a positive integer, got {n}")
            parsed.append(n)
        out["nList"] = parsed
    if "phi" in spec:
        text = _string(spec["phi"], f"{path}/phi")
        try:
            parse_phi(text)
        except ValidationError as exc:
            _fail(f"{path}/phi", str(exc))
        out["phi"] = text
    for key in ("dx", "padFactor", "sigmaLo", "sigmaHi"):
        if key in spec:
            value = _number(spec[key], f"{path}/{key}")
            if value <= 0.0 and key in ("dx", "padFactor"):
                _fail(f"{path}/{key}", f"expected a positive number, got {value!r}")
            if value < 0.0:
                _fail(f"{path}/{key}", f"expected a non-negative number, got {value!r}")
            out[key] = value
    for key in ("seed", "trials"):
        if key in spec:
            value = _integer(spec[key], f"{path}/{key}")
            if key == "trials" and value < 1:
                _fail(f"{path}/{key}", f"expected a positive integer, got {value}")
            if key == "seed" and value < 0:
                _fail(f"{path}/{key}", f"expected a non-negative integer, got {value}")
            out[key] = value
    return out


def _parse_output(spec, path: str) -> dict:
    _check_keys(spec, _OUTPUT_KEYS, path)
    out: dict = {}
    if "path" in spec:
        out["path"] = _string(spec["path"], f"{path}/path")
    if "format" in spec:
        fmt = _string(spec["format"], f"{path}/format")
        if fmt not in ("json", "csv"):
            _fail(f"{path}/format", f"expected 'json' or 'csv', got {fmt!r}")
        out["format"] = fmt
    return out


def parse_config(path: str) -> Config:
    """Load and fully validate a JSON config file.

    Violations are reported with a JSON-pointer-style path into the file.
    """
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    _check_keys(raw, _TOP_KEYS, "")
    cfg = Config()
    if "ambiguity" in raw:
        cfg.ambiguity = _build_ambiguity(raw["ambiguity"], "/ambiguity")
    if "experiment" in raw:
        cfg.experiment = _parse_experiment(raw["experiment"], "/experiment")
    if "output" in raw:
        cfg.output = _parse_output(raw["output"], "/output")
    return cfg


def _pick(flag, config_value, default):
    if flag is not None:
        return flag
    if config_value is not None:
        return config_value
    return default


def _emit(args, cfg: Config, json_obj, csv_header, csv_rows) -> None:
    """Write the report as JSON or CSV to the chosen path or stdout."""
    fmt = _pick(args.format, cfg.output.get("format"), "json")
    path = _pick(args.out, cfg.output.get("path"), None)
    if path is None:
        text = dumps_json(json_obj) if fmt == "json" else dumps_csv(csv_header, csv_rows)
        sys.stdout.write(text)
        return
    if fmt == "json":
        write_json(path, json_obj)
    else:
        write_csv(path, csv_header, csv_rows)
    print(f"wrote {path}")


def _ambiguity_or_reference(cfg: Config) -> AmbiguitySet:
    return cfg.ambiguity if cfg.ambiguity is not None else reference_set()


def _cmd_axioms(args, cfg: Config) -> int:
    trials = _pick(args.trials, cfg.experiment.get("trials"), 200)
    seed = _pick(args.seed, cfg.experiment.get("seed"), 0)
    report = axiom_suite(seed, trials)
    _emit(args, cfg, report.to_dict(), report.CSV_HEADER, report.csv_rows())
    return EXIT_PASS if report.passed else EXIT_FAIL


def _cmd_independence(args, cfg: Config) -> int:
    trials = _pick(args.trials, cfg.experiment.get("trials"), 10)
    seed = _pick(args.seed, cfg.experiment.get("seed"), 0)
    report = independence_suite(seed, n_pairs=trials)
    _emit(args, cfg, report.to_dict(), report.CSV_HEADER, report.csv_rows())
    return EXIT_PASS if report.passed else EXIT_FAIL


def _cmd_moments(args, cfg: Config) -> int:
    aset = _ambiguity_or_reference(cfg)
    r = _pick(args.r, cfg.experiment.get("r"), 3.0)
    n_list = _pick(args.n, cfg.experiment.get("nList"), [2**k for k in range(2, 9)])
    report = moment_scan(aset, r, n_list)
    _emit(args, cfg, report.to_dict(), report.CSV_HEADER, report.csv_rows())
    return EXIT_PASS if report.passed else EXIT_FAIL


def _cmd_clt(args, cfg: Config) -> int:
    aset = _ambiguity_or_reference(cfg)
    phi = parse_phi(_pick(args.phi, cfg.experiment.get("phi"), "abs"))
    n_list = _pick(args.n, cfg.experiment.get("nList"), [8, 32, 128, 256])
    dx = _pick(args.dx, cfg.experiment.get("dx"), 0.02)
    pad = _pick(args.pad, cfg.experiment.get("padFactor"), 6.0)
    report = clt_convergence(aset, phi, n_list, dx=dx, pad_factor=pad)
    _emit(args, cfg, report.to_dict(), report.CSV_HEADER, report.csv_rows())
    return EXIT_PASS if report.errors_decreasing else EXIT_FAIL


def _cmd_gheat(args, cfg: Config) -> int:
    sigma_lo = _pick(args.sigma_lo, cfg.experiment.get("sigmaLo"), None)
    sigma_hi = _pick(args.sigma_hi, cfg.experiment.get("sigmaHi"), None)
    if (sigma_lo is None) != (sigma_hi is None):
        raise ValidationError("give both --sigma-lo and --sigma-hi or neither")
    if sigma_lo is None:
        params = params_from_envelope(moment_envelope(_ambiguity_or_reference(cfg)))
    else:
        params = GParams(sigma_lo, sigma_hi)
    phi = parse_phi(_pick(args.phi, cfg.experiment.get("phi"), "square"))
    dx = _pick(args.dx, cfg.experiment.get("dx"), 0.02)
    pad = _pick(args.pad, cfg.experiment.get("padFactor"), 6.0)
    sol = g_normal_solution(params, phi, dx=dx, pad_factor=pad)
    value = sol.value_at(0.0)
    report = {
        "sigmaLo": params.sigma_lo,
        "sigmaHi": params.sigma_hi,
        "phi": phi.to_dict(),
        "dx": dx,
        "padFactor": pad,
        "value": value,
        "steps": sol.steps_taken,
    }
    if params.sigma_lo == params.sigma_hi:
        oracle = gaussian_quadrature_oracle(params.sigma_hi, phi)
        report["quadratureValue"] = oracle
        report["absError"] = abs(value - oracle)
    rows = list(zip(sol.xs.tolist(), sol.u.tolist()))
    _emit(args, cfg, report, ("x", "u"), rows)
    return EXIT_PASS


def _cmd_oracle(args, cfg: Config) -> int:
    aset = _ambiguity_or_reference(cfg)
    n_list = sorted(set(_pick(args.n, cfg.experiment.get("nList"), [1, 2, 3])))
    if args.phi is not None or cfg.experiment.get("phi") is not None:
        phis = [parse_phi(_pick(args.phi, cfg.experiment.get("phi"), "abs"))]
    else:
        phis = [
            parse_phi("abs"), parse_phi("square"), parse_phi("cube"),
            parse_phi("quartic"), parse_phi("clamp:-1,1"),
        ]
    entries = []
    strategy_counts = []
    max_diff = 0.0
    for n in n_list:
        oracle_vals = brute_force_adapted_oracle_many(aset, n, phis)
        strategy_counts.append({"n": n, "strategies": count_adapted_strategies(aset, n)})
        for phi, oracle_val in zip(phis, oracle_vals):
            dp_val = sum_expectation(aset, n, phi)
            diff = abs(dp_val - oracle_val)
            max_diff = max(max_diff, diff)
            entries.append(
                {"n": n, "phi": phi.label, "dpValue": dp_val,
                 "oracleValue": oracle_val, "absDiff": diff}
            )
    passed = max_diff <= ORACLE_TOL
    report = {
        "tolerance": ORACLE_TOL,
        "strategyCounts": strategy_counts,
        "entries": entries,
        "maxAbsDiff": max_diff,
        "pass": passed,
    }
    rows = [
        (e["n"], e["phi"], e["dpValue"], e["oracleValue"], e["absDiff"])
        for e in entries
    ]
    _emit(args, cfg, report, ("n", "phi", "dpValue", "oracleValue", "absDiff"), rows)
    return EXIT_PASS if passed else EXIT_FAIL


_COMMANDS = {
    "axioms": (_cmd_axioms, "fuzz the sublinear-expectation axioms and capacity duality"),
    "independence": (_cmd_independence, "fuzz the capacity product rule for independent pairs"),
    "moments": (_cmd_moments, "scan the growth of upper moments of n-step sums"),
    "clt": (_cmd_clt, "compare normalized-sum expectations with the PDE limit"),
    "gheat": (_cmd_gheat, "solve the nonlinear heat equation for a catalog function"),
    "oracle": (_cmd_oracle, "cross-check dynamic programming against brute force"),
}


def _int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


# Each flag with the commands that read it, so an unread flag is a usage error.
_FLAGS = {
    "--r": (float, "moment order r > 2", ("moments",)),
    "--n": (_int_list, "comma-separated n values", ("moments", "clt", "oracle")),
    "--phi": (str, "catalog function, e.g. abs or abspow:2.5", ("clt", "gheat", "oracle")),
    "--dx": (float, "PDE space step", ("clt", "gheat")),
    "--pad": (float, "PDE domain pad factor", ("clt", "gheat")),
    "--sigma-lo": (float, "lower volatility", ("gheat",)),
    "--sigma-hi": (float, "upper volatility", ("gheat",)),
    "--trials": (int, "randomized trial count", ("axioms", "independence")),
    "--seed": (int, "random seed", ("axioms", "independence")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gexlab",
        description="Exact sublinear-expectation experiments on lattice families",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="report output path (default: stdout)")
        p.add_argument("--format", choices=("json", "csv"), help="report format")
        for flag, (kind, text, readers) in _FLAGS.items():
            if name in readers:
                p.add_argument(flag, type=kind, help=text)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config) if args.config else Config()
        # only axioms and independence have --seed and --trials
        seed, trials = getattr(args, "seed", None), getattr(args, "trials", None)
        if seed is not None and seed < 0:
            raise ValidationError(f"--seed must be non-negative, got {seed}")
        if trials is not None and trials < 1:
            raise ValidationError(f"--trials must be positive, got {trials}")
        # A non-finite number ends as a gexlab error with its own message,
        # so numpy's overflow warnings would only add stderr lines.
        with np.errstate(over="ignore", invalid="ignore"):
            return _COMMANDS[args.command][0](args, cfg)
    except json.JSONDecodeError as exc:
        print(f"gexlab: config parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValidationError, ConfigurationError, HypothesisError) as exc:
        print(f"gexlab: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"gexlab: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except GexlabError as exc:
        print(f"gexlab: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:
        # Exit 1 means "a check failed, report written"; an unexpected error
        # is a runtime error, reported in one line instead of a traceback.
        detail = " ".join(str(exc).split())
        print(f"gexlab: internal error: {type(exc).__name__}: {detail}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
