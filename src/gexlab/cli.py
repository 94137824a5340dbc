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
from typing import Callable, NamedTuple

import numpy as np

from .ambiguity import AmbiguitySet, DiscreteDistribution, evaluate_on, moment_envelope
from .errors import (
    ConfigurationError,
    GexlabError,
    HypothesisError,
    ValidationError,
)
from .phis import PhiSpec, parse_phi
from .serialize import dumps_csv, dumps_json, write_text

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_CONFIG = 3
EXIT_IO = 4
EXIT_RUNTIME = 5

ORACLE_TOL = 1e-10

_LAW_KEYS = {"step", "atoms", "label"}
_ATOM_KEYS = {"k", "p"}


def _fail(path: str, msg: str):
    raise ValidationError(f"{path or '/'}: {msg}")


def _check_keys(obj, allowed, path: str, required=()) -> dict:
    if not isinstance(obj, dict):
        _fail(path, f"expected an object, got {type(obj).__name__}")
    for key in obj:
        if key not in allowed:
            _fail(f"{path}/{key}", "unknown key")
    for key in required:
        if key not in obj:
            _fail(path, f"missing required key {key!r}")
    return obj


def _scalar(kind: type, low: float | None = None, strict: bool = False):
    """Check of one number, a finite float or an int, that is >= low (> low if strict).

    The check takes ``(value, where)`` and its error names ``where``: a flag
    such as ``--dx`` or a config path such as ``/experiment/dx``.
    """
    types = (int, float) if kind is float else int
    bound = "" if low is None else f" {'>' if strict else '>='} {low:g}"
    want = ("a finite number" if kind is float else "an integer") + bound

    def check(value, where: str):
        if (
            isinstance(value, bool)
            or not isinstance(value, types)
            # refuses nan, inf and ints too large for a float alike
            or (kind is float and not abs(value) <= sys.float_info.max)
            or (low is not None and not (value > low if strict else value >= low))
        ):
            _fail(where, f"expected {want}, got {value!r}")
        return kind(value)

    return check


_number = _scalar(float)
_integer = _scalar(int)
_count = _scalar(int, 1)


def _string(value, path: str) -> str:
    if not isinstance(value, str):
        _fail(path, f"expected a string, got {value!r}")
    return value


def _format(value, where: str) -> str:
    if _string(value, where) not in ("json", "csv"):
        _fail(where, f"expected 'json' or 'csv', got {value!r}")
    return value


def _n_list(value, where: str) -> list[int]:
    if not isinstance(value, list) or not value:
        _fail(where, "expected a non-empty list of integers")
    return [_count(n, f"{where}/{j}") for j, n in enumerate(value)]


def _phi(value, where: str) -> PhiSpec:
    text = _string(value, where)
    try:
        return parse_phi(text)
    except ValidationError as exc:
        _fail(where, str(exc))


def _build_ambiguity(spec, path: str) -> AmbiguitySet:
    if not isinstance(spec, list) or not spec:
        _fail(path, "expected a non-empty list of law specs")
    laws = []
    labels = []
    labeled = False
    for i, law_spec in enumerate(spec):
        law_path = f"{path}/{i}"
        _check_keys(law_spec, _LAW_KEYS, law_path, required=("step", "atoms"))
        step = _number(law_spec["step"], f"{law_path}/step")
        atoms_spec = law_spec["atoms"]
        if not isinstance(atoms_spec, list) or not atoms_spec:
            _fail(f"{law_path}/atoms", "expected a non-empty list")
        atoms = []
        for j, atom in enumerate(atoms_spec):
            atom_path = f"{law_path}/atoms/{j}"
            _check_keys(atom, _ATOM_KEYS, atom_path, required=("k", "p"))
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


def parse_config(path: str, command: str) -> dict:
    """Load a JSON config file and check it against the options ``command`` reads.

    Returns ``{option name: checked value}`` for each option the file sets.
    A section or key that no option of ``command`` reads is refused, as
    argparse refuses another command's flag.  Violations are reported with a
    JSON-pointer-style path into the file.
    """
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    names = {opt.key: name for name, opt in _OPTIONS.items() if command in opt.defaults}
    given = {}
    for section, spec in _check_keys(raw, {key.split("/")[0] for key in names}, "").items():
        if section in names:  # a section read whole
            given[section] = spec
        else:
            fields = {key.split("/")[1] for key in names if key.startswith(section + "/")}
            for field, value in _check_keys(spec, fields, f"/{section}").items():
                given[f"{section}/{field}"] = value
    return {names[key]: _OPTIONS[names[key]].check(value, f"/{key}") for key, value in given.items()}


def _emit(opts: dict, json_obj, csv_header, csv_rows) -> None:
    """Render the report as JSON or CSV, then write it to the chosen path or stdout.

    Rendering first means a report that cannot be rendered leaves no file.
    """
    path = opts["out"]
    text = dumps_json(json_obj) if opts["format"] == "json" else dumps_csv(csv_header, csv_rows)
    if path is None:
        sys.stdout.write(text)
    else:
        write_text(path, text)
        print(f"wrote {path}")


def _ambiguity_or_reference(opts: dict) -> AmbiguitySet:
    if opts["ambiguity"] is not None:
        return opts["ambiguity"]
    from .experiments import reference_set

    return reference_set()


# Each command takes the resolved options and returns
# (JSON report, CSV header, CSV rows, whether its checks passed).  It imports
# its driver when it runs, so a process loads only its subcommand's modules.


def _cmd_axioms(opts: dict):
    from .fuzz import axiom_suite

    report = axiom_suite(opts["seed"], opts["trials"])
    return report.to_dict(), report.CSV_HEADER, report.csv_rows(), report.passed


def _cmd_independence(opts: dict):
    from .fuzz import independence_suite

    report = independence_suite(opts["seed"], n_pairs=opts["trials"])
    return report.to_dict(), report.CSV_HEADER, report.csv_rows(), report.passed


def _cmd_moments(opts: dict):
    from .experiments import moment_scan

    report = moment_scan(_ambiguity_or_reference(opts), opts["r"], opts["n"])
    return report.to_dict(), report.CSV_HEADER, report.csv_rows(), report.passed


def _cmd_clt(opts: dict):
    from .experiments import clt_convergence

    report = clt_convergence(_ambiguity_or_reference(opts), opts["phi"], opts["n"], dx=opts["dx"])
    return report.to_dict(), report.CSV_HEADER, report.csv_rows(), report.errors_decreasing


def _cmd_gheat(opts: dict):
    from .gheat import PAD_FACTOR, GParams, g_normal_solution, gaussian_quadrature_oracle, params_from_envelope

    sigma_lo, sigma_hi = opts["sigma_lo"], opts["sigma_hi"]
    band = "--sigma-lo and --sigma-hi (/experiment/sigmaLo and /experiment/sigmaHi)"
    if (sigma_lo is None) != (sigma_hi is None):
        raise ValidationError(f"give both {band} or neither")
    if sigma_lo is not None and opts["ambiguity"] is not None:
        raise ValidationError(f"give a band, {band}, or an ambiguity family (/ambiguity), not both")
    if sigma_lo is None:
        from .experiments import require_mean_zero

        aset = _ambiguity_or_reference(opts)
        require_mean_zero(aset)  # second moments are variances only at mean zero
        params = params_from_envelope(moment_envelope(aset))
    else:
        params = GParams(sigma_lo, sigma_hi)
    phi = opts["phi"]
    sol = g_normal_solution(params, phi, dx=opts["dx"])
    value = sol.value_at(0.0)
    report = {
        "sigmaLo": params.sigma_lo,
        "sigmaHi": params.sigma_hi,
        "phi": phi.to_dict(),
        "dx": sol.grid.dx,
        "padFactor": PAD_FACTOR,
        "value": value,
        "steps": sol.steps_taken,
    }
    if params.sigma_lo == params.sigma_hi:
        oracle = gaussian_quadrature_oracle(params.sigma_hi, phi)
        report["quadratureValue"] = oracle
        report["absError"] = abs(value - oracle)
    return report, ("x", "u"), list(zip(sol.xs.tolist(), sol.u.tolist())), True


def _cmd_oracle(opts: dict):
    from . import pengsum

    aset = _ambiguity_or_reference(opts)
    phis = opts["phi"] if isinstance(opts["phi"], tuple) else (opts["phi"],)
    ns = sorted(set(opts["n"]))
    # the largest n first: where admission or the strategy ceiling refuses it, no smaller n has enumerated
    oracle_rows = [pengsum.brute_force_adapted_oracle_many(aset, n, phis) for n in reversed(ns)][::-1]
    strategy_counts = [{"n": n, "strategies": pengsum.count_adapted_strategies(aset, n)} for n in ns]
    # one sweep per phi reads every n, with the same bits as one sweep per n
    dp_columns = [pengsum.sum_expectations(aset, ns, phi) for phi in phis]
    reachable = pengsum.reachable_index_sets(aset, ns[-1])
    entries = []
    passed = True
    for i, n in enumerate(ns):
        terminal = reachable[n] * aset.step
        for phi, oracle_val, dp_vals in zip(phis, oracle_rows[i], dp_columns):
            dp_val = dp_vals[i]
            diff = abs(dp_val - oracle_val)
            # both routes round in proportion to phi's size, not to the value (cube's is 0)
            passed &= bool(diff <= ORACLE_TOL * max(1.0, np.abs(evaluate_on(phi, terminal)).max()))
            entries.append(
                {"n": n, "phi": phi.label, "dpValue": dp_val,
                 "oracleValue": oracle_val, "absDiff": diff}
            )
    report = {
        "tolerance": ORACLE_TOL,
        "strategyCounts": strategy_counts,
        "entries": entries,
        "maxAbsDiff": max(e["absDiff"] for e in entries),
        "pass": passed,
    }
    header = ("n", "phi", "dpValue", "oracleValue", "absDiff")
    return report, header, [tuple(e[key] for key in header) for e in entries], passed


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


class _Option(NamedTuple):
    key: str  # config path: "section/key", or a section read whole
    kind: Callable | None  # argparse type of the flag; None for a config-only option
    check: Callable  # (value, where) -> value, for flag and config values alike
    help: str
    defaults: dict  # {command that reads the option: its default}
    metavar: str | None = None  # the flag's value in usage lines, if not its name


# One row per input; a command has the flag and the config key only if it
# reads the option, so any other flag is a usage error and any other config
# key a validation error.  Values resolve as flag, then config, then the
# command's default.
_OPTIONS = {
    "out": _Option("output/path", str, _string, "report output path (default: stdout)",
                   dict.fromkeys(_COMMANDS)),
    "format": _Option("output/format", str, _format, "report format",
                      dict.fromkeys(_COMMANDS, "json"), "{json,csv}"),
    "ambiguity": _Option("ambiguity", None, _build_ambiguity, "family of laws",
                         dict.fromkeys(("moments", "clt", "gheat", "oracle"))),
    "r": _Option("experiment/r", float, _scalar(float, 2.0, strict=True), "moment order r > 2",
                 {"moments": 3.0}),
    "n": _Option("experiment/nList", _int_list, _n_list, "comma-separated n values",
                 {"moments": (4, 8, 16, 32, 64, 128, 256), "clt": (8, 32, 128, 256),
                  "oracle": (1, 2, 3)}),
    "phi": _Option("experiment/phi", str, _phi, "catalog function, e.g. abs or abspow:2.5",
                   {"clt": parse_phi("abs"), "gheat": parse_phi("square"),
                    "oracle": tuple(map(parse_phi, ("abs", "square", "cube", "quartic", "clamp:-1,1")))}),
    "dx": _Option("experiment/dx", float, _scalar(float, 0.0, strict=True), "PDE space step",
                  dict.fromkeys(("clt", "gheat"))),
    "sigma_lo": _Option("experiment/sigmaLo", float, _scalar(float, 0.0), "lower volatility",
                        {"gheat": None}),
    "sigma_hi": _Option("experiment/sigmaHi", float, _scalar(float, 0.0), "upper volatility",
                        {"gheat": None}),
    "seed": _Option("experiment/seed", int, _scalar(int, 0), "random seed",
                    {"axioms": 0, "independence": 0}),
    "trials": _Option("experiment/trials", int, _count, "randomized trial count",
                      {"axioms": 200, "independence": 10}),
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gexlab",
        description="Exact sublinear-expectation experiments on lattice families",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        for opt_name, opt in _OPTIONS.items():
            if name in opt.defaults and opt.kind is not None:
                p.add_argument(_flag(opt_name), type=opt.kind, help=opt.help, metavar=opt.metavar)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        given = parse_config(args.config, args.command) if args.config else {}
        opts = {}
        for name, opt in _OPTIONS.items():
            if args.command in opt.defaults:
                flag = getattr(args, name, None)  # a config-only option has no flag
                opts[name] = (
                    opt.check(flag, _flag(name)) if flag is not None
                    else given.get(name, opt.defaults[args.command])
                )
        # A non-finite number ends as a gexlab error with its own message,
        # so numpy's overflow warnings would only add stderr lines.
        with np.errstate(over="ignore", invalid="ignore"):
            report, csv_header, csv_rows, passed = _COMMANDS[args.command][0](opts)
            _emit(opts, report, csv_header, csv_rows)
        return EXIT_PASS if passed else EXIT_FAIL
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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
