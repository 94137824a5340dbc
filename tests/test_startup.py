"""What a fresh interpreter loads: ``import gexlab`` nothing, each subcommand only its modules."""

import json
import subprocess
import sys

import pytest

# the package's exported names, in order
EXPORTED = [
    "AmbiguitySet", "CapacityError", "CltReport", "ConfigurationError", "DiscreteDistribution",
    "DivergenceError", "DomainError", "EvaluationError", "GParams", "GexlabError", "HypothesisError",
    "MomentEnvelope", "MomentScanReport", "PdeGrid", "PdeSolution", "PhiSpec", "SizeError",
    "UniformMomentReport", "ValidationError", "brute_force_adapted_oracle",
    "brute_force_adapted_oracle_many", "capacity_pair", "clt_convergence", "count_adapted_strategies",
    "g_function", "g_normal_expectation", "g_normal_solution", "gaussian_quadrature_oracle",
    "joint_expectation", "lower_expectation", "make_phi", "moment_envelope", "moment_scan",
    "normalized_sum_expectation", "pairwise_independence_check", "params_from_envelope", "parse_phi",
    "reference_set", "require_mean_zero", "solve_g_heat", "sum_expectation", "uniform_moment_check",
    "upper_expectation", "variance_subadditivity_check",
]


def fresh(code: str):
    """Run ``code`` in a fresh interpreter and return what it printed as JSON."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestPackageNamespace:
    def test_import_loads_no_submodule_and_no_numpy(self):
        got = fresh(
            "import json, sys, gexlab\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in ('gexlab', 'numpy'))))"
        )
        assert got == ["gexlab"]

    def test_names_are_their_modules_objects(self):
        got = fresh(
            "import json, sys, gexlab\n"
            "homes = {n: getattr(gexlab, n).__module__ for n in gexlab.__all__}\n"
            "same = all(getattr(gexlab, n) is getattr(sys.modules[m], n) for n, m in homes.items())\n"
            "print(json.dumps([gexlab.__all__, sorted(set(homes.values())), same]))"
        )
        assert got == [
            EXPORTED,
            ["gexlab.ambiguity", "gexlab.errors", "gexlab.experiments", "gexlab.gheat", "gexlab.pengsum", "gexlab.phis"],
            True,
        ]

    def test_names_follow_a_repointed_attribute(self):
        got = fresh(
            "import json, gexlab\n"
            "from gexlab import pengsum\n"
            "pengsum.sum_expectation = marker = object()\n"
            "print(json.dumps(gexlab.sum_expectation is marker))"
        )
        assert got is True

    def test_submodules_resolve(self):
        got = fresh(
            "import json, gexlab\n"
            "print(json.dumps([gexlab._kernels.__name__, gexlab.pengsum.__name__, 'pengsum' in dir(gexlab)]))"
        )
        assert got == ["gexlab._kernels", "gexlab.pengsum", True]

    def test_star_import(self):
        got = fresh(
            "import json\n"
            "from gexlab import *\n"
            f"print(json.dumps([n for n in {EXPORTED!r} if n not in globals()]))"
        )
        assert got == []

    def test_unknown_name_is_attribute_error(self):
        got = fresh(
            "import json, gexlab\n"
            "try:\n"
            "    gexlab.no_such_name\n"
            "except AttributeError as exc:\n"
            "    print(json.dumps([str(exc), hasattr(gexlab, 'no_such_name')]))"
        )
        assert got == ["module 'gexlab' has no attribute 'no_such_name'", False]


def command_loads(command: str) -> list[str]:
    """Modules a default run of ``command`` loads beyond those of a bare ``import numpy``."""
    return fresh(
        "import contextlib, io, json, sys\n"
        "import numpy\n"
        "before = set(sys.modules)\n"
        "from gexlab import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main([{command!r}]) == 0\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )


class TestCommandLoads:
    @pytest.mark.parametrize("command", ["moments", "clt", "gheat", "oracle"])
    def test_lattice_and_pde_commands_load_no_fuzz(self, command):
        mods = command_loads(command)
        assert "gexlab.experiments" in mods
        assert "gexlab.fuzz" not in mods and "numpy.random" not in mods

    @pytest.mark.parametrize("command", ["axioms", "independence"])
    def test_fuzz_commands_load_no_experiments(self, command):
        mods = command_loads(command)
        assert "gexlab.fuzz" in mods
        assert "gexlab.experiments" not in mods

    @pytest.mark.parametrize("command", ["axioms", "independence", "moments", "oracle"])
    def test_commands_without_a_pde_load_no_solver(self, command):
        assert "gexlab.gheat" not in command_loads(command)
