"""What each command and `import votecert` load: a command imports only the
layers it runs, every module imports on its own, and the package root
resolves every public name lazily to the object its module defines."""

import importlib
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import votecert
from votecert.rules import random_dictatorship, save_rule

PACKAGE = Path(votecert.__file__).resolve().parent
README = PACKAGE.parents[1] / "README.md"


def _run(args, cwd):
    """Run `python <args>` in a fresh interpreter that finds this package."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent) + os.pathsep + os.environ.get("PYTHONPATH", "")}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=120)


LAYERS = {"axioms", "beliefs", "lp", "polytope"}
# command line -> (layers it must import, layers it must not)
COMMANDS = {
    "check --axiom all --rule rule.json --out r.json": ({"axioms"}, LAYERS - {"axioms"}),
    "sp-check --rule rule.json --out r.json": ({"beliefs"}, LAYERS - {"beliefs"}),
    "sp-check --classic --rule rule.json --out r.json": ({"beliefs"}, LAYERS - {"beliefs"}),
    "lp-max --m 3 --n 2 --eps 1/10 --out r.json": ({"polytope", "lp"}, {"beliefs"}),
    "verify-theorem 3 2 1/10 --out r.json": ({"polytope", "lp"}, {"beliefs"}),
    "--version": (set(), LAYERS),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_a_command_imports_only_the_layers_it_runs(command, tmp_path):
    needed, unused = COMMANDS[command]
    save_rule(random_dictatorship(3, 2), str(tmp_path / "rule.json"))
    proc = _run(["-X", "importtime", "-m", "votecert.cli", *command.split()], tmp_path)
    assert proc.returncode == 0, proc.stderr
    imported = set(re.findall(r"^import time:.*\|\s*votecert\.(\w+)\s*$", proc.stderr, re.M))
    assert needed <= imported, imported
    assert not unused & imported, f"{command} imports {sorted(unused & imported)}"


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__"))
def test_every_module_imports_first_in_a_fresh_interpreter(module, tmp_path):
    proc = _run(["-c", f"import votecert.{module}"], tmp_path)
    assert proc.returncode == 0, proc.stderr


# Every name `votecert/__init__.py` re-exported when it imported every layer.
OLD_EXPORTS = {
    "axioms": (
        "AxiomReport", "DistanceReport", "candidate_anonymity_deviation",
        "distance_to_random_dictatorship", "isolation_deviation", "min_eps_pareto",
        "min_eps_strong_unanimity", "min_eps_super_weak_unanimity", "min_eps_weak_unanimity",
        "replay_report", "responsiveness_deviation", "sliding_window_deviation",
        "times_at_top_deviation", "tops_only_deviation", "vprime_table",
    ),
    "beliefs": (
        "ManipulationInstance", "SPVerdict", "SPWitness", "SimplexPolynomial",
        "check_classic_sp", "check_weak_sp", "dominance_polynomial", "polya_certify",
        "replay_gain",
    ),
    "errors": ("CapExceededError", "DomainError", "InternalError", "ValidationError", "VoteCertError"),
    "lp": ("Constraint", "LinearProgram", "LPSolution", "constraint", "solve_lp"),
    "polytope": (
        "MaxDistanceResult", "TracedConstant", "build_polytope", "max_distance",
        "traced_constant", "verify_theorem",
    ),
    "prefs": ("canonicalize", "enumerate_orderings", "enumerate_profiles", "swap_path", "upper_set"),
    "rules": (
        "RuleTable", "closeness", "load_rule", "mixture", "pair_rule", "perturb",
        "plurality_fixed_tiebreak", "plurality_uniform_tiebreak", "random_dictatorship",
        "rank_rule", "save_rule", "uniform_rule",
    ),
}


@pytest.mark.parametrize("module", sorted(OLD_EXPORTS))
def test_every_old_export_resolves_to_its_module_object(module):
    layer = importlib.import_module(f"votecert.{module}")
    assert getattr(votecert, module) is layer
    listed = dir(votecert)
    assert module in listed
    for name in OLD_EXPORTS[module]:
        assert getattr(votecert, name) is getattr(layer, name), name
        assert name in listed and name in votecert.__all__, name


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        votecert.no_such_name


def _quick_start() -> list[str]:
    text = README.read_text()
    block = text.split("## Library quick start", 1)[1].split("```python\n", 1)[1]
    return block.split("```", 1)[0].splitlines()


def test_readme_quick_start_gives_the_values_in_its_comments():
    """Each commented line is an expression; its comment starts with the value
    (a Fraction or a string) or reads `equals <expression> exactly`."""
    namespace: dict = {}
    checked = 0
    for line in _quick_start():
        code, _, comment = line.partition("#")
        if not comment:
            exec(code, namespace)
            continue
        value = eval(code, namespace)
        comment = comment.strip()
        same = re.fullmatch(r"equals (.+) exactly", comment)
        expected = eval(same[1] if same else re.match(r"Fraction\([^)]*\)|'[^']*'", comment)[0],
                        {**namespace, "Fraction": Fraction})
        assert value == expected and type(value) is type(expected), line
        checked += 1
    assert checked == 6
