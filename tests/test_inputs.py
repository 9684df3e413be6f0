"""Malformed inputs exit with code 2 and a one-line error, never a traceback.

Exit code 1 is reserved for a verify-theorem FAIL, so an input problem that
escapes as an uncaught exception would be mistaken for a failed theorem.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

import votecert
from votecert.cli import main
from votecert.errors import InternalError, ValidationError
from votecert.polytope import max_distance
from votecert.prefs import DEFAULT_MAX_M, DEFAULT_MAX_PROFILES, format_key, max_m, max_profiles
from votecert.rules import RuleTable, random_dictatorship, rule_to_json_obj, save_rule, uniform_rule


@pytest.fixture
def runner():
    return CliRunner()


def _assert_input_error(result):
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output


# -- numeric flags ---------------------------------------------------------------


@pytest.mark.parametrize("flag", ["--polya-max"])
def test_sp_check_rejects_negative_counts(runner, tmp_path, flag):
    rule_path = tmp_path / "uniform.json"
    save_rule(uniform_rule(3, 2), str(rule_path))
    result = runner.invoke(main, ["sp-check", "--rule", str(rule_path), flag, "-1"])
    _assert_input_error(result)
    assert flag in result.output


def test_sp_check_accepts_zero_counts(runner, tmp_path):
    rule_path = tmp_path / "uniform.json"
    save_rule(uniform_rule(3, 2), str(rule_path))
    result = runner.invoke(
        main, ["sp-check", "--rule", str(rule_path), "--polya-max", "0"]
    )
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["results"]["verdict"]["status"] == "certified"


# -- environment caps ------------------------------------------------------------


@pytest.mark.parametrize(
    "name,reader,default",
    [
        ("VOTECERT_MAX_M", max_m, DEFAULT_MAX_M),
        ("VOTECERT_MAX_PROFILES", max_profiles, DEFAULT_MAX_PROFILES),
    ],
)
def test_env_caps_are_validated(monkeypatch, name, reader, default):
    monkeypatch.delenv(name, raising=False)
    assert reader() == default
    monkeypatch.setenv(name, "7")
    assert reader() == 7
    for bad in ("abc", "2.5", "0", "-3", ""):
        monkeypatch.setenv(name, bad)
        with pytest.raises(ValidationError, match=name):
            reader()


def test_bad_env_cap_exits_2_from_the_command_line(tmp_path):
    # A fresh process: in-process, enumerate_orderings may already be cached for m = 3.
    src = str(Path(votecert.__file__).resolve().parents[1])
    env = {**os.environ, "VOTECERT_MAX_M": "abc"}
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = str(tmp_path / "u.json")
    proc = subprocess.run(
        [sys.executable, "-m", "votecert.cli", "gen", "uniform", "3", "2", "--out", out],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert "VOTECERT_MAX_M" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_a_ladder_rung_past_the_profile_cap_exits_3(runner, tmp_path, monkeypatch):
    """Rung b of an (m, n) instance spans the C(m! + n - 2 + b, n - 1 + b)
    monomials of its degree: 126 at rung 2 for (3, 3), where this vertex table
    is certified.  One fewer allowed is a cap error, not a MemoryError later."""
    rule_path = tmp_path / "vertex.json"
    save_rule(max_distance(3, 3, Fraction(1, 10), keep_witnesses=True).all_witnesses[4], str(rule_path))
    args = ["sp-check", "--rule", str(rule_path)]
    monkeypatch.setenv("VOTECERT_MAX_PROFILES", "126")
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    assert json.loads(result.stdout)["results"]["verdict"]["polya_degree"] == 2
    monkeypatch.setenv("VOTECERT_MAX_PROFILES", "125")
    result = runner.invoke(main, args)
    assert result.exit_code == 3, result.output
    assert result.stderr == (
        "error: Pólya rung 2 at (m=3, n=3) has more monomials than the profile cap 125\n")


# -- rule-file schema --------------------------------------------------------------


def _mutate_entry(obj, field, value):
    obj["entries"][0][field] = value


def _drop_profile(obj):
    del obj["entries"][0]["profile"]


# Coprime 3,001-digit integers: 1/P and 1/Q print, but their sum's denominator
# has 6,001 digits, past Python's default limit of 4,300.
_P, _Q = 10**3000 + 1, 10**3000 + 3


MALFORMED = {
    "entry-without-profile": (3, 2, _drop_profile),
    "nested-lottery-item": (3, 2, lambda o: _mutate_entry(o, "lottery", [[1], "0", "0"])),
    "bool-lottery-item": (3, 2, lambda o: _mutate_entry(o, "lottery", [True, 0, 0])),
    "float-lottery-item": (3, 2, lambda o: _mutate_entry(o, "lottery", [0.5, 0.5, 0])),
    "lottery-not-a-list": (3, 2, lambda o: _mutate_entry(o, "lottery", "1/3")),
    "integer-profile-item": (3, 2, lambda o: _mutate_entry(o, "profile", [0, 1])),
    "entry-not-an-object": (3, 2, lambda o: o["entries"].__setitem__(0, ["a>b>c"])),
    "entries-not-a-list": (3, 2, lambda o: o.__setitem__("entries", 5)),
    "fractional-m": (3, 2, lambda o: o.__setitem__("m", 3.7)),
    "string-m": (3, 2, lambda o: o.__setitem__("m", "3")),
    "bool-n": (3, 1, lambda o: o.__setitem__("n", True)),
    "unhashable-candidate": (3, 2, lambda o: o.__setitem__("candidates", [["a"], "b", "c"])),
    "candidates-string": (3, 2, lambda o: o.__setitem__("candidates", "abc")),
    "candidates-object": (3, 2, lambda o: o.__setitem__("candidates", {"a": 1, "b": 2, "c": 3})),
    "numerator-digits": (3, 2, lambda o: _mutate_entry(o, "lottery", ["1e5000", "0", "0"])),
    "denominator-digits": (3, 2, lambda o: _mutate_entry(o, "lottery", ["1e-5000", "0", "1"])),
    "sum-digits": (3, 2, lambda o: _mutate_entry(o, "lottery", [f"1/{_P}", f"1/{_Q}", "0"])),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_check_rejects_malformed_rule_file(runner, tmp_path, case):
    m, n, mutate = MALFORMED[case]
    obj = rule_to_json_obj(random_dictatorship(m, n))
    mutate(obj)
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(obj))
    result = runner.invoke(main, ["check", "--rule", str(path), "--axiom", "pareto"])
    _assert_input_error(result)
    assert "error:" in result.output


BAD_NAMES = {
    "separator-in-name": ["a>", "b", "c"],
    "leading-space": [" a", "b", "c"],
    "trailing-newline": ["a", "b\n", "c"],
    "duplicate-names": ["a", "a", "c"],
}


@pytest.mark.parametrize("case", sorted(BAD_NAMES))
def test_bad_candidate_names_exit_2_with_a_message_about_the_names(runner, tmp_path, case):
    names = tuple(BAD_NAMES[case])
    rule = uniform_rule(3, 2)
    with pytest.raises(ValidationError, match="candidate name"):
        RuleTable(3, 2, rule.table, names)
    # the file that save_rule would write if the table took these names
    obj = rule_to_json_obj(rule)
    obj["candidates"] = list(names)
    for entry, key in zip(obj["entries"], rule.keys()):
        entry["profile"] = format_key(key, names)
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(obj))
    result = runner.invoke(main, ["check", "--rule", str(path), "--axiom", "pareto"])
    _assert_input_error(result)
    assert "candidate name" in result.output


RAW_MALFORMED = {
    "not-utf-8": b'{"m": 3, "n": 2, "candidates": ["\xff\xfe"]}',
    "nested-100000-deep": b"[" * 100_000 + b"]" * 100_000,
    "m-past-int-digit-limit": b'{"m": ' + b"9" * 5000 + b', "n": 2, "candidates": [], "entries": []}',
    "zero-voters": b'{"m": 1, "n": 0, "candidates": ["a"], "entries": [{"profile": [], "lottery": ["1"]}]}',
}


@pytest.mark.parametrize("case", sorted(RAW_MALFORMED))
def test_check_rejects_unreadable_rule_file(runner, tmp_path, case):
    path = tmp_path / f"{case}.json"
    path.write_bytes(RAW_MALFORMED[case])
    result = runner.invoke(main, ["check", "--rule", str(path), "--axiom", "pareto"])
    _assert_input_error(result)
    assert "error:" in result.output


@pytest.mark.parametrize("args", [["gen", "uniform", "3", "2"], ["check", "--rule", "rule.json"]])
def test_out_in_a_missing_directory_names_the_users_path(runner, tmp_path, args):
    path = os.path.join("missing", "x.json")
    with runner.isolated_filesystem(temp_dir=tmp_path):
        save_rule(uniform_rule(3, 2), "rule.json")
        result = runner.invoke(main, [*args, "--out", path])
    _assert_input_error(result)
    assert result.output == f"error: [Errno 2] No such file or directory: {path!r}\n"


# -- internal errors -----------------------------------------------------------------


@pytest.mark.parametrize("exc", [RuntimeError("boom"), InternalError("invariant broken")])
def test_internal_failure_exits_4_not_1(runner, tmp_path, monkeypatch, exc):
    rule_path = tmp_path / "uniform.json"
    save_rule(uniform_rule(3, 2), str(rule_path))

    def broken_load_rule(path):
        raise exc

    monkeypatch.setattr("votecert.cli.load_rule", broken_load_rule)
    result = runner.invoke(main, ["check", "--rule", str(rule_path), "--axiom", "pareto"])
    assert result.exit_code == 4, result.output
    assert "Traceback" in result.output
    assert str(exc) in result.output


def test_unknown_axiom_exits_2_before_loading_the_rule(runner, tmp_path, monkeypatch):
    rule_path = tmp_path / "uniform.json"
    save_rule(uniform_rule(3, 2), str(rule_path))

    def never_load_rule(path):
        raise RuntimeError("the rule file must not be read for an unknown axiom")

    monkeypatch.setattr("votecert.cli.load_rule", never_load_rule)
    result = runner.invoke(main, ["check", "--rule", str(rule_path), "--axiom", "bogus"])
    _assert_input_error(result)
    assert "bogus" in result.output


# -- eps outside [0, 1] -------------------------------------------------------------


@pytest.mark.parametrize(
    "args",
    [
        ["lp-max", "--m", "3", "--n", "2", "--eps", "1e400"],
        ["lp-max", "--m", "3", "--n", "2", "--eps", "5"],
        ["lp-max", "--m", "3", "--n", "2", "--eps=-1/10"],
        ["lp-max", "--m", "3", "--n", "2", "--eps", "1e5000"],
        ["verify-theorem", "3", "2", "1e400"],
        ["verify-theorem", "2", "2", "1e400"],  # before the m < 3 SKIPPED report
        ["verify-theorem", "3", "2", "--", "-1/10"],
    ],
)
def test_eps_outside_unit_interval_exits_2(runner, args):
    result = runner.invoke(main, args)
    _assert_input_error(result)
    assert "eps must lie in [0, 1]" in result.output


# -- sizes below one candidate or one voter ---------------------------------------


@pytest.mark.parametrize(
    "args, message",
    [
        (["verify-theorem", "0", "2", "1/10"], "need at least one candidate, got m=0"),
        (["verify-theorem", "2", "0", "1/10"], "need at least one voter, got n=0"),
        (["verify-theorem", "--", "-1", "2", "1/10"], "need at least one candidate, got m=-1"),
        (["verify-theorem", "--", "2", "-3", "1/10"], "need at least one voter, got n=-3"),
    ],
)
def test_sizes_below_one_exit_2_before_any_skip(runner, args, message):
    result = runner.invoke(main, args)
    _assert_input_error(result)
    assert message in result.output
    assert "SKIPPED" not in result.output


# -- rationals past Python's integer digit limit ---------------------------------


@pytest.mark.parametrize(
    "args",
    [
        ["verify-theorem", "2", "2", "1e-5000"],
        ["lp-max", "--m", "3", "--n", "2", "--eps", "1e-5000"],
        ["gen", "perturbed", "3", "2", "--delta", "1e-5000", "--out", "x.json"],
    ],
)
def test_rational_arguments_past_digit_limit_exit_2(runner, tmp_path, args):
    with runner.isolated_filesystem(temp_dir=tmp_path):
        result = runner.invoke(main, args)
        assert not os.path.exists("x.json")
    _assert_input_error(result)
    assert "error:" in result.output and "more digits than Python will print" in result.output


def test_delta_past_digit_limit_exits_2(runner, tmp_path):
    out = str(tmp_path / "x.json")
    result = runner.invoke(main, ["gen", "perturbed", "3", "2", "--delta", "1e5000", "--out", out])
    _assert_input_error(result)
    assert "error: delta must lie in [0, 1]" in result.output
    assert not os.path.exists(out)


# -- results past Python's integer digit limit -------------------------------------


def _assert_cap_error(result):
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert "error: a result has more digits than Python will print" in result.output
    assert str(sys.get_int_max_str_digits()) in result.output


@pytest.mark.parametrize("args", [["check"], ["sp-check"], ["sp-check", "--classic"]])
def test_results_past_digit_limit_exit_3(runner, tmp_path, args):
    # Lotteries alternate between (1/P, (P-1)/P, 0) and (1/Q, (Q-1)/Q, 0) for
    # coprime 3,001-digit P and Q: every entry prints, but a value such as
    # 1/P - 1/Q has a 6,001-digit denominator.
    big_p, big_q = 10**3000 + 1, 10**3000 + 3
    obj = rule_to_json_obj(uniform_rule(3, 2))
    for i, entry in enumerate(obj["entries"]):
        r = (big_p, big_q)[i % 2]
        entry["lottery"] = [f"1/{r}", f"{r - 1}/{r}", "0"]
    rule_path = tmp_path / "long.json"
    rule_path.write_text(json.dumps(obj))
    _assert_cap_error(runner.invoke(main, [*args, "--rule", str(rule_path)]))


def test_perturbed_lotteries_past_digit_limit_exit_3(runner, tmp_path):
    out = tmp_path / "x.json"
    delta = "1/1" + "0" * 4299  # prints, but the perturbed lotteries do not
    _assert_cap_error(runner.invoke(main, ["gen", "perturbed", "3", "2", "--delta", delta, "--out", str(out)]))
    assert not out.exists()
