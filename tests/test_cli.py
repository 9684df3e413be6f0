"""Command-line interface: subcommands, exit codes, report round-trips."""

import functools
import hashlib
import inspect
import json
import os
from fractions import Fraction as F

import pytest
from click.testing import CliRunner

from votecert import AXIOM_NAMES, POLYA_MAX, polytope, rules
from votecert.axioms import AxiomReport, replay_report
from votecert.beliefs import check_weak_sp
from votecert.cli import main, sp_check
from votecert.polytope import max_distance
from votecert.prefs import enumerate_orderings, format_ordering
from votecert.rules import (
    load_rule,
    mixture,
    perturb,
    plurality_uniform_tiebreak,
    random_dictatorship,
    save_rule,
)


@pytest.fixture
def runner():
    return CliRunner()


def _gen(runner, tmp_path, kind, m, n, *extra):
    out = tmp_path / f"{kind}-{m}-{n}.json"
    result = runner.invoke(main, ["gen", kind, str(m), str(n), "--out", str(out), *extra])
    assert result.exit_code == 0, result.output
    return out


def test_gen_random_dictatorship(runner, tmp_path):
    path = _gen(runner, tmp_path, "random-dictatorship", 3, 3)
    rule, _ = load_rule(str(path))
    assert rule == random_dictatorship(3, 3)
    assert len(json.loads(path.read_text())["entries"]) == 56


def test_gen_uniform_lotteries(runner, tmp_path):
    path = _gen(runner, tmp_path, "uniform", 3, 2)
    obj = json.loads(path.read_text())
    assert all(e["lottery"] == ["1/3", "1/3", "1/3"] for e in obj["entries"])


def test_gen_perturbed_is_byte_deterministic(runner, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        result = runner.invoke(
            main,
            ["gen", "perturbed", "3", "3", "--delta", "1/20", "--seed", "7", "--out", str(out)],
        )
        assert result.exit_code == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_cap_exceeded_exit_code(runner, tmp_path):
    result = runner.invoke(
        main, ["gen", "uniform", "6", "2", "--out", str(tmp_path / "x.json")]
    )
    assert result.exit_code == 3


def test_check_all_axioms_zero_for_random_dictatorship(runner, tmp_path):
    rule_path = _gen(runner, tmp_path, "random-dictatorship", 3, 3)
    report_path = tmp_path / "report.json"
    result = runner.invoke(
        main, ["check", "--rule", str(rule_path), "--axiom", "all", "--out", str(report_path)]
    )
    assert result.exit_code == 0, result.output
    report = json.loads(report_path.read_text())
    for name, payload in report["results"].items():
        if name == "distance":
            for sub in payload.values():
                assert sub["eps"]["frac"] == "0"
        else:
            assert payload["eps"]["frac"] == "0", name


@pytest.mark.parametrize("axiom", ["all", "candidate-anonymity", "sliding-window", "distance"])
def test_check_single_candidate_rule_reports_zero(runner, tmp_path, axiom):
    """With one candidate every meter is 0: no canonical table is needed."""
    rule_path = _gen(runner, tmp_path, "random-dictatorship", 1, 2)
    result = runner.invoke(main, ["check", "--rule", str(rule_path), "--axiom", axiom])
    assert result.exit_code == 0, result.output
    assert result.exception is None
    results = json.loads(result.output)["results"]
    assert len(results) == (11 if axiom == "all" else 1)
    for name, payload in results.items():
        subs = payload.values() if name == "distance" else [payload]
        for sub in subs:
            assert sub == {"eps": {"frac": "0", "approx": 0.0}, "witness": None}, name


def test_check_uniform_pareto_value(runner, tmp_path):
    rule_path = _gen(runner, tmp_path, "uniform", 3, 3)
    result = runner.invoke(main, ["check", "--rule", str(rule_path), "--axiom", "pareto"])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["results"]["pareto"]["eps"]["frac"] == "1/3"


def test_check_missing_entry_exits_2(runner, tmp_path):
    rule_path = _gen(runner, tmp_path, "uniform", 3, 2)
    obj = json.loads(rule_path.read_text())
    del obj["entries"][0]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(obj))
    result = runner.invoke(main, ["check", "--rule", str(broken), "--axiom", "pareto"])
    assert result.exit_code == 2


def test_sp_check_certified_and_refuted(runner, tmp_path):
    vd = _gen(runner, tmp_path, "random-dictatorship", 3, 3)
    result = runner.invoke(main, ["sp-check", "--rule", str(vd)])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["results"]["verdict"]["status"] == "certified"
    assert report["results"]["verdict"]["polya_degree"] == 0
    assert report["seed"] is None

    plu = _gen(runner, tmp_path, "plurality-tiebreak", 3, 3)
    result = runner.invoke(main, ["sp-check", "--rule", str(plu)])
    report = json.loads(result.output)
    verdict = report["results"]["verdict"]
    assert verdict["status"] == "refuted"
    assert verdict["witness"]["gain"]["frac"].count("/")  # a strictly positive rational


def test_sp_check_accepts_and_ignores_a_seed(runner, tmp_path):
    plu = _gen(runner, tmp_path, "plurality-tiebreak", 3, 3)
    plain = runner.invoke(main, ["sp-check", "--rule", str(plu)])
    seeded = runner.invoke(main, ["sp-check", "--rule", str(plu), "--seed", "5"])
    assert seeded.exit_code == 0, seeded.output
    report = json.loads(seeded.output)
    assert report["results"] == json.loads(plain.output)["results"]
    assert report["seed"] is None


def test_sp_check_has_no_trials_option(runner, tmp_path):
    plu = _gen(runner, tmp_path, "plurality-tiebreak", 3, 3)
    result = runner.invoke(main, ["sp-check", "--rule", str(plu), "--trials", "5"])
    assert result.exit_code == 2
    assert "--trials" in result.output


def test_sp_check_classic_mode(runner, tmp_path):
    plu = _gen(runner, tmp_path, "plurality-tiebreak", 3, 3)
    result = runner.invoke(main, ["sp-check", "--rule", str(plu), "--classic"])
    report = json.loads(result.output)
    assert report["results"]["mode"] == "classic"
    assert report["results"]["verdict"]["status"] == "refuted"
    assert report["results"]["verdict"]["witness"]["others"]


def test_lp_max_report(runner, tmp_path):
    out = tmp_path / "lp.json"
    result = runner.invoke(
        main, ["lp-max", "--m", "3", "--n", "2", "--eps", "1/10", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    report = json.loads(out.read_text())
    assert report["results"]["d_star"]["frac"] == "1/5"
    assert report["results"]["constant"]["frac"] == "587"
    assert len(report["results"]["per_objective"]) == 21 * 3 * 2
    assert report["results"]["witness_rule"]["entries"]


def test_verify_theorem_pass(runner, tmp_path):
    result = runner.invoke(main, ["verify-theorem", "3", "2", "0"])
    assert result.exit_code == 0
    assert "PASS" in result.output


def test_verify_theorem_skipped_below_three_candidates(runner):
    result = runner.invoke(main, ["verify-theorem", "2", "3", "1/10"])
    assert result.exit_code == 0
    assert "SKIPPED" in result.output


@pytest.mark.parametrize("args,status", [(("3", "2", "0"), "PASS"), (("2", "3", "1/10"), "SKIPPED")])
def test_verify_theorem_stdout_is_one_json_report(runner, tmp_path, args, status):
    """Without --out, stdout is the report alone; with it, the status line."""
    result = runner.invoke(main, ["verify-theorem", *args])
    assert result.exit_code == 0, result.output
    assert json.loads(result.stdout)["results"]["status"] == status
    out = tmp_path / "report.json"
    result = runner.invoke(main, ["verify-theorem", *args, "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert result.stdout == "verify-theorem m={} n={} eps={}: {}\n".format(*args, status)
    assert json.loads(out.read_text())["results"]["status"] == status


def test_verify_theorem_fail_exits_1(runner, tmp_path, monkeypatch):
    """With a zero constant the bound is 0, below D* = 1/5 at (3, 2, 1/10)."""
    monkeypatch.setattr(polytope, "traced_constant", lambda m: polytope.TracedConstant(F(0), ("zero",)))
    args = ["verify-theorem", "3", "2", "1/10"]
    result = runner.invoke(main, args)
    assert result.exit_code == 1, result.output
    results = json.loads(result.stdout)["results"]
    assert (results["status"], results["bound"]["frac"], results["links"]) == ("FAIL", "0", ["zero"])
    out = tmp_path / "report.json"
    result = runner.invoke(main, [*args, "--out", str(out)])
    assert result.exit_code == 1, result.output
    assert result.stdout == "verify-theorem m=3 n=2 eps=1/10: FAIL\n"
    assert json.loads(out.read_text())["results"]["status"] == "FAIL"


def test_reports_roundtrip_byte_identically(runner, tmp_path):
    rule_path = _gen(runner, tmp_path, "uniform", 3, 2)
    report_path = tmp_path / "report.json"
    result = runner.invoke(
        main, ["check", "--rule", str(rule_path), "--axiom", "strong-unanimity",
               "--out", str(report_path)]
    )
    assert result.exit_code == 0
    raw = report_path.read_text()
    assert json.dumps(json.loads(raw), indent=2, sort_keys=True) + "\n" == raw


# sha256 of each generated rule file, and of json.dumps(report["results"],
# sort_keys=True) for each report on them: the whole report is pinned, not
# only its format, so a refactor that moves one witness or digit shows here.
GOLDEN_RULES = {  # gen kind at (3, 3): (extra gen options, digest)
    "perturbed": (("--delta", "1/7", "--seed", "3"),
                  "ea4a54a86e0c033126d1e4fc6849d41f611d0fc996ecafcf91c926ec9dc32cda"),
    "plurality-tiebreak": ((), "82adafb16b99cf6c60361ce2ecd7169d633d83b2c7c56a6c34ba59f783897146"),
}


@functools.cache
def _vertex_tables():
    return max_distance(3, 3, F(1, 10), keep_witnesses=True).all_witnesses


# Rules that no gen kind writes, saved from the (3, 3) vertex corpus: table 7 is
# left open by every rung at the default --polya-max (4 unknown instances), and
# the mixture is refuted on the grid of rung 3, which the cap of 7 does not move.
SAVED_RULES = {
    "vertex-7": lambda: _vertex_tables()[7],
    "vertex-mixture": lambda: mixture([_vertex_tables()[7], _vertex_tables()[5]], [F(4, 5), F(1, 5)]),
}
GOLDEN_REPORTS = [
    (("check", "--axiom", "all", "--rule", "perturbed"),
     "697a0e7a586277a726872dab9a9b7141fd4335ad595bd30f24f8230a1e1188fe"),
    (("sp-check", "--classic", "--rule", "perturbed"),
     "383a3a80efd9a21e9a4ab515af51e53a85e7150ca7303342deb056d5a8dbc387"),
    (("sp-check", "--rule", "plurality-tiebreak"),
     "41740ee2a4801ac8d53ba348720f3175f32a040e719a338f873caf9be5feb87f"),
    (("lp-max", "--m", "3", "--n", "3", "--eps", "1/10"),
     "2db924501d0a9923a2f2a45de1c98a813272ca815d3e2c1fdbb1bb2a0b05f38c"),
    (("lp-max", "--m", "3", "--n", "3", "--eps", "1/10", "--parts", "responsive,unanimity"),
     "349b160dbb7364480cd440c7ba8e10e32f4a44c2ddbc91f3ba54f936d22cd1d8"),
    (("verify-theorem", "3", "4", "0"),
     "8e0c8d598b60621af294e419d83d05c3ae34e2ed35e9af09304e1d2c2d916eb1"),
    (("sp-check", "--rule", "vertex-7"),
     "429486a0c1482d5327042672e91b142ee6c465aa06745ab5c086b4f5930a608b"),
    (("sp-check", "--polya-max", "7", "--rule", "vertex-mixture"),
     "c38e1da05672a553d0c50a3cf00a342a675bb08f2ff463324940a74791fdd7d0"),
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_golden_rule_files_are_pinned(runner, tmp_path):
    for kind, (extra, digest) in GOLDEN_RULES.items():
        assert _sha256(_gen(runner, tmp_path, kind, 3, 3, *extra).read_bytes()) == digest, kind


@pytest.mark.parametrize("args,digest", GOLDEN_REPORTS, ids=[" ".join(args) for args, _ in GOLDEN_REPORTS])
def test_golden_reports_are_pinned(runner, tmp_path, args, digest):
    if "--rule" in args:  # the rule is named by its key in GOLDEN_RULES or SAVED_RULES
        kind = args[-1]
        if kind in SAVED_RULES:
            path = tmp_path / f"{kind}.json"
            save_rule(SAVED_RULES[kind](), str(path))
        else:
            path = _gen(runner, tmp_path, kind, 3, 3, *GOLDEN_RULES[kind][0])
        args = (*args[:-1], str(path))
    out = tmp_path / "report.json"
    result = runner.invoke(main, [*args, "--out", str(out)])
    assert result.exit_code == 0, result.output
    results = json.loads(out.read_text())["results"]
    assert _sha256(json.dumps(results, sort_keys=True).encode()) == digest


def test_golden_check_report_at_four_candidates_is_pinned(runner, tmp_path):
    rule = _gen(runner, tmp_path, "perturbed", 4, 3, "--delta", "1/20")
    assert _sha256(rule.read_bytes()) == (
        "9388e4f30fc26d96176149fe5368ab082b80e8a88e9b339acbc2139b67ee14ff")
    out = tmp_path / "report.json"
    result = runner.invoke(main, ["check", "--axiom", "all", "--rule", str(rule), "--out", str(out)])
    assert result.exit_code == 0, result.output
    results = json.loads(out.read_text())["results"]
    assert _sha256(json.dumps(results, sort_keys=True).encode()) == (
        "b2c681bc4bd2a46e0f7a618759a563fa42e3c8040001b60163b80f90b366d055")


def _witness_from_json(witness, names):
    """A report's witness with its names turned back into ids and ranks."""
    if witness is None:
        return None
    rank = {format_ordering(o, names): r for r, o in enumerate(enumerate_orderings(len(names)))}
    out = {}
    for field, value in witness.items():
        if field in ("profile", "profile_2", "swapped_profile"):
            out[field] = tuple(sorted(rank[text] for text in value))
        elif field in ("others", "others_2"):
            out[field] = tuple(rank[text] for text in value)
        elif field == "acting":
            out["acting_rank"] = rank[value]
        elif field in ("x", "y", "z", "dominator", "dominated"):
            out[field] = names.index(value)
        else:
            out[field] = value
    return out


def _replay_check_report(rule, results):
    """Replay every value of a `check --axiom all` report from its witness."""
    reports = {name: results[name] for name in AXIOM_NAMES}
    reports.update({"distance": results["distance"]["closeness"],
                    "table-vs-canonical": results["distance"]["table-vs-canonical"],
                    "canonical-vs-linear": results["distance"]["canonical-vs-linear"]})
    for name, rep in reports.items():
        eps = F(rep["eps"]["frac"])
        witness = _witness_from_json(rep["witness"], rule.names)
        assert replay_report(rule, AxiomReport(name, eps, witness)) == eps, name
    return len(reports)


# check --axiom all on the audit benchmark's input, and on the tie-heavy
# plurality table at (4, 3): at n >= 3 a profile with three distinct ranks
# makes the order of the swaps it yields decide which tied witness is reported.
CHECK_REPORTS_AT_FOUR = {
    "perturbed-4-4": (lambda: perturb(random_dictatorship(4, 4), F(1, 20), 0),
                      "00c59eaf7ed1418bacfb7a11586e3f7987542183ce42b967d0ac3a8a5b43811e"),
    "plurality-tiebreak-4-3": (lambda: plurality_uniform_tiebreak(4, 3),
                               "93c060719932251e268340f815ffa1bc670ec61185770651fdae253b19020d6b"),
}


@pytest.mark.parametrize("name", sorted(CHECK_REPORTS_AT_FOUR))
def test_check_reports_at_four_candidates_are_pinned_and_replay(runner, tmp_path, name):
    build, digest = CHECK_REPORTS_AT_FOUR[name]
    rule = build()
    path, out = tmp_path / "rule.json", tmp_path / "report.json"
    save_rule(rule, str(path))
    result = runner.invoke(main, ["check", "--axiom", "all", "--rule", str(path), "--out", str(out)])
    assert result.exit_code == 0, result.output
    results = json.loads(out.read_text())["results"]
    assert _replay_check_report(rule, results) == 13
    assert _sha256(json.dumps(results, sort_keys=True).encode()) == digest


@pytest.mark.parametrize("args", [["check", "--axiom", "pareto"], ["sp-check", "--classic"]])
def test_the_input_digest_names_the_bytes_that_were_checked(runner, tmp_path, monkeypatch, args):
    """A rule file replaced while the command runs changes neither the
    result nor the digest: both come from the one read of the file."""
    path = _gen(runner, tmp_path, "uniform", 3, 2)
    checked = path.read_bytes()
    other = _gen(runner, tmp_path, "plurality-tiebreak", 3, 2)
    read = rules.rule_from_json_obj

    def replacing(obj):
        os.replace(other, path)
        return read(obj)

    monkeypatch.setattr(rules, "rule_from_json_obj", replacing)
    out = tmp_path / "report.json"
    result = runner.invoke(main, [*args, "--rule", str(path), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert path.read_bytes() != checked
    report = json.loads(out.read_text())
    assert report["inputs"] == {str(path): _sha256(checked)}
    if args[0] == "check":
        assert report["results"]["pareto"]["eps"]["frac"] == "1/3"  # uniform's, not plurality's 0


# sha256 of `--help` at 80 columns, taken when every layer was imported up
# front: moving the imports into the commands changes no choice or default.
# sp-check's was retaken when `--trials` went and `--seed` was hidden.
HELP_DIGESTS = {
    "check": "9a1988480c330298270ab1fe55f1809454ce3790ce76d0ae7be15ad5243f6c5b",
    "sp-check": "e04a9c44989d4136a32206a58e60b826c8f765b8d94f23ec27d7d19334f70da7",
}


@pytest.mark.parametrize("command", sorted(HELP_DIGESTS))
def test_help_text_is_pinned(runner, command):
    result = runner.invoke(main, [command, "--help"], prog_name="votecert", terminal_width=80)
    assert result.exit_code == 0, result.output
    assert _sha256(result.output.encode()) == HELP_DIGESTS[command], result.output


def test_sp_check_defaults_are_the_config_defaults():
    defaults = {p.name: p.default for p in sp_check.params}
    signature = inspect.signature(check_weak_sp).parameters
    assert defaults["polya_max"] == POLYA_MAX == signature["polya_max"].default


@pytest.mark.parametrize("args", [["lp-max", "--m", "3", "--n", "2", "--eps", "1/10"],
                                  ["gen", "uniform", "3", "2"]])
def test_failed_write_exits_2_and_leaves_no_temp_file(runner, tmp_path, args):
    target = tmp_path / "taken"
    target.mkdir()  # os.replace cannot put a file over a directory
    result = runner.invoke(main, [*args, "--out", str(target)])
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


def test_bad_rational_argument(runner):
    result = runner.invoke(main, ["verify-theorem", "3", "2", "zebra"])
    assert result.exit_code == 2
