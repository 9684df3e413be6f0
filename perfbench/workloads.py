"""The benchmark's workloads: their inputs, their votecert jobs, and the
correctness gate each job's report must pass.

A workload is built from (seed, size, workdir).  `setup()` builds and saves
the input rule files through the library and keeps the built tables for the
gates' replays.  Each job is one votecert CLI command writing a JSON report;
its gate returns a list of problems (empty when the report is correct).

Exact values below were pinned at the commit that introduced the benchmark,
for the full-size instances; the audit pins hold for DEFAULT_SEED only,
because its input is perturbed with the workload seed.  Independent replays
run for every seed and size.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from votecert.axioms import (
    AXIOM_NAMES,
    AxiomReport,
    isolation_deviation,
    min_eps_strong_unanimity,
    replay_report,
    responsiveness_deviation,
)
from votecert.beliefs import ManipulationInstance, SPWitness, replay_gain
from votecert.polytope import traced_constant
from votecert.prefs import canonicalize, enumerate_orderings, ordering_rank, parse_ordering
from votecert.rules import (
    RuleTable,
    closeness,
    pair_rule,
    perturb,
    plurality_fixed_tiebreak,
    random_dictatorship,
    rule_from_json_obj,
    save_rule,
)

FULL = "full"
TINY = "tiny"  # m = 3, n = 2 everywhere: for the benchmark's smoke test
DEFAULT_SEED = 0
AUDIT_DELTA = Fraction(1, 20)

PIN_LP_MAX = {"d_star": Fraction(1, 4), "free_dim": 15}
PIN_VERIFY = {("3", "3", "1/10"): Fraction(7, 30), ("3", "4", "0"): Fraction(0)}
PIN_SP_CERTIFIED = {"polya_degree": 0, "instances_total": 1656}
PIN_AUDIT_CHECK = {
    "pareto": Fraction("347/7380"),
    "strong-unanimity": Fraction("391/7830"),
    "weak-unanimity": Fraction("81/1660"),
    "super-weak-unanimity": Fraction("389/18760"),
    "responsiveness": Fraction("134293/2937240"),
    "isolation": Fraction("422017296509/5145890595840"),
    "tops-only": Fraction("19285/410328"),
    "times-at-top": Fraction("19285/410328"),
    "candidate-anonymity": Fraction("100679/4873700"),
    "sliding-window": Fraction("334915747/8376634500"),
    "distance": Fraction("391/7830"),
    "table-vs-canonical": Fraction("83371/1977780"),
    "canonical-vs-linear": Fraction("81/1660"),
}


@dataclass(frozen=True)
class Job:
    name: str
    role: str  # "main" or "second": the end-to-end metric its time feeds
    args: tuple[str, ...]  # votecert CLI arguments; the report goes to `out`
    out: Path
    gate: Callable[[dict], list[str]]


@dataclass
class Workload:
    jobs: list[Job]
    setup: Callable[[], None]


def build(name: str, seed: int, size: str, workdir: Path) -> Workload:
    """The named workload; job order within a pass is shuffled by the seed."""
    wl = {"lp-sweep": _lp_sweep, "sp-iid": _sp_iid, "audit": _audit}[name](seed, size, workdir)
    random.Random(seed).shuffle(wl.jobs)
    return wl


def _fraction(obj: dict) -> Fraction:
    return Fraction(obj["frac"])


def _job(name: str, role: str, args: tuple[str, ...], out: Path, gate) -> Job:
    return Job(name, role, (*args, "--out", str(out)), out, gate)


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got}, expected {want}")


# -- lp-sweep ---------------------------------------------------------------------


def _lp_sweep(seed: int, size: str, workdir: Path) -> Workload:
    if size == FULL:
        lp_args, verify_runs = ("3", "4", "1/10"), [("3", "3", "1/10"), ("3", "4", "0")]
    else:
        lp_args, verify_runs = ("3", "2", "1/10"), [("3", "2", "1/10"), ("3", "2", "0")]

    def lp_gate(report: dict) -> list[str]:
        res = report["results"]
        m, n, eps = int(lp_args[0]), int(lp_args[1]), Fraction(lp_args[2])
        d_star = _fraction(res["d_star"])
        problems: list[str] = []
        if size == FULL:
            _expect(problems, "lp-max D*", d_star, PIN_LP_MAX["d_star"])
            _expect(problems, "lp-max free_dim", res["free_dim"], PIN_LP_MAX["free_dim"])
        witness = rule_from_json_obj(res["witness_rule"])
        _expect(problems, "witness responsiveness", responsiveness_deviation(witness).eps, 0)
        _expect(problems, "witness isolation", isolation_deviation(witness).eps, 0)
        su = min_eps_strong_unanimity(witness).eps
        if su > eps:
            problems.append(f"witness strong-unanimity eps {su} exceeds {eps}")
        rd_distance = closeness(witness, random_dictatorship(m, n))
        _expect(problems, "witness closeness to random dictatorship", rd_distance, d_star)
        if d_star > traced_constant(m).value * eps:
            problems.append(f"D* {d_star} exceeds C(m)*eps")
        return problems

    def verify_gate(args):
        def gate(report: dict) -> list[str]:
            res = report["results"]
            problems: list[str] = []
            _expect(problems, f"verify-theorem {' '.join(args)} status", res["status"], "PASS")
            d_star = _fraction(res["d_star"])
            if d_star > _fraction(res["bound"]):
                problems.append(f"D* {d_star} exceeds the reported bound")
            if args in PIN_VERIFY and size == FULL:
                _expect(problems, f"verify-theorem {' '.join(args)} D*", d_star, PIN_VERIFY[args])
            return problems

        return gate

    m, n, eps = lp_args
    jobs = [
        _job(f"lp-max {m} {n} {eps}", "main", ("lp-max", "--m", m, "--n", n, "--eps", eps),
             workdir / "lp-max.json", lp_gate)
    ]
    for i, args in enumerate(verify_runs):
        jobs.append(_job(f"verify-theorem {' '.join(args)}", "second", ("verify-theorem", *args),
                         workdir / f"verify-{i}.json", verify_gate(args)))
    return Workload(jobs, setup=lambda: None)


# -- sp-iid -----------------------------------------------------------------------


def _sp_iid(seed: int, size: str, workdir: Path) -> Workload:
    m, n = (4, 2) if size == FULL else (3, 2)
    inputs: dict[str, RuleTable] = {}
    paths = {"certified": workdir / "pair-a-b.json", "refuted": workdir / "plurality-fixed.json"}

    def setup() -> None:
        inputs["certified"] = pair_rule(m, n, 0, 1)
        inputs["refuted"] = plurality_fixed_tiebreak(m, n)
        for key, path in paths.items():
            save_rule(inputs[key], str(path))

    def certified_gate(report: dict) -> list[str]:
        verdict = report["results"]["verdict"]
        problems: list[str] = []
        _expect(problems, "pair rule verdict", verdict["status"], "certified")
        if size == FULL:
            for key, want in PIN_SP_CERTIFIED.items():
                _expect(problems, f"pair rule {key}", verdict[key], want)
        return problems

    def refuted_gate(report: dict) -> list[str]:
        verdict = report["results"]["verdict"]
        problems: list[str] = []
        _expect(problems, "plurality verdict", verdict["status"], "refuted")
        if verdict["status"] != "refuted":
            return problems
        rule = inputs["refuted"]
        w = verdict["witness"]
        belief = [Fraction(0)] * len(enumerate_orderings(m))
        for text, q in w["belief"].items():
            belief[ordering_rank(parse_ordering(text, rule.names))] = Fraction(q)
        instance = ManipulationInstance(
            parse_ordering(w["truthful"], rule.names), parse_ordering(w["misreport"], rule.names), w["k"]
        )
        witness = SPWitness(
            instance,
            tuple(Fraction(q) for q in w["utility"]),
            Fraction(w["rho"]),
            _fraction(w["gain"]),
            belief=tuple(belief),
            stage=w["stage"],
        )
        gain = replay_gain(rule, witness)
        _expect(problems, "replayed refutation gain", gain, witness.gain)
        if gain <= 0:
            problems.append(f"refutation gain {gain} is not positive")
        return problems

    def sp_check(key: str) -> tuple[str, ...]:
        return ("sp-check", "--rule", str(paths[key]), "--seed", str(seed))

    jobs = [
        _job("sp-check pair a-b", "main", sp_check("certified"), workdir / "sp-certified.json",
             certified_gate),
        _job("sp-check plurality", "second", sp_check("refuted"), workdir / "sp-refuted.json",
             refuted_gate),
    ]
    return Workload(jobs, setup)


# -- audit ------------------------------------------------------------------------


def _witness_from_json(w: dict | None, rule: RuleTable) -> dict | None:
    """Inverse of the CLI's witness formatting: names back to ids and ranks."""
    if w is None:
        return None
    out = {}
    for key, value in w.items():
        if key in ("profile", "profile_2", "swapped_profile"):
            out[key] = canonicalize(tuple(parse_ordering(t, rule.names) for t in value))
        elif key in ("others", "others_2"):
            out[key] = tuple(ordering_rank(parse_ordering(t, rule.names)) for t in value)
        elif key == "acting":
            out["acting_rank"] = ordering_rank(parse_ordering(value, rule.names))
        elif key in ("x", "y", "z", "dominator", "dominated"):
            out[key] = rule.names.index(value)
        else:
            out[key] = value
    return out


def _check_values(results: dict) -> dict[str, dict]:
    """The 13 reported values of `check --axiom all`, keyed by replay name."""
    values = {name: results[name] for name in AXIOM_NAMES}
    dist = results["distance"]
    values["distance"] = dist["closeness"]
    values["table-vs-canonical"] = dist["table-vs-canonical"]
    values["canonical-vs-linear"] = dist["canonical-vs-linear"]
    return values


def _audit(seed: int, size: str, workdir: Path) -> Workload:
    (m, n), (cm, cn) = ((4, 4), (4, 3)) if size == FULL else ((3, 2), (3, 2))
    inputs: dict[str, RuleTable] = {}
    check_path, classic_path = workdir / "perturbed-rd.json", workdir / "rd.json"

    def setup() -> None:
        inputs["check"] = perturb(random_dictatorship(m, n), AUDIT_DELTA, seed)
        save_rule(inputs["check"], str(check_path))
        save_rule(random_dictatorship(cm, cn), str(classic_path))

    def check_gate(report: dict) -> list[str]:
        rule = inputs["check"]
        problems: list[str] = []
        for name, rep in _check_values(report["results"]).items():
            eps = _fraction(rep["eps"])
            witness = _witness_from_json(rep["witness"], rule)
            replayed = replay_report(rule, AxiomReport(name, eps, witness))
            _expect(problems, f"{name} witness replay", replayed, eps)
            if size == FULL and seed == DEFAULT_SEED:
                _expect(problems, f"{name} value", eps, PIN_AUDIT_CHECK[name])
        return problems

    def classic_gate(report: dict) -> list[str]:
        problems: list[str] = []
        _expect(problems, "classic verdict", report["results"]["verdict"]["status"], "certified")
        return problems

    jobs = [
        _job("check --axiom all", "main", ("check", "--rule", str(check_path), "--axiom", "all"),
             workdir / "check.json", check_gate),
        _job("sp-check --classic", "second", ("sp-check", "--rule", str(classic_path), "--classic"),
             workdir / "classic.json", classic_gate),
    ]
    return Workload(jobs, setup)
