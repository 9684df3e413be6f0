"""Command-line front end: generate rules, check axioms, verify
strategy-proofness, and run the polytope sweeps, all as JSON reports.

Exit codes: 0 success, 1 theorem-check FAIL, 2 input validation error,
3 resource cap exceeded (including a result with more digits than Python
will print), 4 internal error (a defect in votecert; the traceback goes to
stderr).  The command group's invoke is the one error boundary: it maps
every command's errors to codes 2-4, so no command can skip it.  Rationals
are serialized as "p/q" strings in lowest terms together with a
display-only decimal approximation.
"""

from __future__ import annotations

import sys
import time
import traceback
from fractions import Fraction
from typing import TYPE_CHECKING

import click

from . import AXIOM_NAMES, POLYA_MAX, __version__
from .errors import CapExceededError, DomainError, ValidationError
from .prefs import enumerate_orderings, format_key, format_ordering
from .rules import (
    RuleTable,
    _parse_fraction,
    check_printable,
    check_rule_printable,
    checked_unit,
    dump_json,
    load_rule,
    perturb,
    plurality_uniform_tiebreak,
    random_dictatorship,
    save_rule,
    uniform_rule,
    within_digit_limit,
    write_json,
)

if TYPE_CHECKING:  # each command imports the layers it runs, and no other
    from .axioms import AxiomReport
    from .beliefs import ManipulationInstance, SPVerdict

EXIT_FAIL = 1
EXIT_VALIDATION = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4

GEN_KINDS = ("random-dictatorship", "uniform", "plurality-tiebreak", "perturbed")


def _rational(q: Fraction) -> dict:
    check_printable(q)
    return {"frac": str(q), "approx": float(q)}


def _fraction_arg(text: str, name: str) -> Fraction:
    """The rational argument `name`, checked to lie in [0, 1] and to be printable."""
    try:
        q = checked_unit(_parse_fraction(text, name), name)
    except (ValueError, ZeroDivisionError):
        raise click.BadParameter(f"{text!r} is not a rational number like 1/10")
    if not within_digit_limit(q):
        raise ValidationError(f"{name} has more digits than Python will print")
    return q


def _write_report(out: str | None, payload: dict) -> None:
    if out is None:
        dump_json(payload, sys.stdout)
    else:
        write_json(out, payload)


def _run_report(results: dict, inputs: dict[str, str], started: float) -> dict:
    return {
        "tool": f"votecert {__version__}",
        "command": sys.argv[1:],
        "seed": None,  # no report depends on a seed; the key keeps the report layout
        "inputs": inputs,
        "results": results,
        "wall_clock_s": round(time.monotonic() - started, 6),
    }


def _witness_json(witness: dict | None, rule: RuleTable) -> dict | None:
    if witness is None:
        return None
    out = {}
    for name, value in witness.items():
        if name in ("profile", "profile_2", "swapped_profile", "others", "others_2"):
            out[name] = format_key(value, rule.names)
        elif name in ("acting_rank",):
            out["acting"] = format_key((value,), rule.names)[0]
        elif name in ("x", "y", "z", "dominator", "dominated"):
            out[name] = rule.names[value]
        else:
            out[name] = value
    return out


def _report_json(report: AxiomReport, rule: RuleTable) -> dict:
    return {"eps": _rational(report.eps), "witness": _witness_json(report.witness, rule)}


def _instance_json(inst: ManipulationInstance, names: tuple[str, ...]) -> dict:
    return {"truthful": format_ordering(inst.truthful, names),
            "misreport": format_ordering(inst.misreport, names), "k": inst.k}


def _verdict_json(verdict: SPVerdict, rule: RuleTable) -> dict:
    out = {
        "status": verdict.status,
        "polya_degree": verdict.polya_degree,
        "max_degree_tried": verdict.max_degree_tried,
        "instances_total": verdict.instances_total,
        "note": "point-mass beliefs are scanned; restricting to full-support "
        "beliefs keeps every certified verdict certified",
    }
    if verdict.instances_unknown:
        out["instances_unknown"] = [_instance_json(i, rule.names) for i in verdict.instances_unknown]
    w = verdict.witness
    if w is not None:
        check_printable(*w.utility, w.rho, *(w.belief or ()))
        entry = {
            **_instance_json(w.instance, rule.names),
            "utility": [str(q) for q in w.utility],
            "rho": str(w.rho),
            "gain": _rational(w.gain),
        }
        if w.belief is not None:
            entry["stage"] = w.stage
            orderings = enumerate_orderings(rule.m)
            entry["belief"] = {
                format_ordering(orderings[r], rule.names): str(q)
                for r, q in enumerate(w.belief)
                if q
            }
        if w.others is not None:
            entry["others"] = format_key(w.others, rule.names)
        out["witness"] = entry
    return out


class _Boundary(click.Group):
    """The command group: every command runs inside its invoke, which maps
    its errors; click's own exceptions and SystemExit pass through."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except CapExceededError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_CAP)
        except (DomainError, ValidationError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_VALIDATION)
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise  # click turns these into its own usage errors and exit codes
        except Exception:  # never let a defect exit with 1, the verify-theorem FAIL code
            traceback.print_exc()
            click.echo("error: internal error; please report the traceback above", err=True)
            sys.exit(EXIT_INTERNAL)


@click.group(cls=_Boundary)
@click.version_option(version=__version__, prog_name="votecert")
def main():
    """Exact checkers for anonymous randomized voting rules."""


@main.command()
@click.argument("kind", type=click.Choice(GEN_KINDS))
@click.argument("m", type=int)
@click.argument("n", type=int)
@click.option("--delta", default="0", help="Perturbation size (rational, perturbed only).")
@click.option("--seed", default=0, show_default=True, help="Noise seed (perturbed only).")
@click.option("--out", required=True, type=click.Path(), help="Rule file to write.")
def gen(kind, m, n, delta, seed, out):
    """Write a built-in rule table as a JSON rule file."""
    if kind == "random-dictatorship":
        rule = random_dictatorship(m, n)
    elif kind == "uniform":
        rule = uniform_rule(m, n)
    elif kind == "plurality-tiebreak":
        rule = plurality_uniform_tiebreak(m, n)
    else:
        rule = perturb(random_dictatorship(m, n), _fraction_arg(delta, "delta"), seed)
    save_rule(rule, out)
    click.echo(f"wrote {kind} rule for m={m}, n={n} with {len(rule.keys())} profiles to {out}")


@main.command()
@click.option("--rule", "rule_path", required=True, type=click.Path(exists=True))
@click.option("--axiom", default="all", show_default=True, help="An axiom, distance, or all.",
              type=click.Choice(AXIOM_NAMES + ("distance", "all")))
@click.option("--out", default=None, type=click.Path())
def check(rule_path, axiom, out):
    """Report minimal-eps values (and witnesses) for the chosen axioms."""
    from .axioms import distance_to_random_dictatorship, run_axiom

    started = time.monotonic()
    rule, digest = load_rule(rule_path)  # digest: of the bytes that were checked
    names = list(AXIOM_NAMES) + ["distance"] if axiom == "all" else [axiom]
    results = {}
    for name in names:
        if name == "distance":
            rep = distance_to_random_dictatorship(rule)
            results["distance"] = {
                "closeness": _report_json(rep.closeness, rule),
                "table-vs-canonical": _report_json(rep.table_vs_canonical, rule),
                "canonical-vs-linear": _report_json(rep.canonical_vs_linear, rule),
            }
        else:
            results[name] = _report_json(run_axiom(rule, name), rule)
    _write_report(out, _run_report(results, {rule_path: digest}, started))


@main.command("sp-check")
@click.option("--rule", "rule_path", required=True, type=click.Path(exists=True))
@click.option("--classic", is_flag=True, help="Check classic strategy-proofness instead.")
@click.option("--polya-max", default=POLYA_MAX, show_default=True, type=click.IntRange(min=0))
# Accepted and ignored: nothing is sampled, but the sp-iid job in perfbench/workloads.py still passes it.
@click.option("--seed", hidden=True, expose_value=False)
@click.option("--out", default=None, type=click.Path())
def sp_check(rule_path, classic, polya_max, out):
    """Decide strategy-proofness (classic, or w.r.t. all i.i.d. beliefs)."""
    from .beliefs import check_classic_sp, check_weak_sp

    started = time.monotonic()
    rule, digest = load_rule(rule_path)
    if classic:
        verdict = check_classic_sp(rule)
    else:
        verdict = check_weak_sp(rule, polya_max=polya_max)
    results = {"mode": "classic" if classic else "iid-beliefs", "verdict": _verdict_json(verdict, rule)}
    _write_report(out, _run_report(results, {rule_path: digest}, started))


@main.command("lp-max")
@click.option("--m", required=True, type=int)
@click.option("--n", required=True, type=int)
@click.option("--eps", required=True)
@click.option("--parts", default="responsive,isolated,unanimity", show_default=True)
@click.option("--out", default=None, type=click.Path())
def lp_max(m, n, eps, parts, out):
    """Maximize the distance to random dictatorship over the constraint polytope."""
    from .polytope import max_distance, normalize_parts, traced_constant

    started = time.monotonic()
    eps = _fraction_arg(eps, "eps")
    part_set = normalize_parts(p.strip() for p in parts.split(","))
    result = max_distance(m, n, eps, part_set)
    constant = traced_constant(m) if m >= 3 else None
    check_rule_printable(result.witness)  # before the report's first byte reaches stdout
    names = result.witness.names
    results = {
        "m": m,
        "n": n,
        "eps": _rational(eps),
        "parts": sorted(part_set),
        "d_star": _rational(result.d_star),
        "free_dim": result.free_dim,
        "n_solves": result.n_solves,
        "witness_rule": result.witness,
        "witness_profile": format_key(result.witness_profile, names),
        "witness_candidate": names[result.witness_candidate],
        "witness_sign": result.witness_sign,
        "per_objective": [
            {
                "profile": format_key(o_v.profile, names),
                "candidate": names[o_v.candidate],
                "sign": o_v.sign,
                "value": _rational(o_v.value),
            }
            for o_v in result.per_objective
        ],
    }
    if constant is not None:
        results["constant"] = _rational(constant.value)
        results["constant_links"] = list(constant.links)
    _write_report(out, _run_report(results, {}, started))


@main.command("verify-theorem")
@click.argument("m", type=int)
@click.argument("n", type=int)
@click.argument("eps")
@click.option("--out", default=None, type=click.Path())
def verify_theorem_cmd(m, n, eps, out):
    """PASS iff the polytope's worst-case distance is at most C(m)*eps."""
    from .polytope import verify_theorem

    started = time.monotonic()
    eps = _fraction_arg(eps, "eps")
    outcome = verify_theorem(m, n, eps)
    results = {
        key: _rational(value) if isinstance(value, Fraction) else list(value) if isinstance(value, tuple) else value
        for key, value in outcome.items()
    }
    _write_report(out, _run_report(results, {}, started))
    if out is not None:  # otherwise stdout holds the report alone, one JSON document
        click.echo(f"verify-theorem m={m} n={n} eps={eps}: {outcome['status']}")
    if outcome["status"] == "FAIL":
        sys.exit(EXIT_FAIL)


if __name__ == "__main__":
    main()
