"""Fuzzed rule files and flags never crash the CLI.

Every run must end with exit code 0 (success), 2 (input error) or 3 (resource
cap), never with 1 (reserved for a verify-theorem FAIL), 4 (internal error)
or a traceback.  Hypothesis mutates a valid (3, 2) rule file and the flags of
`check` and `sp-check`.
"""

import json
import os
import tempfile

from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from votecert.axioms import AXIOM_NAMES
from votecert.cli import main
from votecert.rules import (
    perturb,
    plurality_uniform_tiebreak,
    random_dictatorship,
    rule_to_json_obj,
)

BASES = (
    rule_to_json_obj(perturb(random_dictatorship(3, 2), "1/7", seed=3)),
    rule_to_json_obj(plurality_uniform_tiebreak(3, 2)),
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10**6) | st.floats() | st.text(max_size=8),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=6,
)
ordering_texts = st.permutations(["a", "b", "c"]).map(">".join) | st.sampled_from(
    ["a>b", "a>b>b", "a>b>c>d", "a > c > b"]
)
lottery_items = st.sampled_from(["0", "1", "1/2", "1/3", "2/3", "-1/3", "3/2", "1/0", "x", "",
                                 "1e5000", "1e-5000"])


@st.composite
def mutated_rule(draw):
    """A base rule file with up to three edits; the raw text may also be cut."""
    obj = json.loads(json.dumps(draw(st.sampled_from(BASES))))
    for _ in range(draw(st.integers(0, 3))):
        entries = obj.get("entries") if isinstance(obj, dict) else None
        target = draw(
            st.sampled_from(("top", "entry", "profile", "lottery", "drop-entry", "copy-entry"))
        )
        if target == "top" or not isinstance(entries, list) or not entries:
            key = draw(st.sampled_from(("m", "n", "candidates", "entries", "extra")))
            if draw(st.booleans()) and isinstance(obj, dict):
                obj.pop(key, None)
            elif key in ("m", "n"):
                obj[key] = draw(st.integers(-2, 40) | json_values)
            elif key == "candidates":
                names = st.lists(st.sampled_from(["a", "b", "c", "d", ""]), max_size=4)
                obj[key] = draw(names | json_values)
            else:
                obj[key] = draw(json_values)
            continue
        i = draw(st.integers(0, len(entries) - 1))
        entry = entries[i]
        if target == "entry":
            entries[i] = draw(json_values)
        elif target == "drop-entry":
            del entries[i]
        elif target == "copy-entry":
            entries.append(json.loads(json.dumps(entry)))
        elif isinstance(entry, dict) and isinstance(entry.get(target), list) and entry[target]:
            items = entry[target]
            j = draw(st.integers(0, len(items) - 1))
            items[j] = draw((ordering_texts if target == "profile" else lottery_items) | json_values)
    text = json.dumps(obj)
    if draw(st.integers(0, 9)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


def option(flag, values):
    """The flag left out, or given one of the values."""
    return st.sampled_from([()] + [(flag, value) for value in values])


command_lines = st.one_of(
    st.tuples(st.just(("check",)), option("--axiom", ("all", "bogus", *AXIOM_NAMES))),
    st.tuples(
        st.just(("sp-check",)),
        st.sampled_from([(), ("--classic",)]),
        option("--polya-max", ("-1", "0", "2", "x")),
        option("--seed", ("7", "x")),
    ),
).map(lambda parts: [arg for part in parts for arg in part])


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=mutated_rule(), argv=command_lines)
def test_fuzzed_rule_files_and_flags_exit_cleanly(text, argv):
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        result = CliRunner().invoke(main, [argv[0], "--rule", path, *argv[1:]])
    finally:
        os.remove(path)
    assert result.exit_code in (0, 2, 3), (result.exit_code, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
