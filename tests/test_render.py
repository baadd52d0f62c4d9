"""The report writer against the stdlib.

``cli._json_text`` must return exactly ``json.dumps(value, indent=2)`` for
every value a report can hold, and ``cli._ratio(p, q)`` exactly
``str(Fraction(p, q))``; both are checked on random values.  The JSON the
CLI prints must be its own stdlib rendering, checked on a fixed list of
requests: every subcommand, families from the benchmark's three mixes, a
JSON polygon and verify-all.
"""

import json
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ehrhartlab.cli import EXIT_FINDING, EXIT_OK, _json_text, _ratio, main

# Python's int-to-str digit limit, 0 where this Python has none.
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
NEAR_LIMIT = DIGIT_LIMIT or 4300

strings = st.text(
    st.one_of(st.characters(), st.sampled_from('"\\/\n\t\x00\x1f\x7f \ud800\xe9\U0001f600'))
)
near_limit_ints = st.integers(-3, 3).flatmap(
    lambda offset: st.integers(10 ** (NEAR_LIMIT + offset - 1), 10 ** (NEAR_LIMIT + offset) - 1)
).flatmap(lambda n: st.sampled_from([n, -n]))
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([0, 1, -1, True, False]),
    near_limit_ints,
    st.floats(),
    st.sampled_from([-0.0, 1e-300, float("nan"), float("inf"), float("-inf")]),
    strings,
)
report_values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(strings, children, max_size=4),
    ),
    max_leaves=20,
)


def rendered(render, value):
    """The text, or the ValueError an int past the digit limit raises."""
    try:
        return render(value)
    except ValueError as exc:
        return f"ValueError: {exc}"


@given(report_values)
@example({})
@example([])
@example(())
@example({"a": [], "b": {}, "c": [True, 1, 1.0, None, -0.0]})
def test_json_text_is_json_dumps_with_indent_2(value):
    assert rendered(_json_text, value) == rendered(lambda v: json.dumps(v, indent=2), value)


@pytest.mark.skipif(not DIGIT_LIMIT, reason="needs Python's int-to-str digit limit")
def test_json_text_refuses_an_int_past_the_digit_limit_as_json_does():
    value = {"count": [10**DIGIT_LIMIT]}
    with pytest.raises(ValueError) as stdlib:
        json.dumps(value, indent=2)
    with pytest.raises(ValueError) as ours:
        _json_text(value)
    assert str(ours.value) == str(stdlib.value)


@given(st.integers(), st.integers().filter(bool))
@example(0, -5)
@example(6, -4)
@example(-7, 1)
@example(10**50, 10**49)
def test_ratio_is_the_fraction_string(p, q):
    assert _ratio(p, q) == str(Fraction(p, q))


FAMILIES = ["qn:12", "cube:12", "cross:12", "product(pn:7,cube:5)",  # family_reports
            "pn:5", "qn:5", "cross:6",  # counting_sweep
            "pn:7", "qn:9", "cross:8", "dilate(cube:2,2)"]  # root_analysis
TRIANGLE = {"dimension": 2, "vertices": [[-1, -1], [2, -1], [-1, 2]]}


def json_argvs(polygon_path):
    argvs = [["count", "--family", "pn:5", "-k", "600"],
             ["count", "--family", "qn:5", "-k", "4", "--method", "box"],
             ["count", "--json", polygon_path, "-k", "40"],
             ["reflexive", "--family", "cube:2"], ["reflexive", "--family", "cross:3"],
             ["reflexive", "--json", polygon_path], ["verify-all"]]
    for cmd in ("ehrhart", "roots", "wills", "bounds"):
        argvs += [[cmd, "--family", spec] for spec in FAMILIES]
        argvs.append([cmd, "--json", polygon_path])
    argvs.append(["roots", "--family", "dilate(cube:2,2)", "-a", "4"])
    argvs.append(["bounds", "--family", "pn:7", "-a", "3/2"])
    return [[*argv, "--format", "json"] for argv in argvs]


def test_cli_json_is_its_own_stdlib_rendering(tmp_path, capsys):
    polygon = tmp_path / "triangle.json"
    polygon.write_text(json.dumps(TRIANGLE))
    for argv in json_argvs(str(polygon)):
        assert main(argv) in (EXIT_OK, EXIT_FINDING), argv
        out = capsys.readouterr().out
        assert json.dumps(json.loads(out), indent=2) + "\n" == out, argv
