"""Property tests of the CLI boundary, in process through ``main(argv)``.

Random family specs, JSON documents and flag values.  Every run must end
with exit 0, 1 or 2 and no traceback; a run that exits 2 prints exactly
one line of at most 200 characters on stderr; a JSON document with a non-integer
(a boolean included) in an integer field that the loader reads exits 2,
and so does one with lists beside a family tag or with a tag that
``polytope_to_json`` never writes (``"generic"``, ``"bipyramid"``);
and ``count`` gives the same answer with ``--method auto`` (which reads
L(k) off the Ehrhart polynomial beyond the interpolation nodes) as with
the ``--method box`` scan whenever both answer, on family specs and on
polygons given with their hull's edges or with random half-spaces.

The parser answers random token argvs as the argparse oracle in
``test_cli`` does: the same request where the oracle accepts argv in the
forms the parser keeps, help or one stderr line otherwise.

Sizes stay small: family parameters up to 6, dilation factors up to 2
or one of 10^307, 10^308 and 10^400 (roots near and past float range), and
at most two of them, ``-k`` up to 50 or one of two huge values
(10^1500, whose counts can pass the int-to-str digit limit, and a
5,000-digit value past the limit of ``int()`` itself), and every run passes
``--max-box-points`` of at most 10^4.  Output goes through
``contextlib.redirect_stdout``/``redirect_stderr`` because Hypothesis
rejects the function-scoped ``capsys``.

The three root-line verdicts of ``roots`` equal the library's on the
families up to dimension 10, their dilates by 2 and 3, and random
polygons, at a = 1, 3/2, 2 and 4 and where -1/a is the roots' mean.
"""

import contextlib
import io
import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ehrhartlab.cli import EXIT_OK, EXIT_USAGE, main, parse_polytope_spec, polytope_to_json
from ehrhartlab.counting import dilation_counter
from ehrhartlab.ehrhart import ehrhart_of
from ehrhartlab.polytopes import hull2d
from ehrhartlab.roots import common_real_part, find_roots, parity_necessary_check
from test_cli import assert_matches_oracle

FLAGS = {
    "-k": st.one_of(st.integers(-2, 50).map(str),
                    st.sampled_from(["x", "1.5", str(10**1500), "1" + "0" * 4999])),
    "-a": st.sampled_from(["0", "-1", "1/0", "0/3", "x", "2", "4", "3/2", "1/3"]),
    "--method": st.sampled_from(["auto", "box", "grid"]),
}
SUBCOMMAND_FLAGS = {
    "count": ("-k", "--method"),
    "ehrhart": (),
    "roots": ("-a",),
    "wills": (),
    "bounds": ("-a",),
    "reflexive": (),
}


@st.composite
def command(draw):
    """Subcommand plus flags (without the polytope source)."""
    sub = draw(st.sampled_from(sorted(SUBCOMMAND_FLAGS)))
    argv = [sub, "--max-box-points", str(draw(st.integers(-1, 10**4)))]
    argv += ["--format", draw(st.sampled_from(["plain", "json", "csv", "xml"]))]
    for flag in SUBCOMMAND_FLAGS[sub]:
        if draw(st.booleans()):
            argv += [flag, draw(FLAGS[flag])]
    return argv


# --- family specs ---------------------------------------------------------

leaf_spec = st.builds(
    "{}:{}".format, st.sampled_from(["cube", "cross", "pn", "qn"]), st.integers(0, 6)
)


# Dilation factors: small ones, and huge ones, whose roots sit near the
# bottom of the float range (10^307) or past it (10^308, 10^400) and whose
# slice sums cannot be summed term by term.
FACTOR = st.one_of(st.integers(0, 2), st.sampled_from([10**307, 10**308, 10**400]))


def maybe_dilated(inner):
    return st.one_of(
        inner, st.builds("dilate({},{})".format, inner, FACTOR)
    )


factor_spec = maybe_dilated(leaf_spec)
well_formed_spec = maybe_dilated(
    st.one_of(factor_spec, st.builds("product({},{})".format, factor_spec, factor_spec))
)
# Grammar pieces in random order; the spaces keep two numbers from fusing
# into one large family parameter.
token = st.one_of(
    st.sampled_from(
        ["cube", "cross", "pn", "qn", "product", "dilate", "moebius", "é",
         "(", ")", ",", ":", "-", ""]
    ),
    st.integers(0, 6).map(str),
)
garbage_spec = st.lists(token, max_size=8).map(" ".join)
deep_spec = st.sampled_from([2, 5000]).map(
    lambda d: "dilate(" * d + "cube:1" + ",1)" * d
)
spec = st.one_of(well_formed_spec, garbage_spec, deep_spec)


# --- JSON documents -------------------------------------------------------
# Strategies below return (document, bad), where bad says that a
# non-integer sits in an integer field the loader reads, that lists sit
# beside a family tag, or that the tag is one the writer never emits.

NOT_INT = st.one_of(
    st.booleans(),
    st.floats(),
    st.text(max_size=2),
    st.none(),
    st.lists(st.integers(0, 1), max_size=1),
)


def int_field(low, high):
    return st.one_of(
        st.integers(low, high).map(lambda v: (v, False)),
        NOT_INT.map(lambda v: (v, True)),
    )


@st.composite
def generic_doc(draw):
    dimension, bad = draw(int_field(0, 3))
    size = dimension if isinstance(dimension, int) and 1 <= dimension <= 3 else 2
    doc = {"dimension": dimension, "vertices": []}
    for _ in range(draw(st.integers(0, 4))):
        vertex = []
        for _ in range(size):
            c, b = draw(int_field(-2, 2))
            vertex.append(c)
            bad |= b
        doc["vertices"].append(vertex)
    if draw(st.booleans()):
        doc["halfspaces"] = []
        for _ in range(draw(st.integers(0, 3))):
            normal = []
            for _ in range(size):
                c, b = draw(int_field(-1, 1))
                normal.append(c)
                bad |= b
            rhs, b = draw(int_field(-1, 2))
            bad |= b
            doc["halfspaces"].append({"normal": normal, "rhs": rhs})
    if draw(st.booleans()):
        doc["family"] = {"tag": "generic"}
        bad = True
    return doc, bad


@st.composite
def family_doc(draw, nested=True):
    tags = ["cube", "crosspolytope", "pn", "qn", "bipyramid", "moebius"]
    tag = draw(st.sampled_from(tags + ["product"] if nested else tags))
    params = {}
    bad = tag == "bipyramid"
    if tag == "product":
        params["factors"] = []
        for _ in range(draw(st.sampled_from([2, 2, 1]))):
            factor, b = draw(st.one_of(family_doc(nested=False), generic_doc()))
            params["factors"].append(factor)
            bad |= b
    else:
        params["n"], bad = draw(int_field(0, 6))
    if draw(st.booleans()):
        scale, b = draw(int_field(0, 2))
        params["scale"] = scale
        bad |= b
    doc = {"family": {"tag": tag, "params": params}}
    if draw(st.booleans()):
        doc["dimension"], b = draw(int_field(0, 12))
        bad |= b
    key = draw(st.sampled_from([None] * 4 + ["vertices", "halfspaces"]))
    if key is not None:
        doc[key] = draw(st.lists(st.lists(st.integers(-1, 1), max_size=3), max_size=2))
        bad = True
    return doc, bad


json_tree = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 6) | st.floats() | st.text(max_size=3),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(
        st.sampled_from(
            ["dimension", "vertices", "halfspaces", "family", "tag", "params",
             "n", "scale", "factors", "normal", "rhs"]
        ),
        children,
        max_size=4,
    ),
    max_leaves=10,
)


def deep_product_json(depth):
    """``depth`` nested product families, built as text: json.dumps would
    itself recurse too deeply."""
    leaf = '{"family": {"tag": "cube", "params": {"n": 1}}}'
    head = '{"family": {"tag": "product", "params": {"factors": [' + leaf + ", "
    return head * depth + leaf + "]}}}" * depth


json_text = st.one_of(
    st.one_of(generic_doc(), family_doc()).map(lambda d: (json.dumps(d[0]), d[1])),
    json_tree.map(lambda tree: (json.dumps(tree), False)),
    st.sampled_from([1, 3000]).map(lambda d: (deep_product_json(d), False)),
)


# --- the properties -------------------------------------------------------


def check_boundary(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, (argv, err)
    if code == EXIT_USAGE:
        assert len(err.splitlines()) == 1, (argv, err)
        assert len(err.rstrip("\n")) <= 200, (argv[:4], len(err), err[:300])
    return code


@given(command(), spec)
@example(["count", "--max-box-points", "10000", "--format", "plain",
          "-k", "1" + "0" * 1000, "--method", "box"], "cube:1")
@settings(max_examples=150, deadline=None)
def test_family_specs_end_cleanly(argv, text):
    check_boundary(argv + ["--family", text])


REFUSED_FORMS = [  # each well formed but for a form that polytope_to_json never writes
    {"dimension": 2, "vertices": [[-1, -1], [2, -1], [-1, 2]], "family": {"tag": "generic"}},
    {"dimension": 3, "family": {"tag": "bipyramid", "params": {"n": 3}}},
    {"family": {"tag": "cube", "params": {"n": 1}}, "vertices": [[-1], [1]]},
]


@given(command(), json_text)
@settings(max_examples=200, deadline=None)
@example(["ehrhart", "--max-box-points", "0"], (json.dumps(REFUSED_FORMS[0]), True))
@example(["ehrhart", "--max-box-points", "0"], (json.dumps(REFUSED_FORMS[1]), True))
@example(["ehrhart", "--max-box-points", "0"], (json.dumps(REFUSED_FORMS[2]), True))
def test_json_documents_end_cleanly(tmp_path_factory, argv, document):
    text, bad = document
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(text)
    code = check_boundary(argv + ["--json", str(path)])
    if bad:
        assert code == EXIT_USAGE, text


small_leaf_spec = st.builds(
    "{}:{}".format, st.sampled_from(["cube", "cross", "pn", "qn"]), st.integers(1, 4)
)
small_spec = st.one_of(
    small_leaf_spec,
    st.builds("dilate({},{})".format, small_leaf_spec, st.integers(1, 2)),
    st.builds("product({},{})".format, small_leaf_spec, small_leaf_spec),
)


PRIMITIVE_NORMAL = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(
    lambda v: math.gcd(*v) == 1
)


@st.composite
def small_polygon_json(draw):
    """Random vertices with no half-spaces, with their hull's edges in
    random order, or with random supporting half-spaces (each holds at
    every vertex and is tight at one) added or alone."""
    points = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                           min_size=1, max_size=6))
    document = {"dimension": 2, "vertices": [list(p) for p in points]}
    try:
        edges = [(list(h.normal), h.rhs) for h in hull2d(points).halfspaces]
    except ValueError:  # the points do not span the plane
        edges = []
    choice = draw(st.sampled_from(["none", "hull", "hull+random", "random"]))
    if choice != "none":
        edges = edges if choice.startswith("hull") else []
        if "random" in choice:
            for a, b in draw(st.lists(PRIMITIVE_NORMAL, min_size=1, max_size=4)):
                edges.append(([a, b], max(a * x + b * y for x, y in points)))
        document["halfspaces"] = [
            {"normal": n, "rhs": r} for n, r in draw(st.permutations(edges))
        ]
    return json.dumps(document)


count_source = st.one_of(
    small_spec.map(lambda text: ("--family", text)),
    small_polygon_json().map(lambda text: ("--json", text)),
)


@given(count_source, st.integers(0, 12))
@settings(max_examples=200, deadline=None)
def test_count_auto_agrees_with_box_scan(tmp_path_factory, source, k):
    flag, value = source
    if flag == "--json":
        path = tmp_path_factory.getbasetemp() / "polygon.json"
        path.write_text(value)
        value = str(path)
    counts = []
    for method in ("box", "auto"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["count", flag, value, "-k", str(k), "--method", method,
                         "--max-box-points", "10000", "--format", "json"])
        if code != 0:
            return
        counts.append(json.loads(out.getvalue())["count"])
    assert counts[0] == counts[1], (source, k, counts)


PARSER_TOKENS = st.sampled_from(
    ["count", "ehrhart", "roots", "wills", "bounds", "reflexive", "verify-all",
     "ehr", "verify", "bogus", "-h", "--help", "--", "-", "--family", "--family=cube:2",
     "cube:2", "--json", "p.json", "--format", "--form=json", "json", "xml", "-k", "-k2",
     "x", "-1", "3", "-a", "3/2", "0", "--method", "box", "--max-box-points", "--tol"]
)


@given(st.lists(PARSER_TOKENS, max_size=7))
@settings(max_examples=200, deadline=None)
def test_parser_matches_eager_reference_on_token_argvs(argv):
    assert_matches_oracle(argv)


LINE_AS = ("1", "3/2", "2", "4")
LINE_FAMILIES = [f"{f}:{n}" for f in ("cube", "cross", "pn", "qn")
                 for n in range(1 if f in ("cube", "cross") else 2, 11)]


def assert_line_verdicts_match_library(source: list[str], polytope) -> None:
    """``roots`` reports common_real_part and parity_necessary_check as the
    library decides them at -1/a, and a detected common real part exactly
    when the roots lie on their mean, read here off the Fraction
    coefficients.  Besides ``LINE_AS``, a is also taken where -1/a is that
    mean: pn:3..10 are not symmetric about their mean, so there parity
    fails on the line that the coefficients alone allow."""
    ehr = ehrhart_of(polytope, dilation_counter(polytope))
    n = ehr.dimension
    rs = find_roots(ehr.poly)
    target = ehr.coefficient(n - 1) / (n * ehr.volume)
    on_own_mean = common_real_part(rs, target)
    for a in LINE_AS + ((str(1 / target),) if target > 0 else ()):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["roots", *source, "-a", a, "--format", "json"]) == EXIT_OK
        report = json.loads(out.getvalue())
        assert report["common_real_part"] == common_real_part(rs, 1 / Fraction(a)), a
        assert report["parity_necessary_check"] == parity_necessary_check(ehr, Fraction(a)), a
        assert (report["detected_common_real_part"] is not None) == on_own_mean, a


@pytest.mark.parametrize(
    "spec", LINE_FAMILIES + [f"dilate({s},{k})" for k in (2, 3) for s in LINE_FAMILIES]
)
def test_cli_line_verdicts_match_library_on_families(spec):
    assert_line_verdicts_match_library(["--family", spec], parse_polytope_spec(spec))


@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=3, max_size=8))
@settings(max_examples=150, deadline=None)
def test_cli_line_verdicts_match_library_on_polygons(tmp_path_factory, points):
    try:
        polygon = hull2d(points)
    except ValueError:  # fewer than three distinct points, or collinear
        return
    path = tmp_path_factory.getbasetemp() / "line_polygon.json"
    path.write_text(json.dumps(polytope_to_json(polygon)))
    assert_line_verdicts_match_library(["--json", str(path)], polygon)
