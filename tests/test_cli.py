"""CLI: grammar, JSON schemas, subcommands, exit codes, determinism."""

import argparse
import contextlib
import csv
import io
import itertools
import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from ehrhartlab import cli, counting, ehrhart, polytopes, reflexivity, verification
from ehrhartlab.cli import (
    EXIT_FINDING,
    EXIT_OK,
    EXIT_USAGE,
    SpecError,
    ehrhart_to_json,
    main,
    parse_polytope_spec,
    polytope_from_json,
    polytope_to_json,
)
from ehrhartlab.counting import dilation_counter, scan_counter
from ehrhartlab.ehrhart import ehrhart_of, qn_coefficients
from ehrhartlab.exact import Polynomial
from ehrhartlab.polytopes import (
    crosspolytope,
    cube,
    dilate,
    hull2d,
    pn_family,
    product,
    qn_family,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_spec_grammar_families():
    assert parse_polytope_spec("cube:3") == cube(3)
    assert parse_polytope_spec("cross:2").dimension == 2
    assert parse_polytope_spec("pn:7") == pn_family(7)
    assert parse_polytope_spec("qn:4") == qn_family(4)


def test_spec_grammar_compound():
    nine = parse_polytope_spec("product(pn:7,cube:2)")
    assert nine.dimension == 9
    assert nine == product(pn_family(7), cube(2))
    doubled = parse_polytope_spec("dilate(cube:2,2)")
    assert doubled == dilate(cube(2), 2)
    nested = parse_polytope_spec(" product( dilate(cube:1, 3), qn:2 ) ")
    assert nested.dimension == 3


def test_spec_grammar_errors_carry_positions():
    for bad in ("cube", "cube:", "triangle:3", "product(cube:1)", "cube:2 junk"):
        with pytest.raises(SpecError) as err:
            parse_polytope_spec(bad)
        assert "position" in str(err.value)


def test_polytope_json_round_trip():
    for poly in (
        cube(3),
        qn_family(3),
        dilate(cube(2), 2),
        product(cube(1), qn_family(2)),
        hull2d([(-1, -1), (-1, 2), (2, -1)]),
        pn_family(3),
        product(hull2d([(-1, -1), (-1, 2), (2, -1)]), cube(1)),
        dilate(hull2d([(-1, -1), (-1, 2), (2, -1)]), 2),
        dilate(product(cube(1), crosspolytope(2)), 2),
    ):
        encoded = polytope_to_json(poly)
        decoded = polytope_from_json(json.loads(json.dumps(encoded)))
        assert decoded == poly


def test_polytope_json_writes_family_recipes_not_lists():
    assert polytope_to_json(dilate(qn_family(3), 2)) == {
        "dimension": 3,
        "family": {"tag": "qn", "params": {"n": 3, "scale": 2}},
    }
    params = polytope_to_json(product(pn_family(2), cube(40)))["family"]["params"]
    assert [f["family"]["params"]["n"] for f in params["factors"]] == [2, 40]


SQUARE = polytope_to_json(cube(2))
SQUARE_LISTS = polytope_to_json(hull2d(cube(2).vertices))
TRIANGLE = polytope_to_json(hull2d([(-1, -1), (2, -1), (-1, 2)]))
TWO_FORM_SUFFIX = ": given beside a family tag, which alone builds it"


@pytest.mark.parametrize("document, line", [
    ({**SQUARE_LISTS, **SQUARE}, "$.vertices" + TWO_FORM_SUFFIX),
    ({**SQUARE, "halfspaces": SQUARE_LISTS["halfspaces"]}, "$.halfspaces" + TWO_FORM_SUFFIX),
    # The schema example the README once gave: a triangle's lists under a cube tag.
    ({**TRIANGLE, "family": SQUARE["family"]}, "$.vertices" + TWO_FORM_SUFFIX),
    ({"dimension": 3, "family": {"tag": "product", "params": {"scale": 1, "factors": [
        {**SQUARE, "halfspaces": SQUARE_LISTS["halfspaces"]}, polytope_to_json(cube(1))]}}},
     "$.family.params.factors[0].halfspaces" + TWO_FORM_SUFFIX),
    ({"dimension": 4, "family": {"tag": "product", "params": {"scale": 1, "factors": [
        TRIANGLE, {**SQUARE_LISTS, **SQUARE}]}}},
     "$.family.params.factors[1].vertices" + TWO_FORM_SUFFIX),
    ({**TRIANGLE, "family": {"tag": "generic"}}, "$.family.tag: unknown family 'generic'"),
    ({"dimension": 3, "family": {"tag": "bipyramid", "params": {"n": 3, "scale": 1}}},
     "$.family.tag: unknown family 'bipyramid'"),
    ({**SQUARE, "dimension": 3}, "$.dimension: 3 does not match the family (2)"),
], ids=["vertices", "halfspaces", "readme-triangle", "factor-halfspaces", "factor-vertices",
        "generic", "bipyramid", "dimension"])
def test_polytope_json_is_a_recipe_or_lists(tmp_path, capsys, document, line):
    """A family tag alone gives the polytope, as polytope_to_json writes it:
    lists beside it, also in a product factor, and the tags polytope_to_json
    never writes are refused with one line naming the key."""
    path = tmp_path / "two_forms.json"
    path.write_text(json.dumps(document))
    for cmd in (["count", "-k", "0"], ["ehrhart"], ["roots"], ["wills"], ["bounds"],
                ["reflexive"]):
        assert main([*cmd, "--json", str(path)]) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: {line}\n")


@pytest.mark.parametrize("tag, key, entry", [
    ("cube", "vertices", [1] * 20),
    ("crosspolytope", "halfspaces", {"normal": [1] * 20, "rhs": 1}),
], ids=["cube-vertices", "cross-halfspaces"])
def test_polytope_json_lists_beside_a_tag_build_no_family_list(monkeypatch, tag, key, entry):
    """A 2^20-entry list next to cube:20 or cross:20 is refused before the
    family's own 2^20 vertices or facets are built."""
    document = {"family": {"tag": tag, "params": {"n": 20}}, key: [entry] * 2**20}
    for name in ("_family_vertices", "_family_halfspaces"):
        monkeypatch.setattr(polytopes, name, None)  # a build raises
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=TWO_FORM_SUFFIX + "$"):
            polytope_from_json(document)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_polytope_json_validation_errors_name_fields():
    with pytest.raises(ValueError, match=r"\$\.dimension"):
        polytope_from_json({"dimension": "x", "vertices": [[0]]})
    with pytest.raises(ValueError, match=r"vertices\[1\]"):
        polytope_from_json({"dimension": 2, "vertices": [[0, 0], [1]]})
    with pytest.raises(ValueError, match=r"halfspaces\[0\]\.normal"):
        polytope_from_json(
            {
                "dimension": 2,
                "vertices": [[0, 0]],
                "halfspaces": [{"normal": [1], "rhs": 1}],
            }
        )
    with pytest.raises(ValueError, match="family"):
        polytope_from_json({"family": {"tag": "moebius"}})


def test_ehrhart_json_round_trip():
    e = ehrhart_of(qn_family(3), dilation_counter(qn_family(3)))
    encoded = ehrhart_to_json(e)
    assert encoded["coefficients"] == ["1", "10/3", "4", "8/3"]


def test_cli_ehrhart_hybrid7(capsys):
    code, out = run_cli(
        capsys, "ehrhart", "--family", "pn:7", "--format", "json"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["coefficients"] == [
        "1",
        "1534/105",
        "3188/45",
        "7112/45",
        "1756/9",
        "7004/45",
        "4952/45",
        "15656/315",
    ]


def test_cli_count(capsys):
    code, out = run_cli(
        capsys, "count", "--family", "qn:3", "-k", "2", "--format", "json"
    )
    assert code == EXIT_OK
    assert json.loads(out)["count"] == 45


def test_cli_count_box_method_agrees(capsys):
    # k = 2 is an interpolation node of pn:3; k = 5 is read off L(k).
    for k in ("2", "5"):
        code, fast = run_cli(
            capsys, "count", "--family", "pn:3", "-k", k, "--format", "json"
        )
        assert code == EXIT_OK
        code, slow = run_cli(
            capsys,
            "count",
            "--family",
            "pn:3",
            "-k",
            k,
            "--method",
            "box",
            "--format",
            "json",
        )
        assert code == EXIT_OK
        assert json.loads(fast)["count"] == json.loads(slow)["count"]


PENTAGON = [(-1, -1), (1, -1), (2, 0), (0, 2), (-1, 1)]


def pick_count(vertices, k):
    """Pick's theorem: L(k) = A k^2 + (B/2) k + 1 for a lattice polygon."""
    edges = list(zip(vertices, vertices[1:] + vertices[:1]))
    area = Fraction(abs(sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in edges)), 2)
    boundary = sum(gcd(x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in edges)
    return area * k * k + Fraction(boundary, 2) * k + 1


@pytest.mark.parametrize(
    "source",
    [
        "cube:3",
        "cross:3",
        "pn:4",
        "qn:3",
        "product(pn:3,cube:2)",
        "dilate(qn:3,2)",
        "pentagon.json",
    ],
)
def test_cli_count_runs_counters_only_at_nodes(monkeypatch, tmp_path, capsys, source):
    """No box scan and no hybrid or bipyramid sum runs past s k = n (s the
    family scale, n the dimension it counts in): closed forms answer at any
    k, and the other counters read their polynomial past the nodes."""
    if source.endswith(".json"):
        (tmp_path / source).write_text(
            json.dumps({"dimension": 2, "vertices": [list(v) for v in PENTAGON]})
        )
        argv = ["--json", str(tmp_path / source)]
        poly = hull2d(PENTAGON)
    else:
        argv = ["--family", source]
        poly = parse_polytope_spec(source)
    n = poly.dimension
    expected = ehrhart_of(poly, scan_counter(poly))  # scans at k <= n, no recipe
    sums, scans = [], []

    def recording_sum(name):
        original = getattr(counting, name)
        return lambda m, k: sums.append((m, k)) or original(m, k)

    for name in ("count_pn_sliced", "count_qn_closed"):
        monkeypatch.setattr(counting, name, recording_sum(name))
    box_scan = counting.count_box_scan
    monkeypatch.setattr(counting, "count_box_scan",
                        lambda oracle, **kw: scans.append(oracle) or box_scan(oracle, **kw))
    for k in (0, n, n + 1, 23):
        code, out = run_cli(capsys, "count", *argv, "-k", str(k), "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["count"] == expected(k)
    assert all(k <= m for m, k in sums)
    assert bool(sums) == ("pn" in source or "qn" in source)
    assert not scans


def test_cli_segment_given_by_its_ends(monkeypatch, tmp_path, capsys):
    """A JSON segment given by vertices alone is stored as its hull, with
    the half-spaces x <= 3 and -x <= 2; its count reads L(k) = 5k + 1 off
    its ends and scans no dilate."""
    path = tmp_path / "segment.json"
    path.write_text(json.dumps({"dimension": 1, "vertices": [[3], [0], [-2]]}))
    code, out = run_cli(capsys, "ehrhart", "--json", str(path), "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["coefficients"] == ["1", "5"]
    assert payload["polytope"]["vertices"] == [[-2], [3]]
    assert payload["polytope"]["halfspaces"] == [
        {"normal": [1], "rhs": 3}, {"normal": [-1], "rhs": 2}
    ]
    scans = []
    box_scan = counting.count_box_scan
    monkeypatch.setattr(counting, "count_box_scan",
                        lambda oracle, **kw: scans.append(oracle) or box_scan(oracle, **kw))
    code, out = run_cli(capsys, "count", "--json", str(path), "-k", "7", "--format", "json")
    assert code == EXIT_OK and json.loads(out)["count"] == 36
    assert not scans


@pytest.mark.parametrize(
    "cmd", [("ehrhart",), ("roots",), ("wills",), ("bounds",), ("count", "-k", "9")]
)
def test_cli_family_and_polygon_polynomials_come_from_the_recipe(
    monkeypatch, tmp_path, capsys, cmd
):
    def refuse(*args, **kwargs):
        raise AssertionError("a polynomial with a recipe was interpolated")

    path = tmp_path / "pentagon.json"
    path.write_text(json.dumps({"dimension": 2, "vertices": [list(v) for v in PENTAGON]}))
    segment = tmp_path / "segment.json"
    segment.write_text(json.dumps({"dimension": 1, "vertices": [[-1], [2]]}))
    product_path = tmp_path / "product.json"
    factor = polytopes.LatticePolytope(1, ((-1,), (2,)))
    product_path.write_text(json.dumps(polytope_to_json(dilate(product(factor, qn_family(2)), 2))))
    monkeypatch.setattr(cli, "ehrhart_of", refuse)
    for source in (
        ["--family", "product(dilate(pn:3,2),cross:2)"],
        ["--family", "dilate(qn:4,3)"],
        ["--json", str(path)],
        ["--json", str(segment)],
        ["--json", str(product_path)],
    ):
        assert main([*cmd, *source]) in (EXIT_OK, EXIT_FINDING)
    capsys.readouterr()


def test_cli_interpolates_json_polytopes_off_the_plane(monkeypatch, tmp_path, capsys):
    seen = []

    def recording(p, counter):
        seen.append(p.dimension)
        return ehrhart_of(p, counter)

    path = tmp_path / "simplex.json"
    halfspaces = [{"normal": [-1, 0, 0], "rhs": 0}, {"normal": [0, -1, 0], "rhs": 0},
                  {"normal": [0, 0, -1], "rhs": 0}, {"normal": [1, 1, 1], "rhs": 1}]
    path.write_text(json.dumps({
        "dimension": 3,
        "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "halfspaces": halfspaces,
    }))
    monkeypatch.setattr(cli, "ehrhart_of", recording)
    code, out = run_cli(capsys, "ehrhart", "--json", str(path), "--format", "json")
    assert code == EXIT_OK and json.loads(out)["coefficients"] == ["1", "11/6", "1", "1/6"]
    assert seen == [3]


def test_cli_count_beyond_nodes_needs_only_the_node_boxes(tmp_path, capsys):
    # The 77-fold box has 309^2 points; the node boxes up to k = 2 have 81.
    path = tmp_path / "pentagon.json"
    path.write_text(
        json.dumps({"dimension": 2, "vertices": [list(v) for v in PENTAGON]})
    )
    code, out = run_cli(
        capsys, "count", "--json", str(path), "-k", "77",
        "--max-box-points", "1000", "--format", "json",
    )
    assert code == EXIT_OK
    assert json.loads(out)["count"] == pick_count(PENTAGON, 77) == 35883
    code, _ = run_cli(
        capsys, "count", "--json", str(path), "-k", "77",
        "--max-box-points", "1000", "--method", "box",
    )
    assert code == EXIT_USAGE


def test_cli_count_beyond_nodes_refuses_what_ehrhart_refuses(tmp_path, capsys):
    # A polygon is counted by Pick's theorem, so under a budget of 50 points
    # count at k = 5 and ehrhart both answer, although the pentagon's box at
    # k = 2 (9^2) is over budget.  Only --method box scans: 21^2 at k = 5.
    path = tmp_path / "pentagon.json"
    path.write_text(
        json.dumps({"dimension": 2, "vertices": [list(v) for v in PENTAGON]})
    )
    budget = ["--json", str(path), "--max-box-points", "50", "--format", "json"]
    code, out = run_cli(capsys, "count", "-k", "5", *budget)
    assert code == EXIT_OK
    assert json.loads(out)["count"] == pick_count(PENTAGON, 5) == 171
    code, out = run_cli(capsys, "ehrhart", *budget)
    assert code == EXIT_OK
    assert json.loads(out)["coefficients"] == ["1", "4", "6"]
    assert main(["count", "-k", "5", "--method", "box", *budget]) == EXIT_USAGE
    error = capsys.readouterr().err
    assert error.startswith("error: box scan of 21^2 points exceeds the budget of 50")
    assert len(error.splitlines()) == 1


def test_no_polygon_reaches_the_box_scan(monkeypatch, tmp_path, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a polygon reached the box scan")

    monkeypatch.setattr(counting, "count_box_scan", refuse)
    samples = verification.RANDOM_POLYGON_SAMPLES
    assert verification._random_polygon_agreement(samples) == samples
    # The pentagon's vertex list out of order, with a repeat, an edge
    # midpoint and an interior point, and its hull's edges.
    vertices = [(0, 2), (-1, -1), (2, 0), (0, 0), (1, -1), (-1, 1), (0, 2), (1, 0)]
    path = tmp_path / "pentagon.json"
    edges = [(h.normal, h.rhs) for h in hull2d(PENTAGON).halfspaces]
    path.write_text(json.dumps({
        "dimension": 2,
        "vertices": [list(v) for v in vertices],
        "halfspaces": halfspaces_json(*edges),
    }))
    source = ["--json", str(path), "--format", "json"]
    expected = [
        (["ehrhart"], EXIT_OK),
        (["roots"], EXIT_OK),
        (["reflexive"], EXIT_FINDING),
        (["count", "-k", "77"], EXIT_OK),
    ]
    for argv, status in expected:
        code, out = run_cli(capsys, *argv, *source)
        assert code == status, (argv, capsys.readouterr().err)
    assert json.loads(out)["count"] == pick_count(PENTAGON, 77)


def halfspaces_json(*pairs):
    return [{"normal": list(normal), "rhs": rhs} for normal, rhs in pairs]


def test_polygon_json_halfspaces_are_the_hull_edges(tmp_path, capsys):
    """Half-spaces given with a polygon must be the edges of its hull: other
    ones may cut out a polygon with rational vertices, whose counts are no
    polynomial, so L(k) read off the nodes k = 0, 1, 2 would be wrong."""
    vertices = [[0, 0], [1, 0], [0, 1]]
    # x + 2y <= 2 and 2x + y <= 2 meet at (2/3, 2/3): the counts at
    # k = 0, 1, 2 are 1, 3, 6, so the quadratic says 10 at k = 3, but the
    # dilate by 3 holds 11 points.
    kite = halfspaces_json(((-1, 0), 0), ((0, -1), 0), ((1, 2), 2), ((2, 1), 2))
    # Vertices that do not span the plane have no hull.  A point pinned to
    # a line counts 1, 2, 4, 5 at k = 0..3; the quadratic says 7 at k = 3.
    segment = halfspaces_json(((1, 0), 1), ((-1, 0), 1), ((0, 1), 0), ((0, -1), 0))
    line = halfspaces_json(((2, -3), 6), ((-2, 3), -6))
    path = tmp_path / "polygon.json"
    for document, message in (
        ({"vertices": vertices, "halfspaces": kite},
         "error: $: half-spaces are not the edges of the vertices' hull"),
        ({"vertices": [[-1, 0], [0, 0], [1, 0]], "halfspaces": segment}, "collinear"),
        ({"vertices": [[3, 0]], "halfspaces": line}, "three distinct points"),
    ):
        path.write_text(json.dumps({"dimension": 2, **document}))
        for argv in (
            ["count", "-k", "3"],
            ["count", "-k", "3", "--method", "box"],
            ["count", "-k", "1"],
            ["ehrhart"],
        ):
            assert main(argv + ["--json", str(path)]) == EXIT_USAGE
            err = capsys.readouterr().err
            assert message in err and len(err.splitlines()) == 1
    # The hull's own edges are accepted in any order, and kept as given.
    edges = hull2d(vertices).halfspaces[::-1]
    given = {"dimension": 2, "vertices": vertices,
             "halfspaces": halfspaces_json(*((h.normal, h.rhs) for h in edges))}
    assert polytope_from_json(given).halfspaces == edges


def test_cli_count_scans_at_k_when_halfspaces_are_unchecked(tmp_path, capsys):
    # In dimension 3 the loader cannot check half-spaces against the hull.
    # These cut out the unit simplex plus the vertex (2/5, 2/5, 2/5): the
    # dilate by 5 holds 57 points, the cubic through k = 0..3 says 56.
    path = tmp_path / "simplex.json"
    path.write_text(
        json.dumps(
            {
                "dimension": 3,
                "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
                "halfspaces": halfspaces_json(
                    ((-1, 0, 0), 0), ((0, -1, 0), 0), ((0, 0, -1), 0),
                    ((1, 2, 2), 2), ((2, 1, 2), 2), ((2, 2, 1), 2),
                ),
            }
        )
    )
    for method in ("auto", "box"):
        code, out = run_cli(
            capsys, "count", "--json", str(path), "-k", "5",
            "--method", method, "--format", "json",
        )
        assert code == EXIT_OK and json.loads(out)["count"] == 57


@pytest.mark.parametrize("halfspaces", [[((1, 1, 1), 1)], []], ids=["one", "none"])
def test_cli_refuses_fewer_half_spaces_than_bound_a_polytope(tmp_path, capsys, halfspaces):
    """n half-spaces or fewer leave a direction along which their cut is
    unbounded: the unit simplex with x+y+z <= 1 alone counted 23 points at
    k = 1 (4 is right), and with none NumPy refused a matmul."""
    path = tmp_path / "simplex.json"
    path.write_text(json.dumps({"dimension": 3,
                                "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
                                "halfspaces": halfspaces_json(*halfspaces)}))
    line = f"error: $: a polytope in dimension 3 needs at least 4 half-spaces, not {len(halfspaces)}\n"
    for cmd in (["count", "-k", "1"], ["ehrhart"], ["roots"], ["wills"], ["bounds"],
                ["reflexive"]):
        assert main([*cmd, "--json", str(path)]) == EXIT_USAGE
        assert capsys.readouterr() == ("", line)
    assert not _loads_numpy(["roots", "--json", str(path)])


def test_cli_wills_violation_exit_code(capsys):
    code, out = run_cli(
        capsys, "wills", "--family", "qn:13", "--format", "json"
    )
    assert code == EXIT_FINDING
    payload = json.loads(out)
    assert 5 in payload["violations"]
    assert payload["per_index"][5]["coefficient"] == "260832/5"
    assert payload["per_index"][5]["bound"] == "41184"


def test_cli_wills_cube_passes(capsys):
    code, out = run_cli(capsys, "wills", "--family", "cube:6", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["overall"] is True


@pytest.mark.parametrize("spec", ["cross:20", "qn:18"])
def test_cli_roots_residual_is_a_backward_error(capsys, spec):
    code, out = run_cli(capsys, "roots", "--family", spec, "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["residual_bound"] <= 1e-15


# Sorted printed root pairs of ``roots --format json``: cube, cross, pn and
# qn with n <= 16, their dilates by 2, and two products, recorded under the
# older Newton stop |step| <= 1e-16 max(1, |z|): the four-ulp stop must not
# move a printed digit.  A dilate's roots are its factor's divided by s, so
# dilate(qn:14,2) prints qn:14's halved: 0.00301929263304 where the product
# had given ...309 (the true imaginary part is 0.003019292633071).
ROOTS_EXPECTED = json.loads(Path(__file__).with_name("roots_expected.json").read_text())


@pytest.mark.parametrize("spec", ROOTS_EXPECTED)
def test_cli_printed_roots_are_pinned(capsys, spec):
    code, out = run_cli(capsys, "roots", "--family", spec, "--format", "json")
    assert code == EXIT_OK
    roots = json.loads(out)["roots"]
    assert roots == sorted(roots)
    assert roots == ROOTS_EXPECTED[spec]


@pytest.mark.parametrize("n", [*range(1, 25), 40, 60, 100])
def test_cli_cross_roots_print_on_their_line(capsys, n):
    """Every root of cross:n has real part -1/2, and roots proved to lie on
    their line print it: the float real parts of cross:24, 40, 60 and 100
    are off by up to 1e-12, 1.1e-10, 1.4e-6 and 2.7."""
    code, out = run_cli(capsys, "roots", "--family", f"cross:{n}", "--format", "json")
    assert code == EXIT_OK
    assert {re for re, _ in json.loads(out)["roots"]} == {-0.5}


def test_cli_survives_a_reader_that_leaves_early():
    """``ehrhartlab reflexive ... | head -1``: no traceback, the report's status."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "ehrhartlab", "reflexive", "--family", "cross:12"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout.readline().startswith(b"polytope ")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == EXIT_OK
    assert err == b""


def test_cli_roots_reports_common_real_part(capsys):
    code, out = run_cli(
        capsys,
        "roots",
        "--family",
        "dilate(cube:2,2)",
        "-a",
        "4",
        "--format",
        "json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["common_real_part"] is True
    assert payload["detected_common_real_part"] == "-1/4"
    assert payload["parity_necessary_check"] is True
    assert payload["braun_disc_check"] is True
    assert payload["roots"] == [[-0.25, 0.0], [-0.25, 0.0]]
    assert "source_degree" not in payload  # it repeated len(roots)


@pytest.mark.parametrize(
    "argv,verdicts",
    [
        (("--family", "cross:8"), (True, "-1/2", True)),
        (("--family", "qn:9"), (False, None, True)),
        (("--family", "pn:7"), (False, None, False)),
        (("--family", "cross:3", "-a", "4"), (False, "-1/2", False)),
    ],
)
def test_cli_roots_root_line_verdicts(capsys, argv, verdicts):
    """(common_real_part, detected_common_real_part, parity_necessary_check):
    on the line, symmetric about it with roots off it, neither, and on the
    roots' mean -1/2 but not on the line -1/4."""
    code, out = run_cli(capsys, "roots", *argv, "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    keys = ("common_real_part", "detected_common_real_part", "parity_necessary_check")
    assert tuple(payload[key] for key in keys) == verdicts


@pytest.mark.parametrize(
    "argv,shifts",
    [
        (("roots", "--family", "pn:7"), 1),
        (("bounds", "--family", "pn:7"), 1),
        (("bounds", "--family", "cross:8"), 1),
        (("roots", "--family", "cross:3", "-a", "4"), 1),
        (("roots", "--family", "qn:9"), 1),  # parity holds, the roots are off the line
        (("reflexive", "--family", "cross:3"), 0),
        (("reflexive", "--json", "triangle.json"), 0),
        (("bounds", "--family", "qn:9"), 1),
    ],
)
def test_cli_root_line_shifts(capsys, monkeypatch, tmp_path, argv, shifts):
    """One shift per request, to the roots' mean: the line test and the
    parity verdict both read it, and reflexive tests no root line."""
    # Edges at lattice distances 1, 1 and 2: not reflexive, no identity.
    triangle = {"dimension": 2, "vertices": [[-1, -1], [3, -1], [-1, 3]]}
    (tmp_path / "triangle.json").write_text(json.dumps(triangle))
    monkeypatch.chdir(tmp_path)
    calls = []
    shift = Polynomial.shift

    def counted(self, a):
        calls.append(a)
        return shift(self, a)

    monkeypatch.setattr(Polynomial, "shift", counted)
    main(list(argv))
    capsys.readouterr()
    assert len(calls) == shifts


def test_cli_bounds_crosspolytope(capsys):
    code, out = run_cli(
        capsys, "bounds", "--family", "cross:3", "--format", "json"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["volume_bound"]["holds"] is True
    assert payload["point_count_bound"]["is_equality"] is True
    top = [r for r in payload["ratio_bounds"] if (r["s"], r["t"]) == (2, 3)]
    assert top[0]["is_equality"] is True
    assert "source_degree" not in payload["hypothesis"]


def test_cli_reflexive_reports(capsys):
    code, out = run_cli(
        capsys, "reflexive", "--family", "cube:2", "--format", "json"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["def_check"] is True and payload["index_l"] == 1
    code, out = run_cli(
        capsys, "reflexive", "--family", "dilate(cube:2,2)", "--format", "json"
    )
    assert code == EXIT_FINDING
    payload = json.loads(out)
    assert payload["def_check"] is False
    assert payload["coefficient_identity"] is True
    assert "root_line_consequence" not in payload  # it was True for every input


@pytest.mark.parametrize("spec,status,index_l", [("pn:2", EXIT_OK, 1), ("dilate(pn:2,3)", EXIT_FINDING, 3)])
def test_cli_reflexive_builds_the_hull_of_a_plane_family(tmp_path, capsys, spec, status,
                                                          index_l):
    """pn:2 is the square [-1, 1]^2 (h* = (1, 6, 1)): its facets are its
    hull's edges, though its vertex list holds the generators (+-1, 0), so
    its report is its hull's but for the polytope it names."""
    code, out = run_cli(capsys, "reflexive", "--family", spec, "--format", "json")
    payload = json.loads(out)
    assert code == status and payload["index_l"] == index_l
    assert payload["def_check"] is (status == EXIT_OK) and payload["agree"] is True
    path = tmp_path / "hull.json"
    path.write_text(json.dumps(polytope_to_json(hull2d(parse_polytope_spec(spec).vertices))))
    reports = [run_cli(capsys, "reflexive", *source)
               for source in (["--family", spec], ["--json", str(path)])]
    assert [code for code, _ in reports] == [status, status]
    lines = [out.splitlines() for _, out in reports]
    assert lines[0][0] == f"polytope              {spec}, dimension 2"
    assert lines[0][1:] == lines[1][1:] and len(lines[0]) == 10


def test_cli_json_file_input(tmp_path, capsys):
    path = tmp_path / "triangle.json"
    triangle = hull2d([(-1, -1), (-1, 2), (2, -1)])
    path.write_text(json.dumps(polytope_to_json(triangle)))
    code, out = run_cli(
        capsys, "ehrhart", "--json", str(path), "--format", "json"
    )
    assert code == EXIT_OK
    assert json.loads(out)["coefficients"] == ["1", "9/2", "9/2"]


def test_cli_rejects_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code = main(["ehrhart", "--json", str(path)])
    capsys.readouterr()
    assert code == EXIT_USAGE


def test_cli_rejects_inconsistent_dimensions(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps({"dimension": 3, "vertices": [[1, 0], [0, 1], [-1, -1]]})
    )
    code = main(["ehrhart", "--json", str(path)])
    capsys.readouterr()
    assert code == EXIT_USAGE


def test_cli_grammar_error_exit(capsys):
    code = main(["ehrhart", "--family", "pyramid:3"])
    capsys.readouterr()
    assert code == EXIT_USAGE


def test_cli_box_budget_guard(capsys):
    code = main(
        [
            "count",
            "--family",
            "qn:9",
            "-k",
            "2",
            "--method",
            "box",
            "--max-box-points",
            "1000",
        ]
    )
    capsys.readouterr()
    assert code == EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        ["roots", "--family", f"dilate(cube:1,{10**400})"],  # one root near 2^-1330
        ["bounds", "--family", f"dilate(cross:2,{10**400})"],
        ["roots", "--family", f"product(cube:2,dilate(cube:2,{10**400}))"],
    ],
)
def test_cli_roots_past_float_range_exit_2(capsys, argv):
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: roots past float range") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "spec,expected",
    [
        (f"dilate(cube:1,{10**308})", [[-5e-309, 0.0]]),
        # Roots 2^1024 apart: each factor gets a float scale of its own.
        (f"product(cube:2,dilate(cube:2,{10**308}))", [[-0.5, 0.0]] * 2 + [[-5e-309, 0.0]] * 2),
    ],
    ids=["dilate", "product"],
)
def test_cli_roots_of_a_factor_dilated_by_10_to_308(capsys, spec, expected):
    code, out = run_cli(capsys, "roots", "--family", spec, "--format", "json")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["roots"] == expected
    assert report["residual_bound"] <= 1e-15


@pytest.mark.parametrize("k", ["1000000000000000000", "10000000000000000000"])
def test_cli_box_too_large_to_index_exits_2(capsys, k):
    # 2*10^18 + 1 and 2*10^19 + 1 points: no budget admits a box scan of them.
    argv = ["count", "--family", "cube:1", "-k", k, "--method", "box",
            "--max-box-points", "1" + "0" * 61]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "too large to index" in err and len(err.splitlines()) == 1


def test_cli_box_scan_halfspaces_are_exact(tmp_path, capsys):
    """(N, N, 1).x <= 2N - 1 with N = 2^62 cuts (1, 1, 0) and (1, 1, 1) off
    the cube [-1, 1]^3; an int64 dot product wraps there and keeps both."""
    n = 2**62
    corners = [list(v) for v in itertools.product((-1, 1), repeat=3) if v != (1, 1, 1)]
    cube_facets = [((1, 0, 0), 1), ((-1, 0, 0), 1), ((0, 1, 0), 1),
                   ((0, -1, 0), 1), ((0, 0, 1), 1), ((0, 0, -1), 1)]
    path = tmp_path / "cut_cube.json"
    path.write_text(json.dumps({
        "dimension": 3,
        "vertices": corners + [[1, 0, 1], [0, 1, 1]],
        "halfspaces": halfspaces_json(*cube_facets, ((n, n, 1), 2 * n - 1)),
    }))
    code, out = run_cli(capsys, "count", "--json", str(path), "-k", "1",
                        "--method", "box", "--format", "json")
    assert code == EXIT_OK and json.loads(out)["count"] == 25


def test_cli_output_is_deterministic(capsys):
    runs = []
    for _ in range(2):
        code, out = run_cli(
            capsys,
            "count",
            "--family",
            "pn:3",
            "-k",
            "2",
            "--method",
            "box",
            "--format",
            "json",
        )
        assert code == EXIT_OK
        runs.append(out)
    assert runs[0] == runs[1]
    code, again = run_cli(
        capsys, "roots", "--family", "pn:7", "--format", "json"
    )
    code2, again2 = run_cli(
        capsys, "roots", "--family", "pn:7", "--format", "json"
    )
    assert again == again2


def test_cli_csv_format(capsys):
    code, out = run_cli(
        capsys, "ehrhart", "--family", "cube:2", "--format", "csv"
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    assert "coefficients[2],4" in lines


def test_cli_plain_format_summarizes_polytope(capsys, tmp_path):
    code, out = run_cli(capsys, "ehrhart", "--family", "qn:3")
    assert code == EXIT_OK
    assert "qn:3" in out
    assert "coefficients[1]" in out
    # A vertex count only for explicit lists: pn:2's generators are no vertices.
    code, out = run_cli(capsys, "ehrhart", "--family", "pn:2")
    assert out.splitlines()[0] == "polytope         pn:2, dimension 2"
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps({"dimension": 2, "vertices": [[-1, -1], [2, 0], [0, 2]]}))
    code, out = run_cli(capsys, "count", "--json", str(path), "--format", "csv")
    assert 'polytope,"generic, dimension 2, 3 vertices"' in out.splitlines()


def test_cli_family_report_is_its_recipe(capsys):
    code, out = run_cli(capsys, "ehrhart", "--family", "qn:18", "--format", "json")
    assert code == EXIT_OK
    assert len(out) < 2000 and '"vertices"' not in out
    assert json.loads(out)["polytope"]["family"]["params"] == {"n": 18, "scale": 1}
    code, out = run_cli(capsys, "ehrhart", "--family", "cube:40", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["coefficients"][-1] == str(2**40)


def test_cli_reflexive_refuses_long_family_lists(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_MAX_LISTED", 16)
    code, _ = run_cli(capsys, "reflexive", "--family", "cube:4")  # 16 vertices
    assert code == EXIT_OK
    for spec in ("cube:5", "cross:5", "product(cube:4,cube:1)"):
        code = main(["reflexive", "--family", spec])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err == "error: reflexivity would list over 16 vertices/facets\n"


@pytest.mark.parametrize("spec, lists", [("cross:8", (16, 256)), ("cube:8", (256, 16))])
def test_cli_reflexive_builds_each_family_list_once(monkeypatch, capsys, spec, lists):
    """A family builds its lists on each read: the report binds them once,
    tests each vertex and each polar vertex for primitivity once, and does
    not test the root line."""
    calls = {"vertices": 0, "halfspaces": 0, "is_primitive": 0, "common_real_part": 0}

    def counted(module, name, key):
        original = getattr(module, name)

        def wrapper(*args):
            calls[key] += 1
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(polytopes, "_family_vertices", "vertices")
    counted(polytopes, "_family_halfspaces", "halfspaces")
    counted(reflexivity, "is_primitive", "is_primitive")
    counted(reflexivity, "common_real_part", "common_real_part")
    code, out = run_cli(capsys, "reflexive", "--family", spec, "--format", "json")
    assert code == EXIT_OK and "root_line_consequence" not in json.loads(out)
    assert calls == {"vertices": 1, "halfspaces": 1, "is_primitive": sum(lists),
                     "common_real_part": 0}


def test_cli_reflexive_refuses_slow_family_lists(monkeypatch, capsys):
    code, _ = run_cli(capsys, "reflexive", "--family", "cross:3")
    assert code == EXIT_OK
    for name in ("_family_vertices", "_family_halfspaces"):
        monkeypatch.setattr(polytopes, name, None)  # refused unbuilt: a build raises
    for spec in ("cross:18", "pn:12"):  # 2^18 facets; 2 * 3^11 - 22 = 354,272
        code = main(["reflexive", "--family", spec])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: reflexivity would list over {cli._MAX_LISTED} vertices/facets\n"
        )


def test_bench_tracer_wraps_every_family_constructor(monkeypatch):
    """The benchmark's tracer patches the constructor tables of the family
    grammar and the JSON reader by name, key by key, so renaming a table or
    filling it with a constructor the tracer does not wrap breaks traced
    runs.  Building the recorder installs nothing."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import tracer

    patches = tracer.Recorder()._patches
    for table in (cli._SpecParser._FAMILIES, cli._FAMILY_CTORS):
        wrapped = {key: new for obj, key, new in patches if obj is table}
        assert wrapped.keys() == table.keys()
        for key, ctor in table.items():
            new = wrapped[key]
            if isinstance(ctor, tuple):
                (ctor, *rest), (new, *new_rest) = ctor, new
                assert new_rest == rest
            assert new.__wrapped__ is ctor and table[key] is not new


def test_cli_json_off_the_plane_needs_half_spaces(tmp_path, capsys):
    """Nothing derives the facets of a JSON polytope of dimension >= 3, so
    one given without them is refused at load, by every subcommand alike."""
    path = tmp_path / "simplex.json"
    path.write_text(json.dumps({"dimension": 3,
                                "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]}))
    for cmd in (["ehrhart"], ["count", "-k", "0"], ["roots"], ["wills"], ["bounds"],
                ["reflexive"]):
        assert main([*cmd, "--json", str(path)]) == EXIT_USAGE
        assert capsys.readouterr() == ("", "error: $: a polytope in dimension 3 needs at "
                                       "least 4 half-spaces, not 0\n")


@pytest.mark.parametrize("spec, index_l", [
    ("pn:3", 2), ("pn:4", 6), ("pn:5", 12), ("pn:6", 60), ("pn:7", 60),
    ("product(pn:3,cube:2)", 2), ("dilate(pn:4,2)", 12),
])
def test_cli_reflexive_reads_pn_facets(capsys, spec, index_l):
    """pn:n's facet distances are 1..n-1, so its index is their lcm and,
    past n = 2, it is not l-reflexive; the three verdicts agree, well inside
    50 ms (pn:7, 1,446 facets: about 4 ms in process on a 2-vCPU VM)."""
    start = time.perf_counter()
    code, out = run_cli(capsys, "reflexive", "--family", spec, "--format", "json")
    assert time.perf_counter() - start < 0.05
    payload = json.loads(out)
    assert (code, payload["index_l"], payload["agree"]) == (EXIT_FINDING, index_l, True)
    assert payload["def_check"] is False


def test_cli_verify_all_passes(capsys):
    code, out = run_cli(capsys, "verify-all", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["overall"] is True
    assert [row["number"] for row in payload["rows"]] == list(range(1, 12))
    assert all(row["status"] == "PASS" for row in payload["rows"])


@pytest.mark.parametrize("cmd", ["roots", "bounds", "reflexive"])
@pytest.mark.parametrize("a", ["0", "-1", "1/0", "nan", "inf", "1e10000000"])
def test_cli_rejects_nonpositive_or_undefined_a(capsys, cmd, a):
    """``-a`` (roots, bounds) takes finite numbers > 0; an exponent of more
    than three digits is refused before ``Fraction`` spends seconds on
    10**exponent.  reflexive reads ``a`` off the polytope and takes no ``-a``."""
    code = main([cmd, "--family", "cube:2", "-a", a])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE and "Traceback" not in err
    if cmd == "reflexive":
        assert err == "error: unrecognized argument for reflexive: -a\n"
    else:
        assert "argument -a:" in err


@pytest.mark.parametrize(
    "a,same_as", [("1e0001", "10"), ("1e-0005", "1/100000"), ("2e+000", "2"),
                  ("1E-007", "1/10000000")]
)
def test_cli_accepts_exponents_with_leading_zeros(capsys, a, same_as):
    """Leading zeros do not count toward the three-digit exponent limit."""
    code, out = run_cli(capsys, "roots", "--family", "cross:3", "-a", a,
                        "--format", "json")
    assert code == EXIT_OK
    assert (code, out) == run_cli(capsys, "roots", "--family", "cross:3",
                                  "-a", same_as, "--format", "json")


_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not 0 < _DIGIT_LIMIT < 4504, reason="needs Python's int-to-str digit limit")
@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
@pytest.mark.parametrize("family,k", [("cube:3", 10**1500), ("cube:10000", 1)])
def test_cli_answer_past_the_digit_limit_exits_2(capsys, fmt, family, k):
    """Counts of 4,504 and 4,772 digits: the renderer's ValueError exits 2
    with one line, not a traceback with the finding status."""
    code = main(["count", "--family", family, "-k", str(k), "--format", fmt])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: Exceeds the limit")


@pytest.mark.skipif(_DIGIT_LIMIT != 4300, reason="needs Python's default digit limit")
def test_cli_integers_past_the_digit_limit_are_named_as_k_names_them(tmp_path, monkeypatch,
                                                                     capsys):
    """A spec integer and a JSON coordinate of 5,000 digits are refused in
    the words of ``-k``, not with advice to call a Python function."""
    monkeypatch.chdir(tmp_path)
    Path("big.json").write_text('{"dimension": 2, "vertices": [[0, 0], [1, 0], [0, -1%s]]}'
                                % ("0" * 4999))
    limit = "5000 digits, past Python's limit of 4300 digits\n"
    for argv, line in ((["--family", "cube:1" + "0" * 4999], "spec error at position 5: "),
                       (["--family", "dilate(cube:2, 1" + "0" * 4999 + ")"],
                        "spec error at position 15: "),
                       (["--json", "big.json"], "JSON in big.json: ")):
        assert main(["ehrhart", *argv]) == EXIT_USAGE
        assert capsys.readouterr() == ("", "error: " + line + limit)


@pytest.mark.skipif(not 0 < _DIGIT_LIMIT < 4504, reason="needs Python's int-to-str digit limit")
@pytest.mark.parametrize("family,k", [("cube:20000", 20001), ("product(cube:3000,cross:500)", 4000)])
def test_cli_count_one_step_past_the_nodes_stays_closed_form(capsys, family, k):
    """Cubes and crosspolytopes answer in closed form at every k, so these
    counts reach the renderer's digit limit in milliseconds and exit 2 with
    one line.  Read off the Ehrhart polynomial past k = n, they took 0.7-1.1 s
    and 15 s in process (2-vCPU VM)."""
    start = time.perf_counter()
    code = main(["count", "--family", family, "-k", str(k)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert elapsed < 0.2


@pytest.mark.parametrize(
    "argv,bound",
    [
        (("ehrhart", "--family", "pn:300", "--format", "json"), 1.0),
        (("ehrhart", "--family", "cube:800", "--format", "json"), 0.5),
        (("count", "--family", "cross:3000", "-k", "3001"), 0.3),
        # About 0.14 s on the first call, 0.025 s and 0.006 s.
        (("roots", "--family", "pn:40", "--format", "json"), 1.0),
        (("count", "--family", "qn:6", "-k", "8", "--method", "box"), 0.5),
        (("ehrhart", "--family", "pn:120", "--format", "json"), 0.2),
        (("ehrhart", "--family", "cube:40", "--format", "json"), 1.0),
        # About 0.4 s: 2^17 facets, the most reflexive lists.
        (("reflexive", "--family", "cross:17", "--format", "json"), 5.0),
        # About 0.02 s from the factor cross:60; 0.17 s on the product.
        (("roots", "--family", "product(cross:60,cross:60)", "--format", "json"), 0.1),
    ],
    ids=["pn:300", "cube:800", "cross:3000", "roots pn:40", "box qn:6", "pn:120", "cube:40",
         "reflexive cross:17", "roots product(cross:60,cross:60)"],
)
def test_cli_time_bound_steps_in_process(capsys, argv, bound):
    """Time-bound probes, once CI's ``timeout`` steps: pn:300 and cube:800
    (interpolating counts, pn:300 ran past 10 s), ``roots`` of pn:40, the
    qn:6 box scan, pn:120, cube:40, ``reflexive`` on cross:17, the
    crosspolytope count that a ``comb`` per term of ``count_minkowski_dp``
    held at about 1 s, and ``roots`` of a product, whose root stage had
    run on the multiplied polynomial: exit 0, no stderr, inside the bound
    (seconds, 2-vCPU VM)."""
    start = time.perf_counter()
    code = main(list(argv))
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == EXIT_OK and captured.out and captured.err == ""
    assert elapsed < bound


@pytest.mark.parametrize("method", ["auto", "box"])
def test_cli_max_box_points_must_be_nonnegative(capsys, method):
    base = ["count", "--family", "cube:2", "-k", "3", "--method", method]
    assert main(base + ["--max-box-points", "-1"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].endswith(
        "error: argument --max-box-points: must be nonnegative: '-1'"
    )
    # A budget of 0 is valid: it refuses every scan, and the cube needs none.
    code = main(base + ["--max-box-points", "0"])
    assert code == (EXIT_OK if method == "auto" else EXIT_USAGE)
    err = capsys.readouterr().err
    if method == "box":
        assert "exceeds the budget of 0" in err


def test_verify_all_takes_only_format(capsys):
    # verify-all reads no polytope, so no box budget either.
    assert main(["verify-all", "--max-box-points", "1"]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: unrecognized argument for verify-all: --max-box-points\n"


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
@pytest.mark.parametrize("cmd", ["count", "ehrhart", "roots", "wills", "bounds", "reflexive"])
def test_polytope_is_the_first_key_of_every_report(capsys, cmd, fmt):
    code, out = run_cli(capsys, cmd, "--family", "cube:2", "--format", fmt)
    assert code in (EXIT_OK, EXIT_FINDING)
    if fmt == "json":
        report = json.loads(out)
        assert next(iter(report)) == "polytope"
        assert report["polytope"] == polytope_to_json(cube(2))
    elif fmt == "csv":
        assert out.splitlines()[:2] == ["key,value", "polytope,\"cube:2, dimension 2\""]
    else:
        assert out.splitlines()[0].split(None, 1) == ["polytope", "cube:2, dimension 2"]


# The family specs of the benchmark's three workloads and the README Quick start.
LABELLED_SPECS = [
    "cross:3", "cross:6", "cross:8", "cross:12", "cross:13", "cross:14",
    "cube:2", "cube:6", "cube:12", "cube:13", "cube:14", "dilate(cube:2,2)",
    "pn:4", "pn:5", "pn:7", "pn:8", "pn:9", "pn:10", "pn:11",
    "qn:5", "qn:9", "qn:11", "qn:12", "qn:13", "qn:14", "qn:15", "qn:16",
    "product(pn:7,cube:5)", "product(cross:6,product(cross:6,cross:6))",
]


@pytest.mark.parametrize("fmt", ["plain", "csv"])
def test_plain_and_csv_labels_are_family_specs(capsys, fmt):
    """The polytope row names a family as --family reads it."""
    for spec in LABELLED_SPECS:
        code, out = run_cli(capsys, "count", "--family", spec, "-k", "0", "--format", fmt)
        assert code == EXIT_OK
        row = out.splitlines()[0] if fmt == "plain" else next(csv.reader(out.splitlines()[1:2]))[1]
        label, _, dimension = row.removeprefix("polytope").strip().rpartition(", dimension ")
        assert parse_polytope_spec(label) == parse_polytope_spec(spec)
        assert int(dimension) == parse_polytope_spec(spec).dimension


def test_labels_with_explicit_lists_count_them(tmp_path, capsys):
    triangle = polytope_to_json(hull2d([(-1, -1), (-1, 2), (2, -1)]))
    for document, label in (
        (triangle, "generic, dimension 2, 3 vertices"),
        ({"dimension": 3, "family": {"tag": "product", "params": {
            "scale": 2, "factors": [triangle, polytope_to_json(cube(1))]}}},
         "product of 2 factors, dimension 3"),
    ):
        path = tmp_path / "lists.json"
        path.write_text(json.dumps(document))
        code, out = run_cli(capsys, "count", "--json", str(path), "-k", "0")
        assert code == EXIT_OK and out.splitlines()[0].split(None, 1) == ["polytope", label]


def test_verify_all_report_has_no_polytope(capsys):
    code, out = run_cli(capsys, "verify-all", "--format", "json")
    assert code == EXIT_OK and "polytope" not in json.loads(out)


HUGE = "1" + "0" * 4999  # past int()'s default limit of 4,300 digits


@pytest.mark.parametrize("flag", ["-k", "--max-box-points"])
def test_integer_past_the_digit_limit_is_named_as_such(capsys, flag):
    assert main(["count", "--family", "cube:3", flag, HUGE]) == EXIT_USAGE
    err = capsys.readouterr().err
    limit = sys.get_int_max_str_digits()
    assert err == f"error: argument {flag}: 5000 digits, past Python's limit of {limit} digits\n"


LONG = "q" * 5000


@pytest.mark.parametrize("argv, echo", [
    (["count", "--family", "cube:2", "-k", LONG], "not an integer: 'qqq"),
    (["roots", "--family", "cube:2", "-a", LONG], "not a finite number: 'qqq"),
    (["roots", "--family", "cube:2", "-a", "1e" + HUGE], "exponent out of range: '1e1000"),
    (["roots", "--family", "cube:2", "--format", LONG], "invalid choice: 'qqq"),
    (["count", "--family", "cube:2", "--method", LONG], "invalid choice: 'qqq"),
    (["roots", "--family", "cube:2", "--" + LONG], "unrecognized argument for roots: --qqq"),
    ([LONG], "unknown subcommand 'qqq"),
    (["ehrhart", "--family", LONG + ":2"], "unknown family 'qqq"),
], ids=["k", "a", "a-exponent", "format", "method", "flag", "subcommand", "family"])
def test_messages_shorten_long_values(capsys, argv, echo):
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and len(err) < 200, err
    assert echo in err and "... (50" in err


def test_json_messages_shorten_long_values(tmp_path, capsys):
    path = tmp_path / "p.json"
    for doc in ({"family": {"tag": LONG}},
                {"family": {"tag": "cube", "params": {"n": 2}}, "dimension": LONG}):
        path.write_text(json.dumps(doc))
        assert main(["ehrhart", "--json", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and len(err) < 200, err
        assert "... (50" in err


def test_spec_integer_reads_only_what_int_reads(capsys):
    """A digit that int() refuses (a superscript) is no integer of the
    grammar, however many follow."""
    for digits in ("\u00b2", "\u00b2" * 300):
        assert main(["ehrhart", "--family", f"cube:{digits}"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == "error: spec error at position 5: expected a positive integer\n"


def test_json_path_messages_shorten_long_paths(tmp_path, monkeypatch, capsys):
    def error(path):
        assert main(["ehrhart", "--json", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and len(err.encode()) < 200, err
        return err

    err = error("x" * 3000)
    assert "File name too long: 'xxx" in err and "... (3000 characters)" in err
    assert "No such file or directory" in error(tmp_path / ("y" * 200))
    long_name = tmp_path / ("z" * 200 + ".json")
    leaf = '{"family": {"tag": "cube", "params": {"n": 1}}}'
    head = '{"family": {"tag": "product", "params": {"factors": [' + leaf + ", "
    for text, message in (("{not json", "malformed JSON in "),
                          (head * 3000 + leaf + "]}}}" * 3000, "nested too deeply")):
        long_name.write_text(text)
        err = error(long_name)
        assert message in err and f"... ({len(str(long_name))} characters)" in err
    # A path of at most 40 characters is echoed whole, as Python words it.
    monkeypatch.chdir(tmp_path)
    assert error("missing.json") == (
        "error: [Errno 2] No such file or directory: 'missing.json'\n")
    assert error(".") == "error: [Errno 21] Is a directory: '.'\n"


def test_json_file_that_is_not_utf8_is_named(tmp_path, monkeypatch, capsys):
    """JSON text is UTF-8, so other bytes are malformed JSON in that file."""
    monkeypatch.chdir(tmp_path)
    Path("bad.json").write_bytes(b"\xff{}")
    assert main(["ehrhart", "--json", "bad.json"]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: malformed JSON in bad.json: 'utf-8' codec can't decode byte 0xff "
        "in position 0: invalid start byte\n")


def test_cli_has_no_tolerance_flag(capsys):
    """The root line is decided exactly, so no tolerance can be set."""
    for cmd in ("roots", "bounds", "reflexive"):
        code = main([cmd, "--family", "cube:2", "--tol", "1e-7"])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE and "Traceback" not in err
        assert err == f"error: unrecognized argument for {cmd}: --tol\n"


# The old argparse parser, built eagerly from a copy of the flag table, as
# an oracle: subcommand -> flags, and flag -> add_argument keywords.
ORACLE_POLYTOPE_FLAGS = ("--family", "--json", "--format", "--max-box-points")
ORACLE_COMMANDS = {
    "count": (*ORACLE_POLYTOPE_FLAGS, "-k", "--method"),
    "ehrhart": ORACLE_POLYTOPE_FLAGS,
    "roots": (*ORACLE_POLYTOPE_FLAGS, "-a"),
    "wills": ORACLE_POLYTOPE_FLAGS,
    "bounds": (*ORACLE_POLYTOPE_FLAGS, "-a"),
    "reflexive": ORACLE_POLYTOPE_FLAGS,
    "verify-all": ("--format",),
}
ORACLE_FLAGS = {
    "--family": {"dest": "family_spec"},
    "--json": {"dest": "json_path"},
    "--format": {"dest": "fmt", "choices": ("plain", "json", "csv")},
    "--max-box-points": {"type": cli._nonnegative_int},
    "-k": {"type": cli._nonnegative_int},
    "--method": {"choices": ("auto", "box")},
    "-a": {"type": cli._positive_number},
}


def oracle_request(argv):
    """The CommandRequest argparse makes of argv, or None where it refuses
    argv or prints help."""
    parser = argparse.ArgumentParser(prog="ehrhartlab")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, flags in ORACLE_COMMANDS.items():
        subparser = sub.add_parser(name)
        for flag in flags:
            subparser.add_argument(flag, **ORACLE_FLAGS[flag])
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            namespace = parser.parse_args(argv)
        except SystemExit:
            return None
    return cli.CommandRequest(**{k: v for k, v in vars(namespace).items() if v is not None})


def kept_forms(argv):
    """Whether argv is a subcommand, then whole flags, each with its value
    as the next token or after '='.  argparse also took abbreviations
    (``--fam``), values attached to a short flag (``-k2``) and ``--``."""
    if not argv or argv[0] not in ORACLE_COMMANDS:
        return False
    tokens = iter(argv[1:])
    for token in tokens:
        flag, has_value, _ = token.partition("=")
        if flag not in ORACLE_FLAGS:
            return False
        if not has_value:
            next(tokens, None)
    return True


def assert_matches_oracle(argv):
    """Where the oracle accepts argv in the kept forms, the parser makes the
    same request.  Otherwise main prints help with exit 0 or exits 2 with
    exactly one line on stderr."""
    expected = oracle_request(argv)
    if expected is not None and kept_forms(argv):
        assert cli.build_parser().parse_args(argv) == expected, argv
        return
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == EXIT_OK:
        assert out.getvalue().startswith("usage: ") and err.getvalue() == "", argv
    else:
        assert code == EXIT_USAGE and len(err.getvalue().splitlines()) == 1, (argv, err)
        assert err.getvalue().startswith("error: ") and out.getvalue() == "", (argv, err)


PARSER_CORPUS = [[], ["-h"], ["bogus"], ["ehr"],
                 ["count", "--family", "--", "--family", "cube:2"]] + [
    [name, *tail]
    for name in cli._COMMANDS
    for tail in (
        [],
        ["-h"],
        ["--family", "cube:2", "--tol", "1"],
        ["--family"],
        ["--family", "cube:2", "--json", "p.json"],
        ["--family", "cube:2", "--format", "xml"],
        ["--family", "cube:2", "-k", "x"],
        ["--family", "cube:2", "-k", "-1"],
        ["--family", "cube:2", "--max-box-points", "-1"],
        ["--family", "cube:2", "-a", "0"],
        ["--family", "cube:2", "-a", "3/2"],
        ["--json", "p.json", "-k", "3", "--method=box", "--format", "csv",
         "--max-box-points", "7"],
        ["--family=cube:3"],
    )
]


@pytest.mark.parametrize("argv", PARSER_CORPUS, ids=lambda argv: " ".join(argv) or "()")
def test_parser_matches_eager_reference(argv):
    assert_matches_oracle(argv)


def test_parser_reads_a_flag_like_next_token_as_a_flag(capsys):
    """As argparse: "-" alone and negative numbers are values; after "=" the
    value is taken as given."""
    assert main(["count", "--family", "--", "--family", "cube:2"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: argument --family: expected one argument\n"
    parse = cli.build_parser().parse_args
    assert parse(["count", "--family=--"]).family_spec == "--"
    assert parse(["count", "--family", "-"]).family_spec == "-"
    with pytest.raises(SpecError, match="argument -k: not an integer: '-.5'"):
        parse(["count", "-k", "-.5"])


@pytest.mark.parametrize("argv", [[], ["-h"], ["ehrhart", "--family", "cube:2"],
                                  ["roots", "--family", "cube:2", "--tol", "1"]])
def test_main_reads_sys_argv(monkeypatch, capsys, argv):
    expected = main(list(argv)), capsys.readouterr()
    monkeypatch.setattr(sys, "argv", ["ehrhartlab", *argv])
    assert (main(), capsys.readouterr()) == expected


def test_cli_import_loads_no_argparse():
    """Nor dataclasses and the inspect, ast, dis and tokenize it imports,
    nor NumPy: a fresh ``import ehrhartlab.cli`` loads none of them."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    heavy = {"dataclasses", "inspect", "ast", "dis", "tokenize", "argparse", "gettext", "numpy"}
    code = f"import sys, ehrhartlab.cli; print(sorted({heavy!r} & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, check=True)
    assert result.stdout == "[]\n"


@pytest.mark.parametrize("argv, loads_numpy", [
    ("ehrhart --family cube:3", False),
    ("wills --family pn:7", False),
    ("reflexive --family cross:4", False),
    ("count --family qn:5 -k 9", False),
    # Every root of a cube or its dilate is rational: no eigenvalues.
    ("roots --family cube:3", False),
    ("bounds --family cube:3", False),
    ("roots --family dilate(cube:2,2) -a 4", False),
    ("roots --family pn:7", True),
    ("count --family qn:3 --method box", True),
    # A box scan refused for its size, before any oracle array is built.
    pytest.param("count --family cube:4000 -k 1" + "0" * 1000 + " --method box", False,
                 id="count --family cube:4000 -k 10^1000 --method box-False"),
])
def test_cli_loads_numpy_only_for_float_roots_and_box_scans(argv, loads_numpy):
    assert _loads_numpy(argv.split()) is loads_numpy


UNIT_CUBE = {
    "dimension": 3,
    "vertices": [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)],
    "halfspaces": [{"normal": [s * (i == j) for j in range(3)], "rhs": int(s > 0)}
                   for i in range(3) for s in (1, -1)],
}


def test_cli_refuses_a_half_space_box_scan_before_numpy_loads(tmp_path):
    unit = tmp_path / "unit.json"
    unit.write_text(json.dumps(UNIT_CUBE))
    argv = ["count", "--json", str(unit), "-k", "1" + "0" * 1000, "--method", "box"]
    assert not _loads_numpy(argv)
    assert _loads_numpy(argv[:4] + ["3"] + argv[5:])


@pytest.mark.parametrize("source, side", [(["--family", "cube:4000"], "^4000"),
                                          (["--json", "unit.json"], "^3")])
def test_cli_refuses_a_box_of_a_1001_digit_side_at_once(tmp_path, monkeypatch, capsys,
                                                         source, side):
    """The (2*10^1000 + 1)^4000 box of cube:4000, and the box of the unit
    cube given by half-spaces, at k = 10^1000: exit 2 with one line, well
    inside 2 s (that power alone takes about 3 s to build)."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "unit.json").write_text(json.dumps(UNIT_CUBE))
    start = time.perf_counter()
    code = main(["count", *source, "-k", "1" + "0" * 1000, "--method", "box"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_USAGE, "")
    assert captured.err == (f"error: box scan of (1001-digit number){side} points exceeds "
                            "the budget of 100000000; use a family counter instead\n")
    assert elapsed < 2


def test_cli_counts_a_triangle_past_a_one_point_box_budget(tmp_path, capsys):
    """A polygon is counted by Pick's theorem, so a budget that refuses any
    box scan still lets it answer at k = 10^6: 9/2 k^2 + 9/2 k + 1."""
    triangle = tmp_path / "tri.json"
    triangle.write_text(json.dumps({"dimension": 2, "vertices": [[-1, -1], [2, -1], [-1, 2]]}))
    code = main(["count", "--json", str(triangle), "-k", "1000000", "--max-box-points", "1"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (EXIT_OK, "")
    assert "count     4500004500001\n" in captured.out


def test_cli_segment_reports_load_no_numpy(tmp_path):
    """A JSON segment's polynomial and counts come from its ends: no box scan."""
    segment = tmp_path / "segment.json"
    segment.write_text(json.dumps({"dimension": 1, "vertices": [[-2], [3]]}))
    for argv in (["ehrhart"], ["count", "-k", "7"]):
        assert not _loads_numpy(argv + ["--json", str(segment)])


def _loads_numpy(argv):
    """Run the CLI on argv in a fresh interpreter; whether NumPy got loaded."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = ("import contextlib, io, sys, ehrhartlab.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    ehrhartlab.cli.main({argv!r})\n"
            "print('numpy' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, check=True)
    return {"True\n": True, "False\n": False}[result.stdout]


def test_run_all_computes_each_bipyramid_closed_form_once(monkeypatch):
    """Rows 2, 3, 6 and 11 read 28 bipyramid polynomials for 19 distinct n,
    each from its recipe through run_all's one cache, which lives for one
    run_all call."""
    calls = []

    def counted(n):
        calls.append(n)
        return qn_coefficients(n)

    monkeypatch.setattr(ehrhart, "qn_coefficients", counted)
    for runs in (1, 2):
        assert all(row.passed for row in verification.run_all())
        assert len(calls) == 19 * runs and sorted(set(calls)) == list(range(2, 21))


def test_run_all_computes_each_ehrhart_polynomial_once(monkeypatch):
    """Rows 2, 3, 4, 6, 7, 8, 9 and 11 share one cache of recipe
    polynomials, so no body's recipe is read twice in a run: 43 bodies
    through the cache, row 9's 50 random polygons once each, and the two
    factors of row 11's product inside its recipe, cube:2 among them,
    which the cache also holds (95 reads, 94 bodies).  The cache lives for
    one run_all call."""
    calls = []
    recipe = ehrhart.ehrhart_from_recipe
    monkeypatch.setattr(ehrhart, "ehrhart_from_recipe",
                        lambda body: calls.append(body) or recipe(body))
    for runs in (1, 2):
        assert all(row.passed for row in verification.run_all())
        assert len(calls) == 95 * runs and len(set(calls[-95:])) == 94


SQUARE_HALFSPACES = [
    {"normal": [1, 0], "rhs": 1},
    {"normal": [-1, 0], "rhs": 1},
    {"normal": [0, 1], "rhs": 1},
    {"normal": [0, -1], "rhs": 1},
]


@pytest.mark.parametrize(
    "document,field",
    [
        (
            {
                "dimension": True,
                "vertices": [[-1], [1]],
                "halfspaces": [{"normal": [1], "rhs": 1}, {"normal": [-1], "rhs": 1}],
            },
            "$.dimension",
        ),
        (
            {
                "dimension": 2,
                "vertices": [[-1, -1], [-1, 1], [1, -1], [True, True]],
                "halfspaces": SQUARE_HALFSPACES,
            },
            "$.vertices[3]",
        ),
        (
            {
                "dimension": 2,
                "vertices": [[-1, -1], [-1, 1], [1, -1], [1, 1]],
                "halfspaces": [{"normal": [True, 0], "rhs": 1}] + SQUARE_HALFSPACES[1:],
            },
            "$.halfspaces[0].normal",
        ),
        (
            {
                "dimension": 2,
                "vertices": [[-1, -1], [-1, 1], [1, -1], [1, 1]],
                "halfspaces": [{"normal": [1, 0], "rhs": True}] + SQUARE_HALFSPACES[1:],
            },
            "$.halfspaces[0].rhs",
        ),
        ({"family": {"tag": "cube", "params": {"n": True}}}, "$.family.params.n"),
        (
            {"family": {"tag": "cube", "params": {"n": 1, "scale": True}}},
            "$.family.params.scale",
        ),
        (
            {"dimension": True, "family": {"tag": "cube", "params": {"n": 1}}},
            "$.dimension",
        ),
    ],
)
def test_cli_json_booleans_are_not_integers(tmp_path, capsys, document, field):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(document))
    code = main(["ehrhart", "--json", str(path)])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith(f"error: {field}") and len(err.splitlines()) == 1


def test_cli_deep_spec_nesting_exits_2(capsys):
    spec = "dilate(" * 1200 + "cube:1" + ",1)" * 1200
    code = main(["ehrhart", "--family", spec])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error: spec error") and len(err.splitlines()) == 1


def test_cli_deep_json_nesting_exits_2(tmp_path, capsys):
    leaf = '{"family": {"tag": "cube", "params": {"n": 1}}}'
    head = '{"family": {"tag": "product", "params": {"factors": [' + leaf + ", "
    path = tmp_path / "deep.json"
    path.write_text(head * 3000 + leaf + "]}}}" * 3000)
    code = main(["ehrhart", "--json", str(path)])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "nested too deeply" in err and len(err.splitlines()) == 1


def test_cli_vertex_only_polygon_json(tmp_path, capsys):
    triangle = hull2d([(-1, -1), (-1, 2), (2, -1)])
    square = [[-1, -1], [1, -1], [1, 1], [-1, 1]]
    cases = [
        (polytope_to_json(triangle),
         {"dimension": 2, "vertices": [[2, -1], [-1, 2], [-1, -1], [0, 0]]}),
        # A vertex list padded with the origin, next to the edges, is read
        # as its hull: reflexive must not test the zero vector.
        ({**polytope_to_json(hull2d(square)), "vertices": square + [[0, 0]]},
         {"dimension": 2, "vertices": square}),
    ]
    full, bare = tmp_path / "full.json", tmp_path / "bare.json"
    for given, vertex_only in cases:
        full.write_text(json.dumps(given))
        bare.write_text(json.dumps(vertex_only))
        for cmd in ("ehrhart", "count", "roots", "wills", "bounds", "reflexive"):
            expected = run_cli(capsys, cmd, "--json", str(full), "--format", "json")
            assert expected[0] in (EXIT_OK, EXIT_FINDING), (cmd, given)
            assert run_cli(capsys, cmd, "--json", str(bare), "--format", "json") == expected
    # A family without half-spaces keeps its tag and closed-form counter.
    pn2 = tmp_path / "pn2.json"
    pn2.write_text(json.dumps({"family": {"tag": "pn", "params": {"n": 2}}}))
    code, out = run_cli(capsys, "ehrhart", "--json", str(pn2), "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["polytope"]["family"]["tag"] == "pn"
