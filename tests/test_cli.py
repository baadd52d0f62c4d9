"""CLI: grammar, JSON schemas, subcommands, exit codes, determinism."""

import json

import pytest

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
from ehrhartlab.counting import dilation_counter
from ehrhartlab.ehrhart import ehrhart_of
from ehrhartlab.polytopes import cube, dilate, hull2d, pn_family, product, qn_family


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
    ):
        encoded = polytope_to_json(poly)
        decoded = polytope_from_json(json.loads(json.dumps(encoded)))
        assert decoded == poly


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


def test_polytope_json_family_vertex_consistency_checked():
    bad = polytope_to_json(cube(2))
    bad["vertices"] = [[0, 0]]
    with pytest.raises(ValueError, match="inconsistent"):
        polytope_from_json(bad)


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
    code, fast = run_cli(
        capsys, "count", "--family", "pn:3", "-k", "2", "--format", "json"
    )
    assert code == EXIT_OK
    code, slow = run_cli(
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
    assert json.loads(fast)["count"] == json.loads(slow)["count"]


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
    assert payload["detected_common_real_part"] == -0.25
    assert payload["parity_necessary_check"] is True
    assert payload["braun_disc_check"] is True
    assert payload["roots"] == [[-0.25, 0.0], [-0.25, 0.0]]


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
    assert payload["root_line_consequence"] is True


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


def test_cli_plain_format_summarizes_polytope(capsys):
    code, out = run_cli(capsys, "ehrhart", "--family", "qn:3")
    assert code == EXIT_OK
    assert "qn:3" in out
    assert "coefficients[1]" in out


def test_cli_verify_all_passes(capsys):
    code, out = run_cli(capsys, "verify-all", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["overall"] is True
    assert [row["number"] for row in payload["rows"]] == list(range(1, 12))
    assert all(row["status"] == "PASS" for row in payload["rows"])


@pytest.mark.parametrize("cmd", ["roots", "bounds"])
@pytest.mark.parametrize("a", ["0", "-1", "1/0"])
def test_cli_rejects_nonpositive_or_undefined_a(capsys, cmd, a):
    code = main([cmd, "--family", "cube:2", "-a", a])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "argument -a" in err and "Traceback" not in err


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
    full = tmp_path / "full.json"
    full.write_text(json.dumps(polytope_to_json(triangle)))
    bare = tmp_path / "bare.json"
    bare.write_text(
        json.dumps({"dimension": 2, "vertices": [[2, -1], [-1, 2], [-1, -1], [0, 0]]})
    )
    for cmd in ("ehrhart", "count", "roots", "wills", "bounds", "reflexive"):
        expected = run_cli(capsys, cmd, "--json", str(full), "--format", "json")
        assert run_cli(capsys, cmd, "--json", str(bare), "--format", "json") == expected
    # A family without half-spaces keeps its tag and closed-form counter.
    pn2 = tmp_path / "pn2.json"
    pn2.write_text(json.dumps({"family": {"tag": "pn", "params": {"n": 2}}}))
    code, out = run_cli(capsys, "ehrhart", "--json", str(pn2), "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["polytope"]["family"]["tag"] == "pn"
