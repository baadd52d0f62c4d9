"""The benchmark's workloads: seeded request mixes with their expected answers.

Each workload is a fixed mix of CLI requests; a cycle sends each of them
once.  The seed picks the polygons, the dilation k of each request within
its stratum (drawn afresh each cycle), and the order of each cycle;
it never changes a family size, so every seed does the same work up to the
spread inside a stratum.  A plan holds ``MAX_CYCLES`` cycles; a run that
outlasts them starts again at the first.

Every request carries the answer it must produce, computed by
:mod:`reference`, and is refused before it is sent when a closed form
says it would build more than ``MAX_ELEMENTS`` vertices or half-spaces or
scan more than ``MAX_BOX_POINTS`` points.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import reference as ref

MAX_ELEMENTS = 10**5
MAX_BOX_POINTS = 10**6
MAX_CYCLES = 32


def _spec_shape_guard(spec: tuple) -> None:
    for vertices, halfspaces in ref.built_sizes(spec):
        if max(vertices, halfspaces) > MAX_ELEMENTS:
            raise ValueError(
                f"{ref.spec_text(spec)} would build {vertices} vertices and "
                f"{halfspaces} half-spaces; the budget is {MAX_ELEMENTS}"
            )


def _box_guard(radius: int, dimension: int) -> None:
    points = (2 * radius + 1) ** dimension
    if points > MAX_BOX_POINTS:
        raise ValueError(f"a box scan of {points} points exceeds {MAX_BOX_POINTS}")


def _fmt_args(fmt: str) -> list[str]:
    return [] if fmt == "plain" else ["--format", fmt]


def _coefficient_fields(coeffs: list[Fraction], prefix: str = "") -> dict:
    fields = {f"{prefix}coefficients[{i}]": str(c) for i, c in enumerate(coeffs)}
    fields[f"{prefix}coefficients.length"] = len(coeffs)
    return fields


def _roots_fields(coeffs: list[Fraction], a: Fraction, line: bool | None, prefix: str = "") -> dict:
    fields = {
        f"{prefix}roots.length": len(coeffs) - 1,
        f"{prefix}parity_necessary_check": ref.parity_holds(coeffs, a),
        # Every Ehrhart polynomial has its roots in Braun's disc.
        f"{prefix}braun_disc_check": True,
    }
    if line is not None:
        fields[f"{prefix}common_real_part"] = line
    return fields


def _request(cmd: str, source: list[str], fmt: str, coeffs: list[Fraction], *,
             a: Fraction = Fraction(2), line: bool | None = None, extra: list[str] = ()) -> dict:
    """A request for ehrhart, roots, wills or bounds with its expected answer."""
    argv = [cmd, *source, *extra, *_fmt_args(fmt)]
    status = 0
    expect: dict = {}
    if cmd in ("ehrhart", "roots"):
        expect.update(_coefficient_fields(coeffs))
    if cmd == "roots":
        expect.update(_roots_fields(coeffs, a, line))
    elif cmd == "wills":
        holds = ref.wills_holds(coeffs)
        for i, (c, ok) in enumerate(zip(coeffs, holds)):
            expect[f"per_index[{i}].coefficient"] = str(c)
            expect[f"per_index[{i}].holds"] = ok
        expect["overall"] = all(holds)
        status = 0 if all(holds) else 1
    elif cmd == "bounds":
        suite = ref.inequality_suite(coeffs, a)
        expect.update(_roots_fields(coeffs, a, line, "hypothesis."))
        for j, ok in enumerate(suite["ratios"]):
            expect[f"ratio_bounds[{j}].holds"] = ok
        expect["ratio_bounds.length"] = len(suite["ratios"])
        expect["volume_bound.holds"] = suite["volume"]
        verdicts = suite["ratios"] + [suite["volume"]]
        if "point_count" in suite:
            expect["point_count_bound.holds"] = suite["point_count"]
            verdicts.append(suite["point_count"])
        status = 0 if all(verdicts) else 1
    return {"argv": argv, "status": status, "expect": expect}


def family(cmd: str, spec: tuple, fmt: str = "plain", a: Fraction = Fraction(2)) -> dict:
    _spec_shape_guard(spec)
    coeffs = ref.PN7_COEFFICIENTS if spec == ("pn", 7) else ref.family_coefficients(spec)
    extra = [] if a == 2 else ["-a", str(a)]
    return _request(cmd, ["--family", ref.spec_text(spec)], fmt, list(coeffs), a=a,
                    line=ref.family_root_line(spec, a), extra=extra)


def family_count(spec: tuple, k: int, fmt: str = "plain", box: bool = False) -> dict:
    _spec_shape_guard(spec)
    extra = ["-k", str(k)]
    if box:
        _box_guard(_radius(spec) * k, ref.dimension(spec))
        extra += ["--method", "box"]
    argv = ["count", "--family", ref.spec_text(spec), *extra, *_fmt_args(fmt)]
    return {"argv": argv, "status": 0, "expect": {"count": ref.count(spec, k)}}


def _radius(spec: tuple) -> int:
    if spec[0] == "dilate":
        return spec[2] * _radius(spec[1])
    if spec[0] == "product":
        return max(_radius(spec[1]), _radius(spec[2]))
    return 1


def family_reflexive(spec: tuple, fmt: str = "plain") -> dict:
    """reflexive on a cube or crosspolytope: 1-reflexive."""
    _spec_shape_guard(spec)
    argv = ["reflexive", "--family", ref.spec_text(spec), *_fmt_args(fmt)]
    return {"argv": argv, "status": 0, "expect": _reflexive_fields(1, True)}


def _reflexive_fields(index_l: int, verdict: bool) -> dict:
    # The three characterizations agree on every polytope with the origin inside.
    return {"index_l": index_l, "def_check": verdict, "polar_check": verdict,
            "coefficient_check": verdict, "agree": True}


class Polygon:
    """A seeded lattice polygon written as JSON with its half-spaces."""

    def __init__(self, vertices, halfspaces, path: Path, relpath: str):
        self.vertices, self.halfspaces, self.relpath = vertices, halfspaces, relpath
        self.coeffs = ref.pick_coefficients(vertices)
        document = {
            "dimension": 2,
            "vertices": [list(v) for v in vertices],
            "halfspaces": [{"normal": list(n), "rhs": r} for n, r in halfspaces],
        }
        path.write_text(json.dumps(document))

    @property
    def radius(self) -> int:
        return max(abs(c) for v in self.vertices for c in v)

    def count(self, k: int, fmt: str = "plain") -> dict:
        _box_guard(self.radius * k, 2)
        argv = ["count", "--json", self.relpath, "-k", str(k), *_fmt_args(fmt)]
        return {"argv": argv, "status": 0, "expect": {"count": int(ref.evaluate(self.coeffs, k))}}

    def request(self, cmd: str, fmt: str = "plain") -> dict:
        line = ref.polygon_root_line(self.coeffs, Fraction(2))
        return _request(cmd, ["--json", self.relpath], fmt, self.coeffs, line=line)

    def reflexive(self, fmt: str = "plain") -> dict:
        index_l, verdict = ref.polygon_reflexive(self.vertices, self.halfspaces)
        argv = ["reflexive", "--json", self.relpath, *_fmt_args(fmt)]
        return {"argv": argv, "status": 0 if verdict else 1,
                "expect": _reflexive_fields(index_l, verdict)}


def random_polygon(rng: random.Random, radius: int, corners: int,
                   twice_area: int | None = None) -> tuple[list, list]:
    """Hull of random points in [-radius, radius]^2 with exactly ``corners``
    vertices, bounding radius ``radius``, the origin strictly inside and,
    when given, the area twice_area/2, so that scan cost does not depend
    on the seed."""
    for _ in range(100_000):
        points = [(rng.randint(-radius, radius), rng.randint(-radius, radius))
                  for _ in range(rng.randint(corners, 2 * corners))]
        vertices, halfspaces = ref.polygon_hull(points)
        if len(vertices) != corners or any(r < 1 for _, r in halfspaces):
            continue
        if max(abs(c) for v in vertices for c in v) != radius:
            continue
        if twice_area is not None and ref.pick_coefficients(vertices)[2] * 2 != twice_area:
            continue
        return vertices, halfspaces
    raise RuntimeError("no polygon with the requested shape")


def _verify_all() -> dict:
    expect = {f"rows[{i}].status": "PASS" for i in range(11)}
    expect.update({"rows.length": 11, "overall": True})
    return {"argv": ["verify-all"], "status": 0, "expect": expect}


# ---------------------------------------------------------------------------
# Mixes.  Each function writes the workload's input files and returns a
# function that gives the requests of one cycle.  23 requests per cycle
# keeps the median and the 90th percentile inside a group of equal requests
# rather than on the edge between two groups.


def family_reports(rng: random.Random, run_dir: Path, rel: str):
    """Build and render heavy; verify-all and one JSON file keep every layer
    of the trace non-empty."""
    family_file = run_dir / "qn14.json"
    family_file.write_text(json.dumps(
        {"dimension": 14, "family": {"tag": "qn", "params": {"n": 14, "scale": 1}}}))
    qn14 = ref.family_coefficients(("qn", 14))
    hybrid = ("product", ("pn", 7), ("cube", 5))
    mix = [
        family("ehrhart", ("qn", 12), "json"),
        family("ehrhart", ("qn", 13), "json"),
        family("ehrhart", ("qn", 14), "json"),
        family("ehrhart", ("qn", 15), "json"),
        family("ehrhart", ("qn", 16), "json"),
        family("ehrhart", ("qn", 13)),
        family("wills", ("qn", 13)),
        family("wills", ("qn", 14), "json"),
        family("roots", ("qn", 12), "csv"),
        family("roots", ("qn", 14), "json"),
        family("ehrhart", ("cube", 12), "json"),
        family("wills", ("cube", 13), "json"),
        family("ehrhart", ("cube", 14), "json"),
        family("roots", ("cube", 12), "json"),
        family("ehrhart", ("cube", 13), "csv"),
        family("ehrhart", ("cross", 12), "json"),
        family("roots", ("cross", 13), "json"),
        family("wills", ("cross", 14), "json"),
        family("ehrhart", hybrid, "json"),
        family("wills", hybrid, "csv"),
        family("roots", hybrid, "json"),
        _request("ehrhart", ["--json", f"{rel}/qn14.json"], "json", qn14),
        _verify_all(),
    ]

    return lambda: mix


def counting_sweep(rng: random.Random, run_dir: Path, rel: str):
    """Counting heavy.  k is drawn afresh each cycle inside narrow strata, and
    the polygons share one area and vertex count, so that the cost hardly
    depends on the seed.  verify-all keeps every layer of the trace
    non-empty."""
    polygons = []
    for i in range(4):
        vertices, halfspaces = random_polygon(rng, radius=2, corners=5, twice_area=22)
        polygons.append(Polygon(vertices, halfspaces, run_dir / f"count{i}.json", f"{rel}/count{i}.json"))

    def k_in(low: int, high: int) -> int:
        return rng.randrange(low, high)

    def cycle():
        return [
            family_count(("pn", 5), k_in(600, 620), "json"),
            family_count(("pn", 5), k_in(720, 740)),
            family_count(("pn", 5), k_in(840, 860), "csv"),
            family_count(("pn", 5), k_in(960, 980), "json"),
            family_count(("qn", 5), k_in(80_000, 82_000), "json"),
            family_count(("qn", 5), k_in(90_000, 92_000)),
            family_count(("qn", 5), k_in(99_000, 101_000)),
            family_count(("qn", 5), k_in(109_000, 111_000), "csv"),
            family_count(("qn", 5), k_in(118_000, 120_000), "json"),
            family_count(("cross", 6), k_in(55_000, 58_000)),
            family_count(("cross", 6), k_in(72_000, 75_000), "csv"),
            family_count(("cross", 6), k_in(90_000, 93_000), "json"),
            family_count(("qn", 5), 4, box=True),
            family_count(("pn", 4), 8, box=True),
            polygons[0].count(k_in(40, 43), "json"),
            polygons[1].count(k_in(52, 55)),
            polygons[2].count(k_in(64, 67), "json"),
            polygons[3].count(k_in(76, 79)),
            polygons[0].request("ehrhart", "json"),
            polygons[1].request("ehrhart"),
            polygons[2].request("ehrhart", "csv"),
            polygons[3].request("ehrhart"),
            _verify_all(),
        ]

    return cycle


def root_analysis(rng: random.Random, run_dir: Path, rel: str):
    """Exact algebra and verdicts; builds and reports are small.  Three
    verify-all per cycle put the 90th percentile on verify-all."""
    triangle = Polygon(*ref.polygon_hull(ref.EXCEPTIONAL_TRIANGLE),
                       run_dir / "triangle.json", f"{rel}/triangle.json")
    polygons = [
        Polygon(*random_polygon(rng, radius=3, corners=corners),
                run_dir / f"roots{i}.json", f"{rel}/roots{i}.json")
        for i, corners in enumerate((4, 6))
    ]
    cross_cubed = ("product", ("cross", 6), ("product", ("cross", 6), ("cross", 6)))
    mix = [
        family("roots", ("pn", 7), "json"),
        family("roots", ("pn", 8)),
        family("roots", ("pn", 9), "csv"),
        family("roots", ("pn", 10)),
        family("roots", ("pn", 11)),
        family("ehrhart", ("pn", 7), "json"),
        family("bounds", ("pn", 7)),
        family("bounds", ("cross", 8), "json"),
        family("bounds", ("cube", 6)),
        family("bounds", ("qn", 9)),
        family("roots", cross_cubed),
        family("roots", ("dilate", ("cube", 2), 2), "json", a=Fraction(4)),
        family("roots", ("qn", 9)),
        family("roots", ("qn", 11), "json"),
        triangle.reflexive("json"),
        polygons[0].reflexive(),
        polygons[1].reflexive("json"),
        polygons[0].request("roots", "json"),
        family_reflexive(("cube", 2)),
        family_reflexive(("cross", 3), "json"),
        _verify_all(),
        _verify_all(),
        _verify_all(),
    ]

    return lambda: mix


WORKLOADS = {
    "family_reports": family_reports,
    "counting_sweep": counting_sweep,
    "root_analysis": root_analysis,
}


def request_kind(argv: list[str]) -> str:
    """Subcommand, output format and input form: one warm-up per kind."""
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "plain"
    source = "json" if "--json" in argv else "family"
    method = "box" if "box" in argv else "auto"
    return "/".join((argv[0], fmt, source, method))


def make_plan(name: str, seed: int, run_dir: Path, rel: str) -> dict:
    """Write the run's input files under run_dir (which the CLI sees as rel)
    and return the plan: distinct requests, warm-up indices, and cycles of
    request indices in seeded order."""
    rng = random.Random(f"{name}:{seed}")
    cycle = WORKLOADS[name](rng, run_dir, rel)
    requests: list[dict] = []
    index: dict[str, int] = {}
    cycles = []
    for _ in range(MAX_CYCLES):
        ids = []
        for req in cycle():
            key = json.dumps(req["argv"])
            if key not in index:
                index[key] = len(requests)
                requests.append(req)
            ids.append(index[key])
        rng.shuffle(ids)
        cycles.append(ids)
    warmup: dict[str, int] = {}
    for i in cycles[0]:
        warmup.setdefault(request_kind(requests[i]["argv"]), i)
    return {"requests": requests, "warmup": list(warmup.values()), "cycles": cycles}
