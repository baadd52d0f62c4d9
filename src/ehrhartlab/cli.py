"""Command-line interface: ``ehrhartlab SUBCOMMAND [FLAG VALUE | FLAG=VALUE] ...``.

``_COMMANDS`` gives each subcommand its help line, its flags and its
handler, and ``_FLAGS`` gives each flag its ``CommandRequest`` field, its
converter and its help line.  The parser reads argv against these two
tables alone, and ``-h``/``--help`` prints help built from them.  A flag
is spelled in full (``--fam`` is refused), and its value follows ``=`` or
is the next token, which may start with ``-`` only as ``-`` alone or a
negative number, as argparse reads them (``-k2`` is refused).  ``run`` is
the one request path: for a subcommand that takes ``--family`` it loads the
polytope, hands it to the handler and writes it as the report's first key;
verify-all reads no polytope.

Polytopes come either from the family grammar

    cube:N | cross:N | pn:N | qn:N | product(SPEC,SPEC) | dilate(SPEC,K)

or from a JSON file (see README for the schema).  Exact values are always
rendered as fraction strings; decimals appear only for roots, printed to
12 significant digits.  Roots proved to lie on their mean line print it as
their real part; imaginary parts, and the real parts of other roots, are
not certified.
Exit status: 0 success, 1 a check reported a violation (a finding, not
an error), 2 a usage or input error, with one ``error: ...`` line on
stderr that shortens long values.
"""

from __future__ import annotations

import json
import os
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import gcd
from typing import Any, NamedTuple, NoReturn

from .counting import dilation_counter, scan_counter
from .ehrhart import EhrhartPolynomial, ehrhart_from_recipe, ehrhart_of
from .polytopes import (
    FamilyTag,
    Halfspace,
    LatticePolytope,
    OriginNotInteriorError,
    crosspolytope,
    cube,
    dilate,
    list_sizes,
    pn_family,
    product,
    qn_family,
)
from .reflexivity import reflexivity_equivalence
from .roots import (
    braun_disc_check,
    coefficient_ratio_bound,
    common_real_part,
    find_roots,
    parity_necessary_check,
    point_count_bound,
    volume_bound,
    wills_check,
)
from .verification import run_all

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_USAGE = 2

# reflexive refuses a family whose vertex or half-space list is longer:
# cross:17 (2^17 facets) takes about 1.8 s in process at an 89 MB peak RSS
# (2-vCPU VM, Python 3.11), cross:18 twice that.
_MAX_LISTED = 2**17


class CommandRequest(NamedTuple):
    subcommand: str
    family_spec: str | None = None
    json_path: str | None = None
    k: int = 1
    a: Fraction = Fraction(2)
    fmt: str = "plain"
    max_box_points: int = 10**8
    method: str = "auto"


class SpecError(ValueError):
    pass


def _past_digit_limit(digits: int) -> str:
    """Why an integer of that many digits is refused: int() reads no more."""
    return f"{digits} digits, past Python's limit of {sys.get_int_max_str_digits()} digits"


def _brief(text: str, show=repr) -> str:
    """``show(text)`` for a message; past 40 characters, its start and length."""
    if len(text) <= 40:
        return show(text)
    return f"{show(text[:40])}... ({len(text)} characters)"


class _SpecParser:
    """Recursive-descent parser for the family grammar."""

    _FAMILIES = {
        "cube": (cube, 1),
        "cross": (crosspolytope, 1),
        "pn": (pn_family, 2),
        "qn": (qn_family, 2),
    }

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def fail(self, message: str) -> NoReturn:
        raise SpecError(f"spec error at position {self.pos}: {message}")

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, ch: str) -> None:
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            self.fail(f"expected '{ch}'")
        self.pos += 1

    def word(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        if start == self.pos:
            self.fail("expected a name (cube, cross, pn, qn, product, dilate)")
        return self.text[start : self.pos]

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if start == self.pos:
            self.fail("expected a positive integer")
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # well formed, but longer than int() reads
            digits, self.pos = self.pos - start, start
            self.fail(_past_digit_limit(digits))

    def parse(self) -> LatticePolytope:
        poly = self.parse_spec()
        self.skip_ws()
        if self.pos != len(self.text):
            self.fail("trailing input after a complete spec")
        return poly

    def parse_spec(self) -> LatticePolytope:
        name = self.word()
        if name == "product":
            self.expect("(")
            left = self.parse_spec()
            self.expect(",")
            right = self.parse_spec()
            self.expect(")")
            return product(left, right)
        if name == "dilate":
            self.expect("(")
            inner = self.parse_spec()
            self.expect(",")
            factor = self.integer()
            self.expect(")")
            try:
                return dilate(inner, factor)
            except ValueError as exc:
                raise SpecError(str(exc)) from exc
        if name in self._FAMILIES:
            ctor, minimum = self._FAMILIES[name]
            self.expect(":")
            n = self.integer()
            if n < minimum:
                self.fail(f"'{name}' requires a parameter >= {minimum}")
            return ctor(n)
        self.fail(f"unknown family {_brief(name)}")


def parse_polytope_spec(text: str) -> LatticePolytope:
    try:
        return _SpecParser(text).parse()
    except RecursionError:
        raise SpecError("spec error: nesting too deep") from None


# ---------------------------------------------------------------------------
# JSON schemas


def _round12(x: float) -> float:
    return float(f"{x:.12g}")


def polytope_to_json(p: LatticePolytope) -> dict[str, Any]:
    """A family polytope is written as its recipe, any other as its lists."""
    out: dict[str, Any] = {"dimension": p.dimension}
    fam = p.family
    if fam is None:
        out["vertices"] = [list(v) for v in p.vertices]
        out["halfspaces"] = [{"normal": list(h.normal), "rhs": h.rhs} for h in p.halfspaces]
        return out
    if fam.tag is FamilyTag.PRODUCT:
        factors = [polytope_to_json(f) for f in fam.factors]
        params = {"scale": fam.scale, "factors": factors}
    else:
        params = {"n": p.dimension, "scale": fam.scale}
    out["family"] = {"tag": fam.tag.value, "params": params}
    return out


def _is_int(value: Any) -> bool:
    # JSON true/false decode to bool, which isinstance(..., int) accepts.
    return isinstance(value, int) and not isinstance(value, bool)


def _is_int_vector(value: Any, dimension: int) -> bool:
    return (
        isinstance(value, list)
        and len(value) == dimension
        and all(_is_int(c) for c in value)
    )


_FAMILY_CTORS = {
    "cube": cube,
    "crosspolytope": crosspolytope,
    "pn": pn_family,
    "qn": qn_family,
}


def polytope_from_json(obj: Any, path: str = "$") -> LatticePolytope:
    """The two forms ``polytope_to_json`` writes: a family recipe, whose
    tag alone gives the polytope, or explicit lists."""
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected an object")
    if obj.get("family") is not None:
        rebuilt = _polytope_from_family_json(obj["family"], f"{path}.family")
        dimension = obj.get("dimension", rebuilt.dimension)
        if not _is_int(dimension) or dimension != rebuilt.dimension:
            raise ValueError(
                f"{path}.dimension: {_brief(repr(dimension), str)} does not match the family "
                f"({rebuilt.dimension})"
            )
        for key in ("vertices", "halfspaces"):
            if key in obj:
                raise ValueError(f"{path}.{key}: given beside a family tag, which alone builds it")
        return rebuilt
    dimension = obj.get("dimension")
    if not _is_int(dimension) or dimension < 1:
        raise ValueError(f"{path}.dimension: expected a positive integer")
    vertices = obj.get("vertices")
    if not isinstance(vertices, list) or not vertices:
        raise ValueError(
            f"{path}.vertices: required (only a family tag may replace them)"
        )
    for i, v in enumerate(vertices):
        if not _is_int_vector(v, dimension):
            raise ValueError(f"{path}.vertices[{i}]: expected {dimension} integers")
    halfspaces = _halfspaces_from_json(obj.get("halfspaces"), dimension, path)
    try:
        return LatticePolytope(dimension, tuple(map(tuple, vertices)), halfspaces)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _halfspaces_from_json(
    raw: Any, dimension: int, path: str
) -> tuple[Halfspace, ...] | None:
    if raw is None:
        return None
    if not isinstance(raw, list):
        raise ValueError(f"{path}.halfspaces: expected a list")
    halfspaces = []
    for i, h in enumerate(raw):
        hp = f"{path}.halfspaces[{i}]"
        if not isinstance(h, dict):
            raise ValueError(f"{hp}: expected an object")
        normal = h.get("normal")
        rhs = h.get("rhs")
        if not _is_int_vector(normal, dimension):
            raise ValueError(f"{hp}.normal: expected {dimension} integers")
        if not _is_int(rhs):
            raise ValueError(f"{hp}.rhs: expected an integer")
        try:
            halfspaces.append(Halfspace(tuple(normal), rhs))
        except ValueError as exc:
            raise ValueError(f"{hp}: {exc}") from exc
    return tuple(halfspaces)


def _polytope_from_family_json(family: Any, path: str) -> LatticePolytope:
    if not isinstance(family, dict) or not isinstance(family.get("tag"), str):
        raise ValueError(f"{path}: expected an object with a string 'tag'")
    tag = family["tag"]
    params = family.get("params", {}) or {}
    if not isinstance(params, dict):
        raise ValueError(f"{path}.params: expected an object")
    if tag == "product":
        factors = params.get("factors")
        if not isinstance(factors, list) or len(factors) != 2:
            raise ValueError(f"{path}.params.factors: expected two factors")
        built = product(
            polytope_from_json(factors[0], f"{path}.params.factors[0]"),
            polytope_from_json(factors[1], f"{path}.params.factors[1]"),
        )
    elif tag in _FAMILY_CTORS:
        n = params.get("n")
        if not _is_int(n):
            raise ValueError(f"{path}.params.n: expected an integer")
        try:
            built = _FAMILY_CTORS[tag](n)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    else:
        raise ValueError(f"{path}.tag: unknown family {_brief(tag)}")
    scale = params.get("scale", 1)
    if not _is_int(scale) or scale < 1:
        raise ValueError(f"{path}.params.scale: expected a positive integer")
    if scale > 1:
        built = dilate(built, scale)
    return built


def _ratio(p: int, q: int) -> str:
    """``str(Fraction(p, q))`` for q != 0, built without the Fraction."""
    g = gcd(p, q) if q > 0 else -gcd(p, q)
    p, q = p // g, q // g
    return f"{p}" if q == 1 else f"{p}/{q}"


def ehrhart_to_json(ehr: EhrhartPolynomial) -> dict[str, Any]:
    d = ehr.poly.denominator
    return {
        "dimension": ehr.dimension,
        "coefficients": [_ratio(c, d) for c in ehr.poly.numerators],
    }


# ---------------------------------------------------------------------------
# Report rendering


def _flatten(prefix: str, value: Any, rows: list[tuple[str, str]]) -> None:
    if isinstance(value, dict):
        for key, sub in value.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), sub, rows)
    elif isinstance(value, list):
        for i, sub in enumerate(value):
            _flatten(f"{prefix}[{i}]", sub, rows)
    else:
        rows.append((prefix, "" if value is None else str(value)))


def _polytope_summary(poly_json: dict[str, Any]) -> str:
    """The family spec, as ``--family`` reads it, and the dimension; a vertex
    count for explicit lists, and a factor count for a product with them."""
    dimension = poly_json["dimension"]
    if "family" not in poly_json:
        return f"generic, dimension {dimension}, {len(poly_json['vertices'])} vertices"
    label = _spec_text(poly_json["family"])
    if label is None:
        label = f"product of {len(poly_json['family']['params']['factors'])} factors"
    return f"{label}, dimension {dimension}"


def _spec_text(family: dict[str, Any]) -> str | None:
    """The grammar spec of a family's JSON; None if explicit lists are in it."""
    tag, params = family["tag"], family["params"]
    if tag == "product":
        factors = [f.get("family") and _spec_text(f["family"]) for f in params["factors"]]
        if None in factors:
            return None
        text = f"product({','.join(factors)})"
    else:
        text = f"{'cross' if tag == 'crosspolytope' else tag}:{params['n']}"
    return text if params["scale"] == 1 else f"dilate({text},{params['scale']})"


_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # as json writes them


def _json_text(value: Any, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)`` for the values reports are built from:
    dicts with str keys, lists, tuples, str, bool, None, int and float.  The
    stdlib runs its pure-Python encoder whenever ``indent`` is set; this
    calls only its C string encoder, and ``int.__repr__`` raises the same
    ValueError past the int-to-str digit limit."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{encode_basestring_ascii(k)}: {_json_text(v, inner)}" for k, v in value.items()]
        return f"{{{inner}{f',{inner}'.join(items)}{indent}}}" if items else "{}"
    if isinstance(value, (list, tuple)):
        items = [_json_text(v, inner) for v in value]
        return f"[{inner}{f',{inner}'.join(items)}{indent}]" if items else "[]"
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    text = float.__repr__(value)  # a TypeError for any other type, as json raises
    return _FLOAT_WORDS.get(text, text)


def render_report(report: dict[str, Any], fmt: str) -> str:
    if fmt == "json":
        return _json_text(report)
    if fmt == "plain" and "rows" in report and "overall" in report:
        lines = [
            f"[{row['status']}] {row['number']:2d}  {row['name']:<34} {row['detail']}"
            for row in report["rows"]
        ]
        lines.append(f"overall: {'PASS' if report['overall'] else 'FAIL'}")
        return "\n".join(lines)
    if "polytope" in report:
        report = {**report, "polytope": _polytope_summary(report["polytope"])}
    rows: list[tuple[str, str]] = []
    _flatten("", report, rows)
    if fmt == "csv":
        lines = ["key,value"]
        for key, value in rows:
            if "," in value or '"' in value:
                value = '"' + value.replace('"', '""') + '"'
            lines.append(f"{key},{value}")
        return "\n".join(lines)
    width = max((len(k) for k, _ in rows), default=0)
    return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows)


# ---------------------------------------------------------------------------
# Subcommand implementations


def _load_polytope(req: CommandRequest) -> LatticePolytope:
    if (req.family_spec is None) == (req.json_path is None):
        raise SpecError("exactly one polytope source (--family or --json) required")
    if req.family_spec is not None:
        return parse_polytope_spec(req.family_spec)
    path = _brief(req.json_path, str)
    try:
        with open(req.json_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        if exc.filename is None:  # a read error, whose text names no path
            raise
        raise OSError(f"[Errno {exc.errno}] {exc.strerror}: {_brief(req.json_path)}") from None
    except UnicodeDecodeError as exc:  # JSON text is UTF-8 (RFC 8259)
        raise ValueError(f"malformed JSON in {path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON in {path}: {exc}") from exc
    except RecursionError:
        raise ValueError(f"JSON in {path} is nested too deeply") from None
    except ValueError:  # int()'s own error past its digit limit, raised bare
        json.loads(text, parse_int=lambda digits: _json_int(digits, path))  # names it
        raise
    return polytope_from_json(data)


def _json_int(text: str, path: str) -> int:
    """A JSON integer as json reads it, or the digit limit named for ``path``."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"JSON in {path}: {_past_digit_limit(len(text.lstrip('-')))}") from None


def _ehrhart_for(req: CommandRequest, p: LatticePolytope) -> EhrhartPolynomial:
    ehr = ehrhart_from_recipe(p)  # None: only counts describe p
    return ehr or ehrhart_of(p, dilation_counter(p, max_box_points=req.max_box_points))


def _cmd_count(req: CommandRequest, p: LatticePolytope) -> tuple[dict, int]:
    counter = scan_counter if req.method == "box" else dilation_counter
    value = counter(p, req.max_box_points)(req.k)
    method = "box-scan" if req.method == "box" else "auto"
    return {"k": req.k, "count": value, "method": method}, EXIT_OK


def _cmd_ehrhart(req: CommandRequest, p: LatticePolytope) -> tuple[dict, int]:
    return ehrhart_to_json(_ehrhart_for(req, p)), EXIT_OK


def _roots_payload(req: CommandRequest, ehr: EhrhartPolynomial) -> dict[str, Any]:
    rs = find_roots(ehr.poly)
    # Roots on one line lie on their mean, so they lie on -1/a iff they lie
    # on their mean and parity holds at -1/a; both read the polynomial's shift.
    mean = ehr.poly.mean
    on_mean = common_real_part(rs, -mean)
    parity = parity_necessary_check(ehr, req.a)
    # Roots proved to lie on their mean print that line as real part, and
    # the report names it exactly.
    line = _round12(float(mean)) if on_mean else None
    return {
        # By printed pairs: float noise below 12 digits sets no order.
        "roots": sorted(
            [_round12(z.real) if line is None else line, _round12(z.imag)] for z in rs.roots
        ),
        "residual_bound": _round12(rs.residual_bound),
        "real_part_target": str(-1 / req.a),
        "common_real_part": on_mean and parity,
        "detected_common_real_part": str(mean) if on_mean else None,
        "parity_necessary_check": parity,
        "braun_disc_check": braun_disc_check(rs, ehr.dimension),
    }


def _cmd_roots(req: CommandRequest, p: LatticePolytope) -> tuple[dict, int]:
    ehr = _ehrhart_for(req, p)
    return {**ehrhart_to_json(ehr), **_roots_payload(req, ehr)}, EXIT_OK


def _cmd_wills(req: CommandRequest, p: LatticePolytope) -> tuple[dict, int]:
    verdict = wills_check(_ehrhart_for(req, p))
    report = {
        "dimension": verdict.dimension,
        "per_index": [
            {
                "i": row.index,
                "coefficient": _ratio(*row.verdict.lhs_terms),
                "bound": _ratio(*row.verdict.rhs_terms),
                "holds": row.holds,
            }
            for row in verdict.per_index
        ],
        "violations": list(verdict.violations),
        "overall": verdict.overall,
    }
    return report, EXIT_OK if verdict.overall else EXIT_FINDING


def _bound_json(verdict) -> dict[str, Any]:
    return {
        "holds": verdict.holds,
        "is_equality": verdict.is_equality,
        "lhs": _ratio(*verdict.lhs_terms),
        "rhs": _ratio(*verdict.rhs_terms),
    }


def _cmd_bounds(req: CommandRequest, p: LatticePolytope) -> tuple[dict, int]:
    ehr = _ehrhart_for(req, p)
    n = ehr.dimension
    ratio_rows = []
    all_hold = True
    for s in range(n + 1):
        for t in range(s + 1, n + 1):
            verdict = coefficient_ratio_bound(ehr, req.a, s, t)
            all_hold &= verdict.holds
            ratio_rows.append({"s": s, "t": t, **_bound_json(verdict)})
    vol = volume_bound(ehr, req.a)
    all_hold &= vol.holds
    report = {
        "a": str(req.a),
        "hypothesis": _roots_payload(req, ehr),
        "ratio_bounds": ratio_rows,
        "volume_bound": _bound_json(vol),
    }
    if n >= 2:
        pc = point_count_bound(ehr, req.a)
        all_hold &= pc.holds
        report["point_count_bound"] = _bound_json(pc)
    return report, EXIT_OK if all_hold else EXIT_FINDING


def _cmd_reflexive(req: CommandRequest, p: LatticePolytope) -> tuple[dict, int]:
    if max(list_sizes(p)) > _MAX_LISTED:
        raise SpecError(f"reflexivity would list over {_MAX_LISTED} vertices/facets")
    ehr = _ehrhart_for(req, p)
    try:
        report_obj = reflexivity_equivalence(p, ehr)
    except OriginNotInteriorError as exc:
        raise SpecError(f"hypothesis failure: {exc}") from exc
    report = {
        "index_l": report_obj.index_l,
        "def_check": report_obj.def_check,
        "polar_check": report_obj.polar_check,
        "coefficient_check": report_obj.coefficient_check,
        "coefficient_identity": report_obj.coefficient_identity,
        "vertices_primitive": report_obj.vertices_primitive,
        "identity_lhs": str(report_obj.identity_lhs),
        "identity_rhs": str(report_obj.identity_rhs),
        "agree": report_obj.agree,
    }
    return report, EXIT_OK if report_obj.def_check else EXIT_FINDING


def _cmd_verify_all(req: CommandRequest) -> tuple[dict, int]:
    rows = run_all()
    report = {
        "rows": [
            {
                "number": row.number,
                "name": row.name,
                "status": "PASS" if row.passed else "FAIL",
                "detail": row.detail,
            }
            for row in rows
        ],
        "overall": all(row.passed for row in rows),
    }
    return report, EXIT_OK if report["overall"] else EXIT_FINDING


def run(req: CommandRequest) -> int:
    """Execute a validated request; prints the report, returns exit status."""
    _, flags, handler = _COMMANDS[req.subcommand]
    try:
        if "--family" in flags:
            p = _load_polytope(req)
            fields, status = handler(req, p)
            report = {"polytope": polytope_to_json(p), **fields}
        else:
            report, status = handler(req)
        text = render_report(report, req.fmt)  # ValueError past the int-to-str digit limit
    except (ValueError, OSError) as exc:  # SpecError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        print(text)
    except BrokenPipeError:
        # The reader left early (``| head``); what it did not read goes to
        # devnull, so the flush at interpreter exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return status


def _positive_number(text: str) -> Fraction:
    """Converter for ``-a``: a finite number > 0, read exactly (``3/2``,
    ``1e-7``); ``nan`` and ``inf`` are refused."""
    exponent = text.lower().partition("e")[2].lstrip("+-").lstrip("0")
    if len(exponent) > 3:  # Fraction builds 10**e
        raise ValueError(f"exponent out of range: {_brief(text)}")
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a finite number: {_brief(text)}") from None
    if value <= 0:
        raise ValueError(f"must be positive: {_brief(text)}")
    return value


def _nonnegative_int(text: str) -> int:
    """Converter for ``-k`` and ``--max-box-points``: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        digits = re.fullmatch(r"\s*[+-]?(\d+)\s*", text)
        if digits:  # well formed, but longer than int() reads
            raise ValueError(_past_digit_limit(len(digits[1]))) from None
        raise ValueError(f"not an integer: {_brief(text)}") from None
    if value < 0:
        raise ValueError(f"must be nonnegative: {_brief(text)}")
    return value


def _choice(*choices: str):
    def check(text: str) -> str:
        if text not in choices:
            listed = ", ".join(map(repr, choices))
            raise ValueError(f"invalid choice: {_brief(text)} (choose from {listed})")
        return text

    return check


# flag -> (CommandRequest field, converter, help)
_FLAGS = {
    "--family": ("family_spec", str, "family spec, e.g. pn:7"),
    "--json": ("json_path", str, "polytope JSON file"),
    "--format": ("fmt", _choice("plain", "json", "csv"), "plain (default), json or csv"),
    "--max-box-points": ("max_box_points", _nonnegative_int,
                         "refuse box scans beyond this many candidate points"),
    "-k": ("k", _nonnegative_int, "dilation factor"),
    "--method": ("method", _choice("auto", "box"),
                 "'box' forces the brute-force scan (oracle / debugging)"),
    "-a": ("a", _positive_number, "test the root line Re = -1/a (default 2)"),
}
_POLYTOPE_FLAGS = ("--family", "--json", "--format", "--max-box-points")

# name -> (help, flags, handler), in help order.
_COMMANDS = {
    "count": ("lattice points in the k-fold dilate",
              (*_POLYTOPE_FLAGS, "-k", "--method"), _cmd_count),
    "ehrhart": ("exact Ehrhart coefficients", _POLYTOPE_FLAGS, _cmd_ehrhart),
    "roots": ("roots and real-part diagnostics", (*_POLYTOPE_FLAGS, "-a"), _cmd_roots),
    "wills": ("coefficient bound verdicts", _POLYTOPE_FLAGS, _cmd_wills),
    "bounds": ("inequality suite for a given a", (*_POLYTOPE_FLAGS, "-a"), _cmd_bounds),
    "reflexive": ("l-reflexivity report", _POLYTOPE_FLAGS, _cmd_reflexive),
    "verify-all": ("run the verification table", ("--format",), _cmd_verify_all),
}


def _help() -> str:
    lines = ["usage: ehrhartlab SUBCOMMAND [FLAG VALUE | FLAG=VALUE ...]", "",
             "Exact Ehrhart polynomials and coefficient-bound checks for lattice "
             "polytopes.", "", "subcommands and their flags:"]
    for name, (text, flags, _) in _COMMANDS.items():
        lines += [f"    {name:<11} {text}", f"{'':16}{' '.join(flags)}"]
    lines += ["", "flags:"]
    lines += [f"    {flag:<16}  {text}" for flag, (_, _, text) in _FLAGS.items()]
    lines.append(f"    {'-h, --help':<16}  show this help")
    return "\n".join(lines)


class _Parser:
    """Reads ``SUBCOMMAND [FLAG VALUE | FLAG=VALUE] ...`` against
    ``_COMMANDS`` and ``_FLAGS``; ``-h`` or ``--help`` anywhere prints help."""

    def parse_args(self, argv: list[str] | None = None) -> CommandRequest | None:
        """The request argv names, or None once help is printed.  Raises
        SpecError, with a one-line message, on any usage error."""
        args = sys.argv[1:] if argv is None else list(argv)
        if "-h" in args or "--help" in args:
            print(_help())
            return None
        names = ", ".join(_COMMANDS)
        if not args:
            raise SpecError(f"a subcommand is required ({names})")
        name, *rest = args
        if name not in _COMMANDS:
            raise SpecError(f"unknown subcommand {_brief(name)} (choose from {names})")
        flags = _COMMANDS[name][1]
        fields = {}
        tokens = iter(rest)
        for token in tokens:
            flag, has_value, value = token.partition("=")
            if flag not in flags:
                raise SpecError(f"unrecognized argument for {name}: {_brief(token, str)}")
            if not has_value:
                value = next(tokens, None)
                if value is None or (value.startswith("-") and value != "-"
                                     and not re.match(r"-\d+$|-\d*\.\d+$", value)):
                    raise SpecError(f"argument {flag}: expected one argument")
            dest, convert, _ = _FLAGS[flag]
            try:
                fields[dest] = convert(value)
            except ValueError as exc:
                raise SpecError(f"argument {flag}: {exc}") from None
        return CommandRequest(name, **fields)


def build_parser() -> _Parser:
    """A fresh parser per call.  Flags have no defaults: an omitted flag
    leaves the CommandRequest field at its default."""
    return _Parser()


def main(argv: list[str] | None = None) -> int:
    try:
        req = build_parser().parse_args(argv)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK if req is None else run(req)


if __name__ == "__main__":
    sys.exit(main())
