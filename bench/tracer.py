"""Span recorder for the traced run.

While installed, it replaces the package's public functions on the module
where their callers look them up (``ehrhartlab.cli.find_roots``,
``ehrhartlab.ehrhart.interpolate``, ``ehrhartlab.verification.check_*``,
...) with wrappers that record a span: name, start, end, parent span and
request id.  Spans stay in memory until the run writes them out.  Nothing
is patched while the recorder is not installed, so untraced requests run
the package exactly as shipped.

A span's self time is its duration minus the durations of its direct
children; the ``request`` span around ``cli.main`` keeps what no wrapped
function accounts for.  Garbage-collector pauses get ``gc`` spans of their
own, so that a pause counts neither to whichever layer happened to
allocate nor as time no layer accounts for.
"""

from __future__ import annotations

import functools
import gc
import importlib
from collections import defaultdict
from time import perf_counter

_PACKAGE = "ehrhartlab"

# (span name, defining module, functions, modules whose callers look them up)
_TABLE = [
    ("cli.parse", "cli", ("parse_polytope_spec",), ("cli",)),
    # _load_polytope opens and decodes a --json file before polytope_from_json.
    ("cli.load_json", "cli", ("_load_polytope", "polytope_from_json"), ("cli",)),
    ("cli.to_json", "cli", ("polytope_to_json", "ehrhart_to_json"), ("cli",)),
    ("cli.render", "cli", ("render_report",), ("cli",)),
    ("polytopes.build", "polytopes",
     ("cube", "crosspolytope", "pn_family", "qn_family", "product", "dilate", "hull2d"),
     ("cli", "counting", "verification")),
    ("counting.box_scan", "counting", ("count_box_scan",), ("cli", "counting", "verification")),
    ("counting.oracle", "counting", ("oracle_for",), ("cli", "counting", "verification")),
    ("counting.closed_form", "counting",
     ("count_minkowski_dp", "count_pn_sliced", "count_qn_closed"), ("verification",)),
    ("ehrhart.ehrhart_of", "ehrhart", ("ehrhart_of",), ("cli", "verification")),
    ("exact.interpolate", "exact", ("interpolate",), ("ehrhart",)),
    ("exact.squarefree", "exact", ("squarefree_decomposition",), ("roots",)),
    ("roots.find_roots", "roots", ("find_roots",), ("cli", "verification")),
    ("roots.checks", "roots",
     ("common_real_part", "parity_necessary_check", "braun_disc_check", "wills_check",
      "coefficient_ratio_bound", "volume_bound", "point_count_bound"),
     ("cli", "verification", "reflexivity")),
    ("reflexivity.equivalence", "reflexivity", ("reflexivity_equivalence",), ("cli", "reflexivity")),
    ("reflexivity.consequence", "reflexivity", ("root_line_reflexivity_consequence",),
     ("cli", "reflexivity")),
]

# verify-all rows in table order; run_all looks each one up when it runs.
VERIFY_ROWS = (
    "check_hybrid7_reproduction", "check_bipyramid_coefficients",
    "check_first_coefficient_closed_form", "check_counterexample_propagation",
    "check_oracle_equivalence", "check_wills_verdicts", "check_inequality_suite",
    "check_wills_for_root_line_class", "check_reflexivity", "check_growth_bounds",
    "check_braun_disc",
)

# Per-layer metric -> span names whose self time it sums.
SELF_TIME_METRICS = {
    "cli.parse_s": ("cli.parse",),
    "cli.load_json_s": ("cli.load_json",),
    "cli.to_json_s": ("cli.to_json",),
    "cli.render_s": ("cli.render",),
    "polytopes.build_s": ("polytopes.build",),
    "counting.count_s": ("counting.counter", "counting.dilation_counter", "counting.box_scan",
                         "counting.oracle", "counting.closed_form"),
    "counting.box_scan_s": ("counting.box_scan",),
    "exact.interpolate_s": ("exact.interpolate",),
    "exact.squarefree_s": ("exact.squarefree",),
    "exact.shift_s": ("exact.shift",),
    "ehrhart.ehrhart_of_self_s": ("ehrhart.ehrhart_of",),
    "roots.find_roots_self_s": ("roots.find_roots",),
    "roots.checks_s": ("roots.checks",),
    "reflexivity.equivalence_s": ("reflexivity.equivalence",),
    "reflexivity.consequence_s": ("reflexivity.consequence",),
    **{f"verification.row{i:02d}_s": (f"verification.row{i:02d}",)
       for i in range(1, len(VERIFY_ROWS) + 1)},
    "trace.gc_s": ("gc",),
    "trace.unattributed_s": ("request",),
}

COUNT_METRICS = ("polytopes.vertices_built", "polytopes.halfspaces_built", "counting.counter_calls",
                 "counting.box_points", "exact.coeff_bits_max", "roots.degree_max")
# Counts that hold a maximum, not a sum.
MAXIMA = ("exact.coeff_bits_max", "roots.degree_max")


def _bits(poly) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in poly.coefficients), default=0)


class Recorder:
    """Records spans for traced requests; ``install``/``uninstall`` bracket
    each traced request."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, request id]
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self.request_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (module, class or dict; attribute or key; replacement)
        self._saved: list = []
        self._build_patches()

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        stack, spans = self._stack, self.spans

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def _after_build(self, args, poly) -> None:
        self.counts["polytopes.vertices_built"] += len(poly.vertices)
        self.counts["polytopes.halfspaces_built"] += len(poly.halfspaces or ())

    def _after_box_scan(self, args, result) -> None:
        oracle = args[0]
        # Computed from the box, not counted point by point.
        self.counts["counting.box_points"] += (2 * oracle.bounding_radius + 1) ** oracle.dimension

    def _after_exact(self, args, result) -> None:
        polys = [f for f, _ in result] if isinstance(result, list) else [result]
        for poly in polys:
            self.counts["exact.coeff_bits_max"] = max(self.counts["exact.coeff_bits_max"], _bits(poly))

    def _after_find_roots(self, args, result) -> None:
        self.counts["roots.degree_max"] = max(self.counts["roots.degree_max"], args[0].degree)

    def _after_counter(self, args, result) -> None:
        self.counts["counting.counter_calls"] += 1

    def _build_patches(self) -> None:
        mod = {name: importlib.import_module(f"{_PACKAGE}.{name}")
               for name in ("cli", "polytopes", "counting", "ehrhart", "exact", "roots",
                            "reflexivity", "verification")}
        after = {
            "polytopes.build": self._after_build,
            "counting.box_scan": self._after_box_scan,
            "exact.interpolate": self._after_exact,
            "exact.squarefree": self._after_exact,
            "roots.find_roots": self._after_find_roots,
        }
        wrapped_by_original: dict = {}

        # A function that is missing, or that no listed caller holds, raises
        # rather than letting its time slip into its caller's self time.
        def patch_callers(callers, fname, original, wrapped):
            holders = [caller for caller in callers if getattr(mod[caller], fname, None) is original]
            if not holders:
                raise AttributeError(f"none of {callers} holds {original.__module__}.{fname}")
            self._patches.extend((mod[caller], fname, wrapped) for caller in holders)

        for span, home, names, callers in _TABLE:
            for fname in names:
                original = getattr(mod[home], fname)
                wrapped = self.wrap(span, original, after.get(span))
                wrapped_by_original[original] = wrapped
                patch_callers(callers, fname, original, wrapped)

        # The family grammar keeps constructors in tables of its own.
        cli = mod["cli"]
        for table in (cli._SpecParser._FAMILIES, cli._FAMILY_CTORS):
            for key, value in table.items():
                ctor = value[0] if isinstance(value, tuple) else value
                new = wrapped_by_original[ctor]
                new = (new, *value[1:]) if isinstance(value, tuple) else new
                self._patches.append((table, key, new))

        build_parser = cli.build_parser
        traced_build = self.wrap("cli.parse", build_parser)

        def build_traced_parser():
            parser = traced_build()
            parser.parse_args = self.wrap("cli.parse", parser.parse_args)
            return parser

        patch_callers(("cli",), "build_parser", build_parser, build_traced_parser)

        dilation_counter = mod["counting"].dilation_counter
        traced_factory = self.wrap("counting.dilation_counter", dilation_counter)

        def traced_dilation_counter(*args, **kwargs):
            counter = traced_factory(*args, **kwargs)
            return self.wrap("counting.counter", counter, self._after_counter)

        patch_callers(("cli", "verification"), "dilation_counter", dilation_counter,
                      traced_dilation_counter)

        polynomial = mod["exact"].Polynomial
        self._patches.append((polynomial, "shift",
                              self.wrap("exact.shift", polynomial.shift, self._after_exact)))

        verification = mod["verification"]
        for number, fname in enumerate(VERIFY_ROWS, start=1):
            original = getattr(verification, fname)
            patch_callers(("verification",), fname, original,
                          self.wrap(f"verification.row{number:02d}", original))

    # -- installing ---------------------------------------------------------

    def _gc_phase(self, phase: str, info: dict) -> None:
        stack, spans = self._stack, self.spans
        if not stack:  # a collection between requests is no request's time
            return
        if phase == "start":
            spans.append(["gc", perf_counter(), 0.0, stack[-1] if stack else -1, self.request_id])
            stack.append(len(spans) - 1)
        else:
            spans[stack.pop()][2] = perf_counter()

    def install(self) -> None:
        self._saved = [_get(obj, key) for obj, key, _ in self._patches]
        for obj, key, new in self._patches:
            _set(obj, key, new)
        gc.callbacks.append(self._gc_phase)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._gc_phase)
        for (obj, key, _), old in zip(self._patches, self._saved):
            _set(obj, key, old)
        self._saved = []

    def request(self, request_id: int, main, argv):
        """Call main(argv) inside a root span; returns (result, wall seconds)."""
        self.request_id = request_id
        root = self.wrap("request", main)
        first = len(self.spans)
        result = root(argv)
        span = self.spans[first]
        return result, span[2] - span[1]


def _get(obj, key):
    return obj[key] if isinstance(obj, dict) else getattr(obj, key)


def _set(obj, key, value) -> None:
    if isinstance(obj, dict):
        obj[key] = value
    else:
        setattr(obj, key, value)


def self_times(spans: list[list]) -> list[float]:
    """Duration minus direct children's durations, per span."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    return [span[2] - span[1] - c for span, c in zip(spans, child)]


def layer_totals(spans: list[list]) -> dict:
    """Summed self time per per-layer metric."""
    by_name = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        by_name[span[0]] += own
    return {metric: sum(by_name[n] for n in names) for metric, names in SELF_TIME_METRICS.items()}


# Per request, the self times of the wrapped functions must add up to the
# traced wall time within this share, or this many seconds for very short
# requests; the rest is plumbing inside cli.main that no span covers, and
# the odd moment the process is not running.
COVERAGE_TOLERANCE = 0.05
COVERAGE_FLOOR_S = 5e-4


def coverage(spans: list[list]) -> list[tuple[int, float, float]]:
    """(request id, traced wall, seconds no layer accounts for) per request."""
    return [
        (span[4], span[2] - span[1], own)
        for span, own in zip(spans, self_times(spans))
        if span[0] == "request"
    ]


def covered(wall: float, unattributed: float) -> bool:
    return unattributed <= max(COVERAGE_TOLERANCE * wall, COVERAGE_FLOOR_S)
