"""Semantic check of one CLI response against its expected answer.

Only the fields named in a request's ``expect`` are read (counts,
coefficients, verdicts, ``overall``) plus the exit status.  Output bytes
are never compared with an expected answer: polytope serialization and
numerical diagnostics may change without the answer changing.  All three output
formats are reduced to the same flat ``key -> text`` map that the CLI's
plain and csv renderers print, with ``<list>.length`` added for each list.

Traced and untraced reports of one request must be byte-identical, except
for the wall-clock readings (``0.042s``) that verify-all prints.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from fractions import Fraction

_INDEX = re.compile(r"\[(\d+)\]")
_CLOCK = re.compile(r"\b\d+\.\d{3}s\b")


def same_report(a: str, b: str) -> bool:
    """Byte-identical up to wall-clock readings."""
    return a == b or _CLOCK.sub("#s", a) == _CLOCK.sub("#s", b)


def _flatten(prefix: str, value, rows: dict) -> None:
    if isinstance(value, dict):
        for key, sub in value.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), sub, rows)
    elif isinstance(value, list):
        for i, sub in enumerate(value):
            _flatten(f"{prefix}[{i}]", sub, rows)
    else:
        rows[prefix] = "" if value is None else str(value)


def _verify_table(text: str) -> dict:
    rows: dict = {}
    statuses = [line[1:5] for line in text.splitlines() if line.startswith("[")]
    for i, status in enumerate(statuses):
        rows[f"rows[{i}].status"] = status
    for line in text.splitlines():
        if line.startswith("overall:"):
            rows["overall"] = str(line.split(":", 1)[1].strip() == "PASS")
    return rows


def flat_fields(argv: list[str], text: str) -> dict:
    """The response as a flat key -> text map."""
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "plain"
    rows: dict = {}
    if fmt == "json":
        report = json.loads(text)
        report.pop("polytope", None)  # the plain and csv renderers summarize it too
        _flatten("", report, rows)
    elif fmt == "csv":
        for record in list(csv.reader(text.splitlines()))[1:]:
            rows[record[0]] = record[1] if len(record) > 1 else ""
    elif argv[0] == "verify-all":
        rows = _verify_table(text)
    else:
        for line in text.splitlines():
            key, _, value = line.partition(" ")
            rows[key] = value.strip()
    lengths: dict = {}
    for key in rows:
        for match in _INDEX.finditer(key):
            prefix = key[: match.start()]
            lengths[prefix] = max(lengths.get(prefix, 0), int(match.group(1)) + 1)
    rows.update({f"{prefix}.length": str(n) for prefix, n in lengths.items()})
    return rows


def _same(actual: str | None, expected) -> bool:
    if actual is None:
        return False
    if isinstance(expected, bool):
        return actual == str(expected)
    try:
        if isinstance(expected, int):
            return int(actual) == expected
        return Fraction(actual) == Fraction(expected)
    except (ValueError, ZeroDivisionError):
        return actual == expected


def mismatches(request: dict, status: int | None, text: str) -> list[str]:
    """Why the response is wrong; empty when it is right."""
    if status != request["status"]:
        return [f"exit status {status}, expected {request['status']}"]
    try:
        rows = flat_fields(request["argv"], text)
    except (ValueError, IndexError) as exc:
        return [f"unreadable output: {exc}"]
    return [
        f"{key} = {rows.get(key)!r}, expected {expected!r}"
        for key, expected in request["expect"].items()
        if not _same(rows.get(key), expected)
    ]


class Checker:
    """Checks responses, remembering verdicts by output digest so that a
    response identical to one already checked for the same request costs a
    hash instead of a parse."""

    def __init__(self, requests: list[dict]):
        self.requests = requests
        self._seen: dict = {}
        self.errors: list[str] = []

    def ok(self, index: int, status: int | None, text: str) -> bool:
        key = (index, status, hashlib.blake2b(text.encode(), digest_size=16).digest())
        if key not in self._seen:
            wrong = mismatches(self.requests[index], status, text)
            if wrong:
                argv = " ".join(self.requests[index]["argv"])
                self.errors.append(f"{argv}: {'; '.join(wrong[:3])}")
            self._seen[key] = not wrong
        return self._seen[key]
