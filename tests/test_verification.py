"""The verify-all report: pinned to a checked-in expectation, and free of
state carried from one run to the next."""

import random
import re
from pathlib import Path

from ehrhartlab import verification
from ehrhartlab.cli import EXIT_OK, main
from ehrhartlab.exact import Polynomial
from ehrhartlab.verification import run_all

EXPECTED = Path(__file__).with_name("verify_all_expected.json")


def _masked(text: str) -> str:
    """The report with its wall-clock seconds (rows 1 and 2) masked."""
    return re.sub(r"\d+\.\d{3}s\b", "#.###s", text)


def test_verify_all_json_report_is_pinned(capsys):
    assert main(["verify-all", "--format", "json"]) == EXIT_OK
    assert _masked(capsys.readouterr().out) == EXPECTED.read_text()


def test_run_all_carries_no_state_between_calls():
    first, second = run_all(), run_all()
    assert [(r.number, r.name, r.passed, _masked(r.detail)) for r in first] == [
        (r.number, r.name, r.passed, _masked(r.detail)) for r in second
    ]


def test_run_all_shift_count(monkeypatch):
    """Row 7 shifts twice for each of its 16 polynomials (the parity check
    and the line test each build a RootSet) and row 9 once."""
    calls = []
    shift = Polynomial.shift

    def counted(self, c):
        calls.append(c)
        return shift(self, c)

    monkeypatch.setattr(Polynomial, "shift", counted)
    run_all()
    assert len(calls) == 33


def test_row9_draws_the_points_of_a_randint_loop(monkeypatch):
    """randrange(a, b + 1) is randint(a, b): row 9 samples the same 72
    point lists, 50 of them accepted, as randint calls seeded with 1729."""
    drawn = []
    hull2d = verification.hull2d
    monkeypatch.setattr(verification, "hull2d", lambda points: drawn.append(points) or hull2d(points))
    assert verification._random_polygon_agreement(50) == 50
    rng = random.Random(1729)
    expected = [
        [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(rng.randint(3, 8))]
        for _ in drawn
    ]
    assert len(drawn) == 72 and drawn == expected
