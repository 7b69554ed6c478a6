"""The acceptance gate: every criterion at its stated (exact) tolerance.

Each test prints one pass/fail line; run with ``pytest -s`` to see them.
The census criterion is the long pole (a few minutes at p = 5).
"""

import hashlib
import json

import pytest

from lagstrata import acceptance


def _report(result):
    print(f"[{'PASS' if result.passed else 'FAIL'}] criterion {result.cid}: "
          f"{result.name} ({result.elapsed_ms / 1000:.1f} s)")
    for c in result.checks:
        if not c["passed"]:
            print(f"    FAILED {c['name']}: expected {c['expected']!r}, "
                  f"got {c['actual']!r} [{c['source']}]")
    assert result.passed, f"criterion {result.cid} failed"


def test_criterion_01_degrees():
    _report(acceptance.criterion_1_degrees())


def test_criterion_02_class_decomposition():
    _report(acceptance.criterion_2_class_decomposition())


def test_criterion_03_connectedness():
    _report(acceptance.criterion_3_connectedness())


def test_criterion_04_exceptional():
    _report(acceptance.criterion_4_exceptional())


def test_criterion_05_chart_identity():
    _report(acceptance.criterion_5_chart_identity())


def test_criterion_06_tangent_cone():
    _report(acceptance.criterion_6_tangent_cone())


def test_criterion_07_restriction_rank():
    _report(acceptance.criterion_7_restriction_rank())


def test_criterion_08_census():
    result = acceptance.criterion_8_census()
    _report(result)
    # the checks as they were when the 6x6 residuals were ranked in float32
    assert _digest(result.checks) == (
        "e06d58592a2262f88f15c0ddd5f24890f2e6bce996a6b36047a74dfe279f8023")


def _digest(obj):
    """sha256 of json.dumps(obj, sort_keys=True) with every elapsed_ms stripped."""
    def strip(x):
        if isinstance(x, dict):
            return {k: strip(v) for k, v in x.items() if k != "elapsed_ms"}
        if isinstance(x, list):
            return [strip(v) for v in x]
        return x
    return hashlib.sha256(json.dumps(strip(obj), sort_keys=True).encode()).hexdigest()


def test_criterion_09_dual_k3():
    result = acceptance.criterion_9_dual_k3()
    _report(result)
    # the draws as they were when the dual-K3 algebra went through MultiVector
    assert _digest(result.checks) == (
        "6d58480346e478a15cf4d793bcbc6f1a8e93a682596942b1ecc810c586016184")
    assert _digest(result.results) == (
        "05821d21c8855b211e2c793b43cc8b89bb8671bd9aebafa4f06e0c7521bb4044")


def test_criterion_10_hilb_ledger():
    _report(acceptance.criterion_10_hilb_ledger())


def test_criterion_09_retry_budget_fails_promptly(monkeypatch):
    def degenerate(*args, **kwargs):
        raise acceptance.dualk3.DegenerateConfiguration("pair endpoints coincide")

    monkeypatch.setattr(acceptance.dualk3, "phi", degenerate)
    result = acceptance.criterion_9_dual_k3()
    assert not result.passed
    failed = [c for c in result.checks if not c["passed"]]
    assert [c["name"] for c in failed] == ["pair images: degenerate draws within the retry budget"]
    assert failed[0]["detail"] == {"retries": acceptance.DUALK3_RETRY_BUDGET, "successes": 0}
    assert result.elapsed_ms < 60_000


def _draws(pattern):
    """A draw that follows ``pattern``: 'x' raises, 'n' returns None, 'o' succeeds."""
    it = iter(pattern)

    def draw():
        step = next(it)
        if step == "x":
            raise acceptance.dualk3.DegenerateConfiguration("degenerate")
        return None if step == "n" else "ok"
    return draw


def test_redraw_budget_counts_degenerate_draws_in_a_row():
    budget = acceptance.DUALK3_RETRY_BUDGET
    r = acceptance.CriterionResult(9, "redraw")
    # 150 degenerate draws (raised or None) before each of three successes
    out, retries = acceptance._redraw(r, "stage", 3, _draws(("x" * 75 + "n" * 75 + "o") * 3))
    assert out == ["ok"] * 3 and retries == 450 > budget
    assert r.passed and r.checks == []

    r = acceptance.CriterionResult(9, "redraw")
    out, retries = acceptance._redraw(r, "stage", 3, _draws("o" + "n" * budget))
    assert out is None and retries == budget
    assert not r.passed and "error" in r.results
    assert [c["detail"] for c in r.checks] == [{"retries": budget, "successes": 1}]
