import json

import pytest
from click.testing import CliRunner

from lagstrata.cli import main


def invoke(*args):
    return CliRunner().invoke(main, list(args))


def parse(result):
    return json.loads(result.stdout)


def test_degrees_report():
    res = invoke("degrees", "--json-only")
    assert res.exit_code == 0
    doc = parse(res)
    assert doc["results"] == {"D1": 168, "D2": 480, "D3": 720, "degG36": 42}
    assert doc["passed"] is True
    for a in doc["assertions"]:
        assert {"name", "expected", "actual", "source", "passed"} <= set(a)


def test_exceptional_report():
    res = invoke("exceptional", "--json-only")
    assert res.exit_code == 0
    assert parse(res)["results"]["b"] == -2


def test_invariants_report():
    res = invoke("invariants", "--json-only")
    assert res.exit_code == 0
    assert parse(res)["results"] == {"q": 4, "fujiki_degree": 960}


def test_connectedness_report():
    res = invoke("connectedness", "--json-only")
    assert res.exit_code == 0
    assert parse(res)["results"]["solutions"] == [[0, 0, 0], [16, 12, 12]]


def test_ledger_report():
    res = invoke("ledger", "--json-only")
    assert res.exit_code == 0
    assert parse(res)["results"]["xi"]["dim"] == 54


def test_census_report_and_determinism():
    res1 = invoke("census", "--prime", "2", "--seed", "9", "--json-only")
    assert res1.exit_code == 0
    doc1 = parse(res1)
    assert doc1["results"]["total"] == 1395
    assert sum(doc1["results"]["counts"].values()) == 1395
    assert "sigma" in doc1["results"]["certificates"]
    assert "delta" in doc1["results"]["certificates"]
    res2 = invoke("census", "--prime", "2", "--seed", "9", "--json-only")
    doc2 = parse(res2)
    for doc in (doc1, doc2):
        doc.pop("elapsed_ms")
        doc["results"].pop("elapsed_ms")
        for cert in doc["results"]["certificates"].values():
            cert.pop("elapsed_ms", None)
    assert doc1 == doc2


def test_census_budget_exit_code():
    res = invoke("census", "--prime", "17", "--seed", "0", "--json-only")
    assert res.exit_code == 3
    assert "error" in parse(res)["results"]


@pytest.mark.parametrize("args", [
    ("census", "--prime", "4"),
    ("census", "--prime", "4", "--lg1"),
    ("dual-k3", "--prime", "3"),
    ("dual-k3", "--prime", "1009"),
    ("dual-k3", "--prime", "191", "--experiment", "residual"),
])
def test_bad_prime_is_a_usage_error_with_report(args):
    res = invoke(*args, "--json-only")
    assert res.exit_code == 2
    doc = parse(res)
    assert doc["config"]["prime"] == int(args[2])
    assert "prime" in doc["results"]["error"]


def test_usage_error_exit_code():
    res = invoke("dual-k3", "--experiment", "nonsense")
    assert res.exit_code == 2


def test_dual_k3_phi_small():
    res = invoke("dual-k3", "--experiment", "phi", "--trials", "2", "--json-only")
    assert res.exit_code == 0
    doc = parse(res)
    assert len(doc["results"]["records"]) == 2
    assert all(r["passed"] for r in doc["results"]["records"])


def test_accept_all_aggregates_fast_criteria():
    # skip the minute-scale criteria; the aggregation path is what matters
    res = invoke("accept-all", "--skip", "5", "--skip", "6", "--skip", "7",
                 "--skip", "8", "--skip", "9", "--json-only")
    assert res.exit_code == 0
    doc = parse(res)
    ids = [c["criterion"] for c in doc["results"]["criteria"]]
    assert ids == [1, 2, 3, 4, 10]
    assert doc["passed"] is True


@pytest.mark.parametrize("args, code", [
    (("census", "--prime", "4"), 2),
    (("census", "--prime", "17"), 3),
])
def test_error_reports_do_not_pass(args, code):
    res = invoke(*args, "--json-only")
    assert res.exit_code == code
    doc = parse(res)
    assert "error" in doc["results"]
    assert doc["assertions"] == [] and doc["passed"] is False
