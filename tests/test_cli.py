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
    (("census", "--prime", "11"), 3),
    (("census", "--threads", "0"), 2),
    (("census", "--prime", "2", "--threads", "-3"), 2),
    (("dual-k3", "--trials", "-1"), 2),
    (("dual-k3", "--experiment", "residual", "--trials", "0"), 2),
    (("chart-verify", "--trials", "-1"), 2),
    (("invariants", "--genus", "1"), 2),
    (("accept-all", "--skip", "99"), 2),
    (("census", "--prime", "2", "--seed", "-5"), 2),
    (("chart-verify", "--seed", "-1"), 2),
    (("dual-k3", "--seed", "-7"), 2),
])
def test_error_reports_do_not_pass(args, code):
    res = invoke(*args, "--json-only")
    assert res.exit_code == code
    doc = parse(res)
    assert "error" in doc["results"]
    assert doc["assertions"] == [] and doc["passed"] is False


def _strip(x):
    if isinstance(x, dict):
        return {k: _strip(v) for k, v in x.items() if k != "elapsed_ms"}
    if isinstance(x, list):
        return [_strip(v) for v in x]
    return x


def _results_digest(res):
    import hashlib
    results = json.dumps(_strip(parse(res)["results"]), sort_keys=True)
    return hashlib.sha256(results.encode()).hexdigest()


@pytest.mark.parametrize("subcommand, criterion", [
    ("degrees", "criterion_1_degrees"),
    ("connectedness", "criterion_3_connectedness"),
    ("exceptional", "criterion_4_exceptional"),
    ("ledger", "criterion_10_hilb_ledger"),
])
def test_wrapped_subcommand_asserts_its_criterion_checks(subcommand, criterion):
    from lagstrata import acceptance
    res = invoke(subcommand, "--json-only")
    assert res.exit_code == 0
    checks = getattr(acceptance, criterion)().checks
    assert parse(res)["assertions"] == json.loads(json.dumps(checks, default=str))


def test_invariants_of_another_class():
    res = invoke("invariants", "--genus", "7", "--a", "1", "--b", "0", "--json-only")
    assert res.exit_code == 0
    doc = parse(res)
    assert doc["config"] == {"genus": 7, "a": 1, "b": 0}
    assert doc["results"] == {"q": 12, "fujiki_degree": 25920}


def test_chart_verify_small():
    res = invoke("chart-verify", "--trials", "20", "--json-only")
    assert res.exit_code == 0
    doc = parse(res)
    assert doc["passed"] is True
    assert set(doc["results"]) == {"identity_trials", "identity_failures", "orders",
                                   "restriction_ranks"}
    assert doc["results"]["identity_trials"] == 40


# sha256 of the stripped results (json.dumps with sort_keys) of
# `dual-k3 --experiment E --trials 5`, as the CLI reported them before it
# ran the criterion-9 stages
DUALK3_RESULT_SHA = {
    "phi": "f383cfa9d8189dfec439b5a43eb1c206762fc06a1fc1887294a8fe7263237fae",
    "psi": "b001c3d24460aa10d266b24a0721f56ed6438c8fad95fa9f5488d8e5f5cd865c",
    "newsystem": "fced2f6afb0088503939fe7d54263a1b2ad48eaa4f07850726e8542da8d6de0c",
    "residual": "7265676a5f185e1f7bded16cf7af324848b23cbb993f382de23672673a666e22",
}


@pytest.mark.parametrize("experiment", sorted(DUALK3_RESULT_SHA))
def test_dual_k3_results_are_pinned(experiment):
    res = invoke("dual-k3", "--experiment", experiment, "--trials", "5", "--json-only")
    assert res.exit_code == 0
    assert _results_digest(res) == DUALK3_RESULT_SHA[experiment]


# the same at `--prime 13 --seed 5`, as the CLI reported them when the
# dual-K3 algebra went through MultiVector; residual is left out, as at
# p = 13 it redraws about 190 times for 5 successes
DUALK3_P13_RESULT_SHA = {
    "phi": "cf33d61f5be337b5ec7cb9a73790c645ab360b02ed4ed86179e0722bdb1a5d26",
    "psi": "7101015a01cc55342521d5a77309905f906bd18704c79e4f1eeefbb1b70ff600",
    "newsystem": "fced2f6afb0088503939fe7d54263a1b2ad48eaa4f07850726e8542da8d6de0c",
}


@pytest.mark.parametrize("experiment", sorted(DUALK3_P13_RESULT_SHA))
def test_dual_k3_results_at_p13_are_pinned(experiment):
    res = invoke("dual-k3", "--prime", "13", "--seed", "5", "--experiment", experiment,
                 "--trials", "5", "--json-only")
    assert res.exit_code == 0
    assert _results_digest(res) == DUALK3_P13_RESULT_SHA[experiment]


# sha256 of the stripped results (json.dumps with sort_keys) of `census`, as
# the CLI reported them when it built the census itself
CENSUS_RESULT_SHA = {
    ("--prime", "2", "--seed", "0"):
        "7a710cce4d0e6c2b73208cb32cfdb7509d82920b83c60add0aeb51d30da10008",
    ("--prime", "3", "--seed", "1"):
        "39566d55e1f1cc6c0dbd6073a6fec968a8da6f4781bc1395802c82f3d85d009e",
    ("--prime", "3", "--seed", "2", "--lg1"):
        "b6e641dbf69d518dec75d2668496a6b594caf5d7ff416504e31eb5bc4cb7a2db",
    ("--prime", "2", "--seed", "9", "--lg1"):
        "e8bdabce26c10473c754c91307ece9b813757234f5c8d3325d03303e361a349a",
    # as reported when the 6x6 residuals were ranked in float32
    ("--prime", "5", "--seed", "11"):
        "a00bf07005893284058cdb08b91c5a863e7df46b383995d21b61f2e72db26e21",
}


@pytest.mark.parametrize("args", sorted(CENSUS_RESULT_SHA))
def test_census_results_are_pinned(args):
    res = invoke("census", *args, "--json-only")
    assert res.exit_code == 0
    assert _results_digest(res) == CENSUS_RESULT_SHA[args]


def test_census_lg1_asserts_the_census_experiment_checks():
    from lagstrata import acceptance
    res = invoke("census", "--prime", "2", "--seed", "9", "--lg1", "--json-only")
    assert res.exit_code == 0
    checks = acceptance.census_experiment(2, 9, 2, True).checks
    assert len(checks) == 2 and all(c["passed"] for c in checks)
    assert parse(res)["assertions"] == json.loads(json.dumps(checks, default=str))


def test_dual_k3_gives_up_on_degenerate_draws(monkeypatch):
    import time
    from lagstrata import dualk3

    def degenerate(*args, **kwargs):
        raise dualk3.DegenerateConfiguration("pair endpoints coincide")

    monkeypatch.setattr(dualk3, "phi", degenerate)
    t0 = time.perf_counter()
    res = invoke("dual-k3", "--trials", "2", "--json-only")
    assert time.perf_counter() - t0 < 60
    assert res.exit_code == 3
    doc = parse(res)
    assert doc["passed"] is False
    assert "error" in doc["results"]
