import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from period_lab import cli, rings, sequences, verify
from period_lab.cli import main
from period_lab.errors import default_budget
from period_lab.ff import parse_field_spec
from period_lab.poly import parse_poly


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ord_text(capsys):
    code, out, err = run_cli(capsys, "ord", "--field", "2", "--poly", "x^5+x^4+1")
    assert code == 0 and err == ""
    assert out.strip() == "21"


def test_ord_both_methods(capsys):
    code, out, _ = run_cli(
        capsys, "ord", "--field", "2", "--poly", "x^5+x^4+1", "--method", "both"
    )
    assert code == 0
    assert out.splitlines() == ["pipeline: 21", "bruteforce: 21", "agree: true"]


def test_ord_json_explain(capsys):
    code, out, _ = run_cli(
        capsys, "ord", "--field", "2", "--poly", "x^5+x^4+1",
        "--explain", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "period-lab/1"
    assert payload["order"] == 21
    assert payload["strip_exponent"] == 0
    assert {f["factor"]: f["contribution"] for f in payload["factors"]} == {
        "x^2+x+1": 3,
        "x^3+x+1": 7,
    }
    # round-trip: the printed polynomial reparses identically
    field = parse_field_spec(payload["field"])
    assert parse_poly(field, payload["poly"]) == parse_poly(field, "x^5+x^4+1")


def test_usage_errors_exit_2(capsys):
    code, _, err = run_cli(capsys, "ord", "--field", "6", "--poly", "x")
    assert code == 2
    assert "6" in err
    code, _, err = run_cli(capsys, "ord", "--field", "2", "--poly", "x^^2")
    assert code == 2
    # argparse rejects unknown flags with exit code 2
    with pytest.raises(SystemExit) as exc:
        main(["ord", "--field", "2", "--poly", "x", "--bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_computation_errors_exit_1(capsys):
    code, _, err = run_cli(capsys, "period-set", "--field", "2", "--degree", "7")
    assert code == 1 and "closed form" in err
    code, _, err = run_cli(
        capsys, "period-set", "--field", "2", "--degree", "25", "--method", "bruteforce"
    )
    assert code == 1 and "budget" in err


def test_budget_bounds_walks_and_closures(monkeypatch, capsys):
    simulate = ("simulate", "--field", "5", "--rec", "1,1", "--init", "0,1",
                "--terms", "2", "--period")
    monkeypatch.setenv("PERIOD_LAB_BUDGET", "19")
    code, _, err = run_cli(capsys, *simulate)
    assert code == 1 and err == "error: no period within the budget of 19 steps\n"
    code, out, _ = run_cli(capsys, *simulate, "--budget", "20")
    assert code == 0 and out.splitlines()[-1] == "period: 20"
    ord_both = ("ord", "--field", "5", "--poly", "x^2-x-1", "--method", "both")
    code, _, err = run_cli(capsys, *ord_both)
    assert code == 1 and err == "error: no order within the budget of 19 steps\n"
    code, out, _ = run_cli(capsys, *ord_both, "--budget", "20")
    assert code == 0 and out.splitlines()[1] == "bruteforce: 20"
    code, _, err = run_cli(capsys, "ring", "period-set", "--components", "2,5",
                           "--degree", "3", "--budget", "69")
    assert code == 1 and err == "error: 70 lcm pairs exceed the budget 69\n"
    for argv in (("ring", "period-set", "--components", "2", "--degree", "63"),
                 ("period-set", "--field", "2", "--degree", "63", "--method", "exact"),
                 ("algebra", "--p", "2", "--n", "3", "--max-period", "--degree", "63")):
        code, _, err = run_cli(capsys, *argv)  # default budget, here 19
        assert code == 1 and err.endswith(" candidate periods exceed the budget 19\n"), argv


def test_bad_budget_env_only_fails_budgeted_routes(monkeypatch, capsys):
    monkeypatch.setenv("PERIOD_LAB_BUDGET", "abc")
    for argv in (("period-set", "--field", "2", "--degree", "4"),
                 ("algebra", "--p", "2", "--n", "5")):
        code, _, err = run_cli(capsys, *argv)
        assert code == 0 and err == "", argv
    for argv in (("period-set", "--field", "2", "--degree", "4", "--method", "exact"),
                 ("ring", "period-set", "--components", "2,3", "--degree", "2"),
                 ("ring", "period", "--components", "2,5", "--rec", "1,1",
                  "--init", "0|0,1|1")):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1 and err == "error: bad PERIOD_LAB_BUDGET value 'abc'\n", argv


def test_ring_period_walks_stop_at_the_budget_env():
    # degree 40: each component walk would run up to 2^40 steps unbudgeted
    argv = ["ring", "period", "--components", "2", "--rec", "1," + "0," * 38 + "1",
            "--init", "0," * 39 + "1"]
    src = str(Path(cli.__file__).parents[1])
    done = subprocess.run([sys.executable, "-m", "period_lab.cli", *argv],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src, PERIOD_LAB_BUDGET="1000"))
    assert done.returncode == 1
    assert done.stderr == "error: no period within the budget of 1000 steps\n"


def test_default_budget_lives_in_errors():
    assert not hasattr(cli, "default_budget")
    assert default_budget.__module__ == "period_lab.errors"


def test_import_loads_no_process_pool():
    src = str(Path(cli.__file__).parents[1])
    probe = ("import sys, period_lab.cli; "
             "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') "
             "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out == "[]\n"


def test_period_set_json_schema(capsys):
    code, out, _ = run_cli(
        capsys, "period-set", "--field", "2", "--degree", "4",
        "--method", "bruteforce", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "schema": "period-lab/1",
        "command": "period-set",
        "q": 2, "p": 2, "e": 1, "k": 4,
        "method": "bruteforce",
        "period_set": [1, 2, 3, 4, 5, 6, 7, 15],
    }


def test_period_set_all_methods_agree(capsys):
    code, out, _ = run_cli(
        capsys, "period-set", "--field", "3^2", "--degree", "2",
        "--method", "all", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["equal"] is True
    assert payload["sets"]["closed"] == payload["sets"]["bruteforce"]


def test_period_set_csv(capsys):
    code, out, _ = run_cli(
        capsys, "period-set", "--field", "2", "--degree", "3", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines() == ["period", "1", "2", "3", "4", "7"]


def test_determinism_byte_identical(capsys):
    args = ("period-set", "--field", "5", "--degree", "3",
            "--method", "all", "--format", "json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    args = ("ord", "--field", "5", "--poly", "x^6+2*x+1", "--explain",
            "--format", "json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_simulate(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--field", "5", "--rec", "1,1", "--init", "0,1",
        "--terms", "8", "--period",
    )
    assert code == 0
    assert out.splitlines() == ["0 1 1 2 3 0 3 3", "period: 20"]


def test_simulate_extension_field_roundtrip(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--field", "2^2", "--rec", "[0,1],[1,0]",
        "--init", "[1,0],[0,1]", "--terms", "6",
        "--format", "json", "--trajectory",
    )
    assert code == 0
    payload = json.loads(out)
    field = parse_field_spec("2^2")
    terms = [field.parse_element(t) for t in payload["terms"]]
    # recurrence: a_{n+2} = a_{n+1} + g*a_n with g the modulus root
    g = field.from_coeffs((0, 1))
    for n in range(4):
        assert terms[n + 2] == field.add(terms[n + 1], field.mul(g, terms[n]))
    assert len(payload["trajectory"]) == 6
    assert payload["trajectory"][0] == ["[1,0]", "[0,1]"]


def test_minpoly(capsys):
    code, out, _ = run_cli(
        capsys, "minpoly", "--field", "2", "--terms", "0,1,1,0,1,1,0,1",
        "--bound", "2",
    )
    assert code == 0 and out.strip() == "x^2+x+1"
    code, _, err = run_cli(
        capsys, "minpoly", "--field", "2", "--terms", "0,1,1", "--bound", "2"
    )
    assert code == 1 and "terms" in err


def test_ring_period_set(capsys):
    code, out, _ = run_cli(
        capsys, "ring", "period-set", "--components", "2,3,5", "--degree", "2",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "ring-period-set"
    assert payload["components"] == ["2", "3", "5"]
    assert payload["period_set"] == [
        1, 2, 3, 4, 5, 6, 8, 10, 12, 15, 20, 24, 30, 40, 60, 120,
    ]
    assert payload["component_period_sets"][0] == [1, 2, 3]


def test_ring_period(capsys):
    code, out, _ = run_cli(
        capsys, "ring", "period", "--components", "2,5", "--rec", "1,1",
        "--init", "0|0,1|1", "--method", "both", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["component_periods"] == [3, 20]
    assert payload["period"] == 60
    assert payload["simulated"] == 60


@pytest.mark.parametrize("components, init, method, walks", [
    ("2,5", "0|0,1|1", "lcm", 2),
    ("2,5", "0|0,1|1", "both", 3),
    ("2,3,5", "0|0|0,1|1|1", "lcm", 3),
    ("2,3,5", "0|0|0,1|1|1", "both", 4),
])
def test_ring_period_walks_each_component_once(monkeypatch, capsys, components,
                                               init, method, walks):
    calls = []

    def counting(rec, s0, *, budget=None):
        calls.append(rec)
        return sequences.period_bruteforce(rec, s0, budget=budget)

    for mod in (cli, rings):
        monkeypatch.setattr(mod, "period_bruteforce", counting)
    code, _, _ = run_cli(capsys, "ring", "period", "--components", components,
                         "--rec", "1,1", "--init", init, "--method", method)
    assert code == 0
    assert len(calls) == walks


def test_algebra(capsys):
    code, out, _ = run_cli(
        capsys, "algebra", "--p", "2", "--n", "5", "--max-period", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["semisimple"] is True
    assert payload["components"] == ["2", "2^4/x^4+x^3+x^2+x+1"]
    assert payload["max_period"] == 15
    assert payload["factor_count"] == 2
    code, out, _ = run_cli(
        capsys, "algebra", "--p", "2", "--n", "4", "--format", "json"
    )
    payload = json.loads(out)
    assert payload["semisimple"] is False and payload["components"] is None
    assert payload["factors"] == [{"poly": "t+1", "multiplicity": 4}]


def test_verify_scopes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--scope", "rings")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    code, out, _ = run_cli(capsys, "verify", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert all(c["pass"] for c in payload["checks"])
    names = [c["name"] for c in payload["checks"]]
    assert len(names) == len(set(names))


def test_verify_reports_a_failing_check(capsys, monkeypatch):
    monkeypatch.setattr(verify, "_CHECKS", (
        ("always-wrong", "rings", "1 equals 2", lambda: (1, 2)),))
    code, out, _ = run_cli(capsys, "verify", "--scope", "rings")
    assert code == 1
    assert out.splitlines()[0].startswith("FAIL always-wrong (")
    assert out.splitlines()[1:] == ["     expected 1", "     computed 2", "0/1 checks passed"]


def test_verify_json_deterministic(capsys):
    _, first, _ = run_cli(capsys, "verify", "--scope", "period-sets", "--format", "json")
    _, second, _ = run_cli(capsys, "verify", "--scope", "period-sets", "--format", "json")
    assert first == second
