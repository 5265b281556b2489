import io
import itertools
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from period_lab import cli, rings, sequences, verify
from period_lab.cli import main
from period_lab.errors import OutOfRange, default_budget
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
    # polynomials and comma lists share one bracket scanner
    assert run_cli(capsys, "ord", "--field", "5", "--poly=-x+1")[:2] == (0, "1\n")
    simulate = ("simulate", "--field", "2^2", "--init", "1", "--terms", "3", "--rec")
    for argv, line in (
        (("ord", "--field", "2^2", "--poly", "x+-1"), "dangling sign in 'x+-1'"),
        (("ord", "--field", "2^2", "--poly=--x"), "dangling sign in '--x'"),
        (("ord", "--field", "2^2", "--poly", "x+"), "trailing sign in 'x+'"),
        (("ord", "--field", "2^2", "--poly", "[1,0"), "unbalanced brackets in '[1,0'"),
        (("ord", "--field", "2^2", "--poly", "]x"), "unbalanced brackets in ']x'"),
        (("ord", "--field", "2^2", "--poly", "x+[1,[0]]"), "bad term '[1,[0]]' in 'x+[1,[0]]'"),
        ((*simulate, "[1,0"), "unbalanced brackets in '[1,0'"),
        ((*simulate, "[1, 0"), "unbalanced brackets in '[1, 0'"),
        ((*simulate, "[1,0], ]"), "unbalanced brackets in '[1,0], ]'"),
        (("ring", "period-set", "--components", "2,[3", "--degree", "2"),
         "unbalanced brackets in '2,[3'"),
        # list items are stripped before they are read
        (("ring", "period", "--components", "2,3", "--rec", " 1|1|1 , 1", "--init", "1"),
         "expected 2 '|'-separated parts in '1|1|1'"),
    ):
        assert run_cli(capsys, *argv) == (2, "", f"usage error: {line}\n"), argv
    # argparse rejects unknown flags with exit code 2
    with pytest.raises(SystemExit) as exc:
        main(["ord", "--field", "2", "--poly", "x", "--bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_integers_past_the_interpreter_digit_limit_are_read_by_the_parser(capsys):
    """An exponent of 5,000 digits is a usage error in the program's own
    words, and a coefficient of 5,000 digits is read mod p, not refused in
    the interpreter's words about its digit limit."""
    nines = "9" * 5000
    code, out, err = run_cli(capsys, "ord", "--field", "2", "--poly", f"x^{nines}")
    assert (code, out) == (2, "")
    assert err == "usage error: exponent of 5000 digits exceeds the 1048576 degree limit\n"
    code, out, err = run_cli(capsys, "ord", "--field", "2", "--poly", f"{nines}*x+1")
    assert (code, out, err) == (0, "1\n", "")  # 10^5000 - 1 is odd: the order of x+1
    code, out, err = run_cli(capsys, "ord", "--field", "2", "--poly", "8" * 5000)
    assert (code, out) == (2, "")  # 0 mod 2
    assert err == "usage error: --poly must be a nonzero polynomial\n"


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


def test_simulate_terms_are_bounded_by_the_budget(monkeypatch, capsys):
    """simulate refuses --terms above --budget before any term is built;
    with --trajectory it builds k - 1 terms more, and counts them."""
    monkeypatch.delenv("PERIOD_LAB_BUDGET", raising=False)
    simulate = ("simulate", "--field", "2", "--rec", "1,1", "--init", "0,1")
    code, out, err = run_cli(capsys, *simulate, "--terms", "99999999999999")
    assert (code, out, err) == (1, "", "error: 99999999999999 terms exceed the budget "
                                       "1000000\n")
    code, _, err = run_cli(capsys, *simulate, "--terms", "5", "--budget", "4")
    assert code == 1 and err == "error: 5 terms exceed the budget 4\n"
    code, out, _ = run_cli(capsys, *simulate, "--terms", "5", "--budget", "5")
    assert code == 0 and out == "0 1 1 0 1\n"
    code, _, err = run_cli(capsys, *simulate, "--terms", "5", "--budget", "5", "--trajectory")
    assert code == 1 and err == "error: 6 terms exceed the budget 5\n"


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


@pytest.mark.parametrize("raw", ["0", "-1"])
def test_budget_env_below_one_is_refused(monkeypatch, capsys, raw):
    monkeypatch.setenv("PERIOD_LAB_BUDGET", raw)
    with pytest.raises(OutOfRange, match=f"^bad PERIOD_LAB_BUDGET value '{raw}'$"):
        default_budget()
    assert default_budget(7) == 7  # a budget that is given is not read from the environment
    code, _, err = run_cli(capsys, "simulate", "--field", "5", "--rec", "1,1",
                           "--init", "0,1", "--terms", "2", "--period")
    assert code == 1 and err == f"error: bad PERIOD_LAB_BUDGET value '{raw}'\n"


# each command that takes --budget, with inputs that are otherwise valid
BUDGETED = (
    ("ord", "--field", "2", "--poly", "x^5+x^4+1", "--method", "both"),
    ("simulate", "--field", "5", "--rec", "1,1", "--init", "0,1", "--terms", "2",
     "--period"),
    ("period-set", "--field", "2", "--degree", "3", "--method", "exact"),
    ("ring", "period-set", "--components", "2,3", "--degree", "2"),
    ("algebra", "--p", "2", "--n", "5", "--max-period"),
)


@pytest.mark.parametrize("argv", BUDGETED,
                         ids=lambda argv: " ".join(w for w in argv[:2] if w[0] != "-"))
@pytest.mark.parametrize("budget", ["0", "-5"])
def test_budget_below_one_is_a_usage_error(capsys, argv, budget):
    code, out, err = run_cli(capsys, *argv, "--budget", budget)
    assert (code, out, err) == (2, "", "usage error: --budget must be >= 1\n")
    code, _, err = run_cli(capsys, *argv, "--budget", "1000")
    assert code == 0 and err == ""


@pytest.mark.parametrize("argv", BUDGETED,
                         ids=lambda argv: " ".join(w for w in argv[:2] if w[0] != "-"))
def test_budget_is_checked_before_any_input_is_read(monkeypatch, capsys, argv):
    def read(*_):
        raise AssertionError("an input was read before --budget was checked")

    for reader in ("parse_field_spec", "make_product_ring", "GroupAlgebra"):
        monkeypatch.setattr(cli, reader, read)
    code, out, err = run_cli(capsys, *argv, "--budget", "0")
    assert (code, out, err) == (2, "", "usage error: --budget must be >= 1\n")


@pytest.mark.parametrize("argv, code, line", [
    (("ord", "--field", "2^99999999999", "--poly", "x"), 2,
     "usage error: extension degree 99999999999 exceeds the 1048576 degree limit"),
    (("ord", "--field", "2^3/", "--poly", "x"), 2, "usage error: empty polynomial"),
    (("period-set", "--field", "2", "--degree", "30000", "--method", "bruteforce"), 1,
     "error: 2^30000 polynomials exceed the budget 1000000"),
], ids=("huge extension degree", "empty modulus", "huge brute-force count"))
def test_huge_and_empty_inputs_fail_in_the_programs_words(monkeypatch, capsys, argv,
                                                          code, line):
    monkeypatch.delenv("PERIOD_LAB_BUDGET", raising=False)
    got, out, err = run_cli(capsys, *argv)
    assert (got, out, err) == (code, "", line + "\n")
    for word in ("Traceback", "MemoryError", "set_int_max_str_digits"):
        assert word not in err


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


def _loaded_by_cli_import(modules) -> str:
    """Which of modules a fresh interpreter holds after importing the CLI."""
    src = str(Path(cli.__file__).parents[1])
    probe = ("import sys, period_lab.cli; "
             f"print(sorted(m for m in {tuple(modules)!r} if m in sys.modules))")
    return subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=src)).stdout


def test_import_loads_no_process_pool():
    assert _loaded_by_cli_import(("concurrent.futures", "multiprocessing")) == "[]\n"


def test_import_loads_no_dataclasses():
    # dataclasses and what it pulls in were two thirds of the CLI's import time
    assert _loaded_by_cli_import(("dataclasses", "inspect", "ast", "dis")) == "[]\n"


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


@pytest.mark.parametrize("n", ["1048577", "99999999999999999999"])
def test_algebra_n_past_the_degree_limit_is_a_usage_error(capsys, n):
    code, out, err = run_cli(capsys, "algebra", "--p", "2", "--n", n)
    assert (code, out) == (2, "")
    assert err == "usage error: group algebras need n <= 1048576, the polynomial degree limit\n"


def test_algebra_degree_without_max_period_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "algebra", "--p", "2", "--n", "5", "--degree", "3")
    assert (code, out, err) == (2, "", "usage error: --degree needs --max-period\n")


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


def test_pipeline_check_fails_when_brute_force_disagrees(monkeypatch):
    # a brute-force order one too high on x^2+x+1 over F_2 and nowhere else
    brute = verify.poly_order_bruteforce
    monkeypatch.setattr(verify, "poly_order_bruteforce",
                        lambda f: brute(f) + (f.field.q == 2 and str(f) == "x^2+x+1"))
    check, = (c for c in verify.run_verify("orders").checks
              if c.name == "pipeline-vs-bruteforce")
    assert (check.passed, check.expected, check.computed) == (False, "[]", "['x^2+x+1']")


@pytest.mark.parametrize("ring, k, periods", [
    (rings.make_product_ring([2, 3]), 1, [1, 2]),
    (rings.make_product_ring([2, 3]), 2, [1, 2, 3, 4, 6, 8, 12, 24]),
    (rings.GroupAlgebra(2, 2), 2, [1, 2, 3, 4, 6]),
])
def test_exhaustive_walk_steps_each_state_once(monkeypatch, ring, k, periods):
    """_exhaustive_periods walks each cycle once: over every unit-c0
    recurrence of degree k, every state is stepped exactly once, counted
    on the state maps of both verify and sequences."""
    stepper, steps = sequences._stepper, {}

    def counting(rec):
        step = stepper(rec)

        def counted(state):
            key = (rec.coeffs, state)
            steps[key] = steps.get(key, 0) + 1
            return step(state)
        return counted

    # verify's own name too, where it has one: a walk through
    # period_bruteforce or generate is counted on sequences'
    monkeypatch.setattr(sequences, "_stepper", counting)
    monkeypatch.setattr(verify, "_stepper", counting, raising=False)
    assert sorted(verify._exhaustive_periods(ring, k)) == periods
    states = list(itertools.product(ring.elements(), repeat=k))
    units = [c for c in states if ring.is_unit(c[0])]
    assert steps == {(c, s): 1 for c in units for s in states}


def test_verify_refuses_an_unknown_scope():
    with pytest.raises(ValueError, match="^unknown scope 'bogus'; choose all, orders, "):
        verify.run_verify("bogus")


def test_verify_json_deterministic(capsys):
    _, first, _ = run_cli(capsys, "verify", "--scope", "period-sets", "--format", "json")
    _, second, _ = run_cli(capsys, "verify", "--scope", "period-sets", "--format", "json")
    assert first == second


# -- the parser: only the named subcommand's is built ----------------------------

# each leaf command with a complete set of its required arguments
LEAVES = {
    ("ord",): ["--field", "2", "--poly", "x+1"],
    ("simulate",): ["--field", "2", "--rec", "1", "--init", "1", "--terms", "2"],
    ("minpoly",): ["--field", "2", "--terms", "1,1", "--bound", "1"],
    ("period-set",): ["--field", "2", "--degree", "2"],
    ("ring", "period-set"): ["--components", "2", "--degree", "2"],
    ("ring", "period"): ["--components", "2", "--rec", "1", "--init", "1"],
    ("algebra",): ["--p", "2", "--n", "3"],
    ("verify",): [],
}


def _parse(parser, argv):
    """(exit code, stdout, stderr) of parser.parse_args(argv); code None
    when it parses."""
    out, err = io.StringIO(), io.StringIO()
    code = None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            parser.parse_args(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("path", LEAVES, ids=" ".join)
@pytest.mark.parametrize("case", ("help", "missing-required", "bad-choice", "unrecognized"))
def test_thin_parser_prints_what_the_full_parser_prints(monkeypatch, path, case):
    monkeypatch.setenv("COLUMNS", "80")
    tail = {"help": ["--help"], "missing-required": [], "bad-choice": ["--format", "xml"],
            "unrecognized": LEAVES[path] + ["extra"]}[case]
    argv = [*path, *tail]
    assert cli._command_path(argv) == path
    thin = _parse(cli.build_parser(path), argv)
    assert thin == _parse(cli.build_parser(), argv)
    if tail == ["--help"]:
        assert thin[0] == 0 and thin[1].startswith(f"usage: period-lab {' '.join(path)} ")
    elif tail or path != ("verify",):  # verify has no required argument
        assert thin[0] == 2 and thin[2].startswith("usage: period-lab ")


def test_thin_parser_holds_only_the_named_subcommand():
    code, _, err = _parse(cli.build_parser(("ord",)), ["simulate"])
    assert code == 2 and "invalid choice: 'simulate' (choose from 'ord')" in err
    ring = cli.build_parser(("ring", "period"))
    code, _, err = _parse(ring, ["ring", "period-set"])
    assert code == 2 and "invalid choice: 'period-set' (choose from 'period')" in err
    args = ring.parse_args(["ring", "period", "--components", "2", "--rec", "1",
                            "--init", "1"])
    assert (args.command, args.ring_command, args.run) == ("ring", "period",
                                                           cli._run_ring_period)


def test_main_builds_the_parser_argv_names(monkeypatch, capsys):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda path=(): built.append(path) or build(path))
    main(["ord", "--field", "2", "--poly", "x+1"])
    main(["ring", "period", "--components", "2", "--rec", "1", "--init", "1"])
    for argv in (["--help"], [], ["bogus"], ["ring"], ["ring", "--help"], ["-h", "ord"]):
        with pytest.raises(SystemExit):
            main(argv)
    assert built == [("ord",), ("ring", "period")] + [()] * 6
    capsys.readouterr()


TOP_USAGE = """usage: period-lab [-h]
                  {ord,simulate,minpoly,period-set,ring,algebra,verify} ...
"""
FULL_PARSER_TEXTS = {
    "--help": (0, TOP_USAGE + """
Periods of linear recurrences over finite fields, products of fields, and
cyclic group algebras.

positional arguments:
  {ord,simulate,minpoly,period-set,ring,algebra,verify}
    ord                 order of a polynomial
    simulate            generate a recurrence sequence
    minpoly             minimal polynomial of a sequence prefix
    period-set          period set of a fixed degree
    ring                product-of-fields computations
    algebra             cyclic group algebra F_p[t]/<t^n-1>
    verify              run the built-in verification suite

options:
  -h, --help            show this help message and exit
""", ""),
    "": (2, "", TOP_USAGE + "period-lab: error: the following arguments are required: "
                "command\n"),
    "bogus": (2, "", TOP_USAGE + "period-lab: error: argument command: invalid choice: "
                     "'bogus' (choose from 'ord', 'simulate', 'minpoly', 'period-set', "
                     "'ring', 'algebra', 'verify')\n"),
    "ring": (2, "", "usage: period-lab ring [-h] {period-set,period} ...\n"
                    "period-lab ring: error: the following arguments are required: "
                    "ring_command\n"),
}


@pytest.mark.parametrize("line", FULL_PARSER_TEXTS)
def test_full_parser_texts_are_unchanged(monkeypatch, capsys, line):
    monkeypatch.setenv("COLUMNS", "80")
    assert cli._command_path(line.split()) == ()
    with pytest.raises(SystemExit) as exc:
        main(line.split())
    out, err = capsys.readouterr()
    # Python 3.10 heads the options section "optional arguments:"
    out = out.replace("\noptional arguments:\n", "\noptions:\n")
    assert (exc.value.code, out, err) == FULL_PARSER_TEXTS[line]
