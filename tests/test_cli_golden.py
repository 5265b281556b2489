"""Byte-for-byte CLI regression test.

Every subcommand runs in every output format and is compared with the
recorded stdout, stderr and exit code in cli_golden.json.  The per-check
wall times that `verify` prints in text mode are masked, since they are
the only non-deterministic output.

After an intended output change, re-record with:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import io
import json
import os
import re
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest

from period_lab.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")
FORMATS = ("text", "json", "csv")
CASES = (
    "ord --field 2 --poly x^5+x^4+1",
    "ord --field 2 --poly x^5+x^4+1 --method both --explain",
    "ord --field 5 --poly x^6+2*x+1 --explain",
    "ord --field 2^2 --poly x^2+x+[0,1] --method both",
    "ord --field 6 --poly x",
    "ord --field 2 --poly x^^2",
    # the zero polynomial has no order: a usage error, in the option's words
    "ord --field 2 --poly 0",
    # an exponent past the degree limit is refused before any allocation
    "ord --field 2 --poly x^99999999999",
    "ord --field 2^3/x^99999999999 --poly x",
    # an irreducible degree-64 factor is past the 64-bit limit
    "ord --field 2 --poly x^64+x^4+x^3+x+1",
    # degree 40: the walk of powers of x stops at the budget, not after 2^40 steps
    "ord --field 2 --poly x^40+x^39+x^38+x^37+x^36+x^33+x^31+x^29+x^28+x^26+x^25"
    "+x^23+x^21+x^19+x^18+x^16+x^14+x^13+x^11+x^7+x^5+x^4+1 --method both --budget 1000",
    "simulate --field 5 --rec 1,1 --init 0,1 --terms 8 --period",
    "simulate --field 5 --rec 1,1 --init 0,1 --terms 0 --trajectory",
    "simulate --field 5 --rec 1,1 --init 0,1 --terms 1 --trajectory",
    "simulate --field 5 --rec 1,1 --init 0,1 --terms 6 --trajectory --period",
    "simulate --field 2^2 --rec [0,1],[1,0] --init [1,0],[0,1] --terms 6 --trajectory",
    "simulate --field 3 --rec 1,0,2 --init 0,0,1 --terms 2 --trajectory",
    "simulate --field 3 --rec 1,0,2 --init 0,0,1 --terms 7 --trajectory",
    "simulate --field 5 --rec 0,1 --init 0,1 --terms 3",
    "simulate --field 5 --rec 1,1 --init 0,1 --terms -1",
    # an initial state of the wrong length is a usage error
    "simulate --field 5 --rec 1,1 --init 1 --terms 3",
    # degree 40: the state walk stops at the budget, not after 2^40 steps
    "simulate --field 2 --rec 1," + "0," * 38 + "1 --init " + "0," * 39 + "1"
    " --terms 3 --period --budget 1000",
    "minpoly --field 2 --terms 0,1,1,0,1,1,0,1 --bound 2",
    "minpoly --field 2 --terms 0,1,1 --bound 2",
    "minpoly --field 2 --terms 0,1,1 --bound -1",
    "period-set --field 2 --degree 4",
    "period-set --field 3 --degree 3 --method bound",
    "period-set --field 2 --degree 4 --method bruteforce",
    "period-set --field 5 --degree 3 --method all",
    "period-set --field 2 --degree 7",
    "period-set --field 2 --degree 7 --method exact",
    "period-set --field 2^16 --degree 4",
    "period-set --field 2 --degree 25 --method bruteforce",
    "period-set --field 2^2 --degree 3 --method bruteforce",
    "period-set --field 2 --degree 0",
    # a budget below 1 is refused before any work, as a usage error
    "period-set --field 2 --degree 3 --method exact --budget 0",
    "ring period-set --components 2,3,5 --degree 2",
    "ring period-set --components 2^2,3 --degree 3",
    "ring period-set --components 2,5 --degree 5",
    "ring period-set --components 2,5 --degree 9",
    "ring period-set --components 2,3 --degree 0",
    'ring period-set --components "" --degree 2',
    "ring period --components 2,5 --rec 1,1 --init 0|0,1|1 --method lcm",
    # not a method: the walk is `both`'s cross-check, so argparse exits 2
    "ring period --components 2,5 --rec 1,1 --init 0|0,1|1 --method simulate",
    "ring period --components 2,5 --rec 1,1 --init 0|0,1|1 --method both",
    "ring period --components 2,3,2^2 --rec 1|1|[1,0],1|2|[0,1] "
    "--init 0|0|[0,0],1|1|[1,0] --method both",
    "ring period --components 2,5 --rec 0|1,1 --init 0|0,1|1",
    # a one-part element of a ring with several components must be an integer
    "ring period --components 2,3 --rec 1|1,x --init 0|0,1|1",
    "ring period --components 2,3 --rec 1|1,1 --init 1",
    "algebra --p 2 --n 5 --max-period",
    "algebra --p 2 --n 5 --max-period --degree 5",
    "algebra --p 2 --n 4 --max-period",
    "algebra --p 3 --n 4 --max-period --degree 2",
    "algebra --p 2 --n 1",
    "algebra --p 2 --n 3 --degree 0 --max-period",
    "verify --scope rings",
    "verify --scope period-sets",
    "verify",
)
KEYS = [f"{case} --format {fmt}" for case in CASES for fmt in FORMATS]
_ELAPSED = re.compile(r"\(\d+\.\d ms\)")


def run_case(key: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    # argparse wraps its usage line to the terminal width; pin it
    with redirect_stdout(out), redirect_stderr(err), \
            mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        try:
            code = main(shlex.split(key))
        except SystemExit as exc:  # an argparse usage error
            code = exc.code
    return {"code": code, "stdout": _ELAPSED.sub("(- ms)", out.getvalue()),
            "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(KEYS)


@pytest.mark.parametrize("key", KEYS)
def test_cli_output_matches_golden(golden, key):
    assert run_case(key) == golden[key]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({key: run_case(key) for key in KEYS}, indent=1) + "\n")
