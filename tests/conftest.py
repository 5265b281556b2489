from functools import cache

import pytest

from period_lab.ff import make_field
from period_lab.intfactor import split_prime_power
from period_lab.period_sets import order_set_bruteforce


@pytest.fixture(scope="session")
def bruteforce_set():
    """order_set_bruteforce over F_q at degree k, computed once per session
    for the tests that share it as their oracle."""

    @cache
    def compute(q: int, k: int):
        return order_set_bruteforce(make_field(*split_prime_power(q)), k)

    return compute
