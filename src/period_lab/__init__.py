"""period-lab: periods of linear recurrence sequences over finite fields,
direct sums of finite fields, and cyclic group algebras.

The library computes polynomial orders (by factorization pipeline and by
brute force), simulates recurrences and measures periods, recovers
minimal polynomials, evaluates period sets of bounded degree (in closed
form for degrees 1-4, exactly for every degree), and handles product
rings through componentwise projection and lcm-closure.  Everything is
exact and deterministic.
"""

from . import errors
from .errors import DEFAULT_BUDGET
from .ff import MAX_CHARACTERISTIC, FieldCtx, make_field, parse_field_spec
from .intfactor import (
    INT64_MAX,
    euler_phi,
    factor_integer,
    is_prime,
    lcm64,
    split_prime_power,
)
from .orders import (
    FactorContribution,
    OrderResult,
    irreducible_order,
    poly_order,
    poly_order_bruteforce,
    strip_x_power,
)
from .period_sets import (
    PeriodSet,
    divisors,
    order_set_bruteforce,
    period_set_closed_form,
    period_set_exact,
    period_set_lower_bound,
    set_product,
    set_scale,
)
from .poly import (
    Factorization,
    Poly,
    factor,
    format_poly,
    gcd,
    is_irreducible,
    monic_polys,
    parse_poly,
    powmod,
)
from .rings import (
    GroupAlgebra,
    ProductRing,
    component_periods,
    component_recurrence,
    group_algebra_max_period,
    group_algebra_period,
    lcm_closure,
    make_group_algebra,
    make_product_ring,
    max_period_bound,
    period_over_ring,
    period_set_over_ring,
    ring_period_sets,
    verify_field_characterization,
)
from .sequences import (
    Recurrence,
    SequenceRun,
    berlekamp_massey,
    generate,
    impulse_response_period,
    impulse_state,
    minimal_poly,
    period_bruteforce,
)
from .verify import CheckResult, VerifyReport, run_verify

__version__ = "0.1.0"

__all__ = [
    "errors",
    "FieldCtx", "make_field", "parse_field_spec", "MAX_CHARACTERISTIC",
    "factor_integer", "euler_phi", "is_prime", "lcm64",
    "split_prime_power", "INT64_MAX",
    "Poly", "Factorization", "factor", "gcd", "powmod",
    "is_irreducible", "monic_polys", "parse_poly", "format_poly",
    "OrderResult", "FactorContribution", "poly_order",
    "poly_order_bruteforce", "irreducible_order", "strip_x_power",
    "Recurrence", "SequenceRun", "generate", "period_bruteforce",
    "impulse_state", "impulse_response_period",
    "berlekamp_massey", "minimal_poly",
    "PeriodSet", "divisors", "set_scale", "set_product",
    "period_set_lower_bound", "period_set_closed_form", "period_set_exact",
    "order_set_bruteforce", "DEFAULT_BUDGET",
    "ProductRing", "make_product_ring", "component_recurrence",
    "component_periods", "period_over_ring", "period_set_over_ring", "lcm_closure",
    "ring_period_sets",
    "max_period_bound", "verify_field_characterization",
    "GroupAlgebra", "make_group_algebra", "group_algebra_period",
    "group_algebra_max_period",
    "run_verify", "VerifyReport", "CheckResult",
]
