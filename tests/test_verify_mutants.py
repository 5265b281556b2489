"""`verify` catches what tier-1 catches.

Each mutant is a one-line source edit of one library function, compiled
in a copy of its module's namespace and put in place by monkeypatch in
every period_lab module that binds the name: `verify` imports most of
the routes it checks, so a mutant patched only where it is defined would
pass.  The answer caches are cleared before and after, so that no answer
of the real code serves the mutant, and no answer of the mutant outlives
it.  run_verify must then fail the named checks; a check that raises
fails.
"""

import inspect
import sys
import textwrap

import pytest

from period_lab import ff, intfactor, orders, period_sets, rings, verify
from period_lab.verify import run_verify


def _clear_caches():
    verify._bruteforce_set.cache_clear()
    orders._order_by_key.cache_clear()
    intfactor.factor_integer.cache_clear()


@pytest.fixture
def mutate(monkeypatch):
    """mutate(module, name, old, new): replace the one `old` in the source
    of module.name by `new`, wherever period_lab binds that function."""
    def apply(module, name, old, new):
        original = getattr(module, name)
        source = textwrap.dedent(inspect.getsource(original))
        assert source.count(old) == 1, (name, old)
        namespace = dict(vars(module))
        exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
        bound = [mod for key, mod in sys.modules.items()
                 if key.split(".")[0] == "period_lab" and getattr(mod, name, None) is original]
        for mod in bound:
            monkeypatch.setattr(mod, name, namespace[name])
        _clear_caches()
        return bound

    _clear_caches()
    yield apply
    _clear_caches()


def _failed_checks():
    return {c.name for c in run_verify("all").checks if not c.passed}


# (module, name, old, new, checks that must fail)
MUTANTS = {
    "char-boost-le": (
        orders, "_char_boost", "while pt < multiplicity:", "while pt <= multiplicity:",
        {"order-x2+x+1", "order-x3+x+1", "order-x5+x4+1", "pipeline-vs-bruteforce",
         "closed-form-equality", "degree5-strictness", "exact-route-equality",
         "lower-bound"}),
    "knapsack-one-boost": (
        period_sets, "period_set_exact", "while boosted <= k:", "if boosted <= k:",
        {"exact-route-equality"}),
    "bruteforce-multiplicity": (
        period_sets, "order_set_bruteforce", "m = max(top, j)", "m = j",
        {"exact-route-equality"}),
    "lcm-closure-drops-last-set": (
        rings, "lcm_closure", "for s in sets[1:]:", "for s in sets[1:-1]:",
        {"ring-period-set-k1", "ring-period-set-k2", "lcm-closure-exhaustive",
         "group-algebra-a5", "group-algebra-small"}),
    "order-skips-a-prime": (
        intfactor, "order_from_multiple", "order(x, factored_multiple) if factored_multiple",
        "order(x, factored_multiple[1:]) if factored_multiple[1:]",
        {"element-order-f5", "order-x2+x+1", "order-x3+x+1", "order-x5+x4+1",
         "order-repeated-root", "pipeline-vs-bruteforce", "closed-form-equality",
         "degree5-strictness", "exact-route-equality", "lower-bound"}),
    "local-sets-without-divisors": (
        rings, "group_algebra_max_period", "divisors(m)", "divisors(1)",
        {"group-algebra-local-sets"}),
    # the order of x modulo M of degree D from p^D + 1, which it need not
    # divide, in place of the multiple p^D - 1
    "order-of-x-wrong-multiple": (
        orders, "_order_by_key", "p ** (len(key) - 1) - 1", "p ** (len(key) - 1) + 1",
        {"order-x2+x+1", "order-x3+x+1", "order-x5+x4+1", "order-repeated-root",
         "pipeline-vs-bruteforce", "closed-form-equality", "degree5-strictness",
         "exact-route-equality", "lower-bound"}),
    "orbit-members-take-the-first-order": (
        orders, "_orbit_rule", "found = [keep * (m // math.gcd(k * e + l, m)) for k in range(m)]",
        "found = [o] * m",
        {"closed-form-equality", "exact-route-equality", "lower-bound"}),
    # M stops after two conjugates: over F_8 the degree-1 minimal
    # polynomials have three, so pipeline-vs-bruteforce meets a modulus
    # that is not irreducible, and its error fails that check
    "minimal-poly-two-conjugates": (
        orders, "_prime_field_minimal_poly", "        out = mul(out, conj)\n",
        "        out = mul(out, conj)\n        return out\n", {"pipeline-vs-bruteforce"}),
    "lower-bound-extra-power": (
        period_sets, "period_set_lower_bound", "[0] + 1)", "[0] + 2)",
        {"lower-bound"}),
    # the packed steps: over F_p the new element is never taken mod p, and
    # over F_p[t]/(t^n - 1) the high slots of t^n = 1 are dropped, not folded
    "prime-walk-without-mod-p": (
        ff, "_prime_walk", "% p << top", "<< top",
        {"fibonacci-mod-2", "fibonacci-mod-5", "fibonacci-2p-plus-2", "order-x5+x4+1",
         "degree5-cycle", "ring-fibonacci", "lcm-closure-exhaustive"}),
    # the brute-force pass's packed product over F_p is never taken mod p,
    # so its index reads a polynomial that is not the product
    "product-step-without-mod-p": (
        period_sets, "_product_step", "v -= p * (v * magic >> s & mask)", "v -= 0",
        {"closed-form-equality", "degree5-strictness", "exact-route-equality", "lower-bound"}),
    "algebra-walk-without-fold": (
        rings, "_algebra_walk", "reduce((t & low) + (t >> nw))", "reduce(t & low)",
        {"group-algebra-a5", "group-algebra-local-sets"}),
}


@pytest.mark.parametrize("mutant", MUTANTS)
def test_verify_fails_on_mutant(mutate, mutant):
    module, name, old, new, expected = MUTANTS[mutant]
    bound = mutate(module, name, old, new)
    assert module in bound
    missed = expected - _failed_checks()
    assert not missed, f"{mutant}: verify passed {sorted(missed)}"


def test_mutants_patch_every_binding(mutate):
    # verify binds the routes it checks; a mutant patched only in the
    # defining module would leave verify's copy untouched.  Recompiled
    # unchanged, the real code still passes verify.
    for module, name in ((period_sets, "period_set_exact"),
                         (period_sets, "period_set_lower_bound"),
                         (period_sets, "order_set_bruteforce"),
                         (rings, "group_algebra_max_period")):
        bound = mutate(module, name, f"def {name}(", f"def {name}(")
        assert verify in bound and module in bound, name
    assert run_verify("all").passed
