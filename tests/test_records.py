"""The result records keep the contract of the frozen dataclasses they
replace: field equality within one class, hashing, AttributeError on
assignment, pickle and copy round-trips, and the same repr text, which
`verify` prints in its CLI output.  The two ring contexts, ProductRing and
GroupAlgebra, are records too and keep the same contract."""

import copy
import pickle

import pytest

from period_lab.errors import Record
from period_lab.ff import make_field
from period_lab.orders import FactorContribution, OrderResult, poly_order
from period_lab.period_sets import PeriodSet
from period_lab.poly import Factorization, factor, parse_poly
from period_lab.rings import GroupAlgebra, ProductRing, make_product_ring
from period_lab.sequences import Recurrence, SequenceRun
from period_lab.verify import CheckResult, VerifyReport

F2 = make_field(2)
F4 = make_field(2, 2)
F5 = make_field(5)
# x * (x+1)^2 * (x^2+x+1): a stripped power of x and a two-factor ledger
F = parse_poly(F2, "x^5+x^4+x^2+x")
G = parse_poly(F2, "x^5+x^4+1")


def _check(expected="[1, 2]"):
    return CheckResult(name="n", scope="orders", claim="c", expected=expected,
                       computed="{1: 'a'}", passed=False, elapsed_ms=0.25)


# name -> (build, build a different one); build() returns a new equal record
RECORDS = {
    "FactorContribution": (lambda: FactorContribution(parse_poly(F2, "x+1"), 2, 1, 1, 2),
                           lambda: FactorContribution(parse_poly(F2, "x+1"), 1, 1, 0, 1)),
    "OrderResult": (lambda: poly_order(F), lambda: poly_order(G)),
    "Factorization": (lambda: factor(F), lambda: factor(G)),
    "PeriodSet": (lambda: PeriodSet.of([7, 1, 3]), lambda: PeriodSet.of([1, 3])),
    "Recurrence": (lambda: Recurrence(F4, (2, 1)), lambda: Recurrence(F4, (3, 1))),
    "SequenceRun": (lambda: SequenceRun(Recurrence(F5, (1, 1)), (0, 6)),
                    lambda: SequenceRun(Recurrence(F5, (1, 1)), (1, 1))),
    "CheckResult": (_check, lambda: _check("[1]")),
    "VerifyReport": (lambda: VerifyReport((_check(),)), lambda: VerifyReport(())),
    "ProductRing": (lambda: make_product_ring([2, 3]), lambda: make_product_ring([2, 5])),
    "GroupAlgebra": (lambda: GroupAlgebra(2, 5), lambda: GroupAlgebra(3, 5)),
}

# the reprs of the dataclasses these records replace, byte for byte
REPRS = {
    "FactorContribution": "FactorContribution(factor=Poly('2', 'x+1'), multiplicity=2, "
                          "base_order=1, char_exponent=1, contribution=2)",
    "OrderResult": "OrderResult(order=6, strip_exponent=1, contributions=("
                   "FactorContribution(factor=Poly('2', 'x+1'), multiplicity=2, base_order=1, "
                   "char_exponent=1, contribution=2), "
                   "FactorContribution(factor=Poly('2', 'x^2+x+1'), multiplicity=1, "
                   "base_order=3, char_exponent=0, contribution=3)))",
    "Factorization": "Factorization(unit=1, factors=((Poly('2', 'x'), 1), "
                     "(Poly('2', 'x+1'), 2), (Poly('2', 'x^2+x+1'), 1)))",
    "PeriodSet": "PeriodSet([1, 3, 7])",
    "Recurrence": "Recurrence(FieldCtx('2^2/x^2+x+1'), (2, 1))",
    "SequenceRun": "SequenceRun(recurrence=Recurrence(FieldCtx('5'), (1, 1)), "
                   "initial=(0, 1))",
    "CheckResult": "CheckResult(name='n', scope='orders', claim='c', expected='[1, 2]', "
                   "computed=\"{1: 'a'}\", passed=False, elapsed_ms=0.25)",
    "VerifyReport": "VerifyReport(checks=(CheckResult(name='n', scope='orders', claim='c', "
                    "expected='[1, 2]', computed=\"{1: 'a'}\", passed=False, "
                    "elapsed_ms=0.25),))",
    "ProductRing": "ProductRing('2+3')",
    "GroupAlgebra": "GroupAlgebra(p=2, n=5)",
}
# each frozen record's first field
FROZEN = {"FactorContribution": "factor", "OrderResult": "order", "Factorization": "unit",
          "PeriodSet": "values", "Recurrence": "ctx", "SequenceRun": "recurrence",
          "CheckResult": "name", "VerifyReport": "checks", "ProductRing": "components",
          "GroupAlgebra": "p"}


@pytest.mark.parametrize("name", RECORDS)
def test_repr_is_the_dataclass_repr(name):
    assert repr(RECORDS[name][0]()) == REPRS[name]


def test_extension_field_factorization_repr():
    assert repr(factor(parse_poly(F4, "x^2+x+[0,1]"))) == (
        "Factorization(unit=1, factors=((Poly('2^2/x^2+x+1', 'x^2+x+[0,1]'), 1),))")


@pytest.mark.parametrize("name", RECORDS)
def test_equality_by_fields_within_one_class(name):
    build, build_other = RECORDS[name]
    a, b = build(), build()
    assert a is not b and a == b and not a != b
    assert a != build_other()
    assert a != object() and a != None  # noqa: E711


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_records_hash_by_fields_and_refuse_assignment(name):
    build, build_other = RECORDS[name]
    a = build()
    assert hash(a) == hash(build())
    assert len({a, build(), build_other()}) == 2
    field = FROZEN[name]
    before = getattr(a, field)
    with pytest.raises(AttributeError):
        setattr(a, field, 0)
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.unknown = 0
    assert getattr(a, field) == before


def test_sequence_run_period_is_not_a_field():
    """A run that has read its period stays equal to, and hashes as, one
    that has not; its fields refuse assignment, so the period cannot
    disagree with them; and the period cannot be passed in."""
    build = RECORDS["SequenceRun"][0]
    run, fresh = build(), build()
    assert run.period == 20 and run.period == 20
    assert run == fresh and hash(run) == hash(fresh)
    assert repr(run) == repr(fresh) == REPRS["SequenceRun"]
    with pytest.raises(AttributeError):
        run.initial = (0, 0)
    with pytest.raises(AttributeError):
        run.period = 1
    assert run.initial == (0, 1) and run.period == 20
    assert SequenceRun(Recurrence(F5, (1, 1)), (0, 0)).period == 1
    with pytest.raises(TypeError):
        SequenceRun(Recurrence(F5, (1, 1)), (0, 1), 5)


@pytest.mark.parametrize("name", RECORDS)
def test_records_hold_only_their_fields(name):
    """Every field is a slot, and no record has an instance __dict__ in
    which state beside its fields and derived slots could hide."""
    a = RECORDS[name][0]()
    slots = {s for cls in type(a).__mro__ for s in vars(cls).get("__slots__", ())}
    assert set(a._fields) <= slots
    assert not hasattr(a, "__dict__")


@pytest.mark.parametrize("name", RECORDS)
def test_pickle_and_copy_round_trips(name):
    a = RECORDS[name][0]()
    for clone in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert type(clone) is type(a) and clone == a and repr(clone) == repr(a)


def test_period_set_membership_survives_pickling():
    ps = PeriodSet.of([7, 1, 3])
    assert 3 in ps and 5 not in ps
    clone = pickle.loads(pickle.dumps(ps))
    assert 7 in clone and clone.as_set() == frozenset({1, 3, 7})
    assert clone == {1, 3, 7} and clone == [7, 3, 1]


def test_pickled_sequence_run_answers_the_same_period():
    run = RECORDS["SequenceRun"][0]()
    assert run.period == 20
    clone = pickle.loads(pickle.dumps(run))
    assert clone == run and clone.period == 20


def test_record_refuses_a_value_count_other_than_its_fields():
    class Pair(Record):
        __slots__ = _fields = ("a", "b")

    assert Pair(1, 2) == Pair(1, 2)
    for values in ((1,), (1, 2, 3)):
        with pytest.raises(ValueError):
            Pair(*values)


def test_record_binds_values_by_position_and_by_name():
    """Values bind to _fields by position, then by name; a missing field
    leaves the count short, and an unknown name or one already bound by
    position is refused."""
    class Pair(Record):
        __slots__ = _fields = ("a", "b")

    assert Pair(1, 2) == Pair(1, b=2) == Pair(b=2, a=1) == Pair(a=1, b=2)
    assert repr(Pair(b=2, a=1)).endswith("Pair(a=1, b=2)")
    with pytest.raises(ValueError, match="takes the fields a, b: got 1 values"):
        Pair(a=1)
    for args, named in (((1, 2), {"c": 3}), ((1,), {"a": 2}), ((), {"a": 1, "c": 2})):
        with pytest.raises(TypeError, match="unknown or repeated field"):
            Pair(*args, **named)
    assert _check() == CheckResult("n", "orders", "c", "[1, 2]", "{1: 'a'}", False, 0.25)


def test_records_take_the_value_contract_from_record():
    """The result records define no constructor of their own, and the ring
    contexts no equality, hashing or pickling; GroupAlgebra's repr is
    Record's too.  Keyword construction and refusals come from Record."""
    for cls in (FactorContribution, OrderResult, PeriodSet, Factorization, CheckResult,
                VerifyReport):
        assert "__init__" not in vars(cls), cls
    for cls in (ProductRing, GroupAlgebra):
        assert issubclass(cls, Record)
        assert not {"__eq__", "__hash__", "__reduce__"} & set(vars(cls)), cls
    assert "__repr__" not in vars(GroupAlgebra)
    assert GroupAlgebra(n=5, p=2) == GroupAlgebra(2, 5)
    assert VerifyReport(checks=()) == VerifyReport(())
    with pytest.raises(TypeError):
        FactorContribution(factor=None, multiplicity=1, base_order=1, char_exponent=0,
                           contribution=1, order=1)
    with pytest.raises(ValueError):
        OrderResult(order=1, strip_exponent=0)
