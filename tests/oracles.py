"""Test-only oracles shared by several test files."""

from period_lab.errors import walk_back


def _mat_mul(F, a, b):
    add, mul = F.add, F.mul
    cols = tuple(zip(*b))
    out = []
    for arow in a:
        row = []
        for col in cols:
            acc = 0
            for x, y in zip(arow, col):
                if x and y:
                    acc = add(acc, mul(x, y))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def companion_order_bruteforce(rec) -> int:
    """Least n with C^n = I for the companion matrix C of a field-valued
    recurrence, by repeated matrix multiplication.

    An order above the default budget (10^6 steps, or PERIOD_LAB_BUDGET)
    raises BudgetExceeded.
    """
    F = rec._field()
    k = rec.k
    identity = tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))
    C = rec.companion_matrix()
    return walk_back(identity, lambda M: _mat_mul(F, M, C), "matrix order", F.q ** k - 1)
