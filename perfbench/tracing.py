"""Spans around the public functions of each period_lab layer.

The wrappers live here, in the benchmark, and are installed at run time:
every module of the package that holds a reference to a traced function
gets the wrapper in its place (for example ``orders.factor`` and
``rings.period_bruteforce``), so calls between layers are seen too.  Each
call records a span ``[name, start, end, parent, query_id]``; spans stay in
memory and the caller writes them out when its run ends.
"""

from __future__ import annotations

import math
import sys
from time import perf_counter

# (module, attribute, span name); the span name is the metric prefix.
TARGETS = (
    ("period_lab.ff", "make_field", "ff.make_field"),
    ("period_lab.poly", "is_irreducible", "poly.is_irreducible"),
    ("period_lab.poly", "factor", "poly.factor"),
    ("period_lab.intfactor", "factor_integer", "intfactor.factor_integer"),
    ("period_lab.orders", "poly_order", "orders.poly_order"),
    ("period_lab.orders", "poly_order_bruteforce", "orders.poly_order_bruteforce"),
    ("period_lab.sequences", "period_bruteforce", "sequences.period_bruteforce"),
    ("period_lab.rings", "period_over_ring", "rings.period_over_ring"),
    ("period_lab.rings", "group_algebra_period", "rings.group_algebra_period"),
    ("period_lab.rings", "component_period_set", "rings.component_period_set"),
    ("period_lab.rings", "lcm_closure", "rings.lcm_closure"),
    ("period_lab.rings", "group_algebra_max_period", "rings.group_algebra_max_period"),
    ("period_lab.period_sets", "order_set_bruteforce", "period_sets.order_set_bruteforce"),
    ("period_lab.period_sets", "period_set_closed_form", "period_sets.period_set_closed_form"),
    ("period_lab.verify", "run_verify", "verify.run_verify"),
    ("period_lab.cli", "main", "cli.main"),
)
GROUP_ALGEBRA_INIT = "rings.GroupAlgebra.init"
SPAN_NAMES = tuple(name for _, _, name in TARGETS) + (GROUP_ALGEBRA_INIT,)


def _lcm_pairs(args, kwargs, result):
    # lcm_closure combines the running closure with each next set in turn
    sets = [set(s) for s in (args[0] if args else kwargs["sets"])]
    closure, pairs = sets[0], 0
    for s in sets[1:]:
        pairs += len(closure) * len(s)
        closure = {math.lcm(a, b) for a in closure for b in s}
    return pairs


def _order_set_polys(args, kwargs, result):
    field = args[0] if args else kwargs["field"]
    k = args[1] if len(args) > 1 else kwargs["k"]
    return field.q ** k


# Work counted per call, from the arguments and the result, after the span ends.
WORK = {
    "sequences.period_bruteforce": ("steps", lambda args, kwargs, result: result),
    "period_sets.order_set_bruteforce": ("polys", _order_set_polys),
    "rings.lcm_closure": ("pairs", _lcm_pairs),
}


class Tracer:
    """In-memory span recorder; ``query_id`` is set by the caller."""

    def __init__(self):
        self.spans: list[list] = []
        self.work: dict[str, int] = {}
        self.query_id = -1
        self.enabled = True
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counter = WORK.get(name)

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.query_id]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if counter is not None:
                key = f"{name}.{counter[0]}"
                self.work[key] = self.work.get(key, 0) + counter[1](args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function in every loaded period_lab module."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "period_lab" or n.startswith("period_lab."))]
        for mod_name, attr, name in TARGETS:
            home = sys.modules.get(mod_name)
            if home is None:
                continue
            original = getattr(home, attr)
            wrapped = self.wrap(name, original)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapped)
        rings = sys.modules["period_lab.rings"]
        init = rings.GroupAlgebra.__init__
        self._restore.append((rings.GroupAlgebra, "__init__", init))
        rings.GroupAlgebra.__init__ = self.wrap(GROUP_ALGEBRA_INIT, init)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def aggregate(spans) -> dict[str, dict[str, float]]:
    """Per span name: call count, total time, and self time (duration minus
    the time of its direct children)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += (end - start) - child_time[i]
    return out
