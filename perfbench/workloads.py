"""The three benchmark workloads: seeded query streams, set-up, execution
and answer checks.

Every workload is a closed loop with one caller: the next query is sent
only after the previous answer is back.  Queries come in blocks.  A block
holds every size class of the workload once, so the mix of sizes is the
same in every block and only the contents (polynomials, recurrences,
states, command order) change with the seed.  ``pl`` is the imported
``period_lab`` package; nothing here imports it at module level, so set-up
timing can start before the import.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import subprocess
import sys
import threading

CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")


def run_process(argv, env=None, timeout=120.0) -> subprocess.CompletedProcess:
    """Run a command to completion, capturing its output.

    `subprocess.run(timeout=...)` waits for the exit by polling with sleeps
    of up to 50 ms, which would add up to 50 ms to a measured wall time.
    Here the wait blocks and a timer kills the process after `timeout`.
    """
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            out, err = proc.communicate()
        finally:
            watchdog.cancel()
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


# -- shared checks ------------------------------------------------------------------

def bm_period(pl, field, terms, k: int) -> int:
    """Period of a field sequence as ord(minimal polynomial from 2k terms)."""
    return pl.poly_order(pl.minimal_poly(field, terms, k)).order


def component_bm_periods(pl, rec, s0) -> list[int]:
    """Berlekamp-Massey periods of a product-ring sequence, per component."""
    seq = pl.generate(rec, s0, 2 * rec.k)
    return [bm_period(pl, c, [a[i] for a in seq], rec.k)
            for i, c in enumerate(rec.ctx.components)]


def x_has_order(pl, mod, n: int) -> bool:
    """x^n = 1 modulo `mod`, and x^(n/r) != 1 for every prime r | n."""
    x, one = pl.Poly.x(mod.field), pl.Poly.one(mod.field)
    if pl.powmod(x, n, mod) != one:
        return False
    return all(pl.powmod(x, n // r, mod) != one for r, _ in pl.factor_integer(n))


def walk_period_ok(pl, ctx, coeffs, s0, period: int) -> bool:
    """The state returns to s0 after `period` steps and after no proper
    divisor of it; states are jumped ahead by companion-matrix powers."""
    k, add, mul, zero = len(coeffs), ctx.add, ctx.mul, ctx.zero
    comp = [[zero] * k for _ in range(k)]
    for i in range(k):
        if i:
            comp[i][i - 1] = ctx.one
        comp[i][k - 1] = coeffs[i]

    def vec_mat(v, m):
        out = []
        for j in range(k):
            acc = zero
            for i in range(k):
                acc = add(acc, mul(v[i], m[i][j]))
            out.append(acc)
        return out

    def state_after(n):
        v, m = list(s0), comp
        while n:
            if n & 1:
                v = vec_mat(v, m)
            n >>= 1
            if n:
                m = [vec_mat(row, m) for row in m]
        return v

    start = list(s0)
    if state_after(period) != start:
        return False
    return all(state_after(period // r) != start for r, _ in pl.factor_integer(period))


def failures(wl, pl, done) -> list[str]:
    """The queries whose answer is an exception or fails its check."""
    out = []
    for query, answer in done:
        try:
            ok = not isinstance(answer, Exception) and bool(wl.check(pl, query, answer))
        except Exception as exc:  # a check that cannot read the answer fails it
            answer, ok = exc, False
        if not ok:
            out.append(f"{query!r} -> {answer!r}"[:500])
            print(f"FAILED {out[-1]}", file=sys.stderr)
    return out


# -- orders ---------------------------------------------------------------------------

class Orders:
    """poly_order(f) for random monic f over nine fields, q^d in [2^2, 2^60]."""

    name = "orders"
    in_process = True
    FIELDS = ((2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 4), (2, 8), (2, 12))
    MIN_SIZE, CEILING = 2 ** 2, 2 ** 60
    BRUTE_LIMIT = 2 ** 10  # q^d up to this is checked by walking powers of x
    TRACE_QUERIES = 216

    def setup(self, pl):
        fields = [pl.make_field(p, e) for p, e in self.FIELDS]
        # every (field, degree) with q^d in range: log-uniform sizes per field
        return [(F, d) for F in fields for d in range(1, 61)
                if self.MIN_SIZE <= F.q ** d <= self.CEILING]

    def describe(self, grid):
        return {"state_space_ceiling": self.CEILING, "block_size": len(grid),
                "fields": [F.q for F in dict.fromkeys(F for F, _ in grid)]}

    def block(self, pl, grid, rng):
        polys = [pl.Poly(F, tuple(rng.randrange(F.q) for _ in range(d)) + (1,))
                 for F, d in grid]
        rng.shuffle(polys)
        return polys

    def run(self, pl, f):
        return pl.poly_order(f)

    def check(self, pl, f, result) -> bool:
        """Brute force for small q^d; otherwise verify the ledger: the factors
        multiply back to f, each is irreducible, x has exactly the stated
        order modulo each, and the order is the lcm of e * p^t."""
        r = next(i for i, c in enumerate(f.coeffs) if c)
        g = pl.Poly(f.field, f.coeffs[r:])
        if g.degree == 0:
            return result.order == 1
        if f.field.q ** g.degree <= self.BRUTE_LIMIT:
            return pl.poly_order_bruteforce(f) == result.order
        F, p = f.field, f.field.p
        product, order = pl.Poly.one(F), 1
        for c in result.contributions:
            product = product * c.factor ** c.multiplicity
            t = 0
            while p ** t < c.multiplicity:
                t += 1
            if (c.char_exponent != t or c.contribution != c.base_order * p ** t
                    or not pl.is_irreducible(c.factor)
                    or not x_has_order(pl, c.factor, c.base_order)):
                return False
            order = math.lcm(order, c.contribution)
        return product == g and result.strip_exponent == r and order == result.order


# -- periods --------------------------------------------------------------------------

class Periods:
    """Sequence periods through the default user routes over fields, product
    rings and group algebras, with state spaces |R|^k in [4, 2^14]."""

    name = "periods"
    in_process = True
    FIELDS = ((2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 4), (2, 8), (2, 13))
    RINGS = ((2, 3), (2, 3, 5), (4, 5), (3, 7))
    ALGEBRAS = ((2, 3), (2, 5), (3, 2), (3, 4), (2, 4), (3, 3), (2, 6))  # last three: p | n
    # The walk's cost follows the random period, so the latency tail is
    # steep; a ceiling of 2^14 keeps enough queries in a run for a steady p90.
    MIN_SIZE, CEILING = 4, 2 ** 14
    TRACE_QUERIES = 156

    def setup(self, pl):
        ctxs = ([("field", pl.make_field(p, e)) for p, e in self.FIELDS]
                + [("ring", pl.make_product_ring(list(c))) for c in self.RINGS]
                + [("algebra", pl.make_group_algebra(p, n)) for p, n in self.ALGEBRAS])
        grid = []
        for kind, ctx in ctxs:
            size = ctx.q if kind == "field" else ctx.size
            grid += [(kind, ctx, k) for k in range(1, 17)
                     if self.MIN_SIZE <= size ** k <= self.CEILING]
        return grid

    def describe(self, grid):
        kinds = [kind for kind, _, _ in grid]
        return {"state_space_ceiling": self.CEILING, "block_size": len(grid),
                **{f"{kind}_queries_per_block": kinds.count(kind)
                   for kind in ("field", "ring", "algebra")}}

    @staticmethod
    def _element(rng, kind, ctx, unit=False):
        if kind == "field":
            return rng.randrange(1 if unit else 0, ctx.q)
        if kind == "ring":
            return tuple(rng.randrange(1 if unit else 0, c.q) for c in ctx.components)
        while True:
            a = tuple(rng.randrange(ctx.p) for _ in range(ctx.n))
            if not unit or ctx.is_unit(a):
                return a

    def block(self, pl, grid, rng):
        queries = []
        for kind, ctx, k in grid:
            coeffs = (self._element(rng, kind, ctx, unit=True),
                      *(self._element(rng, kind, ctx) for _ in range(k - 1)))
            s0 = tuple(self._element(rng, kind, ctx) for _ in range(k))
            queries.append((kind, ctx, coeffs, s0))
        rng.shuffle(queries)
        return queries

    def run(self, pl, query):
        kind, ctx, coeffs, s0 = query
        if kind == "field":
            return pl.SequenceRun(pl.Recurrence(ctx, coeffs), s0).period
        if kind == "ring":
            return pl.period_over_ring(pl.Recurrence(ctx, coeffs), s0)
        return pl.group_algebra_period(ctx, coeffs, s0)

    def check(self, pl, query, period) -> bool:
        kind, ctx, coeffs, s0 = query
        rec = pl.Recurrence(ctx, coeffs)
        if kind == "field":
            return bm_period(pl, ctx, pl.generate(rec, s0, 2 * rec.k), rec.k) == period
        if kind == "ring":
            return math.lcm(*component_bm_periods(pl, rec, s0)) == period
        if ctx.semisimple:  # CRT projection onto the component fields
            ring_rec = ctx.project_recurrence(rec)
            ring_s0 = tuple(ctx.project(s) for s in s0)
            return math.lcm(*component_bm_periods(pl, ring_rec, ring_s0)) == period
        return walk_period_ok(pl, ctx, rec.coeffs, s0, period)


# -- cli ------------------------------------------------------------------------------

class CliQuery:
    """One `period-lab ... --format json` command and the check of its payload."""

    __slots__ = ("argv", "check")

    def __init__(self, argv, check):
        self.argv, self.check = argv + ["--format", "json"], check

    def __repr__(self):
        return "period-lab " + " ".join(self.argv)


class Cli:
    """One period-lab command at a time from a fixed mix: three quarters
    light commands, one quarter heavy period-set questions.  Each command
    runs in a fresh process forked from a server that has imported the CLI
    (see child.py `serve`)."""

    name = "cli"
    in_process = False
    FIELDS = ((2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 4))
    RINGS = ("2,3,5", "2,5", "2^2,3", "2,3")
    ALGEBRAS = ((2, 3), (2, 5), (3, 2), (3, 4), (2, 7), (5, 2), (2, 4), (3, 3), (2, 6))
    # commands per round of each kind; the round is shuffled
    LIGHT = {"ord": 6, "simulate": 6, "minpoly": 5, "ring-period": 5,
             "period-set-all": 4, "algebra": 4}
    # The heavy commands, the same in every round: (kind, configuration,
    # copies).  p90 is the 4th-5th slowest command of a round.  Two copies of
    # the slowest command and four of the next put p90 in the middle of one
    # command's samples, not on the step between two commands, where it
    # would jump with noise.
    HEAVY = (("ring-period-set", ("2,5", 5), 2),  # about 0.5 s on a 2-vCPU Xeon VM
             ("period-set-bruteforce", (13, 3), 4),  # 13^3 polynomials, about 0.3 s
             ("ring-period-set", ("2,3", 6), 1),  # the rest 0.01-0.1 s each
             ("algebra-max-period", (3, 6, 1), 1),
             ("algebra-max-period", (2, 2, 4), 1),
             ("verify", "rings", 1))
    MIN_QUERIES = 100
    TRACE_QUERIES = 40  # one round

    def __init__(self):
        self.env = {k: v for k, v in os.environ.items() if k != "PERIOD_LAB_BUDGET"}
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self._memo: dict = {}

    def setup(self, pl):
        return {(p, e): pl.make_field(p, e) for p, e in self.FIELDS + ((2, 3), (3, 3))}

    def describe(self, fields):
        heavy = sum(copies for _, _, copies in self.HEAVY)
        return {"round_size": sum(self.LIGHT.values()) + heavy,
                "light_per_round": sum(self.LIGHT.values()), "heavy_per_round": heavy,
                "heavy": [f"{kind} {pick} x{copies}" for kind, pick, copies in self.HEAVY],
                "light_state_space_ceiling": 2 ** 12}

    def run(self, pl, query):
        """The command as a user runs it: `python -m period_lab.cli ...`."""
        proc = run_process([sys.executable, "-m", "period_lab.cli", *query.argv], self.env)
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
        return json.loads(proc.stdout)

    @contextlib.contextmanager
    def session(self):
        """A command server (child.py `serve`) for `run_timed`, stopped on exit."""
        self._server = subprocess.Popen([sys.executable, CHILD, "serve"], env=self.env,
                                        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            yield self
        finally:
            self._server.stdin.close()
            try:
                self._server.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self._server.kill()
                self._server.wait()

    def run_timed(self, query) -> tuple[dict, float, float]:
        """The command through the server, timed there from the call of the
        CLI's `main` to its return: (payload, calibrated s, wall s)."""
        server = self._server
        watchdog = threading.Timer(120.0, server.kill)
        watchdog.start()
        try:
            server.stdin.write(json.dumps(query.argv) + "\n")
            server.stdin.flush()
            line = server.stdout.readline()
        finally:
            watchdog.cancel()
        out = json.loads(line)
        if out["exit"] != 0:
            raise RuntimeError(f"exit {out['exit']}: {out.get('error', '')}")
        return json.loads(out["stdout"]), out["calibrated_s"], out["wall_s"]

    def check(self, pl, query, payload) -> bool:
        return payload.get("schema") == "period-lab/1" and query.check(payload)

    # -- the mix --------------------------------------------------------------------

    def block(self, pl, fields, rng):
        queries = []
        for kind, count in self.LIGHT.items():
            queries += [getattr(self, "_" + kind.replace("-", "_"))(pl, fields, rng)
                        for _ in range(count)]
        for kind, pick, copies in self.HEAVY:
            make = getattr(self, "_" + kind.replace("-", "_"))
            queries += [make(pl, fields, pick) for _ in range(copies)]
        rng.shuffle(queries)
        return queries

    def _memoized(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    @staticmethod
    def _spec(F):
        return str(F.p) if F.e == 1 else f"{F.p}^{F.e}"

    def _random_rec(self, pl, F, rng, k):
        coeffs = (rng.randrange(1, F.q), *(rng.randrange(F.q) for _ in range(k - 1)))
        return pl.Recurrence(F, coeffs), tuple(rng.randrange(F.q) for _ in range(k))

    def _field_and_degree(self, fields, rng, ceiling):
        F = fields[self.FIELDS[rng.randrange(len(self.FIELDS))]]
        return F, rng.randint(1, max(1, int(math.log(ceiling, F.q))))

    def _ord(self, pl, fields, rng):
        F, d = self._field_and_degree(fields, rng, 2 ** 24)
        f = pl.Poly(F, tuple(rng.randrange(F.q) for _ in range(d)) + (1,))
        text = pl.format_poly(f)
        return CliQuery(["ord", "--field", self._spec(F), "--poly", text],
                        lambda out: out["poly"] == text
                        and out["order"] == pl.poly_order(f).order)

    def _simulate(self, pl, fields, rng):
        F, k = self._field_and_degree(fields, rng, 2 ** 12)
        rec, s0 = self._random_rec(pl, F, rng, k)
        fmt = F.format_element
        terms = [fmt(t) for t in pl.generate(rec, s0, 10)]
        return CliQuery(
            ["simulate", "--field", self._spec(F), "--rec", ",".join(map(fmt, rec.coeffs)),
             "--init", ",".join(map(fmt, s0)), "--terms", "10", "--period"],
            lambda out: out["terms"] == terms
            and out["period"] == bm_period(pl, F, pl.generate(rec, s0, 2 * k), k))

    def _minpoly(self, pl, fields, rng):
        F, k = self._field_and_degree(fields, rng, 2 ** 16)
        k = min(k, 6)
        rec, s0 = self._random_rec(pl, F, rng, k)
        terms = pl.generate(rec, s0, 2 * k)
        return CliQuery(
            ["minpoly", "--field", self._spec(F), "--terms",
             ",".join(map(F.format_element, terms)), "--bound", str(k)],
            lambda out: out["minimal_poly"] == pl.format_poly(pl.minimal_poly(F, terms, k)))

    def _ring_period(self, pl, fields, rng):
        components = self.RINGS[rng.randrange(len(self.RINGS))]
        ring = pl.make_product_ring(components.split(","))
        k = rng.randint(1, int(math.log(2 ** 12, ring.size)))
        coeffs = (tuple(rng.randrange(1, c.q) for c in ring.components),
                  *(tuple(rng.randrange(c.q) for c in ring.components) for _ in range(k - 1)))
        s0 = tuple(tuple(rng.randrange(c.q) for c in ring.components) for _ in range(k))
        rec, fmt = pl.Recurrence(ring, coeffs), ring.format_element

        def check(out):
            parts = component_bm_periods(pl, rec, s0)
            return (out["component_periods"] == parts
                    and out["period"] == out["simulated"] == math.lcm(*parts))

        return CliQuery(
            ["ring", "period", "--components", components, "--rec",
             ",".join(map(fmt, coeffs)), "--init", ",".join(map(fmt, s0)), "--method", "both"],
            check)

    def _period_set_all(self, pl, fields, rng):
        small = [(F, k) for F in fields.values() for k in range(1, 5) if F.q ** k <= 256]
        F, k = small[rng.randrange(len(small))]
        closed = list(pl.period_set_closed_form(k, F.q))
        bound = list(pl.period_set_lower_bound(k, F.q))
        return CliQuery(
            ["period-set", "--field", self._spec(F), "--degree", str(k), "--method", "all"],
            lambda out: out["equal"] is True and out["sets"] == {
                "closed": closed, "bound": bound, "bruteforce": closed})

    def _algebra(self, pl, fields, rng):
        p, n = self.ALGEBRAS[rng.randrange(len(self.ALGEBRAS))]
        argv = ["algebra", "--p", str(p), "--n", str(n)]
        k = rng.randint(1, 2)
        if n % p and rng.random() < 0.5:  # semisimple: closed-form route
            argv += ["--max-period", "--degree", str(k)]

        def check(out):
            ga = pl.make_group_algebra(p, n)
            ok = (out["semisimple"] == ga.semisimple and out["factors"] == [
                {"poly": pl.format_poly(f, variable="t"), "multiplicity": m}
                for f, m in ga.factors])
            if "--max-period" in argv:
                ok = ok and out["max_period"] == pl.group_algebra_max_period(ga, k)
            return ok

        return CliQuery(argv, check)

    def _order_set(self, pl, F, k):
        """The degree-k period set: closed form for k <= 4, else enumeration."""
        if k <= 4:
            return list(pl.period_set_closed_form(k, F.q))
        return self._memoized(("order-set", F, k),
                              lambda: list(pl.order_set_bruteforce(F, k)))

    def _period_set_bruteforce(self, pl, fields, pick):
        q, k = pick
        p, e = pl.split_prime_power(q)
        F = pl.make_field(p, e)
        return CliQuery(
            ["period-set", "--field", self._spec(F), "--degree", str(k), "--method", "bruteforce"],
            lambda out: out["period_set"] == self._order_set(pl, F, k))

    def _ring_period_set(self, pl, fields, pick):
        components, k = pick
        ring = pl.make_product_ring(components.split(","))

        def check(out):
            sets = [self._order_set(pl, c, k) for c in ring.components]
            closure = {1}
            for s in sets:
                closure = {math.lcm(a, b) for a in closure for b in s}
            return out["component_period_sets"] == sets and out["period_set"] == sorted(closure)

        return CliQuery(["ring", "period-set", "--components", components, "--degree", str(k)],
                        check)

    def _algebra_max_period(self, pl, fields, pick):
        p, n, k = pick
        return CliQuery(
            ["algebra", "--p", str(p), "--n", str(n), "--max-period", "--degree", str(k)],
            lambda out: out["semisimple"] is False and out["max_period"] == self._memoized(
                ("max", p, n, k),
                lambda: pl.group_algebra_max_period(pl.make_group_algebra(p, n), k)))

    def _verify(self, pl, fields, scope):
        def check(out):
            report = self._memoized(("verify", scope), lambda: pl.run_verify(scope))
            return out["passed"] is True and report.passed and [
                (c["name"], c["expected"], c["computed"], c["pass"]) for c in out["checks"]
            ] == [(c.name, c.expected, c.computed, c.passed) for c in report.checks]

        return CliQuery(["verify", "--scope", scope], check)


WORKLOADS = {"orders": Orders, "periods": Periods, "cli": Cli}
