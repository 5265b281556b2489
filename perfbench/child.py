"""Work the benchmark runs in fresh interpreters.

    child.py setup <workload>                     time import + set-up; print calibrated and raw s
    child.py pass <workload> <seed> <0|1> <out>   one fixed, seeded pass; print a summary
    child.py serve                                time `period-lab` commands read from stdin
    child.py cli <out> <query-id> <argv...>       one traced `period-lab` command

A pass runs the workload's first TRACE_QUERIES queries, traced (1) or not
(0).  Traced passes keep their spans in memory and write them to <out>
when the pass ends.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
from pathlib import Path
from time import perf_counter

import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _factor_integer():
    return sys.modules["period_lab.intfactor"].factor_integer


def _cache_delta(before, after) -> list[int]:
    return [after.hits - before.hits, after.misses - before.misses]


def setup(name: str) -> None:
    wl = workloads.WORKLOADS[name]()

    def work():
        import period_lab as pl

        if wl.in_process:
            wl.setup(pl)
        else:  # a command-line user's set-up is the CLI's import
            import period_lab.cli  # noqa: F401

    print(*speed.calibrated(work))


def run_pass(name: str, seed: int, traced: bool, out: str) -> None:
    wl = workloads.WORKLOADS[name]()
    import period_lab as pl

    tracer = tracing.Tracer()
    fi = _factor_integer()
    cache_before = fi.cache_info()
    if traced:
        tracer.install()
    grid = wl.setup(pl)
    tracer.enabled = False  # query generation is not part of any layer's work
    rng = random.Random(seed)
    queries = []
    while len(queries) < wl.TRACE_QUERIES:
        queries += wl.block(pl, grid, rng)
    queries = queries[:wl.TRACE_QUERIES]
    tracer.enabled = True
    answers = []
    start = perf_counter()
    for i, query in enumerate(queries):
        tracer.query_id = i
        try:
            answers.append(wl.run(pl, query))
        except Exception as exc:  # a failed query is counted, not fatal
            answers.append(exc)
    wall = perf_counter() - start
    tracer.uninstall()
    cache = _cache_delta(cache_before, fi.cache_info())
    failed = len(workloads.failures(wl, pl, zip(queries, answers)))
    if traced:
        Path(out).write_text(json.dumps({"spans": tracer.spans}))
    print(json.dumps({"wall_s": wall, "queries": len(queries), "failed": failed,
                      "layers": tracing.aggregate(tracer.spans),
                      "work": tracer.work, "cache": cache}))


def _timed_command(cli, argv: list[str]) -> dict:
    """`cli.main(argv)` timed between speed probes, its output captured."""
    code, buf = [], io.StringIO()

    def work():
        with contextlib.redirect_stdout(buf):
            code.append(cli.main(argv))

    calibrated, wall = speed.calibrated(work)
    return {"exit": code[0], "stdout": buf.getvalue(), "calibrated_s": calibrated, "wall_s": wall}


def serve() -> None:
    """Answer one JSON argv per input line with one JSON result line.

    period_lab.cli is imported once; each command then runs in a child
    forked from this process, which has never run a command, so every
    command starts with the library's caches empty, as a fresh
    `period-lab` process would, without paying interpreter start and
    import again.
    """
    import period_lab.cli as cli

    for line in sys.stdin:
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # the command
            os.close(read_end)
            try:
                out = _timed_command(cli, json.loads(line))
            except BaseException as exc:  # reported to the caller as a failure
                out = {"exit": -1, "stdout": "", "error": repr(exc)[:500]}
            with os.fdopen(write_end, "w") as fh:
                fh.write(json.dumps(out))
            os._exit(0)
        os.close(write_end)
        with os.fdopen(read_end) as fh:
            result = fh.read()
        os.waitpid(pid, 0)
        print(result or json.dumps({"exit": -1, "stdout": "", "error": "no result"}),
              flush=True)


def run_cli(out: str, query_id: int, argv: list[str]) -> int:
    import period_lab.cli as cli

    tracer = tracing.Tracer()
    fi = _factor_integer()
    cache_before = fi.cache_info()
    tracer.install()
    tracer.query_id = query_id
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        Path(out).write_text(json.dumps({
            "spans": tracer.spans, "work": tracer.work,
            "cache": _cache_delta(cache_before, fi.cache_info())}))


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        setup(rest[0])
    elif mode == "pass":
        run_pass(rest[0], int(rest[1]), rest[2] == "1", rest[3])
    elif mode == "serve":
        serve()
    elif mode == "cli":
        sys.exit(run_cli(rest[0], int(rest[1]), rest[2:]))
    else:
        sys.exit(f"unknown mode {mode!r}")
