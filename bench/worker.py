"""One workload in one fresh process: the closed loop of timed queries.

    python3 bench/worker.py --workload NAME --seed N --seconds S [--trace]

One client, one thread: the next query starts when the previous one has
returned.  Untraced, the worker answers the whole query list once and then
keeps going round it, in order, until the timed query time reaches
``--seconds``.  Traced, it answers the list once with the layer wrappers of
``tracer`` installed and writes the spans to ``--spans``.

Every query runs as ``qgl.cli.run(argv)`` with stdout captured, so each
builds a fresh ``Algebra`` and starts with cold ``pbwcore`` caches, as a CLI
user does.  Module-level caches such as ``scalars._CYCLO_CACHE`` persist
across the queries of the process.  A query over ``QUERY_BUDGET_S`` is
stopped by ``SIGALRM`` and fails; the loop goes on without it.  Before
each query the worker times the host-speed reference of ``reference.py``,
outside the query's timed span.

The worker checks exit codes and that every repeated answer is byte-identical
to the first; the oracles run in the parent (``run.py``), so that the peak
memory reported here is the program's alone.  The result is one JSON line on
stdout.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from qgl import cli  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402

QUERY_BUDGET_S = 10.0  # the slowest query takes about 1.5 s on a 2-core VM


class QueryTimeout(Exception):
    """A query ran past its time budget."""


class Budget:
    """SIGALRM-based time limit for the main thread."""

    def __init__(self, seconds):
        self.seconds = seconds
        self.armed = False
        signal.signal(signal.SIGALRM, self._expire)

    def _expire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise QueryTimeout()

    @contextlib.contextmanager
    def limit(self):
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, self.seconds)
        try:
            yield
        finally:
            self.armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)


def answer(budget, argv):
    """(exit code, latency in s, stdout, error) of one query.  The code is
    None on a timeout, and 1 with the exception as error when ``run`` raises,
    as ``qgl`` itself would exit."""
    out = io.StringIO()
    code = None
    error = ""
    start = time.perf_counter()
    try:
        with budget.limit(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            code = cli.run(argv)
    except QueryTimeout:
        pass
    except Exception as e:  # a traceback in the CLI; the loop goes on
        code = 1
        error = "%s: %s" % (type(e).__name__, e)
    return code, time.perf_counter() - start, out.getvalue(), error


def peak_rss_mb():
    """Peak resident memory of this process less its file-backed pages, in
    MB.  Those pages hold the code of the interpreter and its libraries, and
    how many of them count as resident depends on the host's page cache: it
    moved the total by 5% between runs of the same code."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open("/proc/self/status", "r", encoding="ascii") as fh:
        file_kb = next(int(line.split()[1]) for line in fh if line.startswith("RssFile:"))
    return (peak_kb - file_kb) / 1024.0


def closed_loop(queries, budget, seconds, deadline, before_query=None, read_speed=None):
    """Answer every query once, then go round the list until ``seconds`` of
    query time are spent.  Queries that failed once are not asked again.
    With ``read_speed``, a reading of the host's speed is taken before every
    query (``reference.py``); it is not query time.

    Returns a dict with the samples per query as (pass, start, latency), the
    readings as (time, seconds), the first stdout of each query that exited
    0 (None otherwise), the number of answers attempted and the failures as
    (kind, argv, detail)."""
    n = len(queries)
    samples = [[] for _ in queries]
    readings = []
    first = [None] * n
    failed = [False] * n
    failures = []
    attempted = 0
    spent = 0.0
    k = 0
    while k < n or (spent < seconds and not all(failed)):
        idx = k % n
        k += 1
        q = queries[idx]
        if failed[idx]:
            continue
        if time.perf_counter() > deadline:
            if k > n:
                break  # the first pass is done; stop taking samples
            attempted += 1
            failed[idx] = True
            failures.append(("deadline", q.argv, "run deadline passed before the query"))
            continue
        if before_query is not None:
            before_query(idx)
        if read_speed is not None:
            readings.append((time.perf_counter(), read_speed()))
        attempted += 1
        started = time.perf_counter()
        code, dt, out, error = answer(budget, q.argv)
        spent += dt
        samples[idx].append(((k - 1) // n, started, dt))
        if code is None:
            failed[idx] = True
            failures.append(("timeout", q.argv, "over %.0f s" % budget.seconds))
        elif code != 0:
            failed[idx] = True
            failures.append(("exit", q.argv, ("exit code %d %s" % (code, error)).strip()))
        elif k <= n:
            first[idx] = out
        elif out != first[idx]:
            failed[idx] = True
            failures.append(("oracle", q.argv, "answer changed between passes"))
    return {
        "samples": samples,
        "readings": readings,
        "answers": first,
        "attempted": attempted,
        "failures": failures,
        "query_s": spent,
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spans", help="file for the spans of a traced run")
    p.add_argument("--deadline", type=float, default=100.0,
                   help="wall seconds after which no query starts")
    args = p.parse_args(argv)
    deadline = time.perf_counter() + args.deadline
    queries = workloads.generate(args.workload, args.seed)
    budget = Budget(QUERY_BUDGET_S)
    if args.trace:
        import tracer

        t = tracer.Tracer()
        t.install()
        try:
            out = closed_loop(queries, budget, 0.0, deadline, before_query=t.set_query,
                              read_speed=reference.reading)
        finally:
            t.uninstall()
        out["layers"] = t.metrics()
        out["spans"] = len(t.spans)
        if args.spans:
            t.write_spans(args.spans)
    else:
        out = closed_loop(queries, budget, args.seconds, deadline,
                          read_speed=reference.reading)
    out["peak_rss_mb"] = peak_rss_mb()
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
