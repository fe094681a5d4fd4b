"""qgl benchmark: seeded CLI query workloads, end to end and layer by layer.

    python3 bench/run.py --workload elements|modules|roots --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``, so nothing is built or installed.  The run has one client and one
thread:

1. the golden gate: the argvs of ``GOLDEN`` in ``tests/test_cli.py`` must
   print exactly the files under ``corpus/``;
2. with ``--trace 0``, ``setup_s``: the median over fresh interpreters of
   importing ``qgl.cli`` and answering one trivial query;
3. the workload in a fresh process (``worker.py``): a closed loop over the
   seeded query list for ``--seconds`` of query time, with a reading of the
   host's speed before every query;
4. every first answer is checked by its oracle (``workloads.py``), outside
   the timed spans and outside the worker;
5. with ``--trace 1``, one more fresh process answers the list once with
   every layer wrapped (``tracer.py``); the spans go to ``.bench_out/``.

Every reported time is in reference seconds: the measured time scaled by the
host's speed at that moment, as ``reference.py`` reads it, so that the
numbers do not move when the shared host slows down.  The lines before the
JSON give the raw times too.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The lines before it say the same
for a reader, with ``failed_ratio``.  A failure of the gate, a wrong exit
code or an oracle mismatch makes ``correct`` false; a query over its time
budget counts as failed.

The deterministic work counts of ``counts.json`` come from
``python3 bench/worker.py --workload W --seed 1 --seconds 0 --trace`` with
``PYTHONHASHSEED=0``, as the traced run of this script makes them.
"""

import argparse
import ast
import bisect
import contextlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import reference  # noqa: E402

SETUP_RUNS = 15
SETUP_QUERY = ["typical", "--shape", "1,1", "--lambda=0,0"]
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
RUN_BUDGET_S = 170.0  # the whole run, so that it ends within 180 s
TRACED_PASS_S = 60.0  # wall limit of the traced pass
READING_WINDOW_S = 0.5  # host-speed readings this close to a sample scale it

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def fail(message):
    sys.stderr.write("bench: %s\n" % message)
    sys.exit(2)


def golden_gate():
    """(number of golden argvs, corpus paths whose output differs)."""
    from qgl import cli

    test_cli = os.path.join(ROOT, "tests", "test_cli.py")
    with open(test_cli, "r", encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    golden = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "GOLDEN" for t in node.targets)
    )
    bad = []
    for relpath, argv in sorted(golden.items()):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(argv)
        with open(os.path.join(ROOT, relpath), "r", encoding="utf-8") as fh:
            if code != 0 or buf.getvalue() != fh.read():
                bad.append(relpath)
    return len(golden), bad


SETUP_CODE = """
import sys
sys.path.insert(0, %(bench)r)
import reference
for _ in range(3):
    reference.kernel()
ref = [reference.reading() for _ in range(5)]
import time
t0 = time.perf_counter()
import contextlib, io
sys.path.insert(0, %(src)r)
import qgl.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = qgl.cli.run(%(query)r)
t = time.perf_counter() - t0
ref += [reference.reading() for _ in range(5)]
print(code, t, sum(ref) / len(ref))
"""


def setup_seconds():
    """(setup_s, raw median): the median over fresh interpreters of import
    plus one trivial query, each scaled by the host-speed readings its
    interpreter took around it (``reference.py``)."""
    code = SETUP_CODE % {"bench": HERE, "src": SRC, "query": SETUP_QUERY}
    scaled, raw = [], []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60, cwd=ROOT)
        if proc.returncode != 0 or proc.stdout.split()[:1] != ["0"]:
            fail("set-up query failed: %s" % proc.stderr.strip())
        t, ref = (float(x) for x in proc.stdout.split()[1:3])
        scaled.append(t * reference.NOMINAL_S / ref)
        raw.append(t)
    return statistics.median(scaled), statistics.median(raw)


def run_worker(workload, seed, seconds, deadline, spans=None):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--deadline", str(deadline)]
    if spans:
        os.makedirs(OUT_DIR, exist_ok=True)
        cmd += ["--trace", "--spans", spans]
    # a fixed hash seed makes set iteration, and so the work counts, repeat
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=env,
                              timeout=deadline + 20)
    except subprocess.TimeoutExpired:
        fail("worker did not end within %.0f s" % (deadline + 20))
    if proc.returncode != 0:
        fail("worker failed:\n%s" % proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_answers(queries, answers):
    """Failures (kind, argv, detail) of the oracles on the first answers."""
    import worker
    import workloads
    from qgl.errors import DomainError, ExprSyntaxError

    budget = worker.Budget(worker.QUERY_BUDGET_S)
    ctx = workloads.Context()
    failures = []
    for q, out in zip(queries, answers):
        if out is None:
            continue  # the worker already counted it as failed
        try:
            with budget.limit(), contextlib.redirect_stderr(io.StringIO()):
                q.check(ctx, out)
        except workloads.OracleMismatch as e:
            failures.append(("oracle", q.argv, str(e)))
        except worker.QueryTimeout:
            failures.append(("timeout", q.argv, "oracle over %.0f s" % budget.seconds))
        except (ValueError, KeyError, TypeError, IndexError, DomainError,
                ExprSyntaxError) as e:
            # a malformed answer breaks its oracle
            failures.append(("oracle", q.argv, "%s: %s" % (type(e).__name__, e)))
    return failures


def _betacf(a, b, x):
    """The continued fraction of the incomplete beta function (modified
    Lentz; Numerical Recipes, 2nd ed., section 6.4)."""
    tiny = 1e-300

    def clamp(v):
        return tiny if abs(v) < tiny else v

    c, d = 1.0, 1.0 / clamp(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, 400):
        for aa in (m * (b - m) * x / ((a - 1.0 + 2 * m) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 1.0 + 2 * m))):
            d = 1.0 / clamp(1.0 + aa * d)
            c = clamp(1.0 + aa / c)
            h *= d * c
        if abs(d * c - 1.0) < 1e-14:
            break
    return h


def _betainc(a, b, x):
    """The regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log(1.0 - x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def quantile(values, p):
    """The trimmed Harrell-Davis estimate of the p-quantile (Akinshin,
    "Trimmed Harrell-Davis quantile estimator based on the highest density
    interval of width 1/sqrt(n)", 2022): a mean of the order statistics near
    rank p*n, weighted by a beta distribution cut to its densest interval of
    width 1/sqrt(n).  It moves less than the middle order statistic when the
    seed swaps the queries near that rank, and unlike the untrimmed
    estimator it takes nothing from the dear queries far above it."""
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    width = 1.0 / math.sqrt(n)

    def log_density(x):
        if not 0.0 < x < 1.0:
            return -math.inf
        return (a - 1.0) * math.log(x) + (b - 1.0) * math.log(1.0 - x)

    # the densest interval has the same density at both ends
    mode = (a - 1.0) / (a + b - 2.0)
    lo, hi = max(0.0, mode - width), min(mode, 1.0 - width)
    for _ in range(100):
        mid = (lo + hi) / 2.0
        if log_density(mid) < log_density(mid + width):
            lo = mid
        else:
            hi = mid
    left = min(max(lo, 0.0), 1.0 - width)
    right = left + width
    total = _betainc(a, b, right) - _betainc(a, b, left)
    value = 0.0
    for i, x in enumerate(xs):
        start, end = max(i / n, left), min((i + 1) / n, right)
        if end > start:
            value += (_betainc(a, b, end) - _betainc(a, b, start)) * x
    return value / total


def tail(latencies):
    """(percentile, value, samples beyond): the highest percentile of the
    ladder with at least ten samples beyond it."""
    n = len(latencies)
    ordered = sorted(latencies)
    for p in TAIL_PERCENTILES:
        beyond = n - int(n * p / 100.0 + 0.5)
        if beyond >= 10:
            return p, ordered[n - beyond - 1], beyond
    return 50.0, statistics.median(ordered), n // 2


def scaled_latencies(res):
    """Each query's latency in reference seconds, and its raw latency.

    A sample is scaled by NOMINAL_S over the mean of the host-speed readings
    taken within READING_WINDOW_S of it; the readings are taken between the
    queries, so a long query takes the mean of those around it.  A query's
    latency is the median of its samples after the first pass, which warms
    the module-level caches; of the first pass when there is no other."""
    readings = sorted(res["readings"])
    times = [t for t, _ in readings]
    prefix = [0.0]
    for _, r in readings:
        prefix.append(prefix[-1] + r)

    def host(start, end):
        lo = bisect.bisect_left(times, start - READING_WINDOW_S)
        hi = bisect.bisect_right(times, end + READING_WINDOW_S)
        if hi == lo:  # no reading that close: the nearest one
            lo = max(0, min(lo, len(times) - 1))
            hi = lo + 1
        return (prefix[hi] - prefix[lo]) / (hi - lo)

    scaled, raw = [], []
    for ts in res["samples"]:
        if not ts:
            continue
        warm = [s for s in ts if s[0] > 0] or ts
        scaled.append(statistics.median(
            dt * reference.NOMINAL_S / host(start, start + dt) for _, start, dt in warm))
        raw.append(statistics.median(dt for _, _, dt in warm))
    return scaled, raw


def end_to_end(res):
    """The timed metrics of an untraced worker result, and a note on them.

    The host runs 1.3-1.9x slower for minutes at a time, so the latencies
    are in reference seconds (``scaled_latencies``).  ``wall_s`` is the sum
    of the latencies, the time to answer the whole list once; the median
    (``quantile``) and the tail are over the queries of the list.  The note
    gives the same figures in raw seconds, and the host's speed over the
    run as a share of the nominal speed of ``reference.py``."""
    lat, raw = scaled_latencies(res)
    p, value, beyond = tail(lat)
    metrics = {
        "wall_s": sum(lat),
        "latency_p50_ms": quantile(lat, 0.5) * 1e3,
        "latency_tail_ms": value * 1e3,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    speed = sorted(reference.NOMINAL_S / r for _, r in res["readings"])
    note = ("latency_tail_ms is p%g over %d queries (%d beyond); %d answers in %.1f s "
            "of query time\nraw: wall %.4g s, p50 %.4g ms, tail %.4g ms; host speed over "
            "%d readings: median %.3f, quartiles %.3f-%.3f" % (
                p, len(lat), beyond, sum(len(ts) for ts in res["samples"]), res["query_s"],
                sum(raw), quantile(raw, 0.5) * 1e3, tail(raw)[1] * 1e3, len(speed),
                statistics.median(speed), speed[len(speed) // 4],
                speed[3 * len(speed) // 4]))
    return metrics, note


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    started = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "qgl", "cli.py")):
        fail("no qgl sources under %s; run from the root of a qgl checkout" % SRC)
    sys.path.insert(0, SRC)
    import tracer
    import workloads

    if args.workload not in workloads.NAMES:
        fail("unknown workload %r; choose from %s" % (args.workload, ", ".join(workloads.NAMES)))
    queries = workloads.generate(args.workload, args.seed)

    golden, bad = golden_gate()
    print("golden gate: %d/%d corpus files byte-identical" % (golden - len(bad), golden))
    for path in bad:
        print("  mismatch: %s" % path)

    units = dict(END_TO_END)
    metrics = {}
    if not args.trace:
        metrics["setup_s"], raw_setup = setup_seconds()
        print("setup: raw median %.4g s over %d interpreters" % (raw_setup, SETUP_RUNS))

    def left():
        return RUN_BUDGET_S - (time.perf_counter() - started)

    res = run_worker(args.workload, args.seed, args.seconds,
                     min(args.seconds + 60.0, left() - TRACED_PASS_S - 25.0))
    failures = res["failures"] + check_answers(queries, res["answers"])
    e2e, note = end_to_end(res)
    attempted = res["attempted"]
    if args.trace:
        spans = os.path.join(OUT_DIR, "spans-%s-%d.jsonl" % (args.workload, args.seed))
        traced = run_worker(args.workload, args.seed, 0, min(TRACED_PASS_S, left() - 25.0),
                            spans=spans)
        attempted += traced["attempted"]
        failures += traced["failures"]
        for q, a, b in zip(queries, res["answers"], traced["answers"]):
            if a is not None and b is not None and a != b:
                failures.append(("oracle", q.argv, "traced answer differs"))
        units = dict(tracer.METRICS, trace_overhead_ratio="ratio")
        metrics.update(traced["layers"])
        metrics["trace_overhead_ratio"] = sum(scaled_latencies(traced)[0]) / e2e["wall_s"]
        print("traced pass: %d spans in %s" % (traced["spans"], os.path.relpath(spans, ROOT)))
    else:
        metrics.update(e2e)
        print(note)

    for kind, qargv, detail in failures:
        print("FAILED (%s) %s: %s" % (kind, " ".join(qargv), detail))
    correct = not bad and not any(kind in ("exit", "oracle") for kind, _, _ in failures)
    for name in units:
        print("%-36s %14.6g %s" % (name, metrics[name], units[name]))
    print("%-36s %14.6g %s" % ("failed_ratio", len(failures) / attempted, "ratio"))
    print("workload %s seed %d: %d answers attempted, %d failed, %.1f s" % (
        args.workload, args.seed, attempted, len(failures), time.perf_counter() - started))
    report = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
