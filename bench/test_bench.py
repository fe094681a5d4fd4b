"""Tests of the benchmark itself: seeded inputs, clean queries, metric names,
an unwrapped program when tracing is off and repeatable work counts.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import json
import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
    SPEC = json.load(fh)


def qgl_objects():
    """{(owner name, attribute): object} for every function-like attribute of
    the qgl modules and of the classes they define."""
    out = {}
    for mod in tracer.MODULES:
        for name, val in vars(mod).items():
            if callable(val):
                out[(mod.__name__, name)] = val
            if isinstance(val, type) and val.__module__ == mod.__name__:
                for attr, member in vars(val).items():
                    if callable(member) or isinstance(member, (classmethod, staticmethod)):
                        out[(mod.__name__ + "." + name, attr)] = member
    return out


def argvs(name, seed):
    return [q.argv for q in workloads.generate(name, seed)]


def one_pass(queries):
    budget = worker.Budget(worker.QUERY_BUDGET_S)
    return worker.closed_loop(queries, budget, 0.0, time.perf_counter() + 600)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_seed_fixes_the_queries(name):
    assert argvs(name, 1) == argvs(name, 1)
    assert argvs(name, 1) != argvs(name, 2)


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_query_exits_0_and_passes_its_oracle(name):
    queries = workloads.generate(name, 1)
    res = one_pass(queries)
    assert res["failures"] == []
    assert res["attempted"] == len(queries)
    assert run.check_answers(queries, res["answers"]) == []


def test_a_wrong_answer_fails_its_oracle():
    queries = workloads.generate("modules", 1)[:3]
    answers = one_pass(queries)["answers"]
    broken = [a.replace('"dim": ', '"dim": 1') for a in answers]
    assert [f[0] for f in run.check_answers(queries, broken)] == ["oracle"] * 3


def test_latencies_scale_with_the_host_speed():
    nominal = run.reference.NOMINAL_S
    # one query, its cold first pass, then two passes on a host at half
    # speed around t = 10 and at full speed around t = 20
    res = {
        "samples": [[(0, 0.0, 9.0), (1, 10.0, 0.2), (2, 20.0, 0.1)]],
        "readings": [(9.9, 2 * nominal), (10.3, 2 * nominal), (19.9, nominal)],
    }
    scaled, raw = run.scaled_latencies(res)
    assert scaled == [pytest.approx(0.1)]
    assert raw == [pytest.approx(0.15)]


def run_bench(trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "elements",
         "--seed", "3", "--seconds", "0.01", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_the_spec(trace, section):
    report = run_bench(trace)
    assert report["correct"] is True and report["failed"] == 0
    assert report["attempted"] >= 1
    spec = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in report["metrics"].items()} == spec


def test_tracing_off_leaves_every_function_original():
    queries = workloads.generate("elements", 1)[:5]
    before = qgl_objects()
    one_pass(queries)
    assert qgl_objects() == before

    t = tracer.Tracer()
    t.install()
    try:
        during = qgl_objects()
        one_pass(queries)
    finally:
        t.uninstall()
    changed = {k for k in before if during[k] is not before[k]}
    assert ("qgl.repmod", "rref") in changed and ("qgl.cli", "parse_element") in changed
    assert t.calls["cli.run"] == 5
    after = qgl_objects()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_counts_repeat_for_a_seed():
    def counts():
        layers = run.run_worker("roots", 1, 0, 120.0, spans=os.devnull)["layers"]
        return {k: layers[k] for k in tracer.DETERMINISTIC}

    first = counts()
    assert all(first[k] > 0 for k in tracer.DETERMINISTIC)
    assert counts() == first
