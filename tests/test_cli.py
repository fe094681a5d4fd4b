"""Command-line interface: subcommand behavior, exit codes, determinism,
and byte-exact agreement with the golden corpus."""

import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest

from qgl import repmod
from qgl.cli import run
from qgl.pbwcore import Algebra
from test_repmod import CHARACTER_BOXES, dominant_box

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def capture(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def test_nf_example():
    code, out, _ = capture(["nf", "--shape", "1,1", "E[1,2]*F[1,2]"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    coeffs = [t["coeff"] for t in doc["element"]["terms"]]
    assert "-1" in coeffs  # the -F E monomial
    assert any(t["k"] != [0, 0] for t in doc["element"]["terms"])  # the K part


def test_typical_example():
    code, out, _ = capture(["typical", "--shape", "1,1", "--lambda", "0,0"])
    assert code == 0
    assert json.loads(out) == {"schema": 1, "typical": False, "P": 0}


def test_exit_code_syntax_error():
    code, out, err = capture(["nf", "--shape", "1,1", "E[1,2]*"])
    assert code == 2 and out == "" and "syntax error" in err


def test_exit_code_domain_error():
    code, out, err = capture(["typical", "--shape", "1,1", "--lambda", "0"])
    assert code == 3 and "domain error" in err
    code, _, _ = capture(["nf", "--shape", "1,1", "E[1,3]"])
    assert code == 3


def test_exit_code_usage_error():
    code, _, _ = capture(["no-such-command"])
    assert code == 2
    code, _, _ = capture(["nf", "E[1,2]"])  # missing --shape
    assert code == 2
    code, out, err = capture(["selftest", "--shape", "1,1", "--trials", "-3"])
    assert code == 2 and out == "" and len(err.splitlines()) == 1


def test_selftest_passes():
    code, out, _ = capture(["selftest", "--shape", "2,1", "--seed", "7", "--trials", "10"])
    assert code == 0
    doc = json.loads(out)
    assert doc["failed"] == 0 and doc["passed"] > 0


def test_determinism():
    argv = ["kac", "--shape", "2,1", "--lambda", "2,0,0"]
    _, out1, _ = capture(argv)
    _, out2, _ = capture(argv)
    assert out1 == out2


def test_emit_text():
    code, out, _ = capture(["mul", "--shape", "1,1", "--emit", "text", "E[1,2]", "E[1,2]"])
    assert code == 0 and out.strip() == "0"
    code, out, _ = capture(["counit", "--shape", "1,1", "--emit", "text", "K[1]"])
    assert code == 0 and out.strip() == "1"


def test_config_file(tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("shape = 1,1\nseed = 3\n")
    code, out, _ = capture(["typical", "--config", str(cfg), "--lambda", "1,0"])
    assert code == 0
    assert json.loads(out)["typical"] is True
    cfg.write_text("bogus = 1\n")
    code, _, _ = capture(["typical", "--config", str(cfg), "--lambda", "1,0"])
    assert code == 2


def test_config_errors_are_usage_errors(tmp_path):
    code, out, err = capture(
        ["typical", "--config", str(tmp_path / "missing"), "--lambda", "1,0"]
    )
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    cfg = tmp_path / "cfg"
    # truncation_depth and max_degree were keys once and are unknown now
    for line in ("truncation_depth = two", "seed = 1.5", "max_degree = 3",
                 "truncation_depth = -3", "truncation_depth = 1"):
        cfg.write_text("shape = 1,1\n%s\n" % line)
        code, out, err = capture(["typical", "--config", str(cfg), "--lambda", "1,0"])
        assert code == 2 and out == "" and len(err.splitlines()) == 1, line
    cfg.write_text("truncation_depth = -3\n")
    code, out, err = capture(["kac", "--shape", "2,1", "--lambda=1,0,0", "--config", str(cfg)])
    assert code == 2 and out == "" and len(err.splitlines()) == 1


def test_straightening_budget_is_a_domain_error(monkeypatch):
    from qgl import pbwcore

    monkeypatch.setattr(pbwcore, "_MAX_STEPS", 3)
    code, out, err = capture(["nf", "--shape", "2,1", "E[1,3]*F[1,3]*E[1,2]*F[1,2]"])
    assert code == 3 and out == "" and "domain error" in err


def test_deep_nesting_is_a_syntax_error():
    code, out, err = capture(["nf", "--shape", "1,1", "(" * 400 + "E[1,2]" + ")" * 400])
    assert code == 2 and out == "" and len(err.splitlines()) == 1 and "syntax error" in err
    code, _, _ = capture(["nf", "--shape", "1,1", "(" * 100 + "E[1,2]" + ")" * 100])
    assert code == 0


def test_defaults_do_not_leak_between_runs():
    code, out, _ = capture(["selftest", "--shape", "1,1", "--seed", "5", "--trials", "1"])
    assert code == 0 and json.loads(out)["seed"] == 5
    code, out, _ = capture(["selftest", "--shape", "1,1", "--trials", "1"])
    assert code == 0 and json.loads(out)["seed"] == 0


def test_explicit_seed_zero_wins_over_the_config(tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("seed = 7\n")
    code, out, _ = capture(["selftest", "--shape", "1,1", "--seed", "0", "--trials", "2",
                            "--config", str(cfg)])
    assert code == 0 and json.loads(out)["seed"] == 0
    code, out, _ = capture(["selftest", "--shape", "1,1", "--trials", "2", "--config", str(cfg)])
    assert code == 0 and json.loads(out)["seed"] == 7


def test_smallgroup_of_large_order_is_fast():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "qgl.cli", "smallgroup", "--shape", "3,3", "-l", "99"],
        capture_output=True, text=True, timeout=10, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["counts"]["upper"] == 99 ** 6 * 2 ** 9


def test_smallgroup_counts_flag_changes_nothing():
    # --counts is parsed and never read: the counts are always printed
    for argv in (["smallgroup", "--shape", "1,1", "-l", "3"],
                 ["smallgroup", "--shape", "2,2", "-l", "5", "--emit", "text"]):
        plain = capture(argv)
        assert plain[0] == 0 and json.loads(plain[1])["counts"]
        assert capture(argv[:1] + ["--counts"] + argv[1:]) == plain
        assert capture(argv + ["--counts"]) == plain


def test_antipode_of_a_composite_power_is_fast():
    # S acts on E[1,3]^14 one factor E[1,3] at a time; through the 2^14
    # simple-generator words of the power it took 148 s
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "qgl.cli", "antipode", "--shape", "3,1", "E[1,3]^14"],
        capture_output=True, text=True, timeout=10, env=env,
    )
    assert proc.returncode == 0
    assert len(json.loads(proc.stdout)["element"]["terms"]) == 15


def test_antipode_of_a_long_root_vector_has_a_budget():
    # S(E[1,j]) has 2^(j-2) terms: E[1,32] ran past 20 s before the span
    # j - i was checked against hopf._MAX_ANTIPODE_SPAN, before any term
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "qgl.cli", "antipode", "--shape", "31,1", "E[1,32]"],
        capture_output=True, text=True, timeout=5, env=env,
    )
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("domain error") and "budget of span 13" in proc.stderr
    proc = subprocess.run(  # at the budget: 4096 terms
        [sys.executable, "-m", "qgl.cli", "antipode", "--shape", "13,1", "E[1,14]"],
        capture_output=True, text=True, timeout=30, env=env,
    )
    assert proc.returncode == 0
    assert len(json.loads(proc.stdout)["element"]["terms"]) == 4096


def test_power_of_a_many_term_element_is_fast():
    # x^n is n repeated products: square and multiply took 19.4 s here, on
    # products of two high-degree monomials a repeated product never meets
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "qgl.cli", "nf", "--shape", "3,1",
         "(E[1,3]*K[1]^-1+E[1,2]*E[2,3])^14"],
        capture_output=True, timeout=10, env=env,
    )
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == (
        "5f23ba1d8e3fc5a269f884ca94f84dcf0588d4062c44706d7cd9394cde26e787")


def test_power_of_a_many_term_element_has_a_budget():
    # (E[1,2]+1)^2000 took 20 s and ^3000 ran past 30 s; the exponent of a
    # power computed as repeated products is checked before any product
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for expr in ("(E[1,2]+1)^3000", "(E[1,2]+1)^201", "(K[1]+K[2])^100000"):
        proc = subprocess.run([sys.executable, "-m", "qgl.cli", "nf", "--shape", "2,1", expr],
                              capture_output=True, text=True, timeout=10, env=env)
        assert (proc.returncode, proc.stdout) == (3, ""), expr
        assert proc.stderr.startswith("domain error: power ") and "budget of 200" in proc.stderr
    proc = subprocess.run([sys.executable, "-m", "qgl.cli", "nf", "--shape", "2,1",
                           "(E[1,2]+1)^200"], capture_output=True, text=True, timeout=10, env=env)
    assert proc.returncode == 0  # at the budget
    assert len(json.loads(proc.stdout)["element"]["terms"]) == 201
    # a scalar times one atom, and zero, have closed forms and no such budget
    for expr in ("(2*K[1])^3000", "E[1,2]^3000", "(E[1,2]-E[1,2])^3000"):
        assert capture(["nf", "--shape", "2,1", expr])[0] == 0, expr


def test_high_divided_power_is_fast():
    # E^(100) divides by [100]!, a Laurent polynomial of 4951 coefficients
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "qgl.cli", "nf", "--shape", "2,1", "E[1,2]^(100)"],
        capture_output=True, text=True, timeout=3, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["element"]["terms"]


def test_kac_tensor_at_the_budget_is_fast():
    # the product of two Kac characters of dimension 512; building the
    # tensor module of dimension 262144 first took 14 s and 1 GB
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "qgl.cli", "tensor", "--shape", "2,2",
         "--lambda1=31,0,0,0", "--lambda2=31,0,0,0", "--module", "kac"],
        capture_output=True, timeout=10, env=env,
    )
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == (
        "74c0f4746e8459d5f4b82ca1665111004684909a538f9eec0c4875b26e35ef83")


OVER_BUDGET = [
    # z of the wrong length for the shape
    ["decompose-z", "--shape", "2,1", "--z", "1,2", "--l", "3"],
    ["decompose-z", "--shape", "1,1", "--z", "1,2,3,4", "--l", "3"],
    # Kac dimension 4 * 10^11: no pattern may be enumerated
    ["kac", "--shape", "2,1", "--lambda=99999999999,0,0"],
    ["simple", "--shape", "2,1", "--lambda=99999999999,0,0"],
    # the same at q = eta, where L0 is rebased before K(lambda) is induced,
    # and a Kac dimension of 2404 whose weight is under the q-degree budget,
    # so that only the Kac budget stops it before 601 patterns
    ["simple", "--shape", "2,1", "--lambda=99999999999,0,0", "--at-root", "3"],
    ["simple", "--shape", "2,1", "--lambda=600,0,0", "--at-root", "3"],
    # a root order whose cyclotomic polynomial would not fit in memory
    ["simple", "--shape", "1,1", "--lambda=3,1", "--at-root", "99999999999"],
    # a rank m + n above rootdata._MAX_RANK, checked before any index list
    ["typical", "--shape", "1,99999999999", "--lambda=0"],
    # [n]! above n = pbwcore._MAX_DIVIDED, for a divided power or for the
    # integral coordinates of an ordinary power
    ["nf", "--shape", "2,1", "E[1,2]^(600)"],
    ["specialize", "--shape", "2,1", "-l", "3", "E[1,2]^600"],
    # torus brackets [K;c;t] above t = pbwcore._MAX_BRACKET, built directly or
    # as the K-exponent coordinates of K_{alpha_1}^10 and ^20
    ["nf", "Kb[1;0;20]", "--shape", "1,1"],
    ["nf", "Kb[1;0;30]", "--shape", "1,1"],
    ["specialize", "K[1]^10", "--shape", "1,1", "-l", "3"],
    ["specialize", "K[1]^20", "--shape", "1,1", "-l", "3"],
    # a selftest trial count above cli._MAX_TRIALS, checked before any trial
    ["selftest", "--shape", "2,1", "--trials", "100000000"],
]


def _argv_ids(argvs):
    """The first three words of each argv, or all of it where they repeat
    an earlier argv's."""
    seen, ids = set(), []
    for argv in argvs:
        short = " ".join(argv[:3])
        ids.append(" ".join(argv) if short in seen else short)
        seen.add(short)
    return ids


@pytest.mark.parametrize("argv", OVER_BUDGET, ids=_argv_ids(OVER_BUDGET))
def test_bad_sizes_exit_cleanly_and_fast(argv):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "qgl.cli"] + argv,
        capture_output=True, text=True, timeout=5, env=env,
    )
    assert proc.returncode == 3 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("domain error")



# integers that become q-exponents, over scalars._MAX_Q_DEGREE: each took
# from 0.5 s (lambda = 3000) to past 200 s (lambda = 100000) before the budget,
# and moving K^(10^6, 0) past a root vector took 0.4 s and 64 MB
def test_composite_coproduct_powers_are_fast():
    # the coproduct of a composite root vector is built once, from those of
    # the two shorter ones, and then multiplies like a generator's; acting
    # word by word through its simple-generator words took 20.5 s on the
    # first argv here and 3.1 s on each power (stdout SHA-256 taken then);
    # the first two timeouts are under that, the third guards against a hang
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for argv, timeout, digest in [
        (["delta", "--shape", "9,1", "E[1,10]"], 2,
         "55281480719f92faa2a3d4e82839b38c25176e3be832c368a781c3e5d0aea6a0"),
        (["delta", "--shape", "4,1", "E[1,4]^10"], 2,
         "5d24cef6d70cb9eba7fff68fec5dcb8177a806aaa963731361a498089dad28e7"),
        (["delta", "--shape", "3,1", "E[1,3]^20"], 10,
         "6d00075bd76318899b8abb8ee03ddf569036b71bcf8620f9175133292e3414e7"),
    ]:
        proc = subprocess.run([sys.executable, "-m", "qgl.cli"] + argv,
                              capture_output=True, timeout=timeout, env=env)
        assert proc.returncode == 0, argv
        assert hashlib.sha256(proc.stdout).hexdigest() == digest, argv


MAP_POWERS_OVER_BUDGET = [
    # the image of X^n is n products when X's image is not a scalar times one
    # atom, so n is held to the budget of 200; each exited 0 before, or ran
    # past a 40 s timeout (delta ^201 and ^100000, braid -i 2 ^201 and
    # ^3000), or exited 3 at q-degree 1002 after 3.2 s (antipode ^3000)
    ["delta", "--shape", "2,1", "E[1,2]^100000"],
    ["delta", "--shape", "2,1", "E[1,2]^201"],
    ["antipode", "--shape", "2,1", "E[1,2]^201"],
    ["antipode", "--shape", "2,1", "F[1,2]^201"],
    ["antipode", "--shape", "2,1", "E[1,2]^3000"],
    ["braid", "--shape", "3,1", "-i", "1", "E[1,2]^201"],
    ["braid", "--shape", "3,1", "-i", "2", "E[1,2]^201"],
    ["braid", "--shape", "3,1", "-i", "2", "E[1,2]^3000"],
]


@pytest.mark.parametrize("argv", MAP_POWERS_OVER_BUDGET, ids=_argv_ids(MAP_POWERS_OVER_BUDGET))
def test_map_powers_over_the_budget_exit_cleanly(argv):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-m", "qgl.cli"] + argv,
                          capture_output=True, text=True, timeout=5, env=env)
    assert (proc.returncode, proc.stdout) == (3, "")
    n = argv[-1].split("^")[1]
    assert proc.stderr == ("domain error: power %s is over the budget of 200 for an element "
                           "that is not a scalar times one atom\n" % n)


def test_map_powers_within_the_budget_are_answered():
    # at the budget the bytes are those n factors printed when they were
    # applied word by word (stdout SHA-256 taken then); a closed-form image
    # has no budget (T_1 fixes E[3,4] of gl(4|1): 2.4 s as 100000 products,
    # 0.04 s in closed form)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for argv, digest in [
        (["antipode", "--shape", "2,1", "E[1,2]^200"],
         "f924b9b11e9666f9741fb86f002483dfbbcd7e9e0b44d6e778cd3efa346accde"),
        (["antipode", "--shape", "2,1", "F[1,2]^200"],
         "441d275477a85e4413e784618e28384fc5ab3aed10fa2ee7916786984dfaf582"),
        (["braid", "--shape", "3,1", "-i", "1", "E[1,2]^200"],
         "a88c960917ce68881530e6da413fb8ad4ccab519c043c0d1f3598411a1f447c9"),
        (["braid", "--shape", "4,1", "-i", "1", "E[3,4]^100000"],
         "9be516f9ca859d55477a82dde0d0fda4674c3eb14f0fc05a770e8957eaaaea41"),
    ]:
        proc = subprocess.run([sys.executable, "-m", "qgl.cli"] + argv,
                              capture_output=True, timeout=5, env=env)
        assert proc.returncode == 0, argv
        assert hashlib.sha256(proc.stdout).hexdigest() == digest, argv


def test_torus_products_keep_their_q_degree_message():
    # K^mu times a monomial is a closed form; it stops at the first atom
    # over the budget in the rewrite's order, with the line straightening
    # gave: from the right the last E first, from the left the first F
    for shape, expr, degree in [
        ("1,1", "E[1,2]*K[1]^1000000", 1000000),
        ("1,1", "K[1]^1000000*F[1,2]", 1000000),
        ("2,1", "E[1,2]^2*E[1,3]*K[1]^1001", 1001),
        ("2,1", "K[1]^1001*(F[1,3]*F[1,2]^2)", 1001),
    ]:
        assert capture(["nf", "--shape", shape, expr]) == (
            3, "", "domain error: a torus monomial passing a root vector has q-degree %d, "
            "over the budget of 1000\n" % degree), expr


Q_DEGREE_PROBES = [
    ["kac", "--shape", "1,1", "--lambda=100000,0"],
    ["kac", "--shape", "1,1", "--lambda=3000,0"],
    ["simple", "--shape", "2,1", "--lambda=0,0,-5000"],
    ["nf", "--shape", "1,1", "q^1000000"],
    ["nf", "--shape", "1,1", "q^-1000000"],
    ["nf", "--shape", "1,1", "Kb[1;1000000;1]"],
    ["nf", "--shape", "1,1", "E[1,2]*K[1]^1000000"],
    ["nf", "--shape", "1,1", "K[1]^1000000*F[1,2]"],
]


@pytest.mark.parametrize("argv", Q_DEGREE_PROBES, ids=lambda a: " ".join(a[::3]))
def test_q_degree_over_budget_exits_within_a_second(argv):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "qgl.cli"] + argv,
        capture_output=True, text=True, timeout=1, env=env,
    )
    assert proc.returncode == 3 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert "over the budget of 1000" in proc.stderr


def test_q_degree_at_the_budget_is_answered():
    for argv in (["nf", "--shape", "1,1", "q^1000"], ["nf", "--shape", "1,1", "Kb[1;-1000;1]"],
                 ["nf", "--shape", "1,1", "E[1,2]*K[1]^1000"],
                 ["kac", "--shape", "1,1", "--lambda=1000,-1000"]):
        code, out, err = capture(argv)
        assert code == 0 and err == "" and json.loads(out)["schema"] == 1, argv


# integers over errors._MAX_INT_DIGITS, which ended in a traceback (exit 1)
# at Python's 4300-digit str/int limit: a literal exits 2 at its offset, a
# coefficient, a smallgroup count, P or a power's exponent exits 3, and a
# power c^n of a rational c != +-1 with |n| over 13288 exits 3 before it is
# built (9^99999999 ran past 30 s)
INT_DIGIT_PROBES = {
    "nf 9^99999999": (["nf", "--shape", "2,1", "9^99999999"], 3),
    "nf exponent of 5000 digits":
        (["nf", "--shape", "2,1", "(E[1,2]^%s)^%s" % ("9" * 2500, "9" * 2500)], 3),
    "nf 9^9999": (["nf", "--shape", "2,1", "9^9999"], 3),
    "nf 5000-digit literal": (["nf", "--shape", "2,1", "2*" + "7" * 5000 + "*E[1,2]"], 2),
    "smallgroup 4000-digit l": (["smallgroup", "--shape", "1,1", "-l", "1" + "0" * 3998 + "1"], 3),
    "typical 3000-digit weights":
        (["typical", "--shape", "2,2", "--lambda=" + ",".join(d + "0" * 2999 for d in "1234")], 3),
}


@pytest.mark.parametrize("argv,code", INT_DIGIT_PROBES.values(), ids=INT_DIGIT_PROBES)
def test_integers_over_the_digit_budget_exit_cleanly(argv, code):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "qgl.cli"] + argv,
        capture_output=True, text=True, timeout=5, env=env,
    )
    assert proc.returncode == code and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("syntax error at offset 2" if code == 2 else "domain error")


def test_integer_at_the_digit_budget_is_answered():
    code, out, err = capture(["nf", "--shape", "2,1", "9^4000"])  # 3817 digits
    assert code == 0 and err == "" and len(out) == 3957
    assert json.loads(out)["element"]["terms"][0]["coeff"] == str(9 ** 4000)


def test_large_shape_exits_cleanly_under_a_memory_limit():
    # the index lists of gl(1500|1500) alone outgrow a 2 GB address space
    resource = pytest.importorskip("resource")
    limit = 2 << 30

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "qgl.cli", "nf", "--shape", "1500,1500", "1"],
        capture_output=True, text=True, timeout=10, env=env, preexec_fn=cap_memory,
    )
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("domain error") and len(proc.stderr.splitlines()) == 1


def test_divided_power_over_budget_is_fast():
    # [600]! alone takes longer than 30 s to build; the budget is checked first
    start = time.perf_counter()
    code, out, err = capture(["nf", "--shape", "2,1", "E[1,2]^(600)"])
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == "" and err.startswith("domain error")
    code, _, _ = capture(["nf", "--shape", "2,1", "E[1,2]^(200)"])  # at the budget
    assert code == 0


# The qgl modules a fresh interpreter holds after answering one command:
# each handler imports only the layers it calls.  The parser (expr) is
# loaded for every command; see the cli docstring.
_ROOT = {"cli", "errors", "rootdata", "expr"}
_ELEMENTS = _ROOT | {"scalars", "pbwcore"}
_MODULES = _ELEMENTS | {"linalg", "repmod"}
LAYERS = [
    (["typical", "--shape", "1,1", "--lambda=0,0"], _ROOT),
    (["decompose-z", "--shape", "2,1", "--z", "7,5,2", "--l", "3"], _ROOT),
    (["nf", "--shape", "2,1", "--emit-ast", "E[1,2]"], _ROOT),
    (["nf", "--shape", "2,1", "E[1,2]*F[1,2]"], _ELEMENTS),
    (["mul", "--shape", "1,1", "E[1,2]", "F[1,2]"], _ELEMENTS),
    (["delta", "--shape", "1,1", "E[1,2]"], _ELEMENTS | {"hopf"}),
    (["antipode", "--shape", "1,1", "E[1,2]"], _ELEMENTS | {"hopf"}),
    (["counit", "--shape", "1,1", "E[1,2]"], _ELEMENTS | {"hopf"}),
    (["omega", "--shape", "1,1", "E[1,2]"], _ELEMENTS),
    (["braid", "--shape", "2,1", "-i", "1", "E[2,3]"], _ELEMENTS | {"braid"}),
    (["braid", "--shape", "2,1", "-i", "1", "--inverse", "E[2,3]"], _ELEMENTS | {"braid"}),
    (["selftest", "--shape", "1,1", "--trials", "2"], _ELEMENTS | {"relations"}),
    (["kac", "--shape", "2,1", "--lambda=1,0,0"], _MODULES),
    (["tensor", "--shape", "1,1", "--lambda1", "1,0", "--lambda2", "0,0"], _MODULES),
    (["tensor", "--shape", "2,1", "--lambda1=1,0,0", "--lambda2=0,0,0", "--module", "simple"],
     _MODULES),
    (["simple", "--shape", "2,1", "--lambda=1,0,0"], _MODULES),
    (["char", "--shape", "2,1", "--lambda=1,0,0", "--module", "simple"], _MODULES),
    (["simple", "--shape", "2,1", "--lambda=1,0,0", "--at-root", "3"],
     _MODULES | {"rootofunity"}),
    # z'' != 0: the Frobenius factorization, which needs no coproduct
    (["simple", "--shape", "2,1", "--lambda=3,0,0", "--at-root", "3"],
     _MODULES | {"rootofunity"}),
    # the Kac character does not depend on q: the root order is only checked
    (["char", "--shape", "2,1", "--lambda=1,0,0", "--module", "kac", "--at-root", "3"],
     _MODULES),
    (["specialize", "--shape", "1,1", "-l", "3", "E[1,2]"], _ELEMENTS | {"rootofunity"}),
    (["classical-check", "--shape", "1,1"], _ELEMENTS | {"rootofunity"}),
    (["smallgroup", "--shape", "1,1", "-l", "3"], _ROOT | {"scalars", "rootofunity"}),
]


@pytest.mark.parametrize("argv,layers", LAYERS, ids=[" ".join(a) for a, _ in LAYERS])
def test_each_command_loads_only_its_layers(argv, layers):
    code = ("import sys\n"
            "from qgl.cli import run\n"
            "assert run(sys.argv[1:]) == 0\n"
            "print(' '.join(sorted(m[4:] for m in sys.modules if m.startswith('qgl.'))))")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code] + argv,
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.splitlines()[-1].split()) == layers


def test_emit_ast_parses_without_evaluating():
    # a quotient by a non-scalar has a parse tree but no value
    code, out, _ = capture(["nf", "--shape", "2,1", "--emit-ast", "E[1,2]/E[1,2]"])
    assert code == 0
    (item,) = json.loads(out)["ast"]["sum"]
    assert [f["op"] for f in item["term"]["product"]] == ["*", "/"]
    # the value of E^(400) would divide by [400]!, 79 801 coefficients
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "qgl.cli", "nf", "--shape", "2,1", "--emit-ast", "E[1,2]^(400)"],
        capture_output=True, text=True, timeout=5, env=env,
    )
    assert proc.returncode == 0
    (item,) = json.loads(proc.stdout)["ast"]["sum"]
    assert item["term"]["product"] == [
        {"op": "*", "factor": {"divided_power": {"gen": "E", "indices": [1, 2]}, "n": 400}}
    ]


def test_emit_ast_pins_every_node_kind():
    # both signs, '/', juxtaposition, ^-n, ^(n), an int, q and every generator
    code, out, _ = capture(["nf", "--shape", "2,1", "--emit-ast",
                            "-2*E[1,2]^(2) F[2,3]/3 + q^-2*K[1]*Kinv[2] - Ka[1]*Kb[2;-1;2]"])
    assert code == 0
    assert out == (
        '{"ast": {"sum": [{"sign": -1, "term": {"product": [{"factor": {"scalar": 2}, "op": "*"}, '
        '{"factor": {"divided_power": {"gen": "E", "indices": [1, 2]}, "n": 2}, "op": "*"}, '
        '{"factor": {"gen": "F", "indices": [2, 3]}, "op": "*"}, '
        '{"factor": {"scalar": 3}, "op": "/"}]}}, '
        '{"sign": 1, "term": {"product": [{"factor": {"n": -2, "power": {"scalar": "q"}}, "op": "*"}, '
        '{"factor": {"gen": "K", "indices": [1]}, "op": "*"}, '
        '{"factor": {"gen": "Kinv", "indices": [2]}, "op": "*"}]}}, '
        '{"sign": -1, "term": {"product": [{"factor": {"gen": "Ka", "indices": [1]}, "op": "*"}, '
        '{"factor": {"gen": "Kb", "indices": [2, -1, 2]}, "op": "*"}]}}]}, "schema": 1}\n'
    )


def test_braid_and_omega_roundtrip():
    code, out, _ = capture(
        ["braid", "--shape", "2,1", "-i", "1", "--emit", "text", "E[2,3]"]
    )
    assert code == 0 and out.strip() == "-E[1,3]"
    code, out, _ = capture(["omega", "--shape", "1,1", "--emit", "text", "E[1,2]"])
    assert code == 0 and out.strip() == "F[1,2]"


def test_decompose_z():
    code, out, _ = capture(
        ["decompose-z", "--shape", "2,1", "--z", "7,5,2", "--l", "3"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["z_restricted"] == [1, 5, 2] and doc["z_frobenius"] == [2, 0, 0]


# -- characters from weights ---------------------------------------------------


def _csv(xs):
    return ",".join(map(str, xs))


def _char(doc):
    return {tuple(c["z"]): c["mult"] for c in doc["character"]}


def _tensor_pairs(shape):
    """Six seeded pairs of the box's weights whose tensor module has
    dimension at most 1024."""
    alg = Algebra(shape)
    lams = dominant_box(shape)
    dims = {lam: repmod.kac_dimension_oracle(alg, lam) for lam in lams}
    pairs = [(a, b) for a in lams for b in lams if dims[a] * dims[b] <= 1024]
    return random.Random(str(shape)).sample(pairs, 6)


@pytest.mark.parametrize("module", ["kac", "simple"])
@pytest.mark.parametrize("shape", sorted(CHARACTER_BOXES), ids=str)
def test_tensor_command_matches_the_tensor_module(shape, module):
    # the command prints ch M * ch N; the tensor module is its reference
    alg = Algebra(shape)

    def factor(lam):
        mod = repmod.kac_module(alg, lam)
        return mod if module == "kac" else repmod.simple_head(mod)

    for l1, l2 in _tensor_pairs(shape):
        t = repmod.tensor_module(factor(l1), factor(l2))
        code, out, err = capture(["tensor", "--shape", _csv(shape), "--lambda1=" + _csv(l1),
                                  "--lambda2=" + _csv(l2), "--module", module])
        assert code == 0, err
        doc = json.loads(out)
        assert (doc["dim"], _char(doc)) == (t.dim, t.character()), (l1, l2)


@pytest.mark.parametrize("shape", sorted(CHARACTER_BOXES), ids=str)
def test_kac_character_at_a_root_is_the_generic_one(shape):
    alg = Algebra(shape)
    for lam in dominant_box(shape):
        argv = ["char", "--shape", _csv(shape), "--lambda=" + _csv(lam), "--module", "kac"]
        generic, at_root = capture(argv), capture(argv + ["--at-root", "3"])
        assert generic == at_root, lam
        code, out, _ = at_root
        assert code == 0 and _char(json.loads(out)) == repmod.kac_character(alg, lam)


# (weight on gl(2|1), the stderr line of kac_module): not dominant, the wrong
# length, and a Kac dimension of 4 * 129 = 516 over repmod._MAX_KAC_DIM, at
# an atypical and at a typical weight
KAC_REFUSALS = [
    ("0,1,0", "domain error: weight (0, 1, 0) is not dominant for the even part\n"),
    ("0,0", "domain error: weight length does not match shape\n"),
    ("128,0,0", "domain error: Kac dimension 516 is over the budget of 512\n"),
    ("128,0,1", "domain error: Kac dimension 516 is over the budget of 512\n"),
]


@pytest.mark.parametrize("lam,line", KAC_REFUSALS, ids=[lam for lam, _ in KAC_REFUSALS])
def test_kac_refusals_keep_their_exit_and_message(lam, line):
    sh = ["--shape", "2,1"]
    argvs = [["kac"] + sh + ["--lambda=" + lam]]
    argvs += [["char"] + sh + ["--lambda=" + lam, "--module", "kac"] + root
              for root in ([], ["--at-root", "3"])]
    argvs += [["tensor"] + sh + lams + ["--module", module]
              for module in ("kac", "simple")
              for lams in (["--lambda1=" + lam, "--lambda2=0,0,0"],
                           ["--lambda1=1,0,0", "--lambda2=" + lam])]
    argvs += [["simple"] + sh + ["--lambda=" + lam],
              ["char"] + sh + ["--lambda=" + lam, "--module", "simple"]]
    for argv in argvs:
        assert capture(argv) == (3, "", line), argv


def test_typical_weight_over_the_kac_budget_is_refused():
    # a typical simple character is the Kac character, but the Kac budget
    # is still checked first, with the console script's exit code and line
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "qgl.cli", "simple", "--shape", "2,1", "--lambda=128,0,1"],
        capture_output=True, text=True, timeout=10, env=env,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        3, "", "domain error: Kac dimension 516 is over the budget of 512\n")


# (argv after "--shape", the stderr line) of weights refused at q = eta.
# Every check of the full construction runs on the whole weight, in its
# order, before the Frobenius factorization, so each refusal has the exit
# code and the line of the full construction: a Kac dimension of 4 * 129
# over the budget and a q-degree over the budget, both with z'' != 0, a
# weight that is not dominant, bad orders, and a weight of the wrong length.
AT_ROOT_REFUSALS = [
    (["2,1", "--lambda=128,0,0", "--at-root", "5"],
     "domain error: Kac dimension 516 is over the budget of 512\n"),
    (["1,2", "--lambda=0,0,-128", "--at-root", "5"],
     "domain error: Kac dimension 516 is over the budget of 512\n"),
    (["2,1", "--lambda=1005,1001,0", "--at-root", "3"],
     "domain error: the highest weight (1005, 1001, 0) has q-degree 1005, "
     "over the budget of 1000\n"),
    (["1,2", "--lambda=0,1005,1001", "--at-root", "3"],
     "domain error: the highest weight (0, 1005, 1001) has q-degree 1005, "
     "over the budget of 1000\n"),
    (["2,1", "--lambda=0,3,0", "--at-root", "3"],
     "domain error: z has no dominant associated weight\n"),
    (["1,2", "--lambda=0,0,3", "--at-root", "3"],
     "domain error: z has no dominant associated weight\n"),
    (["2,1", "--lambda=6,0,0", "--at-root", "4"],
     "domain error: root order must be an odd integer >= 3, got 4\n"),
    (["2,1", "--lambda=6,0,0", "--at-root", "1"],
     "domain error: root order must be an odd integer >= 3, got 1\n"),
    (["1,2", "--lambda=0,0,-6", "--at-root", "-5"],
     "domain error: root order must be an odd integer >= 3, got -5\n"),
    (["2,1", "--lambda=6,0", "--at-root", "3"],
     "domain error: weight length does not match shape\n"),
]


@pytest.mark.parametrize("argv,line", AT_ROOT_REFUSALS,
                         ids=[" ".join(a) for a, _ in AT_ROOT_REFUSALS])
def test_at_root_refusals_keep_their_exit_and_message(argv, line):
    for cmd in (["simple"], ["char", "--module", "simple"]):
        assert capture(cmd + ["--shape"] + argv) == (3, "", line), cmd


# simple --at-root 5 probes with z'' != 0: the size and SHA-256 of the
# stdout the full construction printed, in 2.1 s, 2.2 s, 596 s and 697 s on
# a 2-core host; the factorization answers each in well under a second there
AT_ROOT_PROBES = [
    (["2,1", "--lambda=30,0,0"], 256,
     "efe8c8ee04aaf330716b847bf8bf8d3d02a32878e65e3cbbfea9aacb0524faf4"),
    (["1,2", "--lambda=0,0,-30"], 273,
     "8781496a562e8b89baeb28abbf86c48b8468f45dc486ac7d025e0f4ea5c37fc7"),
    (["2,1", "--lambda=63,0,0"], 2879,
     "4c50691ae85a3a1deb26a4c5a45bc507d850ea5a8cc268465ff23431d28374a8"),
    (["1,2", "--lambda=0,0,-63"], 3135,
     "ed5e33b92568cf5d994e937a6f3fb9a9b1b03b6db48c46f686b85164dc397a9a"),
]


@pytest.mark.parametrize("argv,size,digest", AT_ROOT_PROBES,
                         ids=[" ".join(a) for a, _, _ in AT_ROOT_PROBES])
def test_frobenius_probes_print_the_full_paths_bytes(argv, size, digest):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "qgl.cli", "simple", "--shape"] + argv
                          + ["--at-root", "5"], capture_output=True, timeout=60, env=env)
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert (len(proc.stdout), hashlib.sha256(proc.stdout).hexdigest()) == (size, digest)
    assert elapsed < 10


# simple --at-root 5 probes whose L(z') keeps an unconstrained coordinate
# whole and is over the q-degree budget, so that every coordinate is split:
# the size and SHA-256 of their stdout.  On a 2-core host the full
# construction ran past 60 s on the first and printed the same bytes in
# 2.8 s on the second; the split answers each in about 0.15 s
SPLIT_PROBES = [
    (["1,2", "--lambda=1000,100,0"], 764,
     "f97ba98fffb5b1a9ed346f57336d25a44181f1758778baf508184c88e9cc57d4"),
    (["1,3", "--lambda=1000,5,0,0"], 146,
     "0546bc1a14f08e25f01946bb66dedde02c1b75048d615329fcf58ef2ff76afdc"),
]


@pytest.mark.parametrize("argv,size,digest", SPLIT_PROBES,
                         ids=[" ".join(a) for a, _, _ in SPLIT_PROBES])
def test_probes_split_at_every_coordinate_answer_fast(argv, size, digest):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "qgl.cli", "simple", "--shape"] + argv
                          + ["--at-root", "5"], capture_output=True, timeout=60, env=env)
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert (len(proc.stdout), hashlib.sha256(proc.stdout).hexdigest()) == (size, digest)
    assert elapsed < 5


@pytest.mark.parametrize("shape", sorted(CHARACTER_BOXES), ids=str)
def test_simple_commands_print_the_full_paths_bytes(shape, monkeypatch):
    # simple characters over Q(q) induce only the raising half of K(lam); the
    # whole module and its head must print the same bytes
    argvs = []
    for l1, l2 in _tensor_pairs(shape):
        argvs += [["simple", "--shape", _csv(shape), "--lambda=" + _csv(l1)],
                  ["char", "--shape", _csv(shape), "--lambda=" + _csv(l2), "--module", "simple"],
                  ["tensor", "--shape", _csv(shape), "--lambda1=" + _csv(l1),
                   "--lambda2=" + _csv(l2), "--module", "simple"]]
    fast = [capture(argv) for argv in argvs]
    monkeypatch.setattr(repmod, "simple_character",
                        lambda alg, lam: repmod.simple_head(repmod.kac_module(alg, lam)).character())
    for argv, got in zip(argvs, fast):
        assert got[0] == 0 and got == capture(argv), argv


@pytest.mark.parametrize("module", ["kac", "simple"])
@pytest.mark.parametrize("order", ["4", "-7"])
def test_char_checks_the_root_order_of_every_module(module, order):
    # a Kac character does not depend on q, but its root order is still checked
    code, out, err = capture(["char", "--shape", "2,1", "--lambda=1,0,0", "--module", module,
                              "--at-root", order])
    assert (code, out) == (3, "")
    assert err == "domain error: root order must be an odd integer >= 3, got %s\n" % order


GOLDEN = {
    "corpus/normalforms/ef_gl11.json": ["nf", "--shape", "1,1", "E[1,2]*F[1,2]"],
    "corpus/normalforms/straighten_gl21.json": ["nf", "--shape", "2,1", "E[2,3]*E[1,2]"],
    "corpus/normalforms/kpast_gl11.json": ["nf", "--shape", "1,1", "K[1]*E[1,2]"],
    "corpus/normalforms/divided_gl21.json": ["nf", "--shape", "2,1", "E[1,2]^(2)*E[1,2]"],
    "corpus/characters/kac_gl21_200.json": ["kac", "--shape", "2,1", "--lambda", "2,0,0"],
    "corpus/characters/simple_gl21_000.json": ["simple", "--shape", "2,1", "--lambda", "0,0,0"],
    "corpus/characters/simple_root3_gl21_200.json": [
        "simple", "--shape", "2,1", "--lambda", "2,0,0", "--at-root", "3",
    ],
    "corpus/characters/kac_gl22_102m1.json": ["kac", "--shape", "2,2", "--lambda=1,0,2,-1"],
    "corpus/characters/simple_gl13_021m1.json": ["simple", "--shape", "1,3", "--lambda=0,2,1,-1"],
    "corpus/characters/simple_root3_gl31_210m1.json": [
        "simple", "--shape", "3,1", "--lambda=2,1,0,-1", "--at-root", "3",
    ],
    "corpus/characters/tensor_gl11.json": [
        "tensor", "--shape", "1,1", "--lambda1", "1,0", "--lambda2", "0,0",
    ],
    "corpus/relations/classical_gl11.json": ["classical-check", "--shape", "1,1"],
    "corpus/relations/classical_gl21.json": ["classical-check", "--shape", "2,1"],
    "corpus/relations/smallgroup_gl11_l3.json": [
        "smallgroup", "--shape", "1,1", "--counts", "-l", "3",
    ],
    "corpus/relations/decompose_gl21.json": [
        "decompose-z", "--shape", "2,1", "--z", "7,5,2", "--l", "3",
    ],
}


@pytest.mark.parametrize("relpath", sorted(GOLDEN))
def test_golden_corpus(relpath):
    code, out, _ = capture(GOLDEN[relpath])
    assert code == 0
    with open(os.path.join(ROOT, relpath), "r", encoding="utf-8") as fh:
        assert out == fh.read(), relpath
