"""Seeded query lists for the benchmark workloads, and the oracles that check
every answer along a different code path than the one that produced it.

A workload is a fixed list of ``Query`` objects built from the seed alone.
The program sees only the argv of each query.  The strata (command, shape
and size of every slot) are fixed per workload; the seed chooses what fills
each slot.  That keeps the work per list close across seeds, so the
end-to-end numbers of two seeds can be compared.

Weights are always passed as ``--lambda=<csv>``: ``--lambda -1,0`` is read by
argparse as a flag and exits 2.
"""

import itertools
import json
import random
from fractions import Fraction

from qgl import cli
from qgl.braid import braid_t, braid_t_inv
from qgl.expr import parse_element
from qgl.hopf import Hopf, TensorElement
from qgl.pbwcore import Algebra
from qgl.rootdata import (
    Shape,
    frobenius_decompose,
    in_Xplus,
    is_typical,
    weight_to_z,
    weyl_dim_even,
    z_to_weight,
)

NAMES = ("elements", "modules", "roots")


class OracleMismatch(Exception):
    """An answer disagrees with its oracle."""


class Query:
    """One CLI invocation and the oracle that checks its stdout."""

    __slots__ = ("argv", "check")

    def __init__(self, argv, check):
        self.argv = argv
        self.check = check


def generate(name, seed):
    """The query list of workload ``name`` for ``seed``."""
    if name not in NAMES:
        raise ValueError("unknown workload %r" % (name,))
    rng = random.Random("%s:%d" % (name, seed))
    return {"elements": _elements, "modules": _modules, "roots": _roots}[name](rng)


def _shape_arg(sh):
    return "%d,%d" % sh


def _csv(xs):
    return ",".join(str(x) for x in xs)


def _require(ok, what):
    if not ok:
        raise OracleMismatch(what)


def _doc(out):
    doc = json.loads(out)
    _require(doc.get("schema") == 1, "schema is not 1")
    return doc


class Context:
    """Oracle state kept for one worker: algebras and reference answers."""

    def __init__(self):
        self._algebras = {}
        self._answers = {}

    def algebra(self, sh):
        alg = self._algebras.get(sh)
        if alg is None:
            alg = self._algebras[sh] = Algebra(Shape(*sh))
        return alg

    def answer(self, argv):
        """The parsed stdout of a reference query, computed once."""
        key = tuple(argv)
        doc = self._answers.get(key)
        if doc is None:
            import contextlib
            import io

            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.run(list(argv))
            _require(code == 0, "reference query %r exited %d" % (argv, code))
            doc = self._answers[key] = _doc(buf.getvalue())
        return doc


# -- elements -----------------------------------------------------------------
#
# nf and mul straighten cold products; delta, antipode and braid expand every
# PBW monomial of the normal form into simple-generator words (apply_hom).
# Their cost grows about threefold with each extra simple generator, so those
# slots fix the total height of the word; length 6 already reaches 0.5 s and
# words twice as long time out, so the heights stop at 5.  The parity of each
# root vector and the braid node change a query's cost up to tenfold, so the
# strata fix them too; the seed picks roots within each class and K factors.

EL_SHAPES = ((2, 1), (1, 2), (2, 2), (3, 1))
EL_DEGREES = (3, 4, 5, 6)
EL_HOM_HEIGHTS = (2, 3, 4, 5)
EL_K_SHARE = 0.3


def _pairs(sh):
    r = sh[0] + sh[1]
    return [(i, j) for i in range(1, r + 1) for j in range(i + 1, r + 1)]


def _k_factor(rng, sh):
    i = rng.randint(1, sh[0] + sh[1])
    return "K[%d]" % i if rng.random() < 0.5 else "Kinv[%d]" % i


def _word(rng, sh, pattern):
    """Root vectors following ``pattern``, a list of (kind, height j - i,
    parity), with K factors mixed in.  The seed picks the roots within each
    class and the K factors."""
    s = Shape(*sh)
    out = []
    for kind, h, odd in pattern:
        if rng.random() < EL_K_SHARE:
            out.append(_k_factor(rng, sh))
        i, j = rng.choice([(i, j) for i, j in _pairs(sh)
                           if j - i == h and s.parity(i, j) == odd])
        out.append("%s[%d,%d]" % (kind, i, j))
    return out


def _patterns():
    """The fixed strata of the elements workload: (command, shape, pattern,
    braid node and direction).

    The order of E and F, the height and parity of each root vector and the
    braid node set most of the cost of a query, so they are the same for
    every seed; they come from a generator with a fixed seed of their own.
    """
    rng = random.Random("elements-patterns")
    out = []

    def classes(sh, heights):
        s = Shape(*sh)
        pattern = []
        for h in heights:
            i, j = rng.choice([p for p in _pairs(sh) if p[1] - p[0] == h])
            pattern.append((rng.choice("EF"), h, s.parity(i, j)))
        return pattern

    for sh in EL_SHAPES:
        top = sh[0] + sh[1] - 1
        nodes = [i for i in range(1, sh[0] + sh[1]) if i != sh[0]]
        for d in EL_DEGREES:
            for extra in (0, 1):
                for cmd in ("nf",) * 4 + ("mul",) * 2:
                    heights = [2] * extra + [1] * (d - extra)
                    rng.shuffle(heights)
                    out.append((cmd, sh, classes(sh, heights), None))
        for total in EL_HOM_HEIGHTS:
            for cmd in ("delta", "antipode", "braid") * 2:
                heights = []
                left = total
                while left:
                    heights.append(rng.randint(1, min(top, left)))
                    left -= heights[-1]
                braid = (rng.choice(nodes), rng.random() < 0.5) if cmd == "braid" else None
                out.append((cmd, sh, classes(sh, heights), braid))
    return out


def _elements(rng):
    queries = []
    for cmd, sh, pattern, braid in _patterns():
        s = _shape_arg(sh)
        f = _word(rng, sh, pattern)
        if cmd == "nf":
            argv = ["nf", "--shape", s, "*".join(f)]
            check = _check_product(sh, f)
        elif cmd == "mul":
            gens = [t for t, x in enumerate(f) if not x.startswith("K")]
            cut = gens[rng.randint(1, len(gens) - 1)]
            argv = ["mul", "--shape", s, "*".join(f[:cut]), "*".join(f[cut:])]
            check = _check_product(sh, f)
        elif cmd == "braid":
            node, inverse = braid
            argv = ["braid", "--shape", s, "-i", str(node), "*".join(f)]
            if inverse:
                argv.append("--inverse")
            check = _check_braid(sh, f, node, inverse)
        else:
            argv = [cmd, "--shape", s, "*".join(f)]
            check = (_check_delta if cmd == "delta" else _check_antipode)(sh, f)
        queries.append(Query(argv, check))
    rng.shuffle(queries)
    return queries


def _monomial_text(alg, term):
    """Factors of a PBW monomial in JSON form, written in PBW order."""
    parts = []
    for (i, j), n in zip(alg.f1_list, term["fd"]):
        parts += ["F[%d,%d]" % (i, j)] * n
    for (i, j), n in zip(alg.f0_list, term["fpsi"]):
        parts += ["F[%d,%d]" % (i, j)] * n
    for i, e in enumerate(term["k"], start=1):
        parts += ["K[%d]" % i if e > 0 else "Kinv[%d]" % i] * abs(e)
    for (i, j), n in zip(alg.e0_list, term["epsi"]):
        parts += ["E[%d,%d]" % (i, j)] * n
    for (i, j), n in zip(alg.e1_list, term["ed"]):
        parts += ["E[%d,%d]" % (i, j)] * n
    return parts


def _parse_back(alg, terms):
    """Parse the printed terms of an element back into an element."""
    text = " + ".join(
        "*".join(["(%s)" % t["coeff"]] + _monomial_text(alg, t)) for t in terms
    )
    return parse_element(text, alg) if terms else alg.zero()


def _right_fold(values, one):
    acc = one
    for v in reversed(values):
        acc = v * acc
    return acc


def _factors(alg, factors):
    return [parse_element(f, alg) for f in factors]


def _parity(alg, factor):
    if factor.startswith("K"):
        return 0
    i, j = (int(x) for x in factor[2:-1].split(","))
    return alg.shape.parity(i, j)


def _check_element(ctx, out, sh, expected_fn):
    alg = ctx.algebra(sh)
    got = _parse_back(alg, _doc(out)["element"]["terms"])
    _require(got == expected_fn(alg), "differs from the oracle product")


def _check_product(sh, factors):
    """The parser multiplies left to right; the oracle right to left."""

    def check(ctx, out):
        _check_element(
            ctx, out, sh, lambda alg: _right_fold(_factors(alg, factors), alg.one())
        )

    return check


def _check_antipode(sh, factors):
    """S(x1...xk) = (-1)^(sum_{i<j} p_i p_j) S(xk)...S(x1), factor by factor."""

    def expected(alg):
        hopf = Hopf(alg)
        parts = [hopf.antipode(x) for x in _factors(alg, factors)]
        ps = [_parity(alg, f) for f in factors]
        odd = sum(ps)
        sign = -1 if (odd * (odd - 1) // 2) % 2 else 1
        return _right_fold(parts[::-1], alg.one()).scale(sign)

    def check(ctx, out):
        _check_element(ctx, out, sh, expected)

    return check


def _check_braid(sh, factors, node, inverse):
    op = braid_t_inv if inverse else braid_t

    def expected(alg):
        return _right_fold([op(alg, node, x) for x in _factors(alg, factors)], alg.one())

    def check(ctx, out):
        _check_element(ctx, out, sh, expected)

    return check


def _check_delta(sh, factors):
    """delta(x1...xk) = delta(x1)...delta(xk), coefficients parsed back."""

    def check(ctx, out):
        alg = ctx.algebra(sh)
        hopf = Hopf(alg)
        want = _right_fold(
            [hopf.delta(x) for x in _factors(alg, factors)], TensorElement.one(alg)
        )
        got = {}
        for t in _doc(out)["tensor_terms"]:
            key = (_key_of(t["left"]), _key_of(t["right"]))
            got[key] = parse_element("(%s)" % t["coeff"], alg)
        _require(len(got) == len(want.terms), "tensor term count differs")
        for (a, b), c in want.terms.items():
            g = got.get((a.key(), b.key()))
            _require(g == alg.scalar(c), "tensor coefficient differs")

    return check


def _key_of(term):
    return tuple(tuple(term[f]) for f in ("fd", "fpsi", "k", "epsi", "ed"))


# -- modules ------------------------------------------------------------------
#
# Kac modules and simple heads over Q(q).  Every slot fixes shape, command,
# Weyl dimension of the even part and typicality; the seed picks the weight
# within that class.  Per-query cost follows those four closely.  Weights of
# even dimension 6 or more on (3,1), (1,3) and (2,2) take 5-20 s each and stay
# out, so one list still fits a few times into a run.  The slowest quarter of
# the list is the fourteen rank-4 queries, whose cost hardly depends on the
# weight, so the tail percentile falls among them for every seed.

MOD_BOUNDS = {(2, 1): 3, (1, 2): 3, (2, 2): 1, (3, 1): 1, (1, 3): 1}
MOD_SLOTS = tuple(
    # (command, shape, even dimensions, typical, count)
    [("kac", sh, (d,), True, 1) for sh in ((2, 1), (1, 2)) for d in (1, 2, 3, 4, 6, 7)]
    + [("simple", sh, (d,), False, 1) for sh in ((2, 1), (1, 2)) for d in (1, 2, 3, 4, 5)]
    + [("simple", sh, (d,), True, 1) for sh in ((2, 1), (1, 2)) for d in (3, 5)]
    + [
        ("kac", (3, 1), (1,), False, 1),
        ("kac", (3, 1), (3,), False, 1),
        ("simple", (3, 1), (3,), False, 1),
        ("simple", (3, 1), (3,), True, 1),
        ("kac", (1, 3), (1,), False, 3),
        ("kac", (1, 3), (1,), True, 2),
        ("simple", (1, 3), (1,), False, 2),
        ("simple", (1, 3), (1,), True, 2),
        ("kac", (2, 2), (3,), True, 1),
        ("simple", (2, 2), (2,), False, 1),
    ]
    + [("tensor-" + m, sh, (1, 2), None, 2) for m in ("kac", "simple") for sh in ((2, 1), (1, 2))]
)


def _weights(sh, dims, typical):
    """Dominant weights of the pool with even dimension in dims."""
    s = Shape(*sh)
    b = MOD_BOUNDS[sh]
    out = []
    for lam in itertools.product(range(-b, b + 1), repeat=s.rank):
        if not in_Xplus(s, lam) or weyl_dim_even(s, lam) not in dims:
            continue
        if typical is None or is_typical(s, lam) == typical:
            out.append(lam)
    return out


def _modules(rng):
    queries = []
    for cmd, sh, dims, typical, count in MOD_SLOTS:
        pool = _weights(sh, dims, typical)
        s = _shape_arg(sh)
        for _ in range(count):
            if cmd.startswith("tensor"):
                module = cmd.split("-")[1]
                l1, l2 = rng.choice(pool), rng.choice(pool)
                argv = ["tensor", "--shape", s, "--lambda1=" + _csv(l1),
                        "--lambda2=" + _csv(l2), "--module", module]
                check = _check_tensor(sh, module, l1, l2)
            else:
                lam = rng.choice(pool)
                argv = [cmd, "--shape", s, "--lambda=" + _csv(lam)]
                check = (_check_kac if cmd == "kac" else _check_simple)(sh, lam)
            queries.append(Query(argv, check))
    rng.shuffle(queries)
    return queries


def _kac_dim(sh, lam):
    return 2 ** (sh[0] * sh[1]) * weyl_dim_even(Shape(*sh), lam)


def _character(doc):
    return {tuple(c["z"]): c["mult"] for c in doc["character"]}


def _check_highest_weight(sh, lam, doc):
    char = _character(doc)
    _require(sum(char.values()) == doc["dim"], "multiplicities do not sum to dim")
    _require(char.get(weight_to_z(Shape(*sh), lam)) == 1, "top weight multiplicity is not 1")


def _check_kac(sh, lam):
    def check(ctx, out):
        doc = _doc(out)
        _require(doc["dim"] == _kac_dim(sh, lam), "Kac dim is not 2^(mn) * weyl_dim_even")
        _require(doc["dim_even"] == weyl_dim_even(Shape(*sh), lam), "dim_even differs")
        _check_highest_weight(sh, lam, doc)

    return check


def _check_simple(sh, lam):
    def check(ctx, out):
        doc = _doc(out)
        kac = _kac_dim(sh, lam)
        _require(doc["dim"] <= kac, "simple head larger than the Kac module")
        _require((doc["dim"] == kac) == is_typical(Shape(*sh), lam),
                 "simple head has the Kac dimension iff typical: violated")
        _check_highest_weight(sh, lam, doc)

    return check


def _convolve(ca, cb):
    out = {}
    for za, ma in ca.items():
        for zb, mb in cb.items():
            z = tuple(x + y for x, y in zip(za, zb))
            out[z] = out.get(z, 0) + ma * mb
    return out


def _check_tensor(sh, module, l1, l2):
    cmd = "kac" if module == "kac" else "simple"

    def check(ctx, out):
        doc = _doc(out)
        f1 = ctx.answer([cmd, "--shape", _shape_arg(sh), "--lambda=" + _csv(l1)])
        f2 = ctx.answer([cmd, "--shape", _shape_arg(sh), "--lambda=" + _csv(l2)])
        _require(doc["dim"] == f1["dim"] * f2["dim"], "tensor dim is not the product")
        _require(_character(doc) == _convolve(_character(f1), _character(f2)),
                 "tensor character is not the convolution")

    return check


# -- roots of unity -------------------------------------------------------------
#
# Simple modules at q = eta.  The cost grows steeply with the constrained
# z-coordinate (z_1 on (2,1), z_2 on (1,2)), so each slot fixes it; the seed
# picks the free coordinates from [-2, 2l - 1].  Weights with z'' != 0 are
# checked against the Frobenius factorization.  z_c = 5 at l = 5 takes 1-1.6 s
# alone, a quarter of the list, and stays out.  A minority are ``specialize``
# of integral divided-power words and ``classical-check``.  Thirty of the 57
# queries are (1,1) modules, 4-6 ms each whatever the seed, and with the
# cheap specialize words they fill the list up to well past its middle, so
# the median falls among queries of one cost for every seed; the median of
# a list whose middle mixes queries of 5, 20 and 40 ms moved 15% from seed
# to seed.  The 75th percentile, with 14 beyond it, falls among the rank-3
# modules.

ROOT_SLOTS = (
    # (shape, l, constrained z value or None on (1,1), count)
    ((1, 1), 3, None, 15),
    ((1, 1), 5, None, 15),
    ((2, 1), 3, 0, 1), ((2, 1), 3, 1, 1), ((2, 1), 3, 2, 1),
    ((2, 1), 3, 3, 1), ((2, 1), 3, 4, 1),
    ((2, 1), 5, 0, 1), ((2, 1), 5, 1, 1), ((2, 1), 5, 2, 1), ((2, 1), 5, 3, 1),
    ((1, 2), 3, 0, 1), ((1, 2), 3, 1, 1), ((1, 2), 3, 2, 1),
    ((1, 2), 3, 3, 1), ((1, 2), 3, 4, 1),
    ((1, 2), 5, 0, 1), ((1, 2), 5, 1, 1), ((1, 2), 5, 2, 1), ((1, 2), 5, 3, 1),
)
ROOT_SPECIALIZE = (((1, 1), 3), ((1, 1), 5), ((2, 1), 3), ((2, 1), 5),
                   ((1, 2), 3), ((1, 2), 5))
ROOT_CLASSICAL = ((1, 1), (2, 1), (1, 2))


def _constrained(sh):
    """Index (1-based) of the z-coordinate that must be >= 0, or None."""
    s = Shape(*sh)
    idx = [i for i in range(1, s.rank + 1) if i not in (s.m, s.rank)]
    return idx[0] if idx else None


def _roots(rng):
    queries = []
    for sh, l, zc, count in ROOT_SLOTS:
        s = Shape(*sh)
        c = _constrained(sh)
        for _ in range(count):
            z = [rng.randint(-2, 2 * l - 1) for _ in range(s.rank)]
            if c is not None:
                z[c - 1] = zc
            z = tuple(z)
            lam = z_to_weight(s, z)
            argv = ["simple", "--shape", _shape_arg(sh), "--at-root", str(l),
                    "--lambda=" + _csv(lam)]
            queries.append(Query(argv, _check_at_root(sh, l, z)))
    for (sh, l), pattern in zip(ROOT_SPECIALIZE, _divided_patterns()):
        word = _divided_word(rng, sh, pattern)
        argv = ["specialize", "--shape", _shape_arg(sh), "-l", str(l), word]
        queries.append(Query(argv, _check_specialize(sh, l, word)))
    for sh in ROOT_CLASSICAL:
        queries.append(Query(["classical-check", "--shape", _shape_arg(sh)],
                             _check_classical))
    rng.shuffle(queries)
    return queries


def _divided_patterns():
    """The fixed strata of the specialize words: per slot, three factors as
    (E or F, parity, divided power), in order.  The order of E and F and the
    powers set a word's cost, up to thirtyfold, so they are the same for
    every seed; they come from a generator with a fixed seed of their own."""
    rng = random.Random("roots-divided-patterns")
    out = []
    for sh, _ in ROOT_SPECIALIZE:
        s = Shape(*sh)
        parities = {s.parity(*p) for p in _pairs(sh)}
        even = rng.randrange(3) if 0 in parities else None  # one true divided power
        pattern = []
        for k in range(3):
            odd = 0 if k == even else s.parity(*rng.choice(_pairs(sh)))
            pattern.append((rng.choice("EF"), odd, 1 if odd else rng.randint(2, 3)))
        out.append(pattern)
    return out


def _divided_word(rng, sh, pattern):
    """A product of divided powers and K factors: integral by construction.
    The seed picks each root within its parity and the K factors."""
    s = Shape(*sh)
    out = []
    for kind, odd, n in pattern:
        i, j = rng.choice([p for p in _pairs(sh) if s.parity(*p) == odd])
        out.append("%s[%d,%d]^(%d)" % (kind, i, j, n))
        if rng.random() < 0.5:
            out.append(_k_factor(rng, sh))
    return "*".join(out)


def _check_at_root(sh, l, z):
    s = Shape(*sh)
    lam = z_to_weight(s, z)

    def at_root(ctx, zz):
        return ctx.answer(["simple", "--shape", _shape_arg(sh), "--at-root", str(l),
                           "--lambda=" + _csv(z_to_weight(s, zz))])

    def check(ctx, out):
        doc = _doc(out)
        char = _character(doc)
        _require(sum(char.values()) == doc["dim"], "multiplicities do not sum to dim")
        _require(doc["dim"] <= _kac_dim(sh, lam), "larger than the Kac module")
        _require(char.get(z) == 1, "top weight multiplicity is not 1")
        zp, zpp = frobenius_decompose(s, z, l)
        if any(zpp):
            restricted = _character(at_root(ctx, zp))
            twist = _character(at_root(ctx, tuple(l * x for x in zpp)))
            _require(char == _convolve(restricted, twist),
                     "Frobenius factorization fails")

    return check


def _check_classical(ctx, out):
    doc = _doc(out)
    _require(doc["all_ok"] is True and all(c["ok"] for c in doc["checks"]),
             "classical check not all ok")


def _cyclotomic(n):
    """Integer coefficients of Phi_n, ascending: (x^n - 1) / prod Phi_d."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _int_div(poly, _cyclotomic(d))
    return poly


def _int_div(a, b):
    """Exact quotient of integer polynomials, b monic."""
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = a[i + len(b) - 1]
        q[i] = c
        for k, bk in enumerate(b):
            a[i + k] -= c * bk
    return q


def _at_eta(coeffs, l):
    """A Laurent polynomial {e: c} reduced to its residue mod Phi_l."""
    phi = _cyclotomic(l)
    deg = len(phi) - 1
    res = [0] * l
    for e, c in coeffs.items():
        res[e % l] += c
    for i in range(l - 1, deg - 1, -1):
        c = res[i]
        if c:
            for k, pk in enumerate(phi):
                res[i - deg + k] -= c * pk
    return {i: Fraction(c) for i, c in enumerate(res[:deg]) if c}


def _parse_poly(text, var):
    """{exponent: Fraction} from a rendering like '3*eta^2 - eta + 1/2'."""
    out = {}
    for term in text.replace(" - ", " + -").split(" + "):
        sign = -1 if term.startswith("-") else 1
        term = term.lstrip("-")
        coeff, _, power = term.rpartition(var) if var in term else (term, "", None)
        coeff = coeff.rstrip("*") or "1"
        if power is None:
            e = 0
        else:
            e = int(power[1:]) if power.startswith("^") else 1
        out[e] = sign * Fraction(coeff)
    return out


def _check_specialize(sh, l, word):
    """Each coordinate equals the integral coordinate reduced mod Phi_l here."""

    def check(ctx, out):
        alg = ctx.algebra(sh)
        doc = _doc(out)
        _require(doc["l"] == l, "wrong root order")
        want = {}
        for key, li in alg.a_form_coords(parse_element(word, alg)).items():
            val = _at_eta(li.coeffs, l)
            if val:
                want[tuple(tuple(x) for x in key)] = val
        got = {}
        for t in doc["terms"]:
            key = tuple(tuple(t[f]) for f in ("fd", "fpsi", "k_delta", "k_bracket", "epsi", "ed"))
            got[key] = _parse_poly(t["coeff"], "eta")
        _require(got == want, "specialized coordinates differ")

    return check
