"""Specializations of the quantum supergroup: q -> eta (a primitive odd
root of unity) and q -> 1.

Covers: specialization of integral elements and of weight modules, the
closed-form dimension counts of the small quantum (super)group, the Kac
module at eta on its divided-monomial basis and the simple module at eta as
its simple head (for any z with a dominant weight), and the classical-limit
check of the Serre presentation.  The structure checks that tests run on
these modules (restricted structure, Frobenius factorization, centrality of
K^l) live beside those tests, in ``tests/structure_checks.py``.

``repmod`` is imported inside the functions that build modules, so that
specializing an element or counting small-group bases loads no module code.
"""

from .errors import DomainError
from .rootdata import _check_order, in_Xplus, z_to_weight
from .scalars import cyclo_field, evaluate_at_root


# -- element specialization --------------------------------------------------


def specialize_element(alg, elt, l):
    """Coordinates of an integral element over Q(eta).

    Returns {integral-basis key: CycloNum}, dropping the terms whose
    coefficients vanish at eta.  Raises NotIntegral if the element is
    not in the integral form; the basis keys are those of a_form_coords.
    """
    _check_order(l)
    out = {}
    for key, li in alg.a_form_coords(elt).items():
        val = evaluate_at_root(li, l)
        if not val.is_zero():
            out[key] = val
    return out


# -- small quantum group dimension counts ------------------------------------


def small_group_counts(shape, l):
    """Dimensions of the small quantum (super)group and its pieces.

    Closed-form counts of the exponent tuples:
      upper     e-part: even exponents in [0, l), odd in {0, 1}
      torus     K-exponents in [0, 2l) per index
      reduced_torus  bracket-basis torus exponents in [0, l) per index
      full      lower x torus x upper
      reduced   lower x reduced_torus x upper
    """
    _check_order(l)
    upper = l ** len(shape.I0) * 2 ** len(shape.I1)
    torus = (2 * l) ** shape.rank
    reduced_torus = l ** shape.rank
    return {
        "upper": upper,
        "lower": upper,
        "torus": torus,
        "reduced_torus": reduced_torus,
        "full": upper * torus * upper,
        "reduced": upper * reduced_torus * upper,
    }


# -- module specialization ---------------------------------------------------


def specialize_module(mod, l):
    """The weight module over Q(eta) on the same basis.

    Every stored action-matrix entry is evaluated at eta, and those that
    vanish there are dropped; a pole means the chosen lattice basis was not
    integral and is reported as an error.
    """
    from . import repmod

    _check_order(l)
    if mod.l is not None:
        raise DomainError("module is already specialized")
    field = cyclo_field(l)  # checks the root order before any entry is evaluated
    mats = {}
    for key, m in mod.mats.items():
        mats[key] = [[(r, y) for r, y in ((r, field.of(x)) for r, x in col)
                      if not y.is_zero()] for col in m]
    return repmod.WeightModule(
        mod.alg, field, mod.eps_weights, mod.parities, mats, top=mod.top
    )


def specialize_kac(alg, lam, l):
    """The Kac module at q = eta on the divided-monomial basis of
    ``repmod.divided_kac_module``, with the divided powers X^{(l)} of the
    even simple root vectors carried along."""
    from . import repmod

    _check_order(l)
    mod = repmod.divided_kac_module(alg, lam)
    for i in range(1, alg.shape.rank):
        if i == alg.shape.m:
            continue
        mod.ensure_divided("E", i, i + 1, l)
        mod.ensure_divided("F", i, i + 1, l)
    return specialize_module(mod, l)


def simple_at_root(alg, z, l):
    """The simple head of the specialized Kac module for any z with
    dominant associated weight (not necessarily restricted)."""
    from . import repmod

    _check_order(l)
    lam = z_to_weight(alg.shape, tuple(int(x) for x in z))
    if not in_Xplus(alg.shape, lam):
        raise DomainError("z has no dominant associated weight")
    mod = specialize_kac(alg, lam, l)
    return repmod.simple_head(mod)


# -- classical limit q -> 1 --------------------------------------------------


def classical_reduce(alg, elt):
    """Coordinates of an integral element at q = 1 modulo (K_{alpha} - 1).

    Integral coordinates are evaluated at q = 1 and the pure torus factors
    K^delta collapse to 1 (the bracket basis elements [K;0;t] survive as
    the classical Cartan divided powers).  Returns {key: int} with the
    delta component zeroed.
    """
    from .pbwcore import add_term

    out = {}
    for (fd, fpsi, deltas, ts, epsi, ed), li in alg.a_form_coords(elt).items():
        add_term(out, (fd, fpsi, tuple([0] * len(deltas)), ts, epsi, ed), li.at_one())
    return out


def classical_limit_check(alg):
    """Verify the eight classical Serre-presentation relation families for
    the images e -> E, f -> F, h -> [K; 0; 1] at q = 1 mod (K - 1).

    Returns a list of (name, bool) pairs.
    """
    sh = alg.shape
    r = sh.rank
    results = []

    def h(i):
        return alg.kbracket_element(i, 0, 1)

    def e(i):
        return alg.gen("E", i, i + 1)

    def f(i):
        return alg.gen("F", i, i + 1)

    def reduces(name, elt):
        results.append((name, not classical_reduce(alg, elt)))

    # (a1) Cartan commutativity: exact already at generic q
    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            results.append(("a1:h%d-h%d" % (i, j), (h(i) * h(j) - h(j) * h(i)).is_zero()))
    # (a2) Cartan on raising/lowering: needs the q = 1, K = 1 reduction
    for i in range(1, r + 1):
        for j in range(1, r):
            a = sh.cartan_entry(i, j)
            reduces("a2:h%d-e%d" % (i, j), h(i) * e(j) - e(j) * h(i) - e(j).scale(a))
            reduces("a2:h%d-f%d" % (i, j), h(i) * f(j) - f(j) * h(i) + f(j).scale(a))
    # (a3) mixed bracket
    for i in range(1, r):
        for j in range(1, r):
            sgn = -1 if (i == sh.m and j == sh.m) else 1
            x = e(i) * f(j) - (f(j) * e(i)).scale(sgn)
            if i == j:
                x = x - h(i)
            reduces("a3:e%d-f%d" % (i, j), x)
    # (a4) distant commutation: exact
    for i in range(1, r):
        for j in range(1, r):
            if abs(i - j) > 1:
                results.append(("a4:e%d-e%d" % (i, j), (e(i) * e(j) - e(j) * e(i)).is_zero()))
                results.append(("a4:f%d-f%d" % (i, j), (f(i) * f(j) - f(j) * f(i)).is_zero()))
    # (a5)/(a6) Serre with the classical coefficient 2
    for i in range(1, r):
        for j in range(1, r):
            if abs(i - j) == 1 and i != sh.m:
                reduces(
                    "a5:e%d-e%d" % (i, j),
                    e(i) * e(i) * e(j) - (e(i) * e(j) * e(i)).scale(2) + e(j) * e(i) * e(i),
                )
                reduces(
                    "a6:f%d-f%d" % (i, j),
                    f(i) * f(i) * f(j) - (f(i) * f(j) * f(i)).scale(2) + f(j) * f(i) * f(i),
                )
    # (a7) odd squares: exact
    results.append(("a7:e%d" % sh.m, (e(sh.m) * e(sh.m)).is_zero()))
    results.append(("a7:f%d" % sh.m, (f(sh.m) * f(sh.m)).is_zero()))
    # (a8) the higher relation, with classical coefficient 2
    if sh.m >= 2 and sh.n >= 2:
        for name, g in (("e", e), ("f", f)):
            a, b, c = g(sh.m - 1), g(sh.m), g(sh.m + 1)
            x = (
                a * b * c * b
                + b * a * b * c
                + c * b * a * b
                + b * c * b * a
                - (b * a * c * b).scale(2)
            )
            reduces("a8:%s" % name, x)
    return results
