"""Specializations of the quantum supergroup: q -> eta (a primitive odd
root of unity) and q -> 1.

Covers: specialization of integral elements and of weight modules, the
closed-form dimension counts of the small quantum (super)group, the Kac
module at eta on its divided-monomial basis, the simple module at eta for
any z with a dominant weight, and the classical-limit check of the Serre
presentation.  A restricted z gets the simple head of the specialized Kac
module; any other z = z' + l z'' the certified product of L(z') and the
Frobenius twist of a classical module, by the tensor product theorem,
with no Kac module of the whole weight (``simple_at_root``).  The
structure checks that tests run on these modules (restricted structure,
Frobenius factorization, centrality of K^l) live beside those tests, in
``tests/structure_checks.py``.

``repmod`` is imported inside the functions that build modules, so that
specializing an element or counting small-group bases loads no module code.
"""

from .errors import DomainError, ResourceLimit
from .rootdata import _check_order, frobenius_decompose, in_Xplus, z_to_weight
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
    """L(z) at q = eta of order l, for any z with dominant associated weight
    (not necessarily restricted).

    The full construction is the simple head of the specialized Kac module.
    When z = z' + l z'' (``frobenius_decompose``) has z'' != 0, L(z) is
    instead L(z') (x) L(l z''), by the tensor product theorem (Lusztig,
    Contemp. Math. 82, 1989; for GL(m|n) in characteristic p, Kujawa,
    Contemp. Math. 413, 2006): L(z') by the full construction, restricted
    and small, and L(l z'') the Frobenius twist of a classical module
    (``repmod.frobenius_twist``), with no Kac module of the whole weight.
    The product (``_frobenius_product``) is certified before it is
    returned: its top generates it, and its simple head keeps every
    dimension.  If either fails, the full construction answers.

    The certificate is the sense in which ``repmod.simple_head`` defines
    L(z).  At eta the K's need not separate weights, so like the
    restricted checks of ``tests/structure_checks.py`` it proves
    simplicity among the submodules spanned by weight vectors only.

    Every check of the full construction on the whole weight runs first, in
    its order: the dominance check, then ``repmod.check_kac_weight``, the
    Kac dimension and q-degree budgets, so every z fails as it would there.
    L(z') can be over the q-degree budget where L(z) is not, on gl(1|2) at
    lam = (1000, 100, 0) say, since z' keeps the unconstrained coordinates
    whole; such a z is split at every coordinate, z'_i = z_i mod l, and
    certified alike.  Only when that L(z') is over the budget too, or a
    certificate fails, does the full construction answer.
    """
    from . import repmod

    _check_order(l)
    z = tuple(int(x) for x in z)
    lam = z_to_weight(alg.shape, z)
    if not in_Xplus(alg.shape, lam):
        raise DomainError("z has no dominant associated weight")
    zp, zpp = frobenius_decompose(alg.shape, z, l)
    if any(zpp):
        repmod.check_kac_weight(alg, lam)
        try:
            first = _full_simple(alg, z_to_weight(alg.shape, zp), l)
        except ResourceLimit:
            # L(z') keeps the unconstrained coordinates m and m+n whole and
            # is over the q-degree budget: split every coordinate instead,
            # z'_i = z_i mod l, so that l z'' also shifts lam by l times a
            # weight central in gl(m) + gl(n), which the twist builds alike
            zp = tuple(x % l for x in z)
            zpp = tuple((x - y) // l for x, y in zip(z, zp))
            try:
                first = _full_simple(alg, z_to_weight(alg.shape, zp), l)
            except ResourceLimit:
                first = None
        if first is not None:
            twist = repmod.frobenius_twist(alg, z_to_weight(alg.shape, zpp), l)
            product = _frobenius_product(first, twist)
            if _certified(product):
                return product
    return _full_simple(alg, lam, l)


def _full_simple(alg, lam, l):
    """The full construction of L(lam) at eta: the simple head of the
    specialized Kac module."""
    from . import repmod

    return repmod.simple_head(specialize_kac(alg, lam, l))


def _frobenius_product(first, twist):
    """first (x) twist over Q(eta), for a module first and a Frobenius twist
    (``repmod.frobenius_twist``) stored with the same keys, on the basis
    a (x) b in the order of a, then b.

    Every stored generator X acts as X (x) 1 + 1 (x) X: these are the
    coproduct terms (``hopf.Hopf.delta``) that survive on the twist, where
    E_i, F_i and so every E^(b), F^(b) with 0 < b < l act as zero and
    every K_mu^l acts as 1:

        Delta(E_i) = E_i (x) K_{alpha_i} + 1 (x) E_i
        Delta(F_i) = F_i (x) 1 + K_{alpha_i}^-1 (x) F_i
        Delta(E_i^(l)) = E_i^(l) (x) K_{alpha_i}^l + 1 (x) E_i^(l) + terms (x) K^a E_i^(b)
        Delta(F_i^(l)) = F_i^(l) (x) 1 + K_{alpha_i}^-l (x) F_i^(l) + terms (x) F_i^(b)

    with 0 < b < l in the middle terms.  K_{alpha_i}^-l acts as 1 on
    first too, and the twist is even, so no term takes a sign.
    """
    from .linalg import columns
    from .repmod import WeightModule

    d2 = twist.dim
    dim = first.dim * d2
    mats = {}
    for key, m in first.mats.items():
        entries = [(r * d2 + b, a * d2 + b, x)
                   for a, col in enumerate(m) for r, x in col for b in range(d2)]
        entries += [(a * d2 + r, a * d2 + b, x)
                    for b, col in enumerate(twist.mats[key]) for r, x in col
                    for a in range(first.dim)]
        mats[key] = columns(entries, dim)
    weights = [tuple(x + y for x, y in zip(wa, wb))
               for wa in first.eps_weights for wb in twist.eps_weights]
    parities = [p for p in first.parities for _ in range(d2)]
    return WeightModule(first.alg, first.field, weights, parities, mats,
                        top=first.top * d2 + twist.top)


def _certified(mod):
    """Is mod simple among the submodules spanned by weight vectors?  Its
    top generates it, and its simple head, raising with E and E^(l), keeps
    every dimension.  The top generates mod if the lowering words alone
    take it to a spanning set, so the closure applies only the stored F and
    F^(l): a proof as strong as a closure over every key, at half its
    cost."""
    from . import repmod

    top = [[(mod.top, mod.field.one)]]
    lowering = [key for key in mod.action_keys() if key[0] in ("F", "DF")]
    return (len(repmod.submodule_closure(mod, top, lowering)) == mod.dim
            and repmod.simple_head(mod).dim == mod.dim)


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
