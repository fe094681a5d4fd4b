"""Catalog of the defining relations as elements that must straighten to zero.

Each function returns a list of (name, element) pairs.  The catalog only
asks its algebra argument for shape, qi, gen, k_mono, k_alpha, one and
zero, and only does ring arithmetic on the values, so it runs on anything
that answers those questions.  ``selftest`` runs it on an ``Algebra``; the
tests also run it through the coproduct, a braid operator and a module's
action map (``tests/views.py``), which checks that each map respects the
presentation.

Sign conventions: the super bracket is [x, y] = xy - (-1)^{par x par y} yx,
and the mixed E/F bracket relation uses this reading (the only case where
it differs from a literal (-1)^{delta_im} is i = m != j, where both
readings assert plain commutation).
"""

from .scalars import RF_ONE


def _qq(alg, i):
    """q_i + q_i^-1 (equal for both signs, kept explicit for clarity)."""
    return alg.qi(i, 1) + alg.qi(i, -1)


def torus_relations(alg):
    """(c1), (c2): torus monomials commute and invert."""
    out = []
    r = alg.shape.rank
    for i in range(1, r + 1):
        ei = tuple(1 if t == i - 1 else 0 for t in range(r))
        out.append(
            ("c2:K%d*Kinv%d-1" % (i, i), alg.k_mono(ei) * alg.k_mono(tuple(-x for x in ei)) - alg.one())
        )
        for j in range(i + 1, r + 1):
            ej = tuple(1 if t == j - 1 else 0 for t in range(r))
            out.append(
                (
                    "c1:[K%d,K%d]" % (i, j),
                    alg.k_mono(ei) * alg.k_mono(ej) - alg.k_mono(ej) * alg.k_mono(ei),
                )
            )
    return out


def weight_relations(alg):
    """(d2), (d3): K_{alpha_i} conjugation of the simple generators."""
    out = []
    sh = alg.shape
    for i in range(1, sh.rank + 1):
        ka = alg.k_alpha(i)
        for j in range(1, sh.rank):
            a = sh.cartan_entry(i, j)
            e = alg.gen("E", j, j + 1)
            f = alg.gen("F", j, j + 1)
            out.append(
                (
                    "d2:Ka%d-E%d" % (i, j),
                    ka * e - (e * ka).scale(alg.qi(i, a)),
                )
            )
            out.append(
                (
                    "d3:Ka%d-F%d" % (i, j),
                    ka * f - (f * ka).scale(alg.qi(i, -a)),
                )
            )
    return out


def mixed_relations(alg):
    """(d1): the E/F bracket relation for simple generators."""
    out = []
    sh = alg.shape
    for i in range(1, sh.rank):
        for j in range(1, sh.rank):
            e = alg.gen("E", i, i + 1)
            f = alg.gen("F", j, j + 1)
            sgn = -1 if (i == sh.m and j == sh.m) else 1
            lhs = e * f - (f * e).scale(RF_ONE * sgn)
            if i == j:
                den = (alg.qi(i, 1) - alg.qi(i, -1)).inverse()
                lhs = lhs - (alg.k_alpha(i, 1) - alg.k_alpha(i, -1)).scale(den)
            out.append(("d1:E%d-F%d" % (i, j), lhs))
    return out


def odd_square_relations(alg):
    """(a1), (b1): odd root vectors square to zero."""
    out = []
    for (i, j) in alg.shape.I1:
        for kind in ("E", "F"):
            g = alg.gen(kind, i, j)
            out.append(("%s[%d,%d]^2" % (kind, i, j), g * g))
    return out


def supercommute_relations(alg):
    """(a2)/(b2): nested and disjoint root vectors supercommute."""
    out = []
    sh = alg.shape
    allp = list(sh.I0) + list(sh.I1)
    for (i, j) in allp:
        for (s, t) in allp:
            nested = i < s < t < j
            disjoint = s < t < i < j
            if not (nested or disjoint):
                continue
            sgn = -1 if (sh.parity(i, j) and sh.parity(s, t)) else 1
            for kind in ("E", "F"):
                x = alg.gen(kind, i, j)
                y = alg.gen(kind, s, t)
                out.append(
                    (
                        "a2:%s[%d,%d]%s[%d,%d]" % (kind, i, j, kind, s, t),
                        x * y - (y * x).scale(RF_ONE * sgn),
                    )
                )
    return out


def scalar_swap_relations(alg):
    """(a3)/(a4) and mirrors: shared-endpoint scalar swaps."""
    out = []
    sh = alg.shape
    allp = list(sh.I0) + list(sh.I1)
    for (s, i) in allp:
        for (s2, j) in allp:
            if s2 != s or not (s < i < j):
                continue
            sgn = -1 if sh.parity(s, i) else 1
            for kind, name in (("E", "a3"), ("F", "b3")):
                x, y = alg.gen(kind, s, i), alg.gen(kind, s, j)
                out.append(
                    (
                        "%s:%s[%d,%d]%s[%d,%d]" % (name, kind, s, i, kind, s, j),
                        x * y - (y * x).scale(alg.qi(s, 1) * sgn),
                    )
                )
    for (j, s) in allp:
        for (i, s2) in allp:
            if s2 != s or not (i < j < s):
                continue
            sgn = -1 if sh.parity(j, s) else 1
            for kind, name in (("E", "a4"), ("F", "b4")):
                x, y = alg.gen(kind, j, s), alg.gen(kind, i, s)
                out.append(
                    (
                        "%s:%s[%d,%d]%s[%d,%d]" % (name, kind, j, s, kind, i, s),
                        x * y - (y * x).scale(alg.qi(s, -1) * sgn),
                    )
                )
    return out


def composite_relations(alg):
    """(a5)/(b5): triangular recursion defining composite root vectors."""
    out = []
    sh = alg.shape
    for (i, j) in list(sh.I0) + list(sh.I1):
        for c in range(i + 1, j):
            e = alg.gen("E", i, j)
            rhs = alg.gen("E", i, c) * alg.gen("E", c, j) - (
                alg.gen("E", c, j) * alg.gen("E", i, c)
            ).scale(alg.qi(c, -1))
            out.append(("a5:E[%d,%d]@%d" % (i, j, c), e - rhs))
            f = alg.gen("F", i, j)
            rhs = (alg.gen("F", i, c) * alg.gen("F", c, j)).scale(
                -alg.qi(c, 1)
            ) + alg.gen("F", c, j) * alg.gen("F", i, c)
            out.append(("b5:F[%d,%d]@%d" % (i, j, c), f - rhs))
    return out


def overlap_relations(alg):
    """The two-term overlap identity for interleaved intervals."""
    out = []
    sh = alg.shape
    allp = list(sh.I0) + list(sh.I1)
    for (a, b) in allp:
        for (c, d) in allp:
            if not (a < c < b < d):
                continue
            sgn = -1 if (sh.parity(a, b) and sh.parity(c, d)) else 1
            x, y = alg.gen("E", a, b), alg.gen("E", c, d)
            extra = (alg.gen("E", a, d) * alg.gen("E", c, b)).scale(
                alg.qi(b, 1) - alg.qi(b, -1)
            )
            out.append(
                (
                    "ovl:E[%d,%d]E[%d,%d]" % (a, b, c, d),
                    x * y - (y * x).scale(RF_ONE * sgn) - extra,
                )
            )
    return out


def serre_relations(alg):
    """(R6)/(R7): quantum Serre relations at even nodes."""
    out = []
    sh = alg.shape
    for i in range(1, sh.rank):
        if i == sh.m:
            continue
        for j in (i - 1, i + 1):
            if not (1 <= j <= sh.rank - 1):
                continue
            for kind in ("E", "F"):
                x = alg.gen(kind, i, i + 1)
                y = alg.gen(kind, j, j + 1)
                rel = x * x * y - (x * y * x).scale(_qq(alg, i)) + y * x * x
                out.append(("serre:%s%d-%s%d" % (kind, i, kind, j), rel))
    return out


def extra_serre_relations(alg):
    """(R8): the five-term higher relation at the odd node (needs m,n >= 2)."""
    out = []
    sh = alg.shape
    m = sh.m
    if m < 2 or sh.n < 2:
        return out
    for kind in ("E", "F"):
        a = alg.gen(kind, m - 1, m)
        b = alg.gen(kind, m, m + 1)
        c = alg.gen(kind, m + 1, m + 2)
        rel = (
            a * b * c * b
            + b * a * b * c
            + c * b * a * b
            + b * c * b * a
            - (b * a * c * b).scale(_qq(alg, m))
        )
        out.append(("r8:%s-five-term" % kind, rel))
    # bracket form: [X_{m-1,m+2}, X_{m,m+1}] = 0 (both factors odd)
    for kind in ("E", "F"):
        x = alg.gen(kind, m - 1, m + 2)
        y = alg.gen(kind, m, m + 1)
        out.append(("r8:%s-bracket" % kind, x * y + y * x))
    return out


def all_relations(alg):
    """The full defining presentation, then the higher Serre and overlap
    identities: every element must straighten to 0."""
    families = (odd_square_relations, supercommute_relations, scalar_swap_relations,
                composite_relations, torus_relations, weight_relations, mixed_relations,
                serre_relations, extra_serre_relations, overlap_relations)
    return [rel for family in families for rel in family(alg)]
