"""Structure checks at q = eta that the tests run on the engine's modules:
the restricted simple modules, the Frobenius factorization of characters,
the Frobenius-twist degeneracy and the centrality of K^l.

Each builds what it checks with ``rootofunity.simple_at_root`` or
``rootofunity.specialize_element``, as the commands do, and reports what it
found; the tests assert on the report.  The Frobenius checks build every
module by the full construction (``full_simple_at_root``) instead: for
z'' != 0 ``simple_at_root`` builds the factorization they check.
"""

from qgl import repmod
from qgl.rootdata import frobenius_decompose, z_to_weight
from qgl.rootofunity import simple_at_root, specialize_element, specialize_kac


def full_simple_at_root(alg, z, l):
    """L(z) at eta by the full construction, the simple head of the
    specialized Kac module, whatever z'' is."""
    return repmod.simple_head(specialize_kac(alg, z_to_weight(alg.shape, z), l))


def restricted_checks(alg, z, l):
    """Structure of the simple module of a restricted z in [0, l)^{m+n} at eta.

    Returns booleans:
      divided_f_kills_top   F^{(l)} of every even simple root kills the
                            highest vector
      maximal_line_unique   the joint kernel of all raising operators and
                            even divided powers E^{(l)} is one line
      small_group_generates the module is simple under the simple
                            (non-divided) generators, among the submodules
                            spanned by weight vectors: the top generates it,
                            and the simple head of its simple action keeps
                            every dimension, so a simple E-word takes every
                            nonzero weight vector to the top.  At eta the K's
                            need not separate weights, so this says nothing
                            of submodules not spanned by weight vectors.
    """
    assert all(0 <= x < l for x in z), (z, l)
    mod = simple_at_root(alg, z, l)
    out = {}
    out["divided_f_kills_top"] = not any(
        mod.mats[key][mod.top] for key in mod.action_keys() if key[0] == "DF")
    sing = repmod.singular_vectors(mod, skip_top=False)
    out["maximal_line_unique"] = len(sing) == 1
    simple = {k: m for k, m in mod.mats.items() if k[0] in ("E", "F") and k[3] == 1}
    small = repmod.WeightModule(alg, mod.field, mod.eps_weights, mod.parities, simple,
                                top=mod.top)
    out["small_group_generates"] = (
        len(repmod.submodule_closure(small, [[(mod.top, mod.field.one)]])) == mod.dim
        and repmod.simple_head(small).dim == mod.dim)
    out["dim"] = mod.dim
    return out


def frobenius_character_check(alg, z, l):
    """Does char L(z) = char(L(z') (x) L(l z'')) at q = eta, every module
    built by the full construction?

    z' + l z'' is the restricted splitting of z.  Returns a report dict,
    with the character of L(z).
    """
    z = tuple(int(x) for x in z)
    zp, zpp = frobenius_decompose(alg.shape, z, l)
    whole = full_simple_at_root(alg, z, l)
    part_r = full_simple_at_root(alg, zp, l)
    part_f = full_simple_at_root(alg, tuple(l * x for x in zpp), l)
    lhs = whole.character()
    rhs = repmod.character_product(part_r.character(), part_f.character())
    return {
        "z": z,
        "z_restricted": zp,
        "z_frobenius": zpp,
        "dim": whole.dim,
        "factor_dims": (part_r.dim, part_f.dim),
        "character": lhs,
        "match": lhs == rhs,
    }


def frobenius_vanishing_check(alg, zpp, l):
    """On L(l z''), built by the full construction, every simple E and F
    acts as zero and every K_{alpha} acts as the identity (the
    Frobenius-twist degeneracy)."""
    mod = full_simple_at_root(alg, tuple(l * int(x) for x in zpp), l)
    ok_ef = not any(any(mod.matrix_of_atom((kind, i, i + 1, 1)))
                    for i in range(1, alg.shape.rank) for kind in ("E", "F"))
    one = mod.field.one
    ok_k = all(
        mod.q_weight(alg.shape.k_alpha_vector(i), wt) == one
        for i in range(1, alg.shape.rank)
        for wt in mod.eps_weights
    )
    return {"dim": mod.dim, "ef_vanish": ok_ef, "k_identity": ok_k}


def k_power_central_at_root(alg, l):
    """K_{alpha_i}^l commutes with every generator after specialization."""
    for i in range(1, alg.shape.rank):
        kl = alg.k_alpha(i, l)
        kl_inv = alg.k_alpha(i, -l)
        for j in range(1, alg.shape.rank):
            for kind in ("E", "F"):
                g = alg.gen(kind, j, j + 1)
                diff = kl * g - g * kl
                if specialize_element(alg, diff * kl_inv, l):
                    return False
    return True
