"""Braid operators attached to the even simple roots.

For an even node i (1 <= i < m+n, i != m), T_i is the algebra
automorphism acting on generators by

    T_i(E_i) = -F_i K_{alpha_i}            T_i(F_i) = -K_{alpha_i}^{-1} E_i
    T_i(E_j) = E_j, T_i(F_j) = F_j                      when a_ij = 0
    T_i(E_j) = -E_i E_j + q_i^{-1} E_j E_i              when a_ij = -1
    T_i(F_j) = -F_j F_i + q_i F_i F_j                   when a_ij = -1
    T_i(K_mu) = K_{s_i mu}   (s_i swaps entries i, i+1)

T_i is even (no super sign) and commutes with the E/F exchange map.
T_i and T_i^{-1} act through ``Algebra.apply_hom``, one image per generator atom.
"""

from .errors import BraidAtOddNode


def _check_even_node(shape, i):
    if not (1 <= i < shape.rank) or i == shape.m:
        raise BraidAtOddNode(
            "braid operator needs an even simple root, got %d (m=%d)" % (i, shape.m)
        )


def _swap_mu(mu, i):
    out = list(mu)
    out[i - 1], out[i] = out[i], out[i - 1]
    return tuple(out)


def _braid_image(alg, i, atom, inverse):
    """T_i (or T_i^{-1}) of one generator atom.

    T_i^{-1} sends each generator to T_i's image with the order of every
    product reversed and the exponent of K_{alpha_i} negated.
    """
    sh = alg.shape
    if atom[0] == "K":
        return alg.k_mono(_swap_mu(atom[1], i))
    sign = -1 if inverse else 1

    def prod(x, y):
        return y * x if inverse else x * y

    kind, j = atom[0], atom[1]  # simple generator: (j, j+1)
    if sh.cartan_entry(i, j) == 0:
        return alg.gen(kind, j, j + 1)
    if kind == "E":
        if j == i:
            return -prod(alg.gen("F", i, i + 1), alg.k_alpha(i, sign))
        ei, ej = alg.gen("E", i, i + 1), alg.gen("E", j, j + 1)
        return -prod(ei, ej) + prod(ej, ei).scale(alg.qi(i, -1))
    if j == i:
        return -prod(alg.k_alpha(i, -sign), alg.gen("E", i, i + 1))
    fi, fj = alg.gen("F", i, i + 1), alg.gen("F", j, j + 1)
    return -prod(fj, fi) + prod(fi, fj).scale(alg.qi(i, 1))


def _apply_braid(alg, i, elt, inverse):
    _check_even_node(alg.shape, i)
    return alg.apply_hom(elt, lambda atom: _braid_image(alg, i, atom, inverse))


def braid_t(alg, i, elt):
    """Apply T_i to an element."""
    return _apply_braid(alg, i, elt, False)


def braid_t_inv(alg, i, elt):
    """Apply T_i^{-1} to an element."""
    return _apply_braid(alg, i, elt, True)
