"""Braid operators attached to the even simple roots.

For an even node i (1 <= i < m+n, i != m), T_i is the algebra
automorphism acting on generators by

    T_i(E_i) = -F_i K_{alpha_i}            T_i(F_i) = -K_{alpha_i}^{-1} E_i
    T_i(E_j) = E_j, T_i(F_j) = F_j                      when a_ij = 0
    T_i(E_j) = -E_i E_j + q_i^{-1} E_j E_i              when a_ij = -1
    T_i(F_j) = -F_j F_i + q_i F_i F_j                   when a_ij = -1
    T_i(K_mu) = K_{s_i mu}   (s_i swaps entries i, i+1)

T_i is even (no super sign) and commutes with the E/F exchange map omega,
so T_i(F_jk) = omega(T_i(E_jk)).  The image of every root vector, composite
ones included, is written down (``_braid_image``), and T_i and T_i^{-1} act
through ``Algebra.apply_hom`` with those images.
"""

import functools

from .errors import BraidAtOddNode
from .pbwcore import Element
from .scalars import RF_ONE


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
    """T_i (or T_i^{-1}) of a torus atom or of a root vector (power one), in
    PBW normal form.  With X = F_i K^{alpha_i} and Y = F_i K^{-alpha_i}:

        E_jk        T_i(E_jk)                   T_i^{-1}(E_jk)
        (i, i+1)    -X                          -q_i^2 Y
        (i+1, k)    -E_ik                       q_i E_ik + (q_i^-1 - q_i) E_{i,i+1} E_{i+1,k}
        (i, k)      q_i^-1 E_{i+1,k}            -E_{i+1,k}
                      + (1 - q_i^-2) X E_ik
        (j, i)      a E_{j,i+1}                 -E_{j,i+1}
                      + b E_{i,i+1} E_ji
        (j, i+1)    -E_ji                       q_i E_ji + (q_i^3 - q_i) Y E_{j,i+1}

    and every other E_jk to itself, where (a, b) = (q_i, q_i^-1 - q_i) for an
    even E_ji and q_i^-1 (1, q_i^-1 - q_i) for an odd one.
    """
    if atom[0] == "K":
        return alg.k_mono(_swap_mu(atom[1], i))
    if atom[0] == "F":
        return alg.omega(_braid_image(alg, i, ("E",) + atom[1:], inverse))
    _, j, k, _ = atom
    q, qinv = alg.qi(i, 1), alg.qi(i, -1)
    alpha = alg.shape.k_alpha_vector(i)
    x = (("F", i, i + 1, 1), ("K", alpha))
    y = (("F", i, i + 1, 1), ("K", tuple(-a for a in alpha)))

    def e(a, b):
        return ("E", a, b, 1)

    if (j, k) == (i, i + 1):
        terms = [(-(q * q), y)] if inverse else [(-RF_ONE, x)]
    elif j == i + 1:
        terms = ([(q, (e(i, k),)), (qinv - q, (e(i, j), atom))] if inverse
                 else [(-RF_ONE, (e(i, k),))])
    elif j == i:
        terms = ([(-RF_ONE, (e(i + 1, k),))] if inverse
                 else [(qinv, (e(i + 1, k),)), (RF_ONE - qinv * qinv, x + (atom,))])
    elif k == i:
        odd = alg.shape.parity(j, i)
        b = (qinv - q) * qinv if odd else qinv - q
        terms = ([(-RF_ONE, (e(j, i + 1),))] if inverse
                 else [(qinv if odd else q, (e(j, i + 1),)), (b, (e(i, i + 1), atom))])
    elif k == i + 1:
        terms = ([(q, (e(j, i),)), (q * q * q - q, y + (atom,))] if inverse
                 else [(-RF_ONE, (e(j, i),))])
    else:
        terms = [(RF_ONE, (atom,))]
    return Element(alg, {alg.word_to_monomial(w): c for c, w in terms})


def _apply_braid(alg, i, elt, inverse):
    _check_even_node(alg.shape, i)
    image = functools.partial(_braid_image, alg, i, inverse=inverse)
    return alg.apply_hom(elt, image, roots=image)


def braid_t(alg, i, elt):
    """Apply T_i to an element."""
    return _apply_braid(alg, i, elt, False)


def braid_t_inv(alg, i, elt):
    """Apply T_i^{-1} to an element."""
    return _apply_braid(alg, i, elt, True)
