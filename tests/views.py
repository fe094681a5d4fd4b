"""The algebra seen through a map, for the relation catalog, and the derived
maps of the tensor square that the Hopf axioms are checked with.

``relations`` asks its algebra argument only for shape, qi, gen, k_mono,
k_alpha, one and zero, and does ring arithmetic on the values; through
``MappedView(alg, f)`` it checks that f respects the presentation: the
coproduct, a braid operator, or a module's action (its operators wrapped
as ``_Operator``).
"""

from qgl.braid import _check_even_node, braid_t, braid_t_inv
from qgl.hopf import TensorElement
from qgl.pbwcore import Element, add_term
from qgl.relations import all_relations
from qgl.repmod import _key_shift
from qgl.scalars import RF_ONE


def tensor_pair(x, y):
    """x (x) y for two elements of one algebra."""
    out = {}
    for k1, c1 in x.terms.items():
        for k2, c2 in y.terms.items():
            add_term(out, (k1, k2), c1 * c2)
    return TensorElement(x.alg, out)


class MappedView:
    """The algebra interface of alg with every value sent through f."""

    def __init__(self, alg, f):
        self._alg = alg
        self._f = f
        self.shape = alg.shape

    def qi(self, i, power=1):
        return self._alg.qi(i, power)

    def gen(self, kind, i, j):
        return self._f(self._alg.gen(kind, i, j))

    def k_mono(self, mu):
        return self._f(self._alg.k_mono(mu))

    def k_alpha(self, i, exp=1):
        return self._f(self._alg.k_alpha(i, exp))

    def one(self):
        return self._f(self._alg.one())

    def zero(self):
        return self._f(self._alg.zero())


def TensorSquareView(hopf):
    """The algebra seen through the coproduct."""
    return MappedView(hopf.alg, hopf.delta)


def BraidView(alg, i, inverse=False):
    """The algebra seen through T_i or T_i^{-1}."""
    _check_even_node(alg.shape, i)
    op = braid_t_inv if inverse else braid_t
    return MappedView(alg, lambda elt: op(alg, i, elt))


# -- module actions ------------------------------------------------------------


class _Absent:
    """Absorbs every ring operation: a relation that touches a missing
    generator evaluates to _ABSENT and is skipped."""

    def _absorb(self, *args):
        return self

    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = __neg__ = _absorb
    scale = _absorb


_ABSENT = _Absent()


class _Operator:
    """A module operator as the relation catalog computes with it: the sum,
    product and scaling of ``repmod._Matrix``, and the difference and zero
    test that only the catalog asks for."""

    __slots__ = ("m",)

    def __init__(self, m):
        self.m = m

    def __add__(self, other):
        if not isinstance(other, _Operator):
            return NotImplemented
        return _Operator(self.m + other.m)

    def __sub__(self, other):
        if not isinstance(other, _Operator):
            return NotImplemented
        return _Operator(self.m + other.m.scale(-RF_ONE))

    def __mul__(self, other):
        if not isinstance(other, _Operator):
            return NotImplemented
        return _Operator(self.m * other.m)

    def scale(self, c):
        return _Operator(self.m.scale(c))

    def is_zero(self):
        return not any(self.m.cols)


def _action(mod, elt):
    """The action of an element as a ring value, or _ABSENT when it needs a
    simple generator the module stores no matrix for."""
    nodes = set(mod.nodes())
    for mono in elt.terms:
        if any(a[0] != "K" and not nodes.issuperset(range(a[1], a[2]))
               for a in mod.alg.mono_word(mono)):
            return _ABSENT
    return _Operator(mod.alg.apply_hom(elt, mod._image))


def verify_module(mod):
    """Check a weight module against the relation catalog; returns defects.

    Every relation of ``relations.all_relations`` must act as the zero
    matrix; those that use a generator the module stores no matrix for (the
    odd node of an even module) are skipped.  Weight and parity
    compatibility of the stored simple generators are checked directly: K
    eigenvalues cannot separate weights at q = eta, and parity is not a
    relation.
    """
    sh = mod.alg.shape
    defects = []
    for i in mod.nodes():
        pi = 1 if i == sh.m else 0
        for kind in ("E", "F"):
            key = (kind, i, i + 1, 1)
            shift = _key_shift(key, sh.rank)
            for c, col in enumerate(mod.matrix_of_atom(key)):
                for r, _ in col:
                    want = tuple(a + b for a, b in zip(mod.eps_weights[c], shift))
                    if mod.eps_weights[r] != want:
                        defects.append("weight:%s%d" % (kind, i))
                    if (mod.parities[r] - mod.parities[c] - pi) % 2:
                        defects.append("parity:%s%d" % (kind, i))
    for name, rel in all_relations(MappedView(mod.alg, lambda elt: _action(mod, elt))):
        if rel is not _ABSENT and not rel.is_zero():
            defects.append(name)
    return defects


# -- derived maps of the tensor square -------------------------------------------


def map_slot(te, f, slot):
    """Apply a linear map (Element -> Element) to one slot of a tensor element."""
    alg = te.alg
    out = {}
    for (a, b), c in te.terms.items():
        img = f(Element(alg, {a if slot == 0 else b: RF_ONE}))
        for k, v in img.terms.items():
            add_term(out, (k, b) if slot == 0 else (a, k), c * v)
    return TensorElement(alg, out)


def multiply_out(te):
    """The image under multiplication m(a (x) b) = ab."""
    alg = te.alg
    acc = alg.zero()
    for (a, b), c in te.terms.items():
        acc = acc + Element(alg, {a: c}) * Element(alg, {b: RF_ONE})
    return acc


def delta_slot(hopf, te, slot):
    """Apply delta to one slot of a tensor element: a map into U^(x)3.

    Returns {(k1, k2, k3): coeff}.
    """
    out = {}
    for (a, b), c in te.terms.items():
        img = hopf.delta(Element(hopf.alg, {a if slot == 0 else b: RF_ONE}))
        for (x, y), v in img.terms.items():
            add_term(out, (x, y, b) if slot == 0 else (a, x, y), c * v)
    return out


def root_vector_via_braid(alg, kind, i, j):
    """Rebuild the composite root vector X_{ij} from a simple generator.

    Uses the chain
        X_{ij} = (-1)^{j-i-1} T_i ... T_{k-1} Tinv_{j-1} ... Tinv_{k+1} X_{k,k+1}
    where k is chosen so every braid index avoids the odd node m.
    """
    sh = alg.shape
    sh.check_pair(i, j)
    k = sh.m if i <= sh.m < j else i
    out = alg.gen(kind, k, k + 1)
    for t in range(k + 1, j):
        out = braid_t_inv(alg, t, out)
    for t in range(k - 1, i - 1, -1):
        out = braid_t(alg, t, out)
    if (j - i - 1) % 2:
        out = -out
    return out
