"""Weight modules: simple even-part modules, Kac modules, singular vectors,
simple heads, tensor products and characters.

All modules are finite dimensional with an integral weight grading kept in
eps-coordinates; the torus acts diagonally by q^{(mu, weight)}.  Action
matrices are stored for the simple generators (and, when needed, divided
powers); every other element acts through ``Algebra.apply_hom``, the
extension of a map on generators that the Hopf and braid maps use too.

L0(lam), the simple module of the even part gl(m) + gl(n), is built in
closed form on pairs of Gelfand-Tsetlin patterns, one per block: the
non-normalized GT formulas (Molev, arXiv math/0211289, section 2) with
every linear factor a symmetric q-integer (Jimbo 1986), so no product is
straightened.  The Kac module K(lam) = Lambda_q(g_-1) (x) L0(lam) is induced
from it (R. B. Zhang, J. Math. Phys. 34, 1993): a generator passes an
ordered odd monomial one odd root at a time, by the straightener's own
pair rules, and what is left of it acts on L0; no product is straightened
there either.  For q = eta it is induced the same way from L0(lam) rebased
onto divided lowering monomials, the integral lattice.  Its character needs
none of this: ``kac_character`` reads it off the weights of the basis.

The simple head of a highest-weight module is its quotient by the radical
of the contravariant form: the vectors that no raising word takes to the
top.  ``simple_head`` finds it in one pass, one rref per weight space, for
generic q and (raising with the divided powers E^(l) too) at q = eta.
Over Q(q) that pass reads only the raising matrices, so
``simple_character`` induces K(lam) with its E's alone, and for a typical
lam, where K(lam) is simple (Kac's theorem), it builds no module at all.
"""

import itertools
from fractions import Fraction
from math import prod

from .errors import DomainError, NonDominant, NotHighestWeight, ResourceLimit
from .linalg import Echelon, columns, mat_mul, nullspace, rref
from .pbwcore import Element, add_term
from .rootdata import (
    bilinear_form,
    in_Xplus,
    is_typical,
    weight_to_z,
    weyl_dim_even,
)
from .scalars import (
    GENERIC_FIELD,
    RF_ONE,
    RatFunc,
    check_q_degree,
    cyclo_field,
    exact_quotient,
    gauss_factorial,
    gauss_int,
)

# The largest Kac module built: its dimension 2^(mn) * weyl_dim_even(lam)
# is checked before any Gelfand-Tsetlin pattern is enumerated.
_MAX_KAC_DIM = 512


class WeightModule:
    """Finite-dimensional weight module with explicit action matrices.

    mats holds the stored action: ("E", i, i+1, 1) / ("F", i, i+1, 1) for
    the simple generators and ("DE", i, j, n) / ("DF", i, j, n) for divided
    powers, each as ``linalg``'s dim sparse columns: column c lists the
    (row, value) pairs of the nonzero entries of the image of basis vector
    c, rows ascending.  Actions run on the same format, a vector being a
    one-column matrix: the operator of an element is built by
    ``Algebra.apply_hom``, with a stored simple generator or a diagonal K
    as the image of each atom (``_image``), and acts by ``mat_mul``.  Such
    derived operators are never stored, so rebasing, quotients and
    specialization touch only what is stored.  Echelon rows, closures and
    singular vectors are the same sparse vectors.
    """

    def __init__(self, alg, field, eps_weights, parities, mats, top=None):
        self.alg = alg
        self.field = field
        self.eps_weights = [tuple(w) for w in eps_weights]
        self.parities = list(parities)
        self.mats = dict(mats)
        self.top = top

    @property
    def dim(self):
        return len(self.eps_weights)

    @property
    def l(self):
        """The order of eta for a module over Q(eta), None over Q(q)."""
        return self.field.l

    def q_weight(self, mu, wt):
        """The eigenvalue q^{(mu, wt)} of K_mu on a vector of weight wt."""
        return self.field.of(RatFunc.q_power(bilinear_form(self.alg.shape, mu, wt)))

    def _image(self, atom):
        """The operator of a simple generator or a torus atom, as ``apply_hom``
        asks for it."""
        if atom[0] == "K":
            mu, wts = atom[1], self.eps_weights
            return _Matrix(self, [[(r, self.q_weight(mu, wt))] for r, wt in enumerate(wts)])
        m = self.mats.get(atom)
        if m is None:
            raise DomainError("missing action matrix for simple generator %r" % (atom,))
        return _Matrix(self, m)

    def matrix_of_atom(self, atom):
        """The stored matrix of an atom, or else its operator from
        ``apply_hom``; built matrices are not kept."""
        hit = self.mats.get(atom)
        if hit is None:
            elt = Element(self.alg, {self.alg.word_to_monomial((atom,)): RF_ONE})
            hit = self.alg.apply_hom(elt, self._image).cols
        return hit

    def ensure_divided(self, kind, i, j, n):
        """Store the divided-power matrix X_{ij}^{(n)} (generic field only)."""
        key = ("D" + kind, i, j, n)
        if key in self.mats:
            return self.mats[key]
        if self.l is not None:
            raise DomainError(
                "divided-power matrices must be built generically before specialization"
            )
        fact = gauss_factorial(n)
        m = self.mats[key] = [[(r, exact_quotient(x, fact)) for r, x in col]
                              for col in self.matrix_of_atom((kind, i, j, n))]
        return m

    def act_element(self, elt, cols):
        """Apply an algebra element to sparse columns: its operator from
        ``apply_hom`` times cols."""
        return mat_mul(self.alg.apply_hom(elt, self._image).cols, cols)

    # -- structure ----------------------------------------------------------

    def identity(self):
        return [[(c, self.field.one)] for c in range(self.dim)]

    def character(self):
        """Multiplicities of z-weights."""
        return _character(self.alg.shape, self.eps_weights)

    def weight_spaces(self):
        out = {}
        for idx, wt in enumerate(self.eps_weights):
            out.setdefault(wt, []).append(idx)
        return out

    def action_keys(self):
        """The stored simple/divided action keys, deterministic order."""
        return sorted(self.mats.keys())

    def nodes(self):
        """Simple nodes whose action matrices are stored."""
        return sorted(
            {k[1] for k in self.mats if k[0] == "E" and k[2] == k[1] + 1 and k[3] == 1}
        )


class _Matrix:
    """A module operator on ``linalg``'s sparse columns, the value that
    ``apply_hom`` computes with: the product is ``mat_mul``, sums go through
    ``columns``, and a RatFunc scales through the module's field."""

    __slots__ = ("mod", "cols")

    def __init__(self, mod, cols):
        self.mod = mod
        self.cols = cols

    def __add__(self, other):
        if not isinstance(other, _Matrix):
            return NotImplemented
        return _Matrix(self.mod, columns(
            [(r, c, x) for m in (self, other) for c, col in enumerate(m.cols) for r, x in col],
            len(self.cols)))

    def __mul__(self, other):
        if isinstance(other, _Matrix):
            return _Matrix(self.mod, mat_mul(self.cols, other.cols))
        if isinstance(other, RatFunc):
            return self.scale(other)
        return NotImplemented

    def scale(self, c):
        x = self.mod.field.of(c)
        if x.is_zero():
            return _Matrix(self.mod, [[] for _ in self.cols])
        return _Matrix(self.mod, [[(r, y * x) for r, y in col] for col in self.cols])


# -- submodules and quotients -----------------------------------------------


def submodule_closure(mod, vectors, keys=None):
    """rref basis of the submodule generated by the vectors.

    A worklist: every generator is applied once to each vector that joined
    the span.
    """
    if keys is None:
        keys = mod.action_keys()
    mats = [mod.mats[k] for k in keys]
    span = Echelon(vectors)
    todo = list(span.rows)
    while todo:
        v = todo.pop()
        for m in mats:
            (col,) = mat_mul(m, [v])
            row = span.add(col)
            if row is not None:
                todo.append(row)
    return span.rows


def quotient_module(mod, span_rows):
    """The quotient by the submodule spanned by the given (closed) rows."""
    span = Echelon(span_rows)
    pivots = set(span.pivots)
    keep = [c for c in range(mod.dim) if c not in pivots]
    pos = {c: t for t, c in enumerate(keep)}  # reduced vectors vanish on the pivots

    def reduce_coords(vec):
        return [(pos[c], x) for c, x in span.reduce(vec)]

    new_mats = {key: [reduce_coords(m[c]) for c in keep] for key, m in mod.mats.items()}
    new_top = None
    if mod.top is not None:
        tv = reduce_coords([(mod.top, mod.field.one)])
        if tv:
            new_top = tv[0][0]
    return WeightModule(
        mod.alg,
        mod.field,
        [mod.eps_weights[c] for c in keep],
        [mod.parities[c] for c in keep],
        new_mats,
        top=new_top,
    )


def _raising_keys(mod):
    """The stored raising keys: the simple E's, then the divided powers
    E^(n), which only a module specialized at q = eta stores."""
    return [("E", i, i + 1, 1) for i in mod.nodes()] + [
        k for k in mod.action_keys() if k[0] == "DE"]


def singular_vectors(mod, skip_top=True):
    """Weight vectors killed by every stored raising operator: at q = eta
    the divided powers E^(n) too (the root-of-unity maximal condition)."""
    mats = [mod.mats[k] for k in _raising_keys(mod)]
    out = []
    top_wt = mod.eps_weights[mod.top] if (skip_top and mod.top is not None) else None
    for wt, idxs in sorted(mod.weight_spaces().items()):
        if top_wt is not None and wt == top_wt:
            continue
        rows = []
        for m in mats:
            block = {}  # the rows of m restricted to the columns idxs, by position
            for pos, c in enumerate(idxs):
                for r, x in m[c]:
                    block.setdefault(r, []).append((pos, x))
            rows += [block[r] for r in sorted(block)]
        for v in nullspace(rows, len(idxs), mod.field.one):
            out.append((wt, [(idxs[pos], x) for pos, x in v]))
    return out


def _key_shift(key, rank):
    """The eps-weight by which the stored action key moves a vector."""
    kind, i, j, n = key
    s = n if kind[-1] == "E" else -n
    out = [0] * rank
    out[i - 1] += s
    out[j - 1] -= s
    return tuple(out)


def _form_times(f, m, rows, cols):
    """The sparse row vector f * m[rows, cols], for f indexed like rows."""
    at = {rows[k]: x for k, x in f}
    out = []
    for t, c in enumerate(cols):
        acc = None
        for r, y in m[c]:
            x = at.get(r)
            if x is not None:
                acc = x * y if acc is None else acc + x * y
        if acc is not None and not acc.is_zero():
            out.append((t, acc))
    return out


def simple_head(mod):
    """The simple quotient of a highest-weight module: the quotient by the
    radical of its contravariant form, in one pass over the weight spaces.

    A vector v of weight mu lies in the maximal submodule iff no raising
    word takes it to the top.  The functionals v -> (w v)_top of the
    raising words w of weight top - mu are spanned by phi * X, for the
    stored raising matrices X: mu -> nu and the functionals phi of nu.
    Visiting the weights top down (the height sum_k (rank - k) mu_k rises
    by 1 along every simple root), their rref Phi_mu has the maximal
    submodule as kernel; its pivot columns are the head's basis, and the
    head acts on them by Phi_nu * X[rows of nu, pivot columns of mu].
    At q = eta the stored divided powers E^(n) raise as well, which makes
    the same argument hold at a root of unity (Lusztig's triangular
    decomposition of the integral form).
    """
    if mod.top is None:
        raise NotHighestWeight("simple head needs a distinguished top vector")
    rank = mod.alg.shape.rank
    spaces = mod.weight_spaces()
    top_wt = mod.eps_weights[mod.top]
    if len(spaces[top_wt]) != 1:
        raise NotHighestWeight(
            "the top weight space has dimension %d, not 1" % len(spaces[top_wt])
        )
    raising = [(_key_shift(k, rank), mod.mats[k]) for k in _raising_keys(mod)]

    def height(wt):
        return sum((rank - k) * x for k, x in enumerate(wt, 1))

    forms = {top_wt: ([[(0, mod.field.one)]], [0])}  # weight -> rref (rows, pivots)
    for wt in sorted(spaces, key=lambda w: (-height(w), w)):
        if wt == top_wt:
            continue
        rows = []
        for shift, m in raising:
            nu = tuple(a + b for a, b in zip(wt, shift))
            if nu not in forms:
                continue
            for f in forms[nu][0]:
                row = _form_times(f, m, spaces[nu], spaces[wt])
                if row:
                    rows.append(row)
        forms[wt] = rref(rows)
    keep = sorted(spaces[wt][p] for wt, (_, piv) in forms.items() for p in piv)
    if len(keep) == mod.dim:
        return mod
    pos = {c: t for t, c in enumerate(keep)}
    new_mats = {}
    for key, m in mod.mats.items():
        shift = _key_shift(key, rank)
        out = [[] for _ in keep]  # rows ascend: pivots ascend within a weight space
        for wt, (_, piv) in forms.items():
            nu = tuple(a + b for a, b in zip(wt, shift))
            if not piv or nu not in forms:
                continue
            cols = [spaces[wt][p] for p in piv]
            tgt = spaces[nu]
            for f, p in zip(*forms[nu]):
                for t, val in _form_times(f, m, tgt, cols):
                    out[pos[cols[t]]].append((pos[tgt[p]], val))
        new_mats[key] = out
    return WeightModule(
        mod.alg,
        mod.field,
        [mod.eps_weights[c] for c in keep],
        [mod.parities[c] for c in keep],
        new_mats,
        top=pos[mod.top],
    )


# -- the simple module of the even subalgebra --------------------------------


def _gt_patterns(top):
    """The Gelfand-Tsetlin patterns with top row ``top``: tuples of rows
    (row 1, ..., row N), row k of length k interlacing row k + 1."""
    if len(top) == 1:
        return [(tuple(top),)]
    out = []
    ranges = [range(top[i + 1], top[i] + 1) for i in range(len(top) - 1)]
    for row in itertools.product(*ranges):
        out += [sub + (tuple(top),) for sub in _gt_patterns(row)]
    return out


def _gt_weight(pattern):
    """eps_k = |row k| - |row k-1|."""
    sums = [0] + [sum(row) for row in pattern]
    return tuple(b - a for a, b in zip(sums, sums[1:]))


def _check_even_weight(sh, lam):
    """Raise for a weight of the wrong length, one that is not dominant for
    the even part, and one over the q-degree budget, in that order."""
    if len(lam) != sh.rank:
        raise DomainError("weight length does not match shape")
    if not in_Xplus(sh, lam):
        raise NonDominant("weight %r is not dominant for the even part" % (lam,))
    check_q_degree(max(abs(x) for x in lam), "the highest weight %r" % (lam,))


def check_kac_weight(alg, lam):
    """Every check that kac_module makes on lam before it builds anything,
    in its order: the Kac dimension budget, then _check_even_weight."""
    _check_kac_budget(alg, lam)
    _check_even_weight(alg.shape, tuple(lam))


def _even_basis(sh, lam):
    """The Gelfand-Tsetlin patterns of L0(lam), one list per block, and the
    eps-weights of its basis, the pattern pairs (a, b) in the order of a,
    then b.  Raises as _check_even_weight does, and when the patterns
    disagree with the Weyl formula."""
    _check_even_weight(sh, lam)
    blocks = [_gt_patterns(lam[:sh.m]), _gt_patterns(lam[sh.m:])]
    weights = [_gt_weight(a) + _gt_weight(b) for a in blocks[0] for b in blocks[1]]
    if len(weights) != weyl_dim_even(sh, lam):
        raise DomainError("Gelfand-Tsetlin basis disagrees with the Weyl formula")
    return blocks, weights


def _gt_action(patterns, k, kind, ratio):
    """The (target, source, coeff) entries of E_k or F_k of U_q(gl(N)) on
    GT patterns: the non-normalized Gelfand-Tsetlin formulas with every
    linear factor a symmetric q-integer [a].  In l_ki = lam_ki - i + 1,

        E_k xi = -sum_i prod_{j<=k+1} [l_ki - l_k+1,j]
                        / prod_{j!=i} [l_ki - l_kj] xi(+delta_ki),
        F_k xi =  sum_i prod_{j<=k-1} [l_ki - l_k-1,j]
                        / prod_{j!=i} [l_ki - l_kj] xi(-delta_ki),

    where a target that is not a pattern is zero.  ratio(num, den) is the
    value of prod [num] / prod [den] over tuples of integers.
    """
    index = {p: t for t, p in enumerate(patterns)}
    step, other = (1, k + 1) if kind == "E" else (-1, k - 1)
    out = []
    for src, p in enumerate(patterns):
        ls = [[x - i for i, x in enumerate(row)] for row in p]
        row = ls[k - 1]
        near = ls[other - 1] if other else []
        for i, li in enumerate(row):
            moved = list(p[k - 1])
            moved[i] += step
            tgt = index.get(p[:k - 1] + (tuple(moved),) + p[k:])
            if tgt is None:
                continue
            num = tuple(li - x for x in near)
            den = tuple(li - x for j, x in enumerate(row) if j != i)
            c = ratio(num, den)
            out.append((tgt, src, -c if kind == "E" else c))
    return out


def _gt_module(alg, lam, ratio):
    """L0(lam) on pairs of Gelfand-Tsetlin patterns, for a linear-factor
    product ratio(num, den) (``_gt_action``): the eps-weights of the basis,
    the matrices of E_i and F_i of every even node i, keyed (kind, i), and
    the index of the top."""
    sh = alg.shape
    blocks, weights = _even_basis(sh, lam)
    dim = len(weights)
    n2 = len(blocks[1])  # basis vector (a, b) of the two blocks is a * n2 + b
    mats = {}
    for blk, offset in ((0, 0), (1, sh.m)):
        pats = blocks[blk]
        others = range(len(blocks[1 - blk]))
        cell = (lambda a, o: a * n2 + o) if blk == 0 else (lambda a, o: o * n2 + a)
        for k in range(1, len(pats[0])):
            for kind in ("E", "F"):
                mats[(kind, offset + k)] = columns(
                    ((cell(tgt, o), cell(src, o), c)
                     for tgt, src, c in _gt_action(pats, k, kind, ratio) for o in others), dim)
    tops = [tuple(part[:k] for k in range(1, len(part) + 1))
            for part in (lam[:sh.m], lam[sh.m:])]
    return weights, mats, blocks[0].index(tops[0]) * n2 + blocks[1].index(tops[1])


def simple_even_module(alg, lam):
    """L0(lam) = L(lam_1..m) (x) L(lam_m+1..m+n), the simple gl(m) x gl(n)
    module, built on pairs of q-Gelfand-Tsetlin patterns (Molev,
    math/0211289, section 2, with q-integers as in Jimbo 1986).

    [a] is bar-invariant, so the second block, where q_i = q^-1, has the
    same matrices; the torus sees the sign through q_weight.  The odd node
    acts as zero on L0 and gets no matrix.  The dimension is checked
    against the Weyl formula.
    """
    ratios = {}  # this call's prod [num] / prod [den], by sorted factors

    def ratio(num, den):
        key = (tuple(sorted(num)), tuple(sorted(den)))
        hit = ratios.get(key)
        if hit is None:
            a, b = RF_ONE, RF_ONE
            for x in key[0]:
                a = a * gauss_int(x)
            for x in key[1]:
                b = b * gauss_int(x)
            hit = ratios[key] = a / b
        return hit

    weights, mats, top = _gt_module(alg, tuple(lam), ratio)
    return WeightModule(alg, GENERIC_FIELD, weights, [0] * len(weights),
                        {(kind, i, i + 1, 1): m for (kind, i), m in mats.items()}, top=top)


def frobenius_twist(alg, lam, l):
    """L(l lam) at q = eta of order l: the Frobenius twist of the classical
    simple gl(m) + gl(n) module of highest weight lam (lam dominant for the
    even part), the Gelfand-Tsetlin formulas of ``simple_even_module`` at
    q = 1, where every [a] is a.  Its weights are l times theirs, so every
    K_mu acts as 1.  The divided powers E_i^(l) and F_i^(l) of each even
    node act as the classical e_i and f_i; every simple E_i and F_i, the
    odd node's too, acts as zero and is stored so.  The quantum Frobenius
    map sends E_i^(l) to e_i and F_i^(l) to f_i; tests/test_rootofunity.py
    compares the twist with the engine's own L(l lam).
    """
    field = cyclo_field(l)

    def ratio(num, den):
        return field.of(RatFunc.from_fraction(Fraction(prod(num), prod(den))))

    weights, mats, top = _gt_module(alg, tuple(lam), ratio)
    dim = len(weights)
    stored = {}
    for i in range(1, alg.shape.rank):
        for kind in ("E", "F"):
            stored[(kind, i, i + 1, 1)] = [[] for _ in range(dim)]
            if (kind, i) in mats:
                stored[("D" + kind, i, i + 1, l)] = mats[(kind, i)]
    return WeightModule(alg, field, [tuple(l * x for x in wt) for wt in weights], [0] * dim,
                        stored, top=top)


# -- Kac modules ------------------------------------------------------------

def _times(a, b):
    """a * b, without the product when a factor is RF_ONE itself: most
    coefficients of the Kac induction are."""
    if a is RF_ONE:
        return b
    return a if b is RF_ONE else a * b


class _KacInduction:
    """The lam-free half of Kac induction on one algebra.

    K(lam) = Lambda_q(g_-1) (x) L0(lam) has the basis F1^d (x) w: F1^d an
    ordered monomial of the odd F's, d its 0/1 exponents in PBW order, and
    w a basis vector of L0.  ``induce(g, d)`` is g F1^d modulo the odd
    raising operators, which kill 1 (x) L0, as {(d', Y): coeff} with
    Y = (fpsi, k, epsi) the even part of the PBW monomial F1^d' Y; Y then
    acts on w.

    A generator passes F1^d one odd root F_b at a time, by the
    straightener's pair rule for g F_b (``_rule``): the F F rule for an odd
    or an even F, and the crossing rule for a simple E_i, (-1)^{p(E_i)}
    F_b E_i and at most one term of [E_i, F_b].  E_i moves on past the rest
    of F1^d, an odd E killing 1 (x) L0, and the torus atom of a term of
    [E_i, F_b] passes it by the straightener's torus rule.  Nothing is
    straightened; ``tests/test_repmod.py`` checks every rule, as the
    induction orders its atoms, against the two-atom product, and whole
    modules against the straightened induction of ``tests/kac_oracle.py``.
    The tables do not depend on lam and live on the algebra
    (``Algebra._kac_induction``), so all Kac modules of one algebra, both
    factors of a tensor product say, share them.
    """

    def __init__(self, alg):
        self.alg = alg
        unit = alg.unit_monomial()
        self.even_one = (unit.fpsi, unit.k, unit.epsi)
        self.odd = [("F", i, j, 1) for i, j in alg.f1_list]  # the roots of F1^d, in order
        self._place = {atom: p for p, atom in enumerate(self.odd)}
        self._rules = {}
        self._lmul = {}
        self._induce = {}

    @classmethod
    def of(cls, alg):
        """The tables of alg, built on first use."""
        if alg._kac_induction is None:
            alg._kac_induction = cls(alg)
        return alg._kac_induction

    # -- the two-atom rules ------------------------------------------------

    def _rule(self, atom, p):
        """atom F_b, F_b the odd root at place p, as terms (coeff, e, x, nu):
        coeff F1^e x K^nu.  Each word of ``Algebra._resolve_ef`` (a simple
        E) or ``Algebra._resolve_ff`` (an F) gives one: its K atom is nu,
        its odd F's are e in word order, and its other atom is x.  An even
        F's overlap terms put it before the odd F; its interval is nested in
        the odd one's, so the two commute."""
        key = (atom, p)
        hit = self._rules.get(key)
        if hit is None:
            alg = self.alg
            resolve = alg._resolve_ef if atom[0] == "E" else alg._resolve_ff
            hit = []
            for c, word in resolve(atom, self.odd[p]):
                e, x, nu = (), None, None
                for a in word:
                    if a[0] == "K":
                        nu = a[1]
                    elif a in self._place:
                        e += (self._place[a],)
                    else:
                        x = a
                hit.append((c, e, x, nu))
            self._rules[key] = hit
        return hit

    # -- products ----------------------------------------------------------

    def lmul(self, p, d):
        """F_b F1^d in Lambda_q(g_-1), F_b the odd root at place p: {d': coeff}."""
        key = (p, d)
        hit = self._lmul.get(key)
        if hit is None:
            first = d.index(1) if 1 in d else len(d)
            if p < first:
                hit = {d[:p] + (1,) + d[p + 1:]: RF_ONE}
            elif p == first:
                hit = {}  # F_b^2 = 0
            else:
                rest = {(d[:first] + (0,) + d[first + 1:], self.even_one): RF_ONE}
                hit = {}
                for c, e, _, _ in self._rule(self.odd[p], first):
                    for (d2, _), c2 in self._odd_times(e, rest).items():
                        add_term(hit, d2, _times(c, c2))
            self._lmul[key] = hit
        return hit

    def _odd_times(self, e, terms):
        """F1^e times {(d, Y): coeff}: the places e, right to left."""
        for p in reversed(e):
            out = {}
            for (d, y), c in terms.items():
                for d2, c2 in self.lmul(p, d).items():
                    add_term(out, (d2, y), _times(c, c2))
            terms = out
        return terms

    def induce(self, atom, d):
        """atom F1^d modulo the odd raising operators: {(d', Y): coeff}."""
        key = (atom, d)
        hit = self._induce.get(key)
        if hit is None:
            hit = self._induce[key] = self._induce_uncached(atom, d)
        return hit

    def _induce_uncached(self, atom, d):
        if atom in self._place:
            return {(d2, self.even_one): c for d2, c in self.lmul(self._place[atom], d).items()}
        if 1 not in d:
            if atom[0] == "E" and self.alg.shape.parity(atom[1], atom[2]):
                return {}  # an odd raising operator kills 1 (x) L0
            key = self.alg.word_to_monomial((atom,))
            return {(d, (key.fpsi, key.k, key.epsi)): RF_ONE}
        first = d.index(1)
        rest = d[:first] + (0,) + d[first + 1:]
        out = {}
        for c, e, x, nu in self._rule(atom, first):
            terms = {(rest, self.even_one): RF_ONE} if x is None else self.induce(x, rest)
            if nu is not None:
                # x is an even F or None, so K^nu goes right after it
                passed = [f for f, n in zip(self.odd, rest) if n]
                c = _times(c, RatFunc.q_power(self.alg._torus_exponent(nu, passed)))
                terms = {(d2, (y[0], nu, y[2])): c2 for (d2, y), c2 in terms.items()}
            for key, c2 in self._odd_times(e, terms).items():
                add_term(out, key, _times(c, c2))
        return out


def _check_kac_budget(alg, lam):
    """Raise ResourceLimit when the Kac dimension 2^(mn) * weyl_dim_even(lam)
    is over _MAX_KAC_DIM; a weight that is not dominant is left for
    _even_basis to reject."""
    sh = alg.shape
    lam = tuple(lam)
    if len(lam) == sh.rank and in_Xplus(sh, lam):
        dim = kac_dimension_oracle(alg, lam)
        if dim > _MAX_KAC_DIM:
            raise ResourceLimit("Kac dimension %d is over the budget of %d" % (dim, _MAX_KAC_DIM))


def _kac_labels(alg, dim0):
    """The basis F1^d (x) w of K(lam) as pairs (d, w), in the order of d,
    then w, for an L0(lam) of dimension dim0."""
    dvecs = itertools.product((0, 1), repeat=len(alg.f1_list))
    return [(d, w) for d in dvecs for w in range(dim0)]


def _kac_weights(alg, l0_weights, labels):
    """The eps-weight of each F1^d (x) w of labels: the weight of w in L0
    plus the weight of F1^d."""
    unit = alg.unit_monomial()
    shifts = {d: alg.monomial_weight(unit._replace(fd=d)) for d in {d for d, _ in labels}}
    return [tuple(a + b for a, b in zip(l0_weights[w], shifts[d])) for d, w in labels]


def _induced_module(l0, labels, kinds):
    """K(lam) = Lambda_q(g_-1) (x) l0 on the basis F1^d (x) w, in the order of
    labels, a list of every (d, w), storing the simple generators of the
    given kinds: ("E", "F") for the whole module, ("E",) for the raising
    half, all that a simple head over Q(q) reads.  A simple generator acts
    through ``_KacInduction``; its even parts act on l0, in whatever basis
    l0 has."""
    alg = l0.alg
    index = {lab: t for t, lab in enumerate(labels)}
    weights = _kac_weights(alg, l0.eps_weights, labels)
    parities = [sum(d) % 2 for d, _ in labels]
    induction = _KacInduction.of(alg)
    images = {}  # (fpsi, k, epsi) -> the matrix of that even monomial on l0

    def image(even):
        hit = images.get(even)
        if hit is None:
            y = alg.monomial(fpsi=even[0], k=even[1], epsi=even[2])
            hit = images[even] = l0.act_element(y, l0.identity())
        return hit

    mats = {}
    for i in range(1, alg.shape.rank):
        for kind in kinds:
            atom = (kind, i, i + 1, 1)
            mats[atom] = columns(
                ((index[(fd, wp)], cidx, _times(coeff, val))
                 for cidx, (d, w) in enumerate(labels)
                 for (fd, even), coeff in induction.induce(atom, d).items()
                 for wp, val in image(even)[w]), len(labels))
    return WeightModule(alg, GENERIC_FIELD, weights, parities, mats,
                        top=index[(tuple([0] * len(alg.f1_list)), l0.top)])


def kac_module(alg, lam):
    """K(lam) = Lambda_q(g_-1) (x) L0(lam), the basis F1^d (x) w in the order
    of d, then w.  The dimension is checked against _MAX_KAC_DIM before L0
    is built."""
    _check_kac_budget(alg, lam)
    l0 = simple_even_module(alg, lam)
    return _induced_module(l0, _kac_labels(alg, l0.dim), ("E", "F"))


def kac_character(alg, lam):
    """The character of K(lam), kac_module(alg, lam).character(), from the
    weights of its basis alone: L0(lam)'s Gelfand-Tsetlin weights, each
    shifted by the weight of every F1^d.  No action matrix is built; the
    checks, and their order, are those of kac_module.  A Kac character does
    not depend on q."""
    _check_kac_budget(alg, lam)
    _, weights = _even_basis(alg.shape, tuple(lam))
    return _character(alg.shape, _kac_weights(alg, weights, _kac_labels(alg, len(weights))))


def simple_character(alg, lam):
    """The character of L(lam) over Q(q), simple_head(kac_module(alg,
    lam)).character(), with no module built for a typical lam and only the
    raising half of K(lam) for an atypical one.

    The checks, and their order, are those of kac_module.  By Kac's
    theorem, proved for U_q(gl(m|n)) at generic q by R. B. Zhang (J. Math.
    Phys. 34, 1993), K(lam) is simple exactly when lam is typical, so then
    L(lam) = K(lam) and its character is kac_character's.  Otherwise the
    head's basis is the pivots of one forms pass that reads only the
    raising matrices, and a character reads only the kept weights, so
    K(lam) is induced with its simple E's and no F.  At q = eta both
    halves are still built: ``rootofunity.specialize_kac`` evaluates the
    lowering matrices at eta, where a pole shows that the basis is not
    integral.
    """
    check_kac_weight(alg, lam)
    if is_typical(alg.shape, lam):
        return kac_character(alg, lam)
    l0 = simple_even_module(alg, lam)
    return simple_head(_induced_module(l0, _kac_labels(alg, l0.dim), ("E",))).character()


def divided_kac_module(alg, lam):
    """K(lam) on the lattice basis F1^d (x) F0^(psi) v0 of divided lowering
    monomials, on which it specializes at q = eta.

    K(lam) is free over Lambda_q(g_-1), so only L0(lam) is rebased, a module
    2^(mn) times smaller, and K(lam) is induced from it.  The basis is
    ordered by (|d| + |psi|, d, psi): the order in which a greedy choice of
    divided monomials over the whole of K(lam) picks the same vectors.  The
    dimension is checked against _MAX_KAC_DIM before L0 is built.
    """
    _check_kac_budget(alg, lam)
    l0, psis = rebase_to_divided_monomials(simple_even_module(alg, lam))
    labels = _kac_labels(alg, l0.dim)
    labels.sort(key=lambda dw: (sum(dw[0]) + sum(psis[dw[1]]), dw[0], psis[dw[1]]))
    return _induced_module(l0, labels, ("E", "F"))


def kac_dimension_oracle(alg, lam):
    sh = alg.shape
    return (2 ** (sh.m * sh.n)) * weyl_dim_even(sh, lam)


# -- characters and tensor products -----------------------------------------


def _character(sh, eps_weights):
    """Multiplicities of the z-weights of a basis with these eps-weights."""
    out = {}
    for wt in eps_weights:
        z = weight_to_z(sh, wt)
        out[z] = out.get(z, 0) + 1
    return out


def character_product(ca, cb):
    """The character of a tensor product, from its factors' characters: z is
    linear in the weight, so the multiplicities convolve."""
    out = {}
    for za, ma in ca.items():
        for zb, mb in cb.items():
            z = tuple(x + y for x, y in zip(za, zb))
            out[z] = out.get(z, 0) + ma * mb
    return out


def _factor_columns(mod, key):
    """The sparse columns of a coproduct factor on mod; the unit is the
    identity, with None for its entries 1."""
    word = mod.alg.mono_word(key)
    if not word:
        return [[(c, None)] for c in range(mod.dim)]
    return mod.matrix_of_atom(word[0])


def tensor_module(m1, m2):
    """Signed tensor product: a simple generator g acts through its
    coproduct Delta(g) = sum c x (x) y (``hopf.Hopf.delta_atom``), each
    term sending a (x) b to (-1)^{p(y) p(a)} c (x a) (x) (y b)."""
    # the coproduct is loaded only where a tensor product is built
    from .hopf import Hopf

    if m1.alg is not m2.alg or m1.l != m2.l:
        raise DomainError("tensor factors live over different bases")
    alg = m1.alg
    labels = [(a, b) for a in range(m1.dim) for b in range(m2.dim)]
    index = {lab: t for t, lab in enumerate(labels)}
    weights = [
        tuple(x + y for x, y in zip(m1.eps_weights[a], m2.eps_weights[b]))
        for a, b in labels
    ]
    parities = [(m1.parities[a] + m2.parities[b]) % 2 for a, b in labels]
    hopf = Hopf(alg)

    def entries(key):
        """The (row, column, value) entries of the coproduct terms of key."""
        for (x, y), c in hopf.delta_atom(key).terms.items():
            cx, cy = _factor_columns(m1, x), _factor_columns(m2, y)
            cval = None if c == RF_ONE else m1.field.of(c)
            py = alg.monomial_parity(y)
            for cidx, (a, b) in enumerate(labels):
                for ap, u in cx[a]:
                    for bp, v in cy[b]:
                        val = v if u is None else u if v is None else u * v
                        if cval is not None:
                            val = val * cval
                        if py and m1.parities[a]:
                            val = -val
                        yield index[(ap, bp)], cidx, val

    mats = {}
    for i in range(1, alg.shape.rank):
        for kind in ("E", "F"):
            key = (kind, i, i + 1, 1)
            mats[key] = columns(entries(key), len(labels))
    top = None
    if m1.top is not None and m2.top is not None:
        top = index[(m1.top, m2.top)]
    return WeightModule(alg, m1.field, weights, parities, mats, top=top)


def rebase_to_divided_monomials(mod):
    """Re-coordinatize a generic highest-weight module of the even part on
    the lattice basis of divided lowering monomials F0^(psi) v0.

    The Gelfand-Tsetlin matrices have denominators that vanish at a root of
    unity; the divided monomials span the integral lattice, so the
    conjugated matrices specialize cleanly.  The monomials are chosen in
    the order (|psi|, psi), one echelon basis per weight space.  Each comes
    from one of the degree below, F0^(psi) v0 = F_k F0^(psi - e_k) v0 /
    [psi_k] with k the first nonzero slot of psi, by one sparse product
    with a lowering operator built once per call.  Returns the rebased
    module and the exponents psi of its basis vectors.
    """
    if mod.top is None:
        raise NotHighestWeight("rebasing needs a distinguished top vector")
    alg = mod.alg
    n0 = len(alg.f0_list)
    one = mod.field.one
    lowering = [mod.matrix_of_atom(("F", i, j, 1)) for i, j in alg.f0_list]
    cols, psis = [], []
    spans = {wt: Echelon() for wt in mod.weight_spaces()}  # the chosen vectors, per weight space
    below = {}  # the nonzero F0^(psi) v0 of the degree below
    deg = 0
    while len(cols) < mod.dim and deg <= mod.dim + 1:
        level = {}
        for psi in itertools.product(range(deg + 1), repeat=n0):
            if sum(psi) != deg:
                continue
            col = [(mod.top, one)]
            if deg:
                # F0^(psi) v0 = F_k F0^(psi - e_k) v0 / [psi_k], k the first
                # nonzero slot: the leftmost factor of the PBW monomial
                k = next(t for t, x in enumerate(psi) if x)
                prev = below.get(psi[:k] + (psi[k] - 1,) + psi[k + 1:])
                if prev is None:
                    continue
                (col,) = mat_mul(lowering[k], [prev])
                if not col:
                    continue
                d = gauss_int(psi[k])
                col = [(r, exact_quotient(x, d)) for r, x in col]
            level[psi] = col
            if spans[mod.eps_weights[col[0][0]]].add(col) is not None:
                cols.append(col)
                psis.append(psi)
                if len(cols) == mod.dim:
                    break
        below = level
        deg += 1
    if len(cols) < mod.dim:
        raise DomainError("divided monomials do not span the module")
    # P columns are the new basis vectors; rref [P | 1] = [1 | P^-1], and
    # every stored matrix is conjugated by P
    rows = [[] for _ in range(mod.dim)]
    for c, col in enumerate(cols):
        for r, x in col:
            rows[r].append((c, x))
    red, piv = rref([row + [(mod.dim + r, one)] for r, row in enumerate(rows)])
    if piv != list(range(mod.dim)):
        raise DomainError("basis change matrix is singular")
    p_inv = columns(((r, c - mod.dim, x) for r, row in enumerate(red) for c, x in row
                     if c >= mod.dim), mod.dim)
    new_mats = {key: mat_mul(p_inv, mat_mul(m, cols)) for key, m in mod.mats.items()}
    weights = [mod.eps_weights[col[0][0]] for col in cols]
    parities = [mod.parities[col[0][0]] for col in cols]
    return WeightModule(alg, GENERIC_FIELD, weights, parities, new_mats, top=0), psis

