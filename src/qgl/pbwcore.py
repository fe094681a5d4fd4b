"""PBW elements of U_q(gl(m,n)) and straightening multiplication.

An element is a finite Q(q)-linear combination of PBW basis monomials

    F1^d' F0^psi' K_mu E0^psi E1^d

with the odd F block first, then the even F block, a central torus
monomial, the even E block, and the odd E block.  Products are computed
by a terminating rewriting system on words of atoms:

    ('E', i, j, n)   n-th ordinary power of the root vector E_{ij}
    ('F', i, j, n)   same on the lowering side
    ('K', mu)        torus monomial K_1^{mu_1} ... K_{m+n}^{mu_{m+n}}

The rewrite rules are the straightening identities of the defining
presentation: supercommutation of nested/disjoint root vectors,
scalar swaps for pairs sharing an endpoint, the two-term overlap
identity for interleaved intervals, the triangular composite-root
recursion, torus commutation, and the E-F crossing rules.  Lowering-side
rules are obtained from raising-side rules through the anti-automorphism
Omega (E <-> F, K -> K^-1, q -> q^-1).

The PBW order lives in one place, the slot table ``Algebra.slots`` built by
the constructor: one slot per root vector in PBW order, odd F (descending
pairs), even F (descending), the torus slot, even E (ascending), odd E
(ascending).  A slot is (field, index, kind, i, j): the PBWMonomial field
that holds its exponent, the place within that field, and the root vector.
Reading monomials as words, words as monomials, weights, printing and the
straightening order (a pair is reducible when its left atom's slot is not
before its right atom's) all go through that table.

Each algebra caches the replacement of every reducible pair of atoms it
meets.  A crossing pair (an E atom followed by an F atom) is cached as its
full normal form, not as one rewrite step: crossing a composite F expands
it into simple F's that the lowering-side rules then fold back, and that
tree of mostly cancelling rewrites runs once per pair and algebra.
One step budget (_MAX_STEPS) bounds a top-level straightening together
with the pair resolutions it opens.
"""

from collections import namedtuple

from .errors import (
    _MAX_INT_BITS,
    _MAX_INT_DIGITS,
    DomainError,
    NegativeDividedPower,
    NotIntegral,
    OddPowerTooHigh,
    ResourceLimit,
    check_int_size,
)
from .rootdata import Shape, bilinear_form
from .scalars import (
    RF_ONE,
    RF_ZERO,
    RatFunc,
    check_q_degree,
    gauss_factorial,
)

_MAX_STEPS = 5_000_000
# crossing pairs whose normal forms may be under construction at once; a
# deeper pair keeps its one-step rewrite, which bounds the recursion
_MAX_NESTING = 100
# largest t of a torus bracket [K;c;t] built, directly or as a K-exponent
# coordinate; the tests and the benchmark workloads use t <= 4
_MAX_BRACKET = 8
# largest n whose [n]! is built, for a divided power X^(n) or for the
# integral coordinates of X^n: X^(200) prints 6.6 MB; the tests use
# n <= 100 and the benchmark workloads n <= 3
_MAX_DIVIDED = 200
# largest n of a power x^n computed as n - 1 successive products, for an x
# that is not a scalar times one atom: (E[1,2]+1)^200 takes 0.2 s and
# (K[1]+K[2])^200 0.7 s; below the budget's own test the tests use n <= 14,
# and the benchmark workloads take no such power
_MAX_POWER = 200


def _check_power(x, n):
    """The budget of a power x^n computed as n products: n up to _MAX_POWER
    unless x is zero, checked before any product."""
    if n > _MAX_POWER and x:
        raise ResourceLimit("power %d is over the budget of %d for an element that is "
                            "not a scalar times one atom" % (n, _MAX_POWER))


def _factorial(n):
    """[n]!, for n within the divided-power budget."""
    if n > _MAX_DIVIDED:
        raise ResourceLimit("divided power X^(%d) is over the budget of %d" % (n, _MAX_DIVIDED))
    return gauss_factorial(n)


class _Budget:
    """Rewrite steps spent by one top-level straighten call, nested
    crossing-pair resolutions included, and their current nesting depth."""

    __slots__ = ("steps", "depth")

    def __init__(self):
        self.steps = 0
        self.depth = 0


class PBWMonomial(namedtuple("PBWMonomial", "fd fpsi k epsi ed")):
    """Canonical key of one PBW basis word: the exponents of its odd F, even
    F, torus, even E and odd E blocks.  Equality, hash and order are those
    of the tuple ``key()``."""

    __slots__ = ()

    def key(self):
        return tuple(self)


def add_term(out, key, c):
    """Add c to out[key] in a sparse term map, dropping the key when the sum
    is zero."""
    s = out.get(key)
    s = c if s is None else s + c
    if s:
        out[key] = s
    else:
        out.pop(key, None)


class LinearCombination:
    """Finite map key -> scalar over a fixed algebra; immutable.

    The one term-map type: sums, negation, scaling and equality are defined
    here, and accept only an operand of the same concrete type (or a scalar,
    where a subclass's ``_coerce`` allows one).  Each subclass defines its
    own product.
    """

    __slots__ = ("alg", "terms")

    def __init__(self, alg, terms):
        object.__setattr__(self, "alg", alg)
        object.__setattr__(self, "terms", dict(terms))

    def __setattr__(self, *a):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def _coerce(self, other):
        """other as a value of this type, or None when it is not one."""
        if type(other) is not type(self):
            return None
        if self.alg is not other.alg:
            raise DomainError("elements from different algebras")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            add_term(out, k, c)
        return type(self)(self.alg, out)

    __radd__ = __add__

    def __neg__(self):
        return type(self)(self.alg, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def scale(self, c):
        if isinstance(c, int):
            c = RatFunc.from_int(c)
        if c.is_zero():
            return type(self)(self.alg, {})
        return type(self)(self.alg, {k: v * c for k, v in self.terms.items()})

    def __rmul__(self, other):
        if isinstance(other, (int, RatFunc)):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.alg is other.alg and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0])


class Element(LinearCombination):
    """Finite map PBWMonomial -> RatFunc over a fixed algebra; immutable."""

    __slots__ = ()

    def _coerce(self, other):
        if isinstance(other, (int, RatFunc)):
            return self.alg.scalar(other)
        return super()._coerce(other)

    def __mul__(self, other):
        if isinstance(other, (int, RatFunc)):
            return self.scale(other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.alg.multiply(self, other)

    def _one_atom(self):
        """(c, key) when this is a scalar c times a monomial key of at most
        one atom, else None."""
        if len(self.terms) == 1:
            ((key, c),) = self.terms.items()
            if len(self.alg.mono_word(key)) <= 1:
                return c, key
        return None

    def __pow__(self, n):
        """x^n as n successive products, for n up to _MAX_POWER; apply_hom
        takes the image of X^n by the same rule.  A scalar, or a scalar
        times one PBW atom, has the closed form (c X^a)^n = c^n X^(a n),
        zero for an odd root vector and n >= 2, which is what straightening
        that word returns; only c K^mu has negative powers."""
        alg = self.alg
        c, key = self._one_atom() or (None, None)
        if n < 0 and (key is None or not alg.is_torus(key)):
            raise DomainError("negative power of a non-invertible element")
        check_q_degree(n * max((v.q_degree() for v in self.terms.values()), default=0),
                       "a power")
        if key is None:
            _check_power(self, n)
            out = self if n else alg.one()
            for _ in range(n - 1):
                out = out * self
            return out
        if n >= 2 and alg.monomial_parity(key):
            return alg.zero()
        if abs(n) > _MAX_INT_BITS and c.as_int() not in (1, -1):
            # c has q-degree 0 here, so c^n has an integer of at least 2^|n|
            raise ResourceLimit("a power has an integer of more than %d digits, over the budget"
                                % _MAX_INT_DIGITS)
        blocks = [tuple(n * e for e in block) for block in key]
        check_int_size(max(abs(e) for block in blocks for e in block), "a power")
        return Element(alg, {PBWMonomial._make(blocks): c ** n})

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.alg.scalar(other)
        return super().__eq__(other)

    __hash__ = LinearCombination.__hash__

    def omega(self):
        return self.alg.omega(self)

    def psi(self):
        return self.alg.psi(self)

    def weight(self):
        """eps-weight when homogeneous; raises otherwise."""
        w = None
        for k in self.terms:
            wk = self.alg.monomial_weight(k)
            if w is None:
                w = wk
            elif w != wk:
                raise DomainError("element is not weight-homogeneous")
        return w if w is not None else tuple([0] * self.alg.shape.rank)

    def parity(self):
        p = None
        for k in self.terms:
            pk = self.alg.monomial_parity(k)
            if p is None:
                p = pk
            elif p != pk:
                raise DomainError("element is not parity-homogeneous")
        return p if p is not None else 0

    def __repr__(self):
        if not self.terms:
            return "Element(0)"
        bits = []
        for k, c in self.sorted_terms()[:6]:
            bits.append("%s * %r" % (c.render(), k.key()))
        if len(self.terms) > 6:
            bits.append("... (%d terms)" % len(self.terms))
        return "Element(%s)" % "; ".join(bits)


class Algebra:
    """U_q(gl(m,n)) over Q(q): monomial bookkeeping, straightening, caches."""

    def __init__(self, shape):
        if not isinstance(shape, Shape):
            shape = Shape(*shape)
        self.shape = shape
        self.e0_list = list(shape.I0)
        self.e1_list = list(shape.I1)
        self.f1_list = sorted(shape.I1, reverse=True)
        self.f0_list = sorted(shape.I0, reverse=True)
        # the slot table: (field, index, kind, i, j) in PBW order, field being
        # the position of the block in PBWMonomial
        blocks = (
            ("F", self.f1_list),
            ("F", self.f0_list),
            ("K", [(None, None)]),
            ("E", self.e0_list),
            ("E", self.e1_list),
        )
        self.slots = [
            (field, index, kind, i, j)
            for field, (kind, pairs) in enumerate(blocks)
            for index, (i, j) in enumerate(pairs)
        ]
        self._torus_pos = [kind for _, _, kind, _, _ in self.slots].index("K")
        self._slot_of = {
            (kind, i, j): (field, index, pos)
            for pos, (field, index, kind, i, j) in enumerate(self.slots)
            if kind != "K"
        }
        self._unit = PBWMonomial(
            (0,) * len(self.f1_list),
            (0,) * len(self.f0_list),
            (0,) * shape.rank,
            (0,) * len(self.e0_list),
            (0,) * len(self.e1_list),
        )
        self._pair_cache = {}
        self._prod_cache = {}
        self._comp_cache = {}
        self._kconv_cache = {}
        self._bracket_cache = {}
        self._kac_induction = None  # repmod._KacInduction, built on first use

    # -- basics -------------------------------------------------------------

    def q_sign(self, i):
        return self.shape.eps_sign(i)

    def qi(self, i, power=1):
        """q_i^power as a scalar."""
        return RatFunc.q_power(self.q_sign(i) * power)

    def zero(self):
        return Element(self, {})

    def unit_monomial(self):
        return self._unit

    def one(self):
        return Element(self, {self.unit_monomial(): RF_ONE})

    def scalar(self, c):
        if isinstance(c, int):
            c = RatFunc.from_int(c)
        if c.is_zero():
            return self.zero()
        return Element(self, {self.unit_monomial(): c})

    def gen(self, kind, i, j):
        """The root vector E_{ij} or F_{ij} as a basis element."""
        self.shape.check_pair(i, j)
        if kind not in ("E", "F"):
            raise DomainError("kind must be 'E' or 'F'")
        return self._atom_element((kind, i, j, 1))

    def k_mono(self, mu):
        mu = tuple(int(x) for x in mu)
        if len(mu) != self.shape.rank:
            raise DomainError("torus exponent length mismatch")
        return Element(self, {self._unit._replace(k=mu): RF_ONE})

    def k_alpha(self, i, exp=1):
        vec = self.shape.k_alpha_vector(i)
        return self.k_mono(tuple(exp * x for x in vec))

    def _atom_element(self, atom):
        kind, i, j, n = atom
        if n == 0:
            return self.one()
        if self.shape.parity(i, j) and n >= 2:
            return self.zero()
        return Element(self, {self.word_to_monomial((atom,)): RF_ONE})

    def monomial(self, **blocks):
        """The basis element with the given blocks (fd, fpsi, k, epsi, ed);
        the blocks not given are zero."""
        key = self._unit._replace(**{f: tuple(v) for f, v in blocks.items()})
        return Element(self, {key: RF_ONE})

    def divided_power(self, kind, i, j, n):
        """E_{ij}^{(n)} = E_{ij}^n / [n]! (and likewise for F)."""
        if n < 0:
            raise NegativeDividedPower("divided power with n=%d" % n)
        self.shape.check_pair(i, j)
        if self.shape.parity(i, j):
            if n >= 2:
                raise OddPowerTooHigh(
                    "odd root vector (%d,%d) admits no divided power %d" % (i, j, n)
                )
            return self._atom_element((kind, i, j, n))
        fact = _factorial(n)
        return self._atom_element((kind, i, j, n)).scale(fact.inverse())

    def kbracket_element(self, i, c, t):
        """The torus bracket element [K_{alpha_i}; c; t] expanded in K-monomials."""
        self.shape.check_node(i)
        if t < 0:
            raise DomainError("t must be nonnegative")
        if t > _MAX_BRACKET:
            raise ResourceLimit("bracket [K;c;t] with t = %d above %d" % (t, _MAX_BRACKET))
        check_q_degree(c, "the shift c of a torus bracket [K;c;t]")
        kvec = self.shape.k_alpha_vector(i)
        return Element(self, {
            self._unit._replace(k=tuple(e * x for x in kvec)): v
            for e, v in self._kbracket_poly(self.q_sign(i), c, t).items()
        })

    def _kbracket_poly(self, sign, c, t):
        """[K;c;t] as {exponent of K = K_{alpha_i}: RatFunc}, q_i = q^sign:
        [K;c;t-1] times (q_i^a K - q_i^-a K^-1) / (q_i^t - q_i^-t), a = c-t+1."""
        key = (sign, c, t)
        hit = self._bracket_cache.get(key)
        if hit is None:
            if t == 0:
                hit = {0: RF_ONE}
            else:
                a = c - t + 1
                den = (RatFunc.q_power(sign * t) - RatFunc.q_power(-sign * t)).inverse()
                up = RatFunc.q_power(sign * a) * den
                down = -RatFunc.q_power(-sign * a) * den
                hit = {}
                for e, v in self._kbracket_poly(sign, c, t - 1).items():
                    add_term(hit, e + 1, v * up)
                    add_term(hit, e - 1, v * down)
            self._bracket_cache[key] = hit
        return hit

    # -- monomial <-> word --------------------------------------------------

    def mono_word(self, key):
        """The monomial's word: one atom per nonzero slot, in PBW order."""
        w = []
        for field, index, kind, i, j in self.slots:
            if kind == "K":
                if any(key.k):
                    w.append(("K", key.k))
            elif key[field][index]:
                w.append((kind, i, j, key[field][index]))
        return tuple(w)

    def word_to_monomial(self, word):
        """The monomial of a word in PBW order; atoms in one slot add up."""
        blocks = [list(b) for b in self._unit]
        for atom in word:
            if atom[0] == "K":
                blocks[2] = [a + b for a, b in zip(blocks[2], atom[1])]
            else:
                field, index, _ = self._slot_of[atom[:3]]
                blocks[field][index] += atom[3]
        return PBWMonomial._make(map(tuple, blocks))

    def monomial_weight(self, key):
        w = [0] * self.shape.rank
        for atom in self.mono_word(key):
            if atom[0] != "K":
                kind, i, j, n = atom
                if kind == "F":
                    n = -n
                w[i - 1] += n
                w[j - 1] -= n
        return tuple(w)

    def monomial_parity(self, key):
        return (sum(key.fd) + sum(key.ed)) % 2

    def is_torus(self, key):
        """Whether key is a torus monomial K^mu (the unit included)."""
        u = self._unit
        return key.fd == u.fd and key.fpsi == u.fpsi and key.epsi == u.epsi and key.ed == u.ed

    # -- straightening ------------------------------------------------------

    def _position(self, atom):
        """The atom's place in the PBW order: its slot's, or the torus slot."""
        return self._torus_pos if atom[0] == "K" else self._slot_of[atom[:3]][2]

    def _reducible(self, left, right):
        # equal positions: the same root vector twice, or two torus atoms; both merge
        return self._position(left) >= self._position(right)

    def straighten(self, terms):
        """Reduce (coeff, word) pairs to a canonical monomial->coeff map."""
        return self._straighten(terms, _Budget())

    def _straighten(self, terms, budget):
        """straighten, charging every rewrite step, nested ones included, to
        the budget of the top-level call."""
        out = {}
        stack = [(c, tuple(w), 0) for c, w in terms]
        while stack:
            budget.steps += 1
            if budget.steps > _MAX_STEPS:
                raise ResourceLimit(
                    "straightening needed more than %d rewrite steps" % _MAX_STEPS
                )
            coeff, word, hint = stack.pop()
            if coeff.is_zero():
                continue
            idx = None
            for p in range(max(hint, 0), len(word) - 1):
                if self._reducible(word[p], word[p + 1]):
                    idx = p
                    break
            if idx is None:
                add_term(out, self.word_to_monomial(word), coeff)
                continue
            for c2, repl in self._resolve(word[idx], word[idx + 1], budget):
                nw = word[:idx] + repl + word[idx + 2 :]
                stack.append((coeff * c2, nw, max(idx - 1, 0)))
        return out

    def _resolve(self, left, right, budget):
        """The replacement (coeff, word) pairs for a reducible pair; a
        crossing pair maps to its normal form.  While that normal form is
        being computed the pair maps to its one-step rewrite, which a nested
        occurrence of the same pair then uses."""
        key = (left, right)
        hit = self._pair_cache.get(key)
        if hit is None:
            hit = self._resolve_uncached(left, right)
            # drop zero-coefficient branches and trivial atoms eagerly
            cleaned = []
            for c, w in hit:
                if c.is_zero():
                    continue
                w2 = tuple(
                    a
                    for a in w
                    if not (a[0] == "K" and not any(a[1]))
                    and not (a[0] in ("E", "F") and a[3] == 0)
                )
                cleaned.append((c, w2))
            hit = cleaned
            self._pair_cache[key] = hit
            if left[0] == "E" and right[0] == "F" and budget.depth < _MAX_NESTING:
                budget.depth += 1
                try:
                    nf = self._straighten(hit, budget)
                finally:
                    budget.depth -= 1
                hit = [(c, self.mono_word(k)) for k, c in nf.items()]
                self._pair_cache[key] = hit
        return hit

    def _resolve_uncached(self, left, right):
        kinds = left[0] + right[0]
        if kinds == "KK":
            merged = tuple(a + b for a, b in zip(left[1], right[1]))
            if any(merged):
                return [(RF_ONE, (("K", merged),))]
            return [(RF_ONE, ())]
        if kinds == "EK":
            # E K -> q^{-n (mu, eps_i - eps_j)} K E
            _, i, j, n = left
            mu = right[1]
            e = -n * bilinear_form(self.shape, mu, self.shape.root_weight(i, j))
            check_q_degree(e, "a torus monomial passing a root vector")
            return [(RatFunc.q_power(e), (right, left))]
        if kinds == "KF":
            # K F -> q^{-n (mu, eps_s - eps_t)} F K
            _, s, t, n = right
            mu = left[1]
            e = -n * bilinear_form(self.shape, mu, self.shape.root_weight(s, t))
            check_q_degree(e, "a torus monomial passing a root vector")
            return [(RatFunc.q_power(e), (right, left))]
        if kinds == "EE":
            return self._resolve_ee(left, right)
        if kinds == "FF":
            return self._resolve_ff(left, right)
        if kinds == "EF":
            return self._resolve_ef(left, right)
        raise AssertionError("unexpected pair %r %r" % (left, right))

    # .. raising-side pairs ..................................................

    def _resolve_ee(self, left, right):
        sh = self.shape
        _, a, b, N = left
        _, c, d, M = right
        if (a, b) == (c, d):
            if sh.parity(a, b) and N + M >= 2:
                return []
            return [(RF_ONE, (("E", a, b, N + M),))]
        pl, pr = sh.parity(a, b), sh.parity(c, d)

        if b == c:
            # E_{a,b} E_{b,d} = E_{a,d} + q_b^{-1} E_{b,d} E_{a,b}
            singles = [
                (RF_ONE, (("E", a, d, 1),)),
                (self.qi(b, -1), (("E", b, d, 1), ("E", a, b, 1))),
            ]
            return self._wrap_peel(singles, left, right)
        if d == a:
            # E_{a,b} E_{c,a} = q_a (E_{c,a} E_{a,b} - E_{c,b})
            singles = [
                (self.qi(a, 1), (("E", c, a, 1), ("E", a, b, 1))),
                (-self.qi(a, 1), (("E", c, b, 1),)),
            ]
            return self._wrap_peel(singles, left, right)
        if a == c:
            # shared left index; out-of-order forces d < b
            assert d < b
            sign = -1 if (sh.parity(a, d) and (N * M) % 2) else 1
            coeff = self.qi(a, -N * M) * sign
            return [(coeff, (("E", a, d, M), ("E", a, b, N)))]
        if b == d:
            # shared right index
            if c < a:
                sign = -1 if (sh.parity(a, b) and (N * M) % 2) else 1
                coeff = self.qi(b, -N * M) * sign
            else:
                sign = -1 if (sh.parity(c, b) and (N * M) % 2) else 1
                coeff = self.qi(b, N * M) * sign
            return [(coeff, (("E", c, b, M), ("E", a, b, N)))]
        nested = (a < c and d < b) or (c < a and b < d)
        disjoint = b < c or d < a
        if nested or disjoint:
            sign = -1 if (pl and pr and (N * M) % 2) else 1
            coeff = RF_ONE * sign
            return [(coeff, (right, left))]
        if a < c < b < d:
            # overlap: E_{a,b}E_{c,d} = (-1)^{pp'} E_{c,d}E_{a,b}
            #                           + (q_b - q_b^-1) E_{a,d}E_{c,b}
            s = -1 if (pl and pr) else 1
            singles = [
                (RF_ONE * s, (("E", c, d, 1), ("E", a, b, 1))),
                (self.qi(b, 1) - self.qi(b, -1), (("E", a, d, 1), ("E", c, b, 1))),
            ]
            return self._wrap_peel(singles, left, right)
        if c < a < d < b:
            s = -1 if (pl and pr) else 1
            singles = [
                (RF_ONE * s, (("E", c, d, 1), ("E", a, b, 1))),
                (
                    (self.qi(d, -1) - self.qi(d, 1)) * s,
                    (("E", c, b, 1), ("E", a, d, 1)),
                ),
            ]
            return self._wrap_peel(singles, left, right)
        raise AssertionError("unhandled raising pair %r %r" % (left, right))

    def _wrap_peel(self, singles, left, right):
        _, a, b, N = left
        _, c, d, M = right
        pre = ((left[0], a, b, N - 1),) if N > 1 else ()
        post = ((right[0], c, d, M - 1),) if M > 1 else ()
        return [(cf, pre + w + post) for cf, w in singles]

    # .. lowering-side pairs via Omega .......................................

    def _resolve_ff(self, left, right):
        _, a, b, N = left
        _, c, d, M = right
        if (a, b) == (c, d):
            if self.shape.parity(a, b) and N + M >= 2:
                return []
            return [(RF_ONE, (("F", a, b, N + M),))]
        mirrored = self._resolve_ee(("E", c, d, M), ("E", a, b, N))
        out = []
        for cf, w in mirrored:
            rw = tuple(("F", x[1], x[2], x[3]) for x in reversed(w))
            out.append((cf.bar(), rw))
        return out

    # .. crossing pairs ......................................................

    def _resolve_ef(self, left, right):
        sh = self.shape
        _, i, j, N = left
        _, s, t, M = right
        if t > s + 1:
            # expand the composite F once: F_{s,t} = -q_c F_{s,c}F_{c,t}
            #                                        + F_{c,t}F_{s,c},  c = s+1
            c = s + 1
            post = (("F", s, t, M - 1),) if M > 1 else ()
            return [
                (-self.qi(c, 1), (left, ("F", s, c, 1), ("F", c, t, 1)) + post),
                (RF_ONE, (left, ("F", c, t, 1), ("F", s, c, 1)) + post),
            ]
        # now F is a simple generator F_{s,s+1}
        if j == i + 1:
            if i != s:
                return [(RF_ONE, (right, left))]
            # Kac relation on one power of each factor
            kvec = sh.k_alpha_vector(i)
            den = (self.qi(i, 1) - self.qi(i, -1)).inverse()
            sgn = RF_ONE * (-1 if i == sh.m else 1)
            singles = [
                (sgn, (("F", i, j, 1), ("E", i, j, 1))),
                (den, (("K", kvec),)),
                (-den, (("K", tuple(-x for x in kvec)),)),
            ]
            return self._wrap_peel(singles, left, right)
        # composite E against simple F: triangular crossing identity
        pl = sh.parity(i, j)
        pr = sh.parity(s, t)
        sgn = RF_ONE * (-1 if (pl and pr) else 1)
        singles = [(sgn, (("F", s, t, 1), ("E", i, j, 1)))]
        if t == j:
            kvec = sh.k_alpha_vector(s)
            singles.append((self.qi(s, -1), (("E", i, s, 1), ("K", kvec))))
        if i == s:
            kvec = tuple(-x for x in sh.k_alpha_vector(s))
            # coefficient -(-1)^{delta_{sm}}
            c2 = RF_ONE if s == sh.m else -RF_ONE
            singles.append((c2, (("E", s + 1, j, 1), ("K", kvec))))
        return self._wrap_peel(singles, left, right)

    # -- products -----------------------------------------------------------

    def mono_product(self, k1, k2):
        """The normal form of k1 k2 as {monomial: coefficient}, cached per
        algebra; the caller must not change it.

        Three kinds of product need no rewriting.  A product with the unit
        is the other monomial.  A product with a torus monomial K^mu is one
        q-power times the merged monomial: K^mu passes the F atoms of the
        other factor (from the left) or its E atoms (from the right), each X^n
        of root alpha by the KF or EK rule's q^{-n (mu, alpha)}, whose q-degree
        is checked atom by atom in the order the rewrite meets them.  When
        the last atom of k1 comes before the first of k2 in the PBW order,
        the two words together are the product's.  Every other product
        straightens the word of k1 followed by that of k2.
        """
        if k1 == self._unit:
            return {k2: RF_ONE}
        if k2 == self._unit:
            return {k1: RF_ONE}
        key = (k1, k2)
        hit = self._prod_cache.get(key)
        if hit is None:
            if self.is_torus(k1):
                hit = self._torus_product(k1.k, k2, [a for a in self.mono_word(k2) if a[0] == "F"])
            elif self.is_torus(k2):
                word = self.mono_word(k1)
                hit = self._torus_product(k2.k, k1, [a for a in reversed(word) if a[0] == "E"])
            else:
                w1, w2 = self.mono_word(k1), self.mono_word(k2)
                if self._position(w1[-1]) < self._position(w2[0]):
                    # no slot holds an atom of each: the blocks add
                    hit = {PBWMonomial._make(tuple(a + b for a, b in zip(x, y))
                                             for x, y in zip(k1, k2)): RF_ONE}
                else:
                    hit = self.straighten([(RF_ONE, w1 + w2)])
            self._prod_cache[key] = hit
        return hit

    def _torus_product(self, mu, key, passed):
        """K^mu times key, from either side, where K^mu passes the atoms
        passed in that order: {key with its torus times K^mu: the q-power}."""
        sh = self.shape
        e = 0
        for _, i, j, n in passed:
            d = -n * bilinear_form(sh, mu, sh.root_weight(i, j))
            check_q_degree(d, "a torus monomial passing a root vector")
            e += d
        merged = key._replace(k=tuple(a + b for a, b in zip(key.k, mu)))
        return {merged: RatFunc.q_power(e)}

    def multiply(self, a, b):
        out = {}
        for k1, c1 in a.terms.items():
            for k2, c2 in b.terms.items():
                c12 = c1 * c2
                for k, c in self.mono_product(k1, k2).items():
                    add_term(out, k, c12 * c)
        return Element(self, out)

    # -- involutions --------------------------------------------------------

    def omega(self, elt):
        """Anti-automorphism: E_{ij} -> F_{ij}, K -> K^-1, q -> q^-1.

        On a standard monomial this is a pure relabeling because the
        lowering-side order mirrors the raising-side order.
        """
        out = {}
        for key, c in elt.terms.items():
            nk = PBWMonomial(
                tuple(reversed(key.ed)),
                tuple(reversed(key.epsi)),
                tuple(-x for x in key.k),
                tuple(reversed(key.fpsi)),
                tuple(reversed(key.fd)),
            )
            out[nk] = c.bar()
        return Element(self, out)

    def psi(self, elt):
        """Graded anti-automorphism fixing E, F, K with q -> q^-1."""
        return self.apply_hom(
            elt,
            lambda atom: Element(self, {self.word_to_monomial((atom,)): RF_ONE}),
            anti=True,
            scalar_map=RatFunc.bar,
        )

    # -- expansion into simple generators ------------------------------------

    def _composite_step(self, kind, i, j):
        """The defining recursion of a composite root vector, c = i + 1:
        E_{ij} = E_{ic} E_{cj} - q_c^{-1} E_{cj} E_{ic} and
        F_{ij} = -q_c F_{ic} F_{cj} + F_{cj} F_{ic}, as (coeff, word) pairs."""
        c = i + 1
        head, tail = (kind, i, c, 1), (kind, c, j, 1)
        if kind == "E":
            return [(RF_ONE, (head, tail)), (-self.qi(c, -1), (tail, head))]
        return [(-self.qi(c, 1), (head, tail)), (RF_ONE, (tail, head))]

    def expand_composite(self, kind, i, j):
        """Words of simple generators equal to the composite root vector."""
        key = (kind, i, j)
        hit = self._comp_cache.get(key)
        if hit is None:
            if j == i + 1:
                hit = [(RF_ONE, ((kind, i, j, 1),))]
            else:
                hit = []
                for cf, word in self._composite_step(kind, i, j):
                    pieces = [(cf, ())]
                    for atom in word:
                        pieces = [(c1 * c2, w1 + w2) for c1, w1 in pieces
                                  for c2, w2 in self.expand_composite(*atom[:3])]
                    hit += pieces
            self._comp_cache[key] = hit
        return hit

    def expand_monomial(self, key):
        """Expansion of a PBW monomial into simple-generator words.

        Returns a list of (coeff, word) with every E/F atom simple of
        power one; a torus atom may appear once in the middle.  A power
        X^n of a composite root vector has 2^n words per word of X, so
        this is a reference expansion, not the path of ``apply_hom``.
        """
        words = [(RF_ONE, ())]
        for atom in self.mono_word(key):
            if atom[0] == "K":
                pieces = [(RF_ONE, (atom,))]
            else:
                kind, i, j, n = atom
                if j == i + 1:
                    pieces = [(RF_ONE, ((kind, i, j, 1),) * n)]
                else:
                    one = self.expand_composite(kind, i, j)
                    pieces = [(RF_ONE, ())]
                    for _ in range(n):
                        pieces = [
                            (c1 * c2, w1 + w2) for c1, w1 in pieces for c2, w2 in one
                        ]
            words = [(c1 * c2, w1 + w2) for c1, w1 in words for c2, w2 in pieces]
        return words

    def apply_hom(self, elt, image, anti=False, scalar_map=None, on=None):
        """Extend a map on simple generators and torus atoms to the whole
        algebra, and apply the image of elt to on.

        image(atom) returns a value in the target, a ring whose values
        multiply with each other and by a RatFunc; image(K^0) is its unit,
        and on defaults to it.  image is asked once per distinct atom and
        call.  Each atom of a monomial acts once from the left, a power X^n
        as n factors X.  Acting from the unit (no on), the image of a
        composite root vector X_{ij} is built once per call, by its defining
        recursion from the images of X_{i,i+1} and X_{i+1,j}, and then
        multiplies like a simple generator's; the image of X^n follows
        ``Element.__pow__``: a closed form when X's image is a scalar times
        one atom, and otherwise n within _MAX_POWER, checked before any
        product.  With on given (a module action) nothing is built ahead: a
        composite acts through its words of simple generators
        (``expand_composite``), and no power is bounded.  With anti=True the
        map is a graded anti-homomorphism: the atoms act in the opposite
        order, with the sign (-1)^{N(N-1)/2} for the monomial's N odd atoms.
        scalar_map maps every coefficient, the expansions' included.
        """
        images = {}

        def atom_image(atom):
            """The image of a simple generator or a torus atom, or, acting
            from the unit, of a composite root vector."""
            x = images.get(atom)
            if x is None:
                if atom[0] == "K" or atom[2] == atom[1] + 1:
                    x = image(atom)
                else:
                    x = total(self._composite_step(*atom[:3]), on)
                images[atom] = x
            return x

        def total(pairs, val):
            """The sum of c * (word acting on val) over (c, word) pairs."""
            acc = None
            for c, word in pairs:
                x = act(word, val)
                if c != RF_ONE:
                    x = x * (c if scalar_map is None else scalar_map(c))
                acc = x if acc is None else acc + x
            return val * RF_ZERO if acc is None else acc

        def act(word, val):
            for atom in word if anti else reversed(word):
                if atom[0] == "K":
                    val = atom_image(atom) * val
                    continue
                kind, i, j, n = atom
                if from_unit and n > 1:
                    x = atom_image((kind, i, j, 1))
                    if isinstance(x, Element) and x._one_atom():
                        val = x**n * val
                        continue
                    _check_power(x, n)
                for _ in range(n):
                    if from_unit or j == i + 1:
                        val = atom_image((kind, i, j, 1)) * val
                    else:
                        val = total(self.expand_composite(kind, i, j), val)
            return val

        from_unit = on is None
        if from_unit:
            on = atom_image(("K", (0,) * self.shape.rank))
        pairs = []
        for key, coeff in elt.terms.items():
            odd = sum(key.fd) + sum(key.ed)
            if anti and (odd * (odd - 1) // 2) % 2:
                coeff = -coeff
            pairs.append((coeff, self.mono_word(key)))
        try:
            return total(pairs, on)
        finally:
            # the three closures call each other: a reference cycle that would
            # keep images and on alive until the garbage collector ran
            atom_image = total = act = None

    # -- integral form ------------------------------------------------------

    def k_exponent_coords(self, i, nu):
        """Coordinates of K_{alpha_i}^nu in the basis {K^delta [K;0;t]}.

        Returns {(delta, t): RatFunc}; the basis has brackets up to t = |nu|.
        [K;0;t] spans the K-degrees -t..t and K[K;0;t-1] the degrees
        -t+2..t, so peeling t = |nu| down to 0, the degree -t coefficient of
        the remainder fixes the coordinate of [K;0;t] and then its degree t
        coefficient fixes that of K[K;0;t-1].
        """
        if abs(nu) > _MAX_BRACKET:
            raise ResourceLimit(
                "K-exponent %d needs brackets [K;0;t] above t = %d" % (nu, _MAX_BRACKET)
            )
        sign = self.q_sign(i)
        key = (sign, nu)
        hit = self._kconv_cache.get(key)
        if hit is not None:
            return hit
        rest = {nu: RF_ONE}
        coords = {}
        for t in range(abs(nu), -1, -1):
            # (delta, u, the K-degree that fixes the coordinate of K^delta [K;0;u])
            for delta, u, deg in [(0, t, -t), (1, t - 1, t)] if t else [(0, 0, 0)]:
                if deg in rest:
                    poly = self._kbracket_poly(sign, 0, u)
                    x = rest[deg] / poly[deg - delta]
                    coords[(delta, u)] = x
                    for e, v in poly.items():
                        add_term(rest, e + delta, -(x * v))
        hit = dict(sorted(coords.items()))
        self._kconv_cache[key] = hit
        return hit

    def a_form_coords(self, elt):
        """Coordinates in the divided-power integral basis.

        Keys are (fd, fpsi, delta, tvec, epsi, ed) with the torus part in
        the basis prod_i K_{alpha_i}^{delta_i} [K_{alpha_i}; 0; t_i].
        Raises NotIntegral when a coefficient leaves Z[q, q^-1].
        """
        r = self.shape.rank
        out = {}
        for key, coeff in elt.terms.items():
            c = coeff
            for n in key.fpsi + key.epsi:
                c = c * _factorial(n)
            # K_mu = prod_i K_{alpha_i}^{nu_i}, nu = prefix sums of mu
            nu = []
            acc = 0
            for x in key.k:
                acc += x
                nu.append(acc)
            options = [(tuple(), tuple(), c)]
            for i in range(1, r + 1):
                coords = self.k_exponent_coords(i, nu[i - 1])
                options = [
                    (deltas + (delta,), ts + (t,), cv * c2)
                    for deltas, ts, cv in options
                    for (delta, t), c2 in coords.items()
                ]
            for deltas, ts, cv in options:
                add_term(out, (key.fd, key.fpsi, deltas, ts, key.epsi, key.ed), cv)
        result = {}
        for akey, cv in sorted(out.items()):
            li = cv.as_laurent_int()
            if li is None:
                raise NotIntegral(akey, cv.render())
            result[akey] = li
        return result

