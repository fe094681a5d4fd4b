"""Surface syntax for algebra elements: parser, canonical printer, JSON.

Grammar (whitespace insensitive, left associative):

    expr   := '-'? term (('+' | '-') term)*
    term   := factor (('*' | '/')? factor)*
    factor := atom ('^' '-'? int | '^(' nat ')')?
    atom   := 'E[' i ',' j ']' | 'F[' i ',' j ']' | 'K[' i ']'
            | 'Kinv[' i ']' | 'Ka[' i ']' | 'Kb[' i ';' int ';' nat ']'
            | int | 'q' | '(' expr ')'

'^n' is an ordinary power, '^(n)' a divided power (they differ by the
Gaussian factorial [n]!).  'Ka[i]' abbreviates K[i]*Kinv[i+1] (and K[m+n]
at the last index).  A leading '-' and scalar division are accepted so
that every canonical rendering parses back; division requires a scalar
divisor.
"""

from .errors import (
    DomainError,
    ExprSyntaxError,
    NegativeDividedPower,
)

_NAMES = ("Kinv", "Kb", "Ka", "K", "E", "F", "q")
_MAX_NESTING = 100  # parenthesis depth; keeps the recursive descent off the stack limit
_SYMBOLS = "[](),;*/^+-"


def tokenize(src):
    toks = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            toks.append(("int", int(src[i:j]), i))
            i = j
            continue
        if ch.isalpha():
            for name in _NAMES:
                if src.startswith(name, i):
                    # avoid eating a longer identifier ("Kx" is not "K" "x")
                    end = i + len(name)
                    if end < n and src[end].isalpha():
                        continue
                    toks.append(("name", name, i))
                    i = end
                    break
            else:
                raise ExprSyntaxError("unknown name %r" % ch, i)
            continue
        if ch in _SYMBOLS:
            toks.append((ch, ch, i))
            i += 1
            continue
        raise ExprSyntaxError("unexpected character %r" % ch, i)
    toks.append(("end", None, n))
    return toks


class _Parser:
    def __init__(self, src, shape):
        self.toks = tokenize(src)
        self.pos = 0
        self.shape = shape
        self.nesting = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind):
        t = self.next()
        if t[0] != kind:
            raise ExprSyntaxError("expected %r" % kind, t[2])
        return t

    def parse(self):
        node = self.expr()
        t = self.peek()
        if t[0] != "end":
            raise ExprSyntaxError("trailing input", t[2])
        return node

    def expr(self):
        items = []
        sign = 1
        if self.peek()[0] == "-":
            self.next()
            sign = -1
        items.append((sign, self.term()))
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            items.append((1 if op == "+" else -1, self.term()))
        return ("sum", items)

    def term(self):
        items = [("*", self.factor())]
        while True:
            t = self.peek()
            if t[0] in ("*", "/"):
                op = self.next()[0]
                items.append((op, self.factor()))
            elif t[0] in ("name", "int", "("):
                items.append(("*", self.factor()))
            else:
                break
        return ("prod", items)

    def factor(self):
        base = self.atom()
        if self.peek()[0] != "^":
            return base
        self.next()
        t = self.peek()
        if t[0] == "(":
            self.next()
            v = self.expect("int")
            self.expect(")")
            if base[0] != "gen" or base[1] not in ("E", "F"):
                raise ExprSyntaxError(
                    "divided power requires a root-vector generator", t[2]
                )
            return ("dpow", base, v[1])
        sign = 1
        if t[0] == "-":
            self.next()
            sign = -1
        v = self.expect("int")
        return ("pow", base, sign * v[1])

    def atom(self):
        t = self.next()
        if t[0] == "int":
            return ("int", t[1])
        if t[0] == "(":
            if self.nesting == _MAX_NESTING:
                raise ExprSyntaxError(
                    "parentheses nested deeper than %d" % _MAX_NESTING, t[2]
                )
            self.nesting += 1
            node = self.expr()
            self.expect(")")
            self.nesting -= 1
            return node
        if t[0] != "name":
            raise ExprSyntaxError("expected a generator, scalar or '('", t[2])
        name = t[1]
        if name == "q":
            return ("q",)
        self.expect("[")
        if name in ("E", "F"):
            i = self.expect("int")[1]
            self.expect(",")
            j = self.expect("int")[1]
            self.expect("]")
            self.shape.check_pair(i, j)
            return ("gen", name, (i, j))
        if name in ("K", "Kinv", "Ka"):
            i = self.expect("int")[1]
            self.expect("]")
            self.shape.check_node(i)
            return ("gen", name, (i,))
        # Kb[i; c; t]
        i = self.expect("int")[1]
        self.expect(";")
        csign = 1
        if self.peek()[0] == "-":
            self.next()
            csign = -1
        c = csign * self.expect("int")[1]
        self.expect(";")
        tt = self.expect("int")[1]
        self.expect("]")
        self.shape.check_node(i)
        return ("gen", "Kb", (i, c, tt))


def parse(src, shape):
    """Parse source text to an AST, validating indices against the shape."""
    if not src or not src.strip():
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(src, shape).parse()


# -- evaluation -------------------------------------------------------------


def _as_scalar(elt):
    """The coefficient of a nonzero scalar element, or None."""
    if len(elt.terms) == 1:
        ((key, coeff),) = elt.terms.items()
        if key == elt.alg.unit_monomial():
            return coeff
    return None


def _elt_pow(alg, elt, n):
    if n >= 0:
        return elt ** n
    # negative powers: only invertible elements (scalar multiples of K-monomials)
    if len(elt.terms) != 1:
        raise DomainError("negative power of a non-invertible element")
    ((key, coeff),) = elt.terms.items()
    u = alg.unit_monomial()
    if key._replace(k=u.k) != u:
        raise DomainError("negative power of a non-invertible element")
    inv = alg.k_mono(tuple(-x for x in key.k)).scale(coeff.inverse())
    return _elt_pow(alg, inv, -n) if n < -1 else inv


def evaluate(ast, alg):
    """Evaluate an AST to a normal-form element of the given algebra."""
    kind = ast[0]
    if kind == "sum":
        out = alg.zero()
        for sign, node in ast[1]:
            v = evaluate(node, alg)
            out = out + (v if sign > 0 else -v)
        return out
    if kind == "prod":
        out = alg.one()
        for op, node in ast[1]:
            v = evaluate(node, alg)
            if op == "*":
                out = out * v
            else:
                if v.is_zero():
                    raise DomainError("division by zero")
                s = _as_scalar(v)
                if s is None:
                    raise DomainError("division requires a scalar divisor")
                out = out.scale(s.inverse())
        return out
    if kind == "pow":
        return _elt_pow(alg, evaluate(ast[1], alg), ast[2])
    if kind == "dpow":
        _, base, n = ast
        if n < 0:
            raise NegativeDividedPower("divided power with n=%d" % n)
        _, gk, (i, j) = base
        return alg.divided_power(gk, i, j, n)
    if kind == "int":
        return alg.scalar(ast[1])
    if kind == "q":
        return alg.scalar(alg.qi(1))  # q_1 = q: index 1 is in the first block
    if kind == "gen":
        _, name, idx = ast
        if name in ("E", "F"):
            return alg.gen(name, idx[0], idx[1])
        if name == "K":
            mu = [0] * alg.shape.rank
            mu[idx[0] - 1] = 1
            return alg.k_mono(tuple(mu))
        if name == "Kinv":
            mu = [0] * alg.shape.rank
            mu[idx[0] - 1] = -1
            return alg.k_mono(tuple(mu))
        if name == "Ka":
            return alg.k_alpha(idx[0])
        if name == "Kb":
            return alg.kbracket_element(idx[0], idx[1], idx[2])
    raise DomainError("unknown AST node %r" % (kind,))


def parse_element(src, alg):
    return evaluate(parse(src, alg.shape), alg)


# -- canonical printing -----------------------------------------------------


def _coeff_parts(coeff):
    """Render a coefficient as parseable text plus a separable sign."""
    li = coeff.as_laurent_int()
    if li is not None and len(li.coeffs) == 1:
        ((e, c),) = li.coeffs.items()
        sign = "-" if c < 0 else "+"
        c = abs(c)
        if e == 0:
            body = str(c)
        else:
            qp = "q" if e == 1 else "q^%d" % e
            body = qp if c == 1 else "%d*%s" % (c, qp)
        return sign, body
    lau = coeff.as_laurent_rational()
    if lau is not None:
        return "+", "(%s)" % coeff.render()
    return "+", coeff.render()  # '(num)/(den)', parseable via scalar division


def _mono_factors(alg, key):
    def power(n):
        return "" if n == 1 else "^%d" % n

    parts = []
    for atom in alg.mono_word(key):
        if atom[0] == "K":
            for i, e in enumerate(atom[1], start=1):
                if e:
                    parts.append("%s[%d]" % ("K" if e > 0 else "Kinv", i) + power(abs(e)))
        else:
            kind, i, j, n = atom
            parts.append("%s[%d,%d]" % (kind, i, j) + power(n))
    return parts


def print_canonical(elt):
    """Deterministic text form; parse + evaluate returns the element exactly."""
    alg = elt.alg
    terms = elt.sorted_terms()
    if not terms:
        return "0"
    chunks = []
    for key, coeff in terms:
        sign, body = _coeff_parts(coeff)
        factors = _mono_factors(alg, key)
        if factors and body == "1":
            text = "*".join(factors)
        elif factors:
            text = "*".join([body] + factors)
        else:
            text = body
        chunks.append((sign, text))
    out = []
    for pos, (sign, text) in enumerate(chunks):
        if pos == 0:
            out.append(("-" if sign == "-" else "") + text)
        else:
            out.append(("- " if sign == "-" else "+ ") + text)
    return " ".join(out)


# -- JSON -------------------------------------------------------------------


def element_to_json(elt):
    """The element as a JSON-ready dict (terms sorted by monomial order)."""
    sh = elt.alg.shape
    return {
        "shape": [sh.m, sh.n],
        "terms": [
            {
                "coeff": coeff.render(),
                "fd": list(key.fd),
                "fpsi": list(key.fpsi),
                "k": list(key.k),
                "epsi": list(key.epsi),
                "ed": list(key.ed),
            }
            for key, coeff in elt.sorted_terms()
        ],
    }


def ast_to_json(ast):
    """The AST as nested JSON-ready lists/dicts."""
    kind = ast[0]
    if kind == "sum":
        return {"sum": [{"sign": s, "term": ast_to_json(n)} for s, n in ast[1]]}
    if kind == "prod":
        return {"product": [{"op": op, "factor": ast_to_json(n)} for op, n in ast[1]]}
    if kind == "pow":
        return {"power": ast_to_json(ast[1]), "n": ast[2]}
    if kind == "dpow":
        return {"divided_power": ast_to_json(ast[1]), "n": ast[2]}
    if kind == "int":
        return {"scalar": ast[1]}
    if kind == "q":
        return {"scalar": "q"}
    if kind == "gen":
        return {"gen": ast[1], "indices": list(ast[2])}
    raise DomainError("unknown AST node %r" % (kind,))
