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

from .errors import _MAX_INT_DIGITS, DomainError, ExprSyntaxError

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
            if j - i > _MAX_INT_DIGITS:
                raise ExprSyntaxError("integer literal of more than %d digits" % _MAX_INT_DIGITS, i)
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
    """Recursive descent to the JSON-ready parse tree that --emit-ast prints:
    {"sum": [{"sign", "term"}]}, {"product": [{"op", "factor"}]},
    {"power" | "divided_power": node, "n"}, {"scalar": int | "q"} and
    {"gen": name, "indices": [...]}."""

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
        items.append({"sign": sign, "term": self.term()})
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            items.append({"sign": 1 if op == "+" else -1, "term": self.term()})
        return {"sum": items}

    def term(self):
        items = [{"op": "*", "factor": self.factor()}]
        while True:
            t = self.peek()
            if t[0] in ("*", "/"):
                op = self.next()[0]
                items.append({"op": op, "factor": self.factor()})
            elif t[0] in ("name", "int", "("):
                items.append({"op": "*", "factor": self.factor()})
            else:
                break
        return {"product": items}

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
            if base.get("gen") not in ("E", "F"):
                raise ExprSyntaxError(
                    "divided power requires a root-vector generator", t[2]
                )
            return {"divided_power": base, "n": v[1]}
        sign = 1
        if t[0] == "-":
            self.next()
            sign = -1
        v = self.expect("int")
        return {"power": base, "n": sign * v[1]}

    def atom(self):
        t = self.next()
        if t[0] == "int":
            return {"scalar": t[1]}
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
            return {"scalar": "q"}
        self.expect("[")
        if name in ("E", "F"):
            i = self.expect("int")[1]
            self.expect(",")
            j = self.expect("int")[1]
            self.expect("]")
            self.shape.check_pair(i, j)
            return {"gen": name, "indices": [i, j]}
        if name in ("K", "Kinv", "Ka"):
            i = self.expect("int")[1]
            self.expect("]")
            self.shape.check_node(i)
            return {"gen": name, "indices": [i]}
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
        return {"gen": "Kb", "indices": [i, c, tt]}


def parse(src, shape):
    """Parse source text to its JSON-ready parse tree (see _Parser),
    validating indices against the shape."""
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


def evaluate(ast, alg):
    """Evaluate a parse tree to a normal-form element of the given algebra."""
    if "sum" in ast:
        out = alg.zero()
        for item in ast["sum"]:
            v = evaluate(item["term"], alg)
            out = out + (v if item["sign"] > 0 else -v)
        return out
    if "product" in ast:
        out = alg.one()
        for item in ast["product"]:
            v = evaluate(item["factor"], alg)
            if item["op"] == "*":
                out = out * v
            else:
                if v.is_zero():
                    raise DomainError("division by zero")
                s = _as_scalar(v)
                if s is None:
                    raise DomainError("division requires a scalar divisor")
                out = out.scale(s.inverse())
        return out
    if "power" in ast:
        return evaluate(ast["power"], alg) ** ast["n"]
    if "divided_power" in ast:
        base = ast["divided_power"]
        i, j = base["indices"]
        return alg.divided_power(base["gen"], i, j, ast["n"])
    if "scalar" in ast:
        v = ast["scalar"]
        # q_1 = q: index 1 is in the first block
        return alg.scalar(alg.qi(1) if v == "q" else v)
    if "gen" in ast:
        name, idx = ast["gen"], ast["indices"]
        if name in ("E", "F"):
            return alg.gen(name, idx[0], idx[1])
        if name in ("K", "Kinv"):
            mu = [0] * alg.shape.rank
            mu[idx[0] - 1] = 1 if name == "K" else -1
            return alg.k_mono(tuple(mu))
        if name == "Ka":
            return alg.k_alpha(idx[0])
        if name == "Kb":
            return alg.kbracket_element(*idx)
    raise DomainError("unknown parse tree node %r" % (ast,))


def parse_element(src, alg):
    return evaluate(parse(src, alg.shape), alg)


# -- canonical printing -----------------------------------------------------


def _coeff_parts(coeff):
    """A coefficient's rendering as a separable sign and a parseable body:
    one term c*q^e loses its sign, any other Laurent value goes in
    parentheses, and a quotient '(num)/(den)' parses as it is."""
    text = coeff.render()
    if " " in text or "/" in text:
        return "+", text if text[0] == "(" else "(%s)" % text
    return ("-", text[1:]) if text[0] == "-" else ("+", text)


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
    out = []
    for key, coeff in terms:
        sign, body = _coeff_parts(coeff)
        factors = _mono_factors(alg, key)
        text = "*".join(factors if factors and body == "1" else [body] + factors)
        if out:
            out.append(("- " if sign == "-" else "+ ") + text)
        else:
            out.append(("-" if sign == "-" else "") + text)
    return " ".join(out)


# -- JSON -------------------------------------------------------------------


def term_to_json(key, coeff_text):
    """One PBW term as a JSON-ready dict: its coefficient text and blocks."""
    return {
        "coeff": coeff_text,
        "fd": list(key.fd),
        "fpsi": list(key.fpsi),
        "k": list(key.k),
        "epsi": list(key.epsi),
        "ed": list(key.ed),
    }


def element_to_json(elt):
    """The element as a JSON-ready dict (terms sorted by monomial order)."""
    sh = elt.alg.shape
    return {
        "shape": [sh.m, sh.n],
        "terms": [term_to_json(key, coeff.render()) for key, coeff in elt.sorted_terms()],
    }
