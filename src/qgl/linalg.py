"""Exact linear algebra over any field with is_zero/inverse elements.

A vector is sparse: the (index, value) pairs of its nonzero entries,
indices ascending.  A matrix is a list of such columns, and a vector is a
one-column matrix, so mat_mul's right factor may have any number of
columns.  Echelon rows are the same vectors: a row, a column and a vector
are one thing, and every routine visits the stored entries only.  Field
elements must support +, -, unary -, *, inverse(), is_zero(), ==; both the
rational-function field and the cyclotomic fields qualify.  Echelon, an
incremental reduced row echelon basis, is the one elimination routine:
every rref goes through it.
"""


def columns(entries, n):
    """The n sparse columns of the sum of the (row, column, value) entries."""
    cols = [{} for _ in range(n)]
    for r, c, x in entries:
        col = cols[c]
        col[r] = col[r] + x if r in col else x
    return [[(r, col[r]) for r in sorted(col) if not col[r].is_zero()] for col in cols]


def mat_mul(a, b):
    """The product a b of two matrices of sparse columns."""
    return columns(((r, c, x * y) for c, col in enumerate(b) for k, y in col for r, x in a[k]),
                   len(b))


def _subtract(vec, terms):
    """vec minus the sum of f row over the (f, row) pairs."""
    out = dict(vec)
    for f, row in terms:
        for c, x in row:
            y = out.get(c)
            out[c] = -(f * x) if y is None else y - f * x
    return [(c, out[c]) for c in sorted(out) if not out[c].is_zero()]


def _entry(vec, k):
    """The value of vec at index k, or None when it is zero."""
    for c, x in vec:
        if c >= k:
            return x if c == k else None
    return None


class Echelon:
    """A row span in reduced row echelon form, grown one vector at a time.

    rows[r] is one at column pivots[r], its first entry, and zero at the
    other pivots, and pivots ascend; the rows are unique to the span,
    whatever the order of the vectors added.
    """

    def __init__(self, rows=()):
        self._rows = {}  # pivot column -> row
        for row in rows:
            self.add(row)

    @property
    def pivots(self):
        return sorted(self._rows)

    @property
    def rows(self):
        return [self._rows[pc] for pc in self.pivots]

    def reduce(self, vec):
        """vec minus the combination of rows that matches it on the pivot
        columns; empty iff vec lies in the span."""
        return _subtract(vec, [(f, self._rows[c]) for c, f in vec if c in self._rows])

    def add(self, vec):
        """Add vec to the span; returns its normalized row, or None when vec
        already lies in the span."""
        v = self.reduce(vec)
        if not v:
            return None
        pc, lead = v[0]
        inv = lead.inverse()
        v = [(c, x * inv) for c, x in v]
        for p, row in self._rows.items():
            f = _entry(row, pc) if p < pc else None  # a row starts at its pivot
            if f is not None:
                self._rows[p] = _subtract(row, [(f, v)])
        self._rows[pc] = v
        return v


def rref(rows):
    """Reduced row echelon form; returns (new_rows, pivot_columns)."""
    ech = Echelon(rows)
    return ech.rows, ech.pivots


def nullspace(rows, ncols, one):
    """Basis of the right kernel of the matrix with ncols columns, one
    vector per free column."""
    red, pivots = rref(rows)
    at = [dict(row) for row in red]
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        v = {pc: -row[fc] for pc, row in zip(pivots, at) if fc in row}
        v[fc] = one
        basis.append([(c, v[c]) for c in sorted(v)])
    return basis


def in_span(rows, vec):
    """True iff vec lies in the row span of rows."""
    return not Echelon(rows).reduce(vec)
