"""Exact linear algebra over any field with is_zero/inverse elements.

A matrix is a list of sparse columns: column c lists the (row, value)
pairs of its nonzero entries, rows ascending.  A vector is a one-column
matrix, so mat_mul's right factor may have any number of columns; dense
lists are only the rows elimination works on, which mat_vec also takes.
Both products visit the stored entries only.  Field elements must support
+, -, *, inverse(), is_zero(), ==; both the rational-function field and
the cyclotomic fields qualify.  Echelon, an incremental reduced row
echelon basis, is the one elimination routine: every rref goes through it.
"""


def sparse(vec):
    """The (index, value) pairs of the nonzero entries of a dense vector."""
    return [(k, x) for k, x in enumerate(vec) if not x.is_zero()]


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


def mat_vec(a, v, zero):
    """a v for a square matrix a of sparse columns and a dense row v."""
    out = [zero] * len(a)
    for col, y in zip(a, v):
        if y.is_zero():
            continue
        for r, x in col:
            out[r] = out[r] + x * y
    return out


class Echelon:
    """A row span in reduced row echelon form, grown one vector at a time.

    rows[r] is one at column pivots[r] and zero at the other pivots, and
    pivots ascend; the rows are unique to the span, whatever the order of
    the vectors added.
    """

    def __init__(self, rows=()):
        self.rows = []
        self.pivots = []
        for row in rows:
            self.add(row)

    def reduce(self, vec):
        """vec minus the combination of rows that matches it on the pivot
        columns; all zero iff vec lies in the span."""
        v = list(vec)
        for row, pc in zip(self.rows, self.pivots):
            f = v[pc]
            if not f.is_zero():
                v = [a if b.is_zero() else a - f * b for a, b in zip(v, row)]
        return v

    def add(self, vec):
        """Add vec to the span; returns its normalized row, or None when vec
        already lies in the span."""
        v = self.reduce(vec)
        pc = next((c for c, x in enumerate(v) if not x.is_zero()), None)
        if pc is None:
            return None
        inv = v[pc].inverse()
        v = [x if x.is_zero() else x * inv for x in v]
        for r, row in enumerate(self.rows):
            f = row[pc]
            if not f.is_zero():
                self.rows[r] = [a if b.is_zero() else a - f * b for a, b in zip(row, v)]
        at = sum(1 for p in self.pivots if p < pc)
        self.rows.insert(at, v)
        self.pivots.insert(at, pc)
        return v


def rref(rows):
    """Reduced row echelon form; returns (new_rows, pivot_columns)."""
    ech = Echelon(rows)
    return ech.rows, ech.pivots


def rank(rows):
    return len(Echelon(rows).rows)


def nullspace(rows, zero, one):
    """Basis of the right kernel of the matrix, as a list of vectors."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [zero] * ncols
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = zero - red[r][fc]
        basis.append(v)
    return basis


def in_span(rows, vec):
    """True iff vec lies in the row span of rows."""
    return all(x.is_zero() for x in Echelon(rows).reduce(vec))
