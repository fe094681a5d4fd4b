"""Dense exact linear algebra over any field with is_zero/inverse elements.

Matrices are lists of row lists.  Field elements must support +, -, *,
inverse(), is_zero(), ==; both the rational-function field and the
cyclotomic fields qualify.
"""


def mat_mul(a, b, zero):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[zero for _ in range(cols)] for _ in range(rows)]
    for r in range(rows):
        ar = a[r]
        orow = out[r]
        for k in range(inner):
            v = ar[k]
            if v.is_zero():
                continue
            brow = b[k]
            for c in range(cols):
                if not brow[c].is_zero():
                    orow[c] = orow[c] + v * brow[c]
    return out


def mat_vec(a, v, zero):
    nonzero = [(k, y) for k, y in enumerate(v) if not y.is_zero()]
    out = []
    for row in a:
        acc = zero
        for k, y in nonzero:
            x = row[k]
            if not x.is_zero():
                acc = acc + x * y
        out.append(acc)
    return out


def rref(rows, zero):
    """Reduced row echelon form; returns (new_rows, pivot_columns)."""
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if not mat[i][c].is_zero()), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = mat[r][c].inverse()
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and not mat[i][c].is_zero():
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def rank(rows, zero):
    return len(rref(rows, zero)[0])


def nullspace(rows, zero, one):
    """Basis of the right kernel of the matrix, as a list of vectors."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(rows, zero)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [zero] * ncols
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = zero - red[r][fc]
        basis.append(v)
    return basis


def in_span(rows, vec, zero):
    """True iff vec lies in the row span of rows."""
    base = rref(rows, zero)[0]
    aug = rref(base + [list(vec)], zero)[0]
    return len(aug) == len(base)
