"""Exact integer and rational matrix routines: HNF, Smith form, kernels.

All matrices are tuples of tuples.  Lattice bases are stored row-wise:
the rows of a basis matrix are the generating vectors.

Every elimination lives here.  _hnf's Euclidean row reduction (H. Cohen,
GTM 138, section 2.4) gives kernels, row-span solutions, Smith data and
affine.inverse's unimodular inverses.  Two are fraction free: the
Bareiss inverse of mat_inverse_frac, and `independent`, the rank test of
bases picked row by row (bfs._frame, netgraph._placement, WalkKernel).
gf2_reduce is the GF(2) reducer of strong rings and Schreier ranks.
"""

from fractions import Fraction
from math import lcm


def frac_rows(rows):
    """Normalize an iterable of vectors to tuples of Fraction."""
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def scale_to_int(rows):
    """Return (integer rows, denominator) with rows = int_rows / den."""
    rows = frac_rows(rows)
    den = lcm(*(x.denominator for row in rows for x in row))
    return tuple(tuple(x.numerator * (den // x.denominator) for x in row)
                 for row in rows), den


def hnf(rows):
    """Row Hermite normal form of the lattice spanned by integer rows.

    Returns the nonzero rows only: pivots positive, entries above each
    pivot reduced into [0, pivot).  The result is the canonical basis of
    the integer row span.
    """
    return _hnf(rows, False)[0]


def hnf_with_transform(rows):
    """Row HNF together with a unimodular transform.

    Returns (H, U) where U is unimodular, U * A = H_full and H is the
    tuple of nonzero rows of H_full (zero rows of H_full come last, and
    the corresponding rows of U span the left kernel of A).
    """
    return _hnf(rows, True)


def _hnf(rows, transform):
    a = [list(map(int, row)) for row in rows]
    n = len(a)
    m = len(a[0]) if n else 0
    # without the transform U's rows stay empty: row operations cost O(m)
    u = [[int(i == j) for j in range(n * transform)] for i in range(n)]
    piv_row = 0
    pivots = []
    for col in range(m):
        # find a row at or below piv_row with a nonzero entry in col
        k = next((i for i in range(piv_row, n) if a[i][col]), None)
        if k is None:
            continue
        a[piv_row], a[k] = a[k], a[piv_row]
        u[piv_row], u[k] = u[k], u[piv_row]
        # eliminate below via euclidean steps
        for i in range(piv_row + 1, n):
            while a[i][col] != 0:
                q = a[piv_row][col] // a[i][col]
                if q != 0:
                    a[piv_row] = [x - q * y for x, y in zip(a[piv_row], a[i])]
                    u[piv_row] = [x - q * y for x, y in zip(u[piv_row], u[i])]
                a[piv_row], a[i] = a[i], a[piv_row]
                u[piv_row], u[i] = u[i], u[piv_row]
        if a[piv_row][col] < 0:
            a[piv_row] = [-x for x in a[piv_row]]
            u[piv_row] = [-x for x in u[piv_row]]
        pivots.append((piv_row, col))
        piv_row += 1
    # reduce entries above pivots
    for r, c in pivots:
        p = a[r][c]
        for i in range(r):
            q = a[i][c] // p
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                u[i] = [x - q * y for x, y in zip(u[i], u[r])]
    h = tuple(tuple(row) for row in a[:piv_row])
    return h, tuple(tuple(row) for row in u)


def left_kernel(rows):
    """Basis of the integer left kernel {x : x * A = 0} (saturated).

    Entries may be Fractions; scaling all rows by a common denominator
    leaves the kernel unchanged.
    """
    if not rows:
        return ()
    rows, _ = scale_to_int(rows)
    h, u = hnf_with_transform(rows)
    rank = len(h)
    return tuple(u[rank:])


def solve_in_rowspan(rows, target):
    """Integer x with x * A = target, or None.

    `rows` may be rationally dependent; any integer solution is returned
    (the one with zero coefficients on kernel directions of the HNF
    transform).  Entries may be Fractions.
    """
    rows = list(rows)
    if not rows:
        return () if all(x == 0 for x in target) else None
    (*a, target), _ = scale_to_int(rows + [target])
    return solve_hnf(hnf_with_transform(a), target)


def solve_hnf(transform, target):
    """solve_in_rowspan for integer rows A, given (H, U) =
    hnf_with_transform(A), and an integer target on the scale of A.

    Scaling A and the target by one positive integer changes no Euclid
    quotient, so U and the solution stay the same: one transform serves
    every target.
    """
    h, u = transform
    # back-substitute against echelon rows of h
    y = [0] * len(h)
    rem = list(target)
    for i, row in enumerate(h):
        col = next(j for j in range(len(rem)) if row[j] != 0)
        if rem[col] % row[col] != 0:
            return None
        y[i] = rem[col] // row[col]
        rem = [x - y[i] * z for x, z in zip(rem, row)]
    if any(rem):
        return None
    x = [0] * len(u)
    for i, yi in enumerate(y):
        for j in range(len(u)):
            x[j] += yi * u[i][j]
    return tuple(x)


def smith_left_transform(rows):
    """Smith data for the subgroup of Z^m spanned by integer `rows`.

    Returns (U, diag) where U is an m x m unimodular matrix such that in
    the coordinates y = U * x the subgroup becomes diag[i] * Z on the
    first k = len(diag) coordinates and 0 on the rest.  Requires the
    rows to be linearly independent (diag entries are positive; they
    need not divide one another).

    B = A^T (m x k) is made diagonal by alternating row HNFs, whose
    transforms multiply into U, with column HNFs (row HNFs of B^T),
    which leave the column span alone.  Each leading pivot is the gcd of
    a leading column or row that holds the one before, so it can only
    shrink; once it stops shrinking, its row and column are already
    clear, and the next pivot goes the same way.
    """
    k = len(rows)
    b = tuple(zip(*rows))
    pad = ((0,) * k,) * (len(b) - k)
    u = identity_matrix(len(b))
    while True:
        h, t = hnf_with_transform(b)
        if len(h) < k:
            raise ValueError("vectors are linearly dependent")
        u = mat_mul_int(t, u)
        if not any(x for i, row in enumerate(h) for x in row[i + 1:]):
            return u, tuple(row[i] for i, row in enumerate(h))
        b = tuple(zip(*hnf(tuple(zip(*h))))) + pad


def mat_mul_int(a, b):
    n, k = len(a), len(b)
    m = len(b[0]) if k else 0
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m))
        for i in range(n)
    )


def mat_vec(a, v):
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in a)


def vec_mat(v, a):
    m = len(a[0]) if a else 0
    return tuple(sum(v[i] * a[i][j] for i in range(len(a))) for j in range(m))


def identity_matrix(d):
    return tuple(tuple(int(i == j) for j in range(d)) for i in range(d))


def mat_inverse_frac(a):
    """Exact inverse of a square matrix with rational entries, by
    fraction-free (Bareiss) Gauss-Jordan elimination of an int multiple."""
    rows, den = scale_to_int(a)
    d = len(rows)
    m = [list(row) + [int(i == j) for j in range(d)]
         for i, row in enumerate(rows)]
    prev = 1
    for col in range(d):
        piv = next((i for i in range(col, d) if m[i][col]), None)
        if piv is None:
            raise ValueError("matrix is singular")
        m[col], m[piv] = m[piv], m[col]
        p = m[col]
        for i in range(d):
            if i != col:
                m[i] = [(p[col] * x - m[i][col] * y) // prev
                        for x, y in zip(m[i], p)]
        prev = p[col]
    return tuple(tuple(Fraction(den * x, prev) for x in row[d:]) for row in m)


def independent(rows, r):
    """Whether r (ints or Fractions) is independent of the kept `rows`,
    (pivot, row) echelon pairs, each cross-multiplied in where r is
    nonzero at its pivot; r is kept, pivoted at its first nonzero, if so."""
    for i, row in rows:
        if r[i]:
            r = [row[i] * x - r[i] * y for x, y in zip(r, row)]
    if any(r):
        rows.append((next(i for i, x in enumerate(r) if x), r))
        return True
    return False


def gf2_reduce(basis, row):
    """Int bit row reduced by a GF(2) basis {row.bit_length(): row}: 0 iff
    the row is in its span, else a new top bit, ready to join it."""
    while (top := row.bit_length()) in basis:
        row ^= basis[top]
    return row
