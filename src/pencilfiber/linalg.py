"""Dense exact linear algebra over Q(w) and F3: echelon forms, rank, null spaces.

Matrices are lists of rows of EisensteinNumber, or of Python ints for the
F3 null space.  This is the one module that eliminates: callers ask for a
rank or a null space and never reduce rows themselves.  Rank is computed by
fraction-free (Bareiss) elimination on integer pairs in Z[w]; reduced row
echelon forms, null spaces and inverses by Gaussian elimination over Q(w);
null spaces mod 3 by Gauss-Jordan elimination on residues.  All search for
a nonzero pivot and are exact, so results are certificates, not estimates.
"""

from __future__ import annotations

from .eisenstein import ONE, ZERO, EisensteinNumber, integer_pairs

Matrix = list[list[EisensteinNumber]]
Vector = list[EisensteinNumber]


def rref(rows: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns of a copy of ``rows``."""
    m = [list(row) for row in rows]
    if not m:
        return [], ()
    ncols = len(m[0])
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, len(m)):
            if m[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        inv = m[rank][col].inverse()
        m[rank] = [v * inv for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(m):
            break
    return m[:rank], tuple(pivots)


def rank(rows: Matrix) -> int:
    """Rank by Bareiss fraction-free elimination over Z[w] (Math. Comp. 1968).

    Each row is scaled to integer pairs (a, b) = a + b*w.  With pivot P and
    previous pivot q, an entry below P becomes (M[i][j]*P - M[i][k]*M[k][j]) / q.
    Sylvester's identity makes that division exact in Z[w]; a nonzero
    remainder raises AssertionError, so the rank stays a certificate.
    """
    rest = [integer_pairs(row) for row in rows]  # unused rows, unprocessed columns
    c, d = 1, 0  # previous pivot c + d*w
    found = 0
    while rest and rest[0]:
        pivot_row = next((i for i, row in enumerate(rest) if row[0] != (0, 0)), None)
        if pivot_row is None:
            rest = [row[1:] for row in rest]
            continue
        pivot = rest.pop(pivot_row)
        pa, pb = pivot[0]
        # divide by c + d*w: multiply by its conjugate (c - d) - d*w, divide by the norm
        ca, cb = c - d, -d
        norm = c * c - c * d + d * d
        reduced = []
        for row in rest:
            fa, fb = row[0]
            new = []
            for (x, y), (u, v) in zip(row[1:], pivot[1:]):
                s = x * pa - y * pb - fa * u + fb * v
                t = x * pb + y * pa - y * pb - fa * v - fb * u + fb * v
                qa, ra = divmod(s * ca - t * cb, norm)
                qb, rb = divmod(s * cb + t * ca - t * cb, norm)
                if ra or rb:
                    raise AssertionError("inexact Bareiss division in Z[w]")
                new.append((qa, qb))
            reduced.append(new)
        rest = reduced
        c, d = pa, pb
        found += 1
    return found


def nullspace(rows: Matrix, ncols: int | None = None) -> list[Vector]:
    """Basis of {x : rows @ x = 0}, one vector per free column."""
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for an empty matrix")
        ncols = len(rows[0])
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    basis: list[Vector] = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [ZERO] * ncols
        vec[free] = ONE
        for row, piv in zip(reduced, pivots):
            vec[piv] = -row[free]
        basis.append(vec)
    return basis


def nullspace_f3(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Basis of {x in F3^ncols : rows @ x = 0 mod 3}, one vector per free column.

    Entries are ints, read mod 3; the basis entries are in {0, 1, 2}.
    """
    m = [[v % 3 for v in row] for row in rows]
    pivots: list[int] = []
    for col in range(ncols):
        top = len(pivots)
        pivot_row = next((i for i in range(top, len(m)) if m[i][col]), None)
        if pivot_row is None:
            continue
        m[top], m[pivot_row] = m[pivot_row], m[top]
        inv = m[top][col]  # 1 and 2 are their own inverses mod 3
        m[top] = [v * inv % 3 for v in m[top]]
        for i, row in enumerate(m):
            if i != top and row[col]:
                m[i] = [(a - row[col] * b) % 3 for a, b in zip(row, m[top])]
        pivots.append(col)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [0] * ncols
        vec[free] = 1
        for row, piv in zip(m, pivots):
            vec[piv] = -row[free] % 3
        basis.append(vec)
    return basis


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), ZERO) for j in range(len(b[0]))] for i in range(len(a))]


def identity_matrix(n: int) -> Matrix:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def mat_inverse(m: Matrix) -> Matrix:
    """Exact inverse of a square matrix; ValueError when singular."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    augmented = [list(row) + ident for row, ident in zip(m, identity_matrix(n))]
    reduced, pivots = rref(augmented)
    if list(pivots) != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in reduced]
