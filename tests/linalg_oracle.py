"""Gauss-Jordan elimination over Q(w) and F3, and cross products over Q(w): the tests' reference.

The package answers rank questions by Bareiss elimination over Z[w], null
spaces mod 3 by back substitution in a row echelon form, and 3-space
questions by cross and dot products of Z[w] triples.  The tests check those
answers against this textbook reduction and the cross product over Q(w),
which share no code with them.  ``package_rank`` is one exception: it
is the package's rank of Q(w) rows, for tests that compare it with the
reference.  ``peeled_rank`` is the other: it takes every row with one
nonzero entry as a pivot, with its column, and hands the rest to the
package's Bareiss elimination; the all-points resonance oracle, whose rows
often have one nonzero entry, stays fast with it.  ``cocycle_rows`` states
the mod-3 cocycle conditions as one dense row per incidence point, the
system that the package solves on classes of lines.
"""

from pencilfiber.eisenstein import ONE, ZERO, integer_row
from pencilfiber.linalg import rank_pairs


def package_rank(rows):
    """Each Q(w) row scaled into Z[w] by ``integer_row``, then ``rank_pairs``."""
    return rank_pairs([integer_row(row)[0] for row in rows])


def peeled_rank(rows):
    """Rank over Z[w] of rows of integer pairs, one-entry rows taken as pivots first.

    Eliminating with a row that has one nonzero entry clears its column and
    changes no other entry, so the rank is one per distinct column such rows
    occupy plus the rank of the other rows with those columns deleted.
    Deleting a column can leave another row with one nonzero entry, so this
    repeats; zero rows are dropped.  The rows left go to ``rank_pairs`` on
    the columns where some of them is nonzero, and ``rows`` is not changed.
    """
    # each nonzero row with the set of its nonzero columns
    live = [(row, cols) for row in rows if (cols := {j for j, v in enumerate(row) if v != (0, 0)})]
    found = 0
    while singles := {j for _, cols in live if len(cols) == 1 for j in cols}:
        found += len(singles)
        live = [(row, left) for row, cols in live if (left := cols - singles)]
    keep = sorted(set().union(*(cols for _, cols in live)))
    return found + rank_pairs([[row[j] for j in keep] for row, _ in live])


def rref(rows):
    """Reduced row echelon form and pivot columns of a copy of ``rows``."""
    m = [list(row) for row in rows]
    if not m:
        return [], ()
    ncols = len(m[0])
    pivots = []
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


def nullspace(rows, ncols=None):
    """Basis of {x : rows @ x = 0}, one vector per free column."""
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for an empty matrix")
        ncols = len(rows[0])
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [ZERO] * ncols
        vec[free] = ONE
        for row, piv in zip(reduced, pivots):
            vec[piv] = -row[free]
        basis.append(vec)
    return basis


def nullspace_f3(rows, ncols):
    """Basis of {x in F3^ncols : rows @ x = 0 mod 3}, one vector per free
    column, by Gauss-Jordan elimination on the residues."""
    m = [[v % 3 for v in row] for row in rows]
    pivots = []
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


def cocycle_rows(points, r):
    """The mod-3 cocycle conditions as dense rows, one per incidence point
    over the r lines: 1 at each line of the point, and -1 at the second line
    of a double point, so a double point {i, j} says x_i = x_j and a triple
    point {i, j, k} says x_i + x_j + x_k = 0."""
    rows = []
    for pt in points:
        row = [0] * r
        for l in pt.lines:
            row[l] = 1
        if len(pt.lines) == 2:
            row[pt.lines[1]] = -1
        rows.append(row)
    return rows


def cross(u, v):
    """u x v over Q(w): orthogonal to u and v, zero iff they are proportional."""
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def mat_mul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), ZERO) for j in range(len(b[0]))] for i in range(len(a))]
