"""Dense exact linear algebra: rank over Z[w], and rank and null spaces over prime fields.

Matrices are lists of rows of integer pairs (a, b) meaning a + b*w, or of
Python ints for the prime fields.  There are two eliminators, one per kind
of entry.  ``rank_pairs``, fraction-free (Bareiss) elimination, is the one
over Z[w]; callers holding Q(w) rows scale each row with
``eisenstein.integer_row`` first, which keeps the rank.  It eliminates
the rows as given, with no pre-pass, because its callers' rows almost never
have a single nonzero entry: the resonance kernel passes only its
Sigma-rows, one per triple point where the weight sums to zero, in the few
unknowns that its union-find leaves (``resonance``); the independence of a
basis of other than two vectors asks about those vectors; and
``milnor.superabundance`` about the monomials at the triple points when its
rank modulo p is not full.
``_echelon``, row echelon form over F_q, is the one
over prime fields, and serves two questions.  ``rank_mod_p`` is the rank
over F_p for one prime p = 1 (mod 3), on the image of Z[w] rows under
w -> ZETA, a cube root of unity mod p; it is a lower bound for the rank
over Z[w], so it certifies full rank, min(rows, columns), and nothing else
(``milnor.superabundance``).  ``nullspace_f3`` is the null space over F3,
by back substitution in the echelon form.  The cocycles pass it only their
triple-point rows, over the classes of lines that their double points join
in a union-find (``arrangement.Incidence.cocycles``); ``find`` is the one
union-find lookup, shared with the resonance kernel.  Questions that need
no elimination are not asked here: whether the three pencil products are
dependent lives in 3-space and is decided by cross and dot products of
Z[w] triples (``eisenstein.pair_cross``, ``pair_dot``, in
``pencils.find_pencils``), whether two weight vectors are independent by
their 2 x 2 minors, and whether a weight vector lies in a plane by Cramer's
rule against one such minor (``resonance``).
All of it is exact, so results are certificates, not estimates.
"""

from __future__ import annotations

from operator import mul

from .eisenstein import Pair


def rank_pairs(rows: list[list[Pair]]) -> int:
    """Rank by Bareiss fraction-free elimination over Z[w] (Math. Comp. 1968).

    Entries are integer pairs (a, b) = a + b*w.  With pivot P and previous
    pivot q, an entry below P becomes (M[i][j]*P - M[i][k]*M[k][j]) / q.
    Sylvester's identity makes that division exact in Z[w]; a nonzero
    remainder raises AssertionError, so the rank stays a certificate.

    Bareiss needs nothing in front of it: a zero row stays zero and is never
    a pivot, a column with no nonzero entry left is skipped, and a row with
    one nonzero entry is eliminated like any other.  The callers' rows come
    from few unknowns and hardly ever have a single nonzero entry, so a pass
    that took such rows as pivots first would only cost a scan.  ``rows``
    is not changed.
    """
    rest = list(rows)  # unused rows, unprocessed columns
    found = 0
    c, d = 1, 0  # previous pivot c + d*w
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


# A prime p = 1 (mod 3) below 2**30 and a root of z^2 + z + 1 mod p, so
# w -> ZETA is a ring map from Z[w] onto F_p (ZETA = 2^((p - 1)/3) mod p).
PRIME = 1073741719
ZETA = 1055852462


def residue(v: Pair) -> int:
    """The image a + b*ZETA mod PRIME of a + b*w: the residues that
    ``rank_mod_p`` reads."""
    return (v[0] + v[1] * ZETA) % PRIME


def find(parent: list[int], l: int) -> int:
    """The root of l in the union-find forest ``parent``, where ``parent[l]``
    is l at a root; each step points a visited entry at its grandparent
    (path halving), so later finds take shorter paths."""
    while parent[l] != l:
        parent[l] = l = parent[parent[l]]
    return l


def _echelon(rows: list[list[int]], q: int) -> list[tuple[int, list[int]]]:
    """Row echelon form over F_q, q prime, as (lead column, row) pivots.

    Entries are ints, read mod q.  Each row is reduced by the pivots found
    before it, in order; a row that does not reduce to zero becomes a pivot,
    kept from its first nonzero column, the lead, on and scaled to 1 there,
    so a reduction changes only that part of a row.  Every pivot is zero at
    the leads found before it, so the leads are distinct, the pivots are a
    basis of the row space, and their leads are the pivot columns of its
    reduced form.  ``rows`` is not changed.
    """
    pivots: list[tuple[int, list[int]]] = []
    for row in rows:
        row = [x % q for x in row]
        for col, pivot in pivots:
            f = row[col]
            if f:
                row[col:] = [(x - f * y) % q for x, y in zip(row[col:], pivot)]
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is not None:
            inverse = pow(row[lead], -1, q)
            pivots.append((lead, [x * inverse % q for x in row[lead:]]))
    return pivots


def rank_mod_p(rows: list[list[int]]) -> int:
    """Rank over F_p, p = PRIME, of rows of residues: the number of pivots of
    their row echelon form.

    For the image of a Z[w] matrix under ``residue`` it is at most the rank
    over Z[w]: a ring map sends a zero minor to zero, so a minor nonzero mod
    p is nonzero over Z[w].  It can be lower only when p divides the norm of
    every maximal nonzero minor.
    """
    return len(_echelon(rows, PRIME))


def nullspace_f3(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Basis of {x in F3^ncols : rows @ x = 0 mod 3}, one vector per free column.

    Entries are ints, read mod 3; the basis entries are in {0, 1, 2}.  The
    vector of a free column is 1 there and 0 at the other free columns, and
    its entries at the leads of the row echelon form follow by back
    substitution, last lead first.  Those conditions fix it, so the basis is
    the one Gauss-Jordan elimination gives.
    """
    pivots = sorted(_echelon(rows, 3), reverse=True)
    leads = {col for col, _ in pivots}
    basis = []
    for free in range(ncols):
        if free in leads:
            continue
        vec = [0] * ncols
        vec[free] = 1
        for col, pivot in pivots:
            vec[col] = -sum(map(mul, pivot[1:], vec[col + 1 :])) % 3
        basis.append(vec)
    return basis
