import math
import random
from itertools import combinations, product

from hypothesis import example, given, settings
from hypothesis import strategies as st

import linalg_oracle
from linalg_oracle import mat_mul, nullspace, package_rank, peeled_rank, rref
from pencilfiber.arrangement import incidence, intersection_points
from pencilfiber.eisenstein import OMEGA, ONE, ZERO, EisensteinNumber, integer_row, pair_cross, pair_dot
from pencilfiber.fixtures import cuspidal_dual
from pencilfiber.linalg import PRIME, ZETA, nullspace_f3, rank_mod_p, rank_pairs, residue

small_eis = st.builds(
    EisensteinNumber,
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


# entries with w-parts and denominators up to 50, for products of small factors
wide_eis = st.builds(
    EisensteinNumber,
    st.fractions(min_value=-50, max_value=50, max_denominator=50),
    st.fractions(min_value=-50, max_value=50, max_denominator=50),
)


def matrices(rows, cols):
    return st.lists(
        st.lists(small_eis, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )


def _det(m):
    # cofactor expansion; independent of the elimination code
    n = len(m)
    if n == 1:
        return m[0][0]
    total = ZERO
    sign = EisensteinNumber(1)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total = total + sign * m[0][j] * _det(minor)
        sign = -sign
    return total


def _rank_by_minors(m):
    nrows, ncols = len(m), len(m[0])
    for size in range(min(nrows, ncols), 0, -1):
        for rows_idx in combinations(range(nrows), size):
            for cols_idx in combinations(range(ncols), size):
                sub = [[m[i][j] for j in cols_idx] for i in rows_idx]
                if _det(sub):
                    return size
    return 0


@settings(max_examples=60, deadline=None)
@given(matrices(3, 4))
def test_rank_matches_minor_oracle(m):
    assert package_rank(m) == _rank_by_minors(m)


@st.composite
def low_rank_matrices(draw):
    """M = A*B with inner size k < min(m, n), sometimes with a zeroed column,
    so the elimination has to skip pivotless columns and take pivots from later rows."""
    m = draw(st.integers(min_value=2, max_value=4))
    n = draw(st.integers(min_value=2, max_value=5))
    k = draw(st.integers(min_value=0, max_value=min(m, n) - 1))
    if k == 0:
        product = [[ZERO] * n for _ in range(m)]
    else:
        a = [draw(st.lists(wide_eis, min_size=k, max_size=k)) for _ in range(m)]
        b = [draw(st.lists(wide_eis, min_size=n, max_size=n)) for _ in range(k)]
        product = mat_mul(a, b)
    if draw(st.booleans()):
        col = draw(st.integers(min_value=0, max_value=n - 1))
        for row in product:
            row[col] = ZERO
    return product


@settings(max_examples=80, deadline=None)
@given(low_rank_matrices())
def test_rank_of_rank_deficient_products(m):
    assert package_rank(m) == _rank_by_minors(m) == len(rref(m)[1])


def test_rank_skips_pivotless_columns_and_later_pivot_rows():
    w = EisensteinNumber(0, 1)
    m = [
        [ZERO, ZERO, w, EisensteinNumber(1)],
        [ZERO, EisensteinNumber(2), EisensteinNumber(1), ZERO],
        [ZERO, EisensteinNumber(4), EisensteinNumber(2) + w, EisensteinNumber(1)],
    ]
    assert package_rank(m) == _rank_by_minors(m) == 2
    assert package_rank([]) == 0
    assert package_rank([[ZERO, ZERO]]) == 0


nonzero_eis = small_eis.filter(bool)


@st.composite
def sparse_matrices(draw):
    """Rows of the kinds ``linalg_oracle.peeled_rank`` takes as pivots before
    Bareiss elimination, and that ``rank_pairs`` eliminates like any other,
    shuffled among each other: one-entry rows, two of them sometimes on one
    column; a chain whose k-th row has one entry left only once the columns
    of the rows before it are deleted; zero rows; other sparse rows.  The
    width may be 0."""
    n = draw(st.integers(min_value=0, max_value=5))
    rows = []
    if n:
        order = draw(st.permutations(range(n)))
        for k in range(draw(st.integers(min_value=0, max_value=n))):
            row = [ZERO] * n
            row[order[k]] = draw(nonzero_eis)
            for j in order[:k]:
                if draw(st.booleans()):
                    row[j] = draw(nonzero_eis)
            rows.append(row)
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            row = [ZERO] * n
            row[draw(st.integers(min_value=0, max_value=n - 1))] = draw(nonzero_eis)
            rows.append(row)
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            rows.append([draw(st.one_of(st.just(ZERO), nonzero_eis)) for _ in range(n)])
    rows += [[ZERO] * n for _ in range(draw(st.integers(min_value=0 if rows else 1, max_value=2)))]
    return draw(st.permutations(rows))


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
@example([[ONE, ZERO], [ONE, ONE], [ZERO, ONE]])  # a one-entry row whose column others need
@example([[ONE, ZERO, ZERO], [ONE, OMEGA, ZERO], [ZERO, ONE, ONE]])  # a chain of length 3
@example([[ZERO, 2 * OMEGA], [ZERO, -ONE], [ZERO, ZERO]])  # two one-entry rows on one column
@example([[], []])
def test_rank_pairs_agrees_with_peeled_minor_and_rref_ranks(m):
    rows = [integer_row(row)[0] for row in m]
    before = [list(row) for row in rows]
    assert rank_pairs(rows) == peeled_rank(rows) == _rank_by_minors(m) == len(rref(m)[1])
    assert rows == before


@settings(max_examples=60, deadline=None)
@given(matrices(3, 4))
def test_nullspace_annihilates(m):
    basis = nullspace(m)
    assert len(basis) == 4 - package_rank(m)
    for vec in basis:
        for row in m:
            assert sum((a * b for a, b in zip(row, vec)), ZERO) == ZERO


@st.composite
def vector_pairs(draw):
    """(u, v) with v independent of u, a multiple of u, or zero."""
    u = draw(st.lists(small_eis, min_size=3, max_size=3))
    v = draw(
        st.one_of(
            st.lists(small_eis, min_size=3, max_size=3),
            small_eis.map(lambda c: [c * x for x in u]),
        )
    )
    return u, v


@settings(max_examples=100, deadline=None)
@given(vector_pairs())
def test_cross_is_orthogonal_and_detects_rank(pair):
    u, v = (integer_row(x)[0] for x in pair)
    c = pair_cross(u, v)
    assert pair_dot(c, u) == (0, 0) and pair_dot(c, v) == (0, 0)
    assert any(x != (0, 0) for x in c) == (package_rank(list(pair)) == 2)


@settings(max_examples=60, deadline=None)
@given(matrices(3, 3))
def test_inverse_or_singular(m):
    # the cross products of row pairs are the columns of adj(m): m adj(m) = det(m) I,
    # here for m with each row scaled into Z[w], whose rank is that of m
    rows = [integer_row(row)[0] for row in m]
    adj_columns = [pair_cross(rows[1], rows[2]), pair_cross(rows[2], rows[0]), pair_cross(rows[0], rows[1])]
    det = _det([[EisensteinNumber(*x) for x in row] for row in rows])
    product = [[EisensteinNumber(*pair_dot(row, col)) for col in adj_columns] for row in rows]
    assert product == [[det if i == j else ZERO for j in range(3)] for i in range(3)]
    assert bool(det) == (package_rank(m) == 3)


def test_rref_pivots_are_clean():
    m = [
        [EisensteinNumber(1), EisensteinNumber(2), EisensteinNumber(3)],
        [EisensteinNumber(2), EisensteinNumber(4), EisensteinNumber(6)],
        [EisensteinNumber(0), EisensteinNumber(1), EisensteinNumber(1)],
    ]
    reduced, pivots = rref(m)
    assert pivots == (0, 1)
    for i, piv in enumerate(pivots):
        assert reduced[i][piv] == EisensteinNumber(1)
        for i2 in range(len(reduced)):
            if i2 != i:
                assert reduced[i2][piv] == ZERO


@st.composite
def f3_systems(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    m = draw(st.integers(min_value=0, max_value=6))
    entries = st.integers(min_value=-4, max_value=4)
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m))
    return rows, n


@settings(max_examples=150, deadline=None)
@given(f3_systems())
def test_nullspace_f3_spans_exactly_the_solutions(system):
    rows, n = system
    # brute force over F3^n: the solution set has 3^(n - rank) elements
    solutions = {
        x for x in product(range(3), repeat=n) if all(sum(a * b for a, b in zip(row, x)) % 3 == 0 for row in rows)
    }
    basis = nullspace_f3(rows, n)
    assert all(len(vec) == n and set(vec) <= {0, 1, 2} for vec in basis)
    span = {
        tuple(sum(c * vec[i] for c, vec in zip(coeffs, basis)) % 3 for i in range(n))
        for coeffs in product(range(3), repeat=len(basis))
    }
    assert span == solutions
    assert 3 ** len(basis) == len(solutions)  # the basis is independent: dimension n - rank


@st.composite
def f3_matrices(draw):
    """Integer rows with entries outside 0..2, some rows zero, as many as
    twice the columns, and no columns at all."""
    n = draw(st.integers(min_value=0, max_value=6))
    row = st.lists(st.integers(min_value=-7, max_value=7), min_size=n, max_size=n)
    rows = draw(st.lists(st.one_of(row, st.just([0] * n)), max_size=2 * n + 2))
    return rows, n


@settings(max_examples=300, deadline=None)
@given(f3_matrices())
@example(([], 0))
@example(([[], []], 0))
@example(([[0, 0, 0], [4, -1, 5], [0, 0, 0], [2, 2, 2], [-3, 3, 6]], 3))
def test_nullspace_f3_is_the_gauss_jordan_basis(system):
    # the basis, not only its span: the pencil search reads its vectors in order
    rows, n = system
    assert nullspace_f3(rows, n) == linalg_oracle.nullspace_f3(rows, n)


def test_nullspace_f3_of_63_cuspidal_cocycle_rows_is_the_gauss_jordan_basis():
    arr = cuspidal_dual(31)
    rows = linalg_oracle.cocycle_rows(intersection_points(arr), arr.r)
    assert (arr.r, len(rows)) == (63, 991)
    basis = nullspace_f3(rows, arr.r)
    assert basis == linalg_oracle.nullspace_f3(rows, arr.r)
    assert basis == incidence(arr).cocycles == [[1] * arr.r]


def test_nullspace_f3_examples():
    assert nullspace_f3([], 2) == [[1, 0], [0, 1]]
    assert nullspace_f3([[1, 1, 1]], 3) == [[2, 1, 0], [2, 0, 1]]
    assert nullspace_f3([[1, -1, 0], [0, 1, -1]], 3) == [[1, 1, 1]]
    assert nullspace_f3([[3, 6, -9]], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_zeta_is_a_primitive_cube_root_of_unity_mod_the_prime():
    assert PRIME % 3 == 1 and PRIME < 2**30
    assert all(PRIME % d for d in range(2, math.isqrt(PRIME) + 1))
    assert ZETA != 1 and (ZETA * ZETA + ZETA + 1) % PRIME == 0


def _random_pairs(rng, rows, cols, bound):
    return [[(rng.randint(-bound, bound), rng.randint(-bound, bound)) for _ in range(cols)] for _ in range(rows)]


def _pair_product(a, b):
    """A*B over Z[w], with pairs as entries."""
    out = []
    for row in a:
        new = []
        for col in zip(*b):
            x = y = 0
            for (p, q), (u, v) in zip(row, col):
                x, y = x + p * u - q * v, y + p * v + q * u - q * v
            new.append((x, y))
        out.append(new)
    return out


def test_rank_mod_p_agrees_with_rank_pairs_on_seeded_matrices():
    """w -> ZETA sends to 0 mod PRIME only elements of Z[w] whose norm PRIME
    divides.  Every nonzero minor of these matrices has norm far below
    PRIME (entries at most 2 in each part, or products A*B of inner size
    k <= 2 with parts at most 1), so the two ranks agree exactly, whether
    or not the matrix has full row rank."""
    rng = random.Random(24)
    deficient = 0
    for _ in range(300):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        if rng.random() < 0.5:
            rows = _random_pairs(rng, m, n, 2)
        else:
            k = rng.randint(0, min(2, m, n))
            rows = _pair_product(_random_pairs(rng, m, k, 1), _random_pairs(rng, k, n, 1)) if k else [[(0, 0)] * n for _ in range(m)]
        rank = rank_pairs(rows)
        assert rank_mod_p([[residue(v) for v in row] for row in rows]) == rank, rows
        deficient += rank < m
    assert deficient > 50


def test_rank_mod_p_is_a_lower_bound():
    # PRIME and ZETA - w vanish mod PRIME, though they are nonzero in Z[w]
    rows = [[(PRIME, 0), (0, 0)], [(ZETA, -1), (0, 0)], [(0, 0), (3, 1)]]
    assert rank_pairs(rows) == 2
    assert rank_mod_p([[residue(v) for v in row] for row in rows]) == 1
    assert rank_mod_p([]) == 0
