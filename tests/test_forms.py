from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pencilfiber.eisenstein import OMEGA, OMEGA2, EisensteinNumber
from pencilfiber.forms import (
    HomForm,
    UniPoly,
    product_of_linear_forms,
    root_multiplicity,
    squarefree_cube_split,
    squarefree_decomposition,
    uni_gcd,
)

X = HomForm.monomial((1, 0, 0))
Y = HomForm.monomial((0, 1, 0))
Z = HomForm.monomial((0, 0, 1))
T = UniPoly.t()
ONE_P = UniPoly.one()

small_eis = st.builds(
    EisensteinNumber,
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)


def linear_forms():
    return st.builds(HomForm.linear, small_eis, small_eis, small_eis).filter(lambda f: not f.is_zero)


def small_forms(max_degree=2):
    def build(degree, entries):
        from pencilfiber.milnor import monomial_exponents

        exps = monomial_exponents(degree)
        return HomForm(degree, {e: c for e, c in zip(exps, entries)})

    return st.integers(min_value=0, max_value=max_degree).flatmap(
        lambda d: st.builds(build, st.just(d), st.lists(small_eis, min_size=(d + 1) * (d + 2) // 2, max_size=(d + 1) * (d + 2) // 2))
    )


def small_unipolys(max_degree=4):
    return st.lists(small_eis, min_size=0, max_size=max_degree + 1).map(UniPoly)


# --- form arithmetic -------------------------------------------------------


def test_product_of_variables():
    p = X * Y
    assert p.degree == 2
    assert p == HomForm.monomial((1, 1, 0))


def test_three_cubic_dependence():
    x3_y3 = X**3 - Y**3
    y3_z3 = Y**3 - Z**3
    assert x3_y3 + y3_z3 == X**3 - Z**3


def test_cancellation_to_zero():
    p = X + Y
    assert (p - p).is_zero


def test_add_degree_mismatch():
    with pytest.raises(ValueError):
        X + X**2
    assert (HomForm.zero(5) + X) == X  # zero operand is allowed


@settings(max_examples=100, deadline=None)
@given(small_forms(), small_forms(), small_forms())
def test_mul_commutative_associative_distributive(p, q, r):
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    if q.degree == r.degree or q.is_zero or r.is_zero:
        assert p * (q + r) == p * q + p * r


# --- products of linear forms ----------------------------------------------


def test_product_of_linear_forms_cube_split():
    lines = [
        HomForm.linear(1, -1, 0),
        HomForm.linear(1, -OMEGA, 0),
        HomForm.linear(1, -OMEGA2, 0),
    ]
    assert product_of_linear_forms(lines) == X**3 - Y**3


def test_empty_product_is_one():
    assert product_of_linear_forms([]) == HomForm.constant(1)


def test_product_hand_expansion():
    assert product_of_linear_forms([X, Y, X + Y]) == HomForm(
        3, {(2, 1, 0): EisensteinNumber(1), (1, 2, 0): EisensteinNumber(1)}
    )


@settings(max_examples=40, deadline=None)
@given(st.lists(linear_forms(), max_size=4))
def test_product_matches_repeated_products(lines):
    # the integer product divided by the product of the line scales
    expected = HomForm.constant(1)
    for line in lines:
        expected = expected * line
    assert product_of_linear_forms(lines) == expected


def test_product_rejects_nonlinear():
    with pytest.raises(ValueError):
        product_of_linear_forms([X**2])


# --- the interface both kinds share -------------------------------------------


def test_str_lists_terms_from_the_highest():
    assert str(X**2 * 3 - Y * Z * OMEGA) == "(3)*x^2 + (-w)*y^1*z^1"
    assert str(HomForm.constant("1/2")) == "(1/2)"
    assert str(T**3 * 2 - ONE_P) == "(2)*t^3 + (-1)"
    assert str(T + T**2) == "(1)*t^2 + (1)*t"
    assert str(HomForm.zero(2)) == str(UniPoly.zero()) == "0"


@pytest.mark.parametrize(
    "base, one",
    [(X + Y * 2 - Z, HomForm.constant(1)), (T * 2 - ONE_P, ONE_P), (EisensteinNumber(Fraction(3, 2), -2), EisensteinNumber(1))],
    ids=["form", "unipoly", "eisenstein"],
)
def test_power_matches_repeated_products(base, one):
    # the three share one square-and-multiply loop; only a field element has negative powers
    expected = one
    for n in range(7):
        assert base**n == expected
        expected = expected * base
    if isinstance(base, EisensteinNumber):
        expected = one
        for n in range(-1, -4, -1):
            expected = expected / base
            assert base**n == expected
        with pytest.raises(ZeroDivisionError):
            EisensteinNumber(0) ** -1
    else:
        with pytest.raises(ValueError):
            base ** -1


def test_cube_costs_two_products(monkeypatch):
    products = []
    multiply = HomForm.__mul__

    def counting(self, other):
        products.append(other)
        return multiply(self, other)

    monkeypatch.setattr(HomForm, "__mul__", counting)
    cube = (X + Y) ** 3
    monkeypatch.undo()
    assert len(products) == 2 and cube == (X + Y) * (X + Y) * (X + Y)


def test_scalar_product_from_either_side():
    assert X * 2 == 2 * X == X + X
    assert T * OMEGA == OMEGA * T == UniPoly((0, OMEGA))
    assert (X * 0).is_zero and (X * 0).degree == 1
    assert (T * 0).is_zero
    with pytest.raises(TypeError):
        X * "2"


def test_form_leading_is_the_coefficient_of_the_greatest_exponent():
    assert (Y * Z * OMEGA + X**2 * 3).leading() == 3
    assert (Z**2 - Y * Z * 5).leading() == -5
    with pytest.raises(ValueError):
        HomForm.zero(2).leading()


# --- univariate gcd ----------------------------------------------------------


def test_gcd_examples():
    assert uni_gcd(T**2 - ONE_P, T - ONE_P) == T - ONE_P
    # Euclid by hand: (t^3 - 1) - (t^3 + 1) = -2, so the gcd is 1
    assert uni_gcd(T**3 - ONE_P, T**3 + ONE_P) == ONE_P
    p = UniPoly([2, 4])
    assert uni_gcd(p, UniPoly.zero()) == p.monic()


def test_gcd_of_two_zeros():
    with pytest.raises(ValueError):
        uni_gcd(UniPoly.zero(), UniPoly.zero())


@settings(max_examples=100, deadline=None)
@given(small_unipolys(3), small_unipolys(3))
def test_gcd_divides_both(p, q):
    if p.is_zero and q.is_zero:
        return
    g = uni_gcd(p, q)
    assert (p % g).is_zero and (q % g).is_zero


# --- squarefree / cube split -------------------------------------------------


def test_cube_split_cubed_factor():
    p = (T - ONE_P) ** 3 * (T + ONE_P)
    v, rem = squarefree_cube_split(p)
    assert v == T - ONE_P
    assert rem == T + ONE_P


def test_cube_split_square_stays():
    v, rem = squarefree_cube_split(T**2)
    assert v == ONE_P
    assert rem == T**2


def test_cube_split_sixth_power():
    w = UniPoly.constant(OMEGA)
    p = (T - w) ** 6
    v, rem = squarefree_cube_split(p)
    assert v == (T - w) ** 2
    assert rem == ONE_P


def test_cube_split_keeps_scalars_in_remainder():
    p = ((T - ONE_P) ** 3 * (T + ONE_P)) * EisensteinNumber(5)
    v, rem = squarefree_cube_split(p)
    assert v == T - ONE_P
    assert rem == (T + ONE_P) * EisensteinNumber(5)


def _is_cube_free(p):
    # independent check: a factor of multiplicity >= 3 divides p, p', p''
    if p.is_constant:
        return True
    g = uni_gcd(uni_gcd(p, p.derivative()), p.derivative().derivative())
    return g.degree == 0


@settings(max_examples=100, deadline=None)
@given(small_unipolys(3), small_unipolys(2), st.integers(min_value=0, max_value=2))
def test_cube_split_reassembles(p, q, reps):
    poly = p * q ** (3 * reps) if not q.is_zero else p
    if poly.is_zero:
        return
    v, rem = squarefree_cube_split(poly)
    assert v**3 * rem == poly
    assert _is_cube_free(rem)


def test_squarefree_decomposition_multiplicities():
    p = (T - ONE_P) ** 2 * (T + ONE_P) ** 5
    factors = squarefree_decomposition(p)
    assert factors == [(T - ONE_P, 2), (T + ONE_P, 5)]


def test_root_multiplicity():
    p = (T - ONE_P) ** 4 * (T + ONE_P)
    rest, mult = root_multiplicity(p, T - ONE_P)
    assert mult == 4
    assert rest == T + ONE_P


# --- JSON round trips ---------------------------------------------------------


def test_homform_json_roundtrip():
    p = X**2 - Y * Z * EisensteinNumber(Fraction(1, 3))
    assert HomForm.from_json(p.to_json()) == p


def test_unipoly_json_roundtrip():
    p = UniPoly([1, OMEGA, Fraction(-2, 7)])
    assert UniPoly.from_json(p.to_json()) == p


@pytest.mark.parametrize(
    "data",
    [
        {"degree": 1.9, "terms": [{"exp": [1.5, 0, 0.4], "c": "1"}]},
        {"degree": 1, "terms": [{"exp": [1.0, 0, 0], "c": "1"}]},
        {"degree": 1.0, "terms": [{"exp": [1, 0, 0], "c": "1"}]},
        {"degree": True, "terms": [{"exp": [1, 0, 0], "c": "1"}]},
        {"degree": 1, "terms": [{"exp": [True, 0, 0], "c": "1"}]},
    ],
)
def test_homform_json_requires_integer_degree_and_exponents(data):
    with pytest.raises(TypeError):
        HomForm.from_json(data)


@pytest.mark.parametrize("exp", [(1.5, 0, 0), (True, 0, 0), (0, 1.0, 0), (Fraction(1), 0, 0)])
def test_homform_requires_int_exponents_in_code(exp):
    # int(...) would read 1.5 and True as 1 and give the form x
    with pytest.raises(TypeError):
        HomForm(1, {exp: 1})


@pytest.mark.parametrize("exp", [[1, 0], [1, 0, 0, 7]])
def test_homform_json_requires_three_exponents(exp):
    # an exponent has exactly three entries: no IndexError, no dropped fourth entry
    with pytest.raises(ValueError):
        HomForm.from_json({"degree": 1, "terms": [{"exp": exp, "c": "1"}]})


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
        max_size=8,
    ),
    st.integers(1, 60),
)
def test_json_from_pairs_prints_the_form_from_pairs_builds(entries, denominator):
    # zero entries are dropped, as the form drops them
    table = {(i, j, 6 - i - j): v for (i, j), v in entries.items()}
    expected = HomForm.from_pairs(6, table, denominator).to_json()
    assert HomForm.json_from_pairs(6, table, denominator) == expected
