import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pencilfiber.eisenstein import (
    MU3,
    OMEGA,
    OMEGA2,
    EisensteinNumber,
    ParseError,
    canonical_pairs,
    integer_row,
    json_int,
    normalized_strs,
    parse_eisenstein,
)

rationals_64 = st.builds(
    Fraction,
    st.integers(min_value=-(2**64), max_value=2**64),
    st.integers(min_value=1, max_value=2**64),
)
eisensteins = st.builds(EisensteinNumber, rationals_64, rationals_64)


def test_omega_squared():
    assert OMEGA * OMEGA == EisensteinNumber(-1, -1)
    assert OMEGA * OMEGA == OMEGA2


def test_omega_is_cube_root_of_unity():
    assert OMEGA**3 == EisensteinNumber(1)
    assert EisensteinNumber(1) + OMEGA + OMEGA**2 == EisensteinNumber(0)


def test_unit_product():
    # (1 + w) * (-w) = 1 because 1 + w^2 = -w
    assert (EisensteinNumber(1) + OMEGA) * (-OMEGA) == EisensteinNumber(1)


def test_hash_agrees_with_equality():
    assert EisensteinNumber(3) == 3
    assert hash(EisensteinNumber(3)) == hash(3)
    assert hash(EisensteinNumber(Fraction(-2, 7))) == hash(Fraction(-2, 7))
    assert len({EisensteinNumber(3), 3}) == 1
    assert len({EisensteinNumber(Fraction(1, 2)), Fraction(1, 2), EisensteinNumber(Fraction(1, 2), 1)}) == 2


@pytest.mark.parametrize("value", [0, -7, Fraction(3, 4), Fraction(-5), "2/6", "-1"])
def test_components_are_exact_fractions(value):
    for x in (EisensteinNumber(value), EisensteinNumber(value, value), EisensteinNumber(0, value)):
        assert type(x.re) is Fraction and type(x.wc) is Fraction
    x = EisensteinNumber(value, value)
    assert x.re == x.wc == Fraction(value)


def test_integer_pairs_scale_by_denominator_lcm():
    row = [EisensteinNumber(Fraction(1, 2), Fraction(-1, 3)), EisensteinNumber(0, 2), EisensteinNumber(Fraction(5, 4))]
    assert integer_row(row) == ([(6, -4), (0, 24), (15, 0)], 12)
    assert integer_row([EisensteinNumber(0), EisensteinNumber(-3, 1)]) == ([(0, 0), (-3, 1)], 1)
    assert integer_row([]) == ([], 1)
    # text is read as written, so a denominator not in lowest terms counts
    assert integer_row(["2/4", "w"]) == ([(2, 0), (0, 4)], 4)


@pytest.mark.parametrize(
    "value, error",
    [(1.0, ValueError), (0.5, ValueError), (True, ValueError), (False, ValueError), (None, TypeError), ([], TypeError), ({}, TypeError)],
    ids=["1.0", "0.5", "True", "False", "None", "list", "object"],
)
def test_integer_pairs_reject_floats_and_bools(value, error):
    # JSON values that are no exact field element, named in the message
    with pytest.raises(error, match=f"^{re.escape(repr(value))} is not an exact field element$"):
        integer_row([EisensteinNumber(1), value, "w"])
    with pytest.raises(error, match="is not an exact field element"):
        EisensteinNumber.of(value)


zw_entries = st.one_of(st.just((0, 0)), st.tuples(st.integers(-20, 20), st.integers(-20, 20)))


@settings(max_examples=300, deadline=None)
@given(st.tuples(zw_entries, zw_entries, zw_entries).filter(lambda p: p != ((0, 0),) * 3))
@example(((0, 0), (-3, 0), (1, 2)))  # a zero entry, then a negative integer lead
@example(((2, -1), (0, 0), (4, 4)))  # a lead with a nonzero w-part
@example(((0, 0), (0, 0), (0, -5)))
def test_normalized_is_the_triple_normalized_strs_prints(p):
    # lead 1 and proportional to p: p divided by its lead in Q(w)
    lead = EisensteinNumber(*next(v for v in p if v != (0, 0)))
    normalized = tuple(EisensteinNumber(*v) / lead for v in p)
    assert normalized == tuple(map(parse_eisenstein, normalized_strs(canonical_pairs(p))))


def test_self_division():
    x = EisensteinNumber(1, 2)
    assert x / x == EisensteinNumber(1)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        EisensteinNumber(1) / EisensteinNumber(0)
    with pytest.raises(ZeroDivisionError):
        EisensteinNumber(0).inverse()


@pytest.mark.parametrize(
    "text,re_,wc",
    [
        ("1/2+3*w", Fraction(1, 2), Fraction(3)),
        ("-w", Fraction(0), Fraction(-1)),
        ("7", Fraction(7), Fraction(0)),
        ("w", Fraction(0), Fraction(1)),
        ("5*w", Fraction(0), Fraction(5)),
        ("-2/3*w", Fraction(0), Fraction(-2, 3)),
        ("1/2-w", Fraction(1, 2), Fraction(-1)),
        ("-1/2+w", Fraction(-1, 2), Fraction(1)),
        ("0", Fraction(0), Fraction(0)),
    ],
)
def test_parse_examples(text, re_, wc):
    value = parse_eisenstein(text)
    assert value.re == re_ and value.wc == wc


# spellings ``str`` never prints but the parser accepts: an explicit plus, a
# negative zero, leading zeros, a fraction not in lowest terms, and "w"
# without its "*"; each component is a reduced Fraction
@pytest.mark.parametrize(
    "text,re_,wc",
    [
        ("+5", Fraction(5), Fraction(0)),
        ("-0", Fraction(0), Fraction(0)),
        ("007/014", Fraction(1, 2), Fraction(0)),
        ("2/4*w", Fraction(0), Fraction(1, 2)),
        ("1+2w", Fraction(1), Fraction(2)),
        ("-3/6-4/8*w", Fraction(-1, 2), Fraction(-1, 2)),
    ],
)
def test_parse_accepts_non_canonical_spellings(text, re_, wc):
    value = parse_eisenstein(text)
    assert (value.re, value.wc) == (re_, wc)
    assert type(value.re) is type(value.wc) is Fraction
    assert (value.re.denominator, value.wc.denominator) == (re_.denominator, wc.denominator)
    assert parse_eisenstein(str(value)) == value


# "\u0661" and "\uff11/\uff12" are an Arabic-Indic 1 and a fullwidth 1/2: decimal digits that are not ASCII
@pytest.mark.parametrize(
    "text,pos",
    [
        ("1/2+", 4),
        ("x", 0),
        ("1//2", 1),
        ("3/0", 0),
        ("1/0", 0),
        ("2+1/0w", 2),
        ("1+2", 3),
        ("w3", 1),
        ("\u0661", 0),
        ("\uff11/\uff12", 0),
        ("1--2*w", 2),
        ("1+-2*w", 2),
        ("1+*w", 2),
        ("1-*w", 2),
    ],
)
def test_parse_errors_carry_positions(text, pos):
    with pytest.raises(ParseError) as err:
        parse_eisenstein(text)
    assert err.value.position == pos


@settings(max_examples=1000, deadline=None)
@given(eisensteins)
def test_print_parse_roundtrip(x):
    assert parse_eisenstein(str(x)) == x


@settings(max_examples=200, deadline=None)
@given(eisensteins)
def test_inverse(x):
    if x:
        assert x * x.inverse() == EisensteinNumber(1)


@settings(max_examples=200, deadline=None)
@given(eisensteins)
def test_conjugate_gives_norm(x):
    product = x * x.conj()
    assert product.wc == 0
    assert product.re == x.norm()
    assert x.norm() >= 0
    assert (x.norm() == 0) == (not x)


@settings(max_examples=200, deadline=None)
@given(eisensteins, eisensteins, eisensteins)
def test_ring_laws(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a


def test_mu3_membership():
    for zeta in MU3:
        assert zeta**3 == EisensteinNumber(1)
    assert len(set(MU3)) == 3


@pytest.mark.parametrize("value", [0.5, 0.1, True, False])
def test_of_rejects_inexact_and_boolean_values(value):
    with pytest.raises(ValueError):
        EisensteinNumber.of(value)


def test_of_accepts_exact_values():
    assert EisensteinNumber.of(3) == EisensteinNumber(3)
    assert EisensteinNumber.of(Fraction(1, 2)) == EisensteinNumber(Fraction(1, 2))
    assert EisensteinNumber.of("1/2-w") == EisensteinNumber(Fraction(1, 2), -1)


def test_json_int_accepts_only_integers():
    assert json_int(-3, "x") == -3
    for value in (1.0, 0.5, True, "1", None, [1]):
        with pytest.raises(TypeError):
            json_int(value, "x")
