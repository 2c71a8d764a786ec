"""Parsing, ideal arithmetic, and the small exact invariants."""
import itertools

import pytest

from bettipowers.monomial_core import (
    IdealSyntaxError,
    MonomialIdeal,
    divides,
    generator_degree_profile,
    is_artinian,
    minimalize,
    parse_ideal,
    power,
    product,
    socle_dimension,
)


def test_parse_basic():
    ideal = parse_ideal("vars: x y; gens: x*y, x^2")
    assert ideal.variables == ("x", "y")
    assert ideal.generators == ((1, 1), (2, 0))


def test_parse_repeated_variable_adds_exponents():
    ideal = parse_ideal("vars: x y; gens: x*y*x")
    assert ideal.generators == ((2, 1),)


def test_parse_comments_and_whitespace():
    text = "# header line\nvars: x y ; # trailing\n gens: x ^ 2 , y\n"
    ideal = parse_ideal(text)
    assert ideal.generators == ((0, 1), (2, 0))


def test_parse_zero_exponent_rejected():
    with pytest.raises(IdealSyntaxError) as err:
        parse_ideal("vars: x; gens: x^0")
    assert "positive" in str(err.value)
    assert err.value.position > 0


def test_parse_unknown_variable():
    with pytest.raises(IdealSyntaxError):
        parse_ideal("vars: x; gens: x*z")


def test_parse_unexpected_character():
    with pytest.raises(IdealSyntaxError):
        parse_ideal("vars: x; gens: x + x")


def test_minimalize_removes_multiples():
    gens = [(2, 0), (1, 0), (1, 1), (0, 3), (1, 0)]
    assert minimalize(gens) == ((1, 0), (0, 3))


def test_divides_and_contains():
    assert divides((1, 0), (2, 3))
    assert not divides((1, 4), (2, 3))
    ideal = parse_ideal("vars: x y; gens: x^2, y")
    assert ideal.contains((2, 5))
    assert not ideal.contains((1, 0))


def test_from_generators_validation():
    with pytest.raises(ValueError):
        MonomialIdeal.from_generators(("x",), [(1, 0)])
    with pytest.raises(ValueError):
        MonomialIdeal.from_generators(("x",), [(-1,)])
    with pytest.raises(ValueError):
        MonomialIdeal.from_generators(("x",), [])
    with pytest.raises(ValueError):
        MonomialIdeal.from_generators(("x", "y"), [(0, 0)])


def test_power_of_maximal():
    m = parse_ideal("vars: x y; gens: x, y")
    m2 = power(m, 2)
    assert m2.generators == ((0, 2), (1, 1), (2, 0))
    assert power(m, 1) == m
    with pytest.raises(ValueError):
        power(m, 0)


def test_power_minimalizes():
    # (x, x*y)^2 keeps only x^2 and the two mixed products it divides.
    ideal = parse_ideal("vars: x y; gens: x, x*y")
    assert power(ideal, 2).generators == ((2, 0),)


def test_product_matches_square():
    ideal = parse_ideal("vars: x y z; gens: x*y, z^2")
    assert product(ideal, ideal) == power(ideal, 2)


def _power_reference(I, k):
    # I^k straight from the definition: every product of k generators.
    prods = {
        tuple(map(sum, zip(*combo)))
        for combo in itertools.combinations_with_replacement(I.generators, k)
    }
    return MonomialIdeal(I.variables, minimalize(prods))


def test_power_matches_all_products_of_k_generators():
    for text in (
        "vars: x y; gens: x, x*y",
        "vars: x y z; gens: x^2, y^2, x*y*z",
        "vars: a b c d; gens: a^2*b, b*c^3, c*d, a*d^2, b^2*d",
    ):
        ideal = parse_ideal(text)
        for k in range(1, 6):
            assert power(ideal, k) == _power_reference(ideal, k), (text, k)


def test_is_artinian():
    assert is_artinian(parse_ideal("vars: x y; gens: x^2, x*y, y^2"))
    assert not is_artinian(parse_ideal("vars: x y; gens: x^2*y"))
    assert not is_artinian(parse_ideal("vars: x y z; gens: x, y"))


@pytest.mark.parametrize(
    "text,expected",
    [
        ("vars: x y; gens: x, y", 1),
        ("vars: x y; gens: x^2, x*y, y^2", 2),
        ("vars: x y; gens: x^2, y^3", 1),
        ("vars: x y z; gens: x, y, z", 1),
    ],
)
def test_socle_dimension(text, expected):
    assert socle_dimension(parse_ideal(text)) == expected


def test_socle_requires_artinian():
    with pytest.raises(ValueError):
        socle_dimension(parse_ideal("vars: x y; gens: x^2*y"))


def test_generator_degree_profile():
    assert generator_degree_profile(parse_ideal("vars: x y; gens: x^2, x*y")) == (True, 2)
    assert generator_degree_profile(parse_ideal("vars: x y; gens: x, y^2")) == (
        False,
        None,
    )


def test_str_rendering():
    ideal = parse_ideal("vars: x y; gens: x^2*y, y^3")
    assert "x^2*y" in str(ideal)
    assert ideal.monomial_str((0, 0)) == "1"
