"""Parsing, ideal arithmetic, and the small exact invariants."""
import itertools
import random
import tracemalloc

import numpy as np
import pytest

from bettipowers import monomial_core
from bettipowers.monomial_core import (
    IdealSyntaxError,
    MonomialIdeal,
    divides,
    generator_degree_profile,
    is_artinian,
    minimalize,
    parse_ideal,
    power,
    powers,
    product,
    socle_dimension,
)

from _fixtures import FIXTURE_DIR, fixture_ideal
from _power_reference import minimalize_reference

# Values of monomial_core._SMALL that send every input to the numpy pass
# and to the Python scan respectively.
BOTH_PATHS = (0, 1 << 30)


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


def test_from_generators_validation(monkeypatch):
    # Lengths and signs are checked before minimalize, so a ragged list gets
    # this message on both paths: the Python scan would sort it silently and
    # the numpy pass would raise numpy's inhomogeneous-shape error.
    cases = [
        (("x",), [(1, 0)], "generator (1, 0) has wrong length, expected 1"),
        (("x", "y"), [(1, 0), (1,)], "generator (1,) has wrong length, expected 2"),
        (("x", "y"), [(2, 1), (1, 2, 3)], "generator (1, 2, 3) has wrong length, expected 2"),
        (("x",), [(-1,)], "negative exponent in generator (-1,)"),
        (("x", "y"), [(1, 1), (0, -2)], "negative exponent in generator (0, -2)"),
        (("x",), [], "empty generator list"),
        (("x", "y"), [(0, 0)], "unit generator: the unit ideal is not accepted as input"),
        (("x", "y"), [(1, 2), (0, 0)], "unit generator: the unit ideal is not accepted as input"),
        ((), [()], "unit generator: the unit ideal is not accepted as input"),
        (("x", "x"), [(1, 0)], "duplicate variable names"),
    ]
    for small in BOTH_PATHS:
        monkeypatch.setattr(monomial_core, "_SMALL", small)
        for variables, gens, message in cases:
            with pytest.raises(ValueError) as err:
                MonomialIdeal.from_generators(variables, gens)
            assert str(err.value) == message
        # A float exponent is refused rather than truncated by an integer array.
        with pytest.raises(TypeError):
            MonomialIdeal.from_generators(("x",), [(1.5,)])


def test_from_generators_keeps_python_ints(monkeypatch):
    for small in BOTH_PATHS:
        monkeypatch.setattr(monomial_core, "_SMALL", small)
        ideal = MonomialIdeal.from_generators(("x", "y"), [np.array([2, 1]), [np.int64(1), 3]])
        assert ideal.generators == ((2, 1), (1, 3))
        assert all(type(e) is int for g in ideal.generators for e in g)
        # minimalize itself hands back Python ints for numpy ones.
        assert all(type(e) is int for g in minimalize([np.array([2, 1])]) for e in g)


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
    return MonomialIdeal(I.variables, minimalize_reference(prods))


def test_power_matches_all_products_of_k_generators():
    for text in (
        "vars: x y; gens: x, x*y",
        "vars: x y z; gens: x^2, y^2, x*y*z",
        "vars: a b c d; gens: a^2*b, b*c^3, c*d, a*d^2, b^2*d",
    ):
        ideal = parse_ideal(text)
        for k in range(1, 6):
            assert power(ideal, k) == _power_reference(ideal, k), (text, k)


def test_powers_match_reference_on_fixtures(monkeypatch):
    names = sorted(path.stem for path in FIXTURE_DIR.glob("*.ideal"))
    assert "artinian4" in names
    for small in BOTH_PATHS:
        monkeypatch.setattr(monomial_core, "_SMALL", small)
        for name in names:
            ideal = fixture_ideal(name)
            kmax = 6 if name == "artinian4" else 4
            for k, P in enumerate(powers(ideal, kmax), start=1):
                assert P.generators == _power_reference(ideal, k).generators, (small, name, k)


def _assert_minimalize_matches_reference(gens):
    got = minimalize(gens)
    assert got == minimalize_reference(gens), gens
    assert all(type(g) is tuple and all(type(e) is int for e in g) for g in got)


def test_minimalize_matches_reference_on_random_vectors(monkeypatch):
    # The numpy pass under its own budget and budgets of 1 and 7 cells, which
    # split every input into many batches, then the Python scan.
    default = monomial_core._CHUNK_CELLS
    for small, cells in ((0, default), (0, 1), (0, 7), (BOTH_PATHS[1], default)):
        monkeypatch.setattr(monomial_core, "_SMALL", small)
        monkeypatch.setattr(monomial_core, "_CHUNK_CELLS", cells)
        rng = random.Random(20140)
        for n in range(1, 10):
            _assert_minimalize_matches_reference([(0,) * n])
            _assert_minimalize_matches_reference([tuple(range(n))])
            for _ in range(60):
                top = rng.choice((1, 2, 3, 6))
                gens = [
                    tuple(rng.randint(0, top) for _ in range(n))
                    for _ in range(rng.randint(1, 40))
                ]
                # Duplicates, and sometimes the zero vector, which divides all.
                gens += rng.sample(gens, rng.randint(0, len(gens)))
                if rng.random() < 0.1:
                    gens.append((0,) * n)
                rng.shuffle(gens)
                _assert_minimalize_matches_reference(gens)
        assert minimalize([]) == ()
        assert minimalize(iter([(3,), (1,), (2,), (1,)])) == ((1,),)


def test_minimal_generators_switch_paths_past_small(monkeypatch):
    # Up to _SMALL vectors, and products of up to _SMALL candidate sums, take
    # the Python scan; one more takes the numpy pass.  Both give the
    # reference's answer in Python ints.
    sizes = []
    real = monomial_core._minimal

    def counted(T):
        sizes.append(T.shape[1])
        return real(T)

    monkeypatch.setattr(monomial_core, "_minimal", counted)
    small = monomial_core._SMALL
    rng = random.Random(20142)
    for size in (small - 1, small, small + 1):
        for n in (1, 3, 6):
            gens = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(size)]
            _assert_minimalize_matches_reference(gens)
        assert sizes == ([size] * 3 if size > small else [])
        sizes.clear()
    # x and y^2*z times cubics: the products of y^2*z that x*m divides go.
    cubics = [v for v in itertools.product(range(4), repeat=3) if sum(v) == 3]
    I = MonomialIdeal.from_generators("xyz", [(1, 0, 0), (0, 2, 1)])
    for count in (small // 2, small // 2 + 1):
        J = MonomialIdeal.from_generators("xyz", cubics[:count])
        sizes.clear()
        sums = [tuple(map(sum, zip(g, h))) for g in I.generators for h in J.generators]
        assert product(I, J).generators == minimalize_reference(sums)
        assert len(minimalize_reference(sums)) < len(sums)
        assert sizes == ([len(sums)] if len(sums) > small else [])


def test_minimalize_past_int64(monkeypatch):
    for small in BOTH_PATHS:
        monkeypatch.setattr(monomial_core, "_SMALL", small)
        _check_minimalize_past_int64()


def _check_minimalize_past_int64():
    rng = random.Random(20141)
    edge = 1 << 63
    # Exponents of 2^63 and above, beside small ones.
    _assert_minimalize_matches_reference([(edge, 0), (edge + 1, 1), (0, edge), (1, 1)])
    _assert_minimalize_matches_reference([(edge - 1, 0), (edge, 0), (1 << 64, 1 << 64)])
    # Every exponent fits in int64 but no degree does: 37 coordinates near
    # 2^58 and 3 small ones, so int64 sums would wrap.
    for _ in range(20):
        base = [rng.randint((1 << 58) - (1 << 54), 1 << 58) for _ in range(37)]
        gens = [
            tuple(rng.randint(0, 4) for _ in range(3)) + tuple(base) for _ in range(12)
        ]
        assert sum(min(column) for column in zip(*gens)) >= edge
        _assert_minimalize_matches_reference(gens)


def test_minimal_divides_in_the_narrowest_dtype(monkeypatch):
    # With mixed degrees the numpy pass compares in the narrowest unsigned
    # dtype that holds the largest degree: uint8 up to 255, uint16 from 256
    # to 65,535, uint32 from 65,536.  One dtype too narrow would wrap x^top
    # to x^0, whose degree 0 nothing divides, so it would stay beside x.
    monkeypatch.setattr(monomial_core, "_SMALL", 0)
    rng = random.Random(20272)
    for top in (255, 256, 65535, 65536):
        fixed = [(top, 0, 0), (1, 0, 0), (0, top, 0), (0, top - 1, 1), (0, 2, top - 2)]
        assert minimalize(fixed) == ((1, 0, 0), (0, 2, top - 2), (0, top - 1, 1), (0, top, 0))
        for _ in range(20):
            gens = fixed[2:] + [
                tuple(rng.choice((0, 1, 2, top // 4, top // 3)) for _ in range(3))
                for _ in range(rng.randint(1, 30))
            ]
            assert max(map(sum, gens)) == top
            _assert_minimalize_matches_reference(gens)
        ideal = MonomialIdeal.from_generators("xyz", [(top // 2, 0, 0), (1, 1, 0), (0, 0, 2)])
        for k in (1, 2):
            assert power(ideal, k) == _power_reference(ideal, k), (top, k)


def test_product_and_power_past_int64(monkeypatch):
    for small in BOTH_PATHS:
        monkeypatch.setattr(monomial_core, "_SMALL", small)
        _check_product_and_power_past_int64()


def _check_product_and_power_past_int64():
    big = 1 << 62
    ideal = MonomialIdeal.from_generators(("x", "y"), [(big, big)])
    assert product(ideal, ideal).generators == ((2 * big, 2 * big),)
    assert power(ideal, 3).generators == ((3 * big, 3 * big),)
    # Candidate degrees up to 2^63 - 1 stay in int64; past it, exact ints.
    I = MonomialIdeal.from_generators(("x", "y"), [(big, 0), (1, big - 1)])
    J = MonomialIdeal.from_generators(("x", "y"), [(big - 1, 0), (0, big - 1)])
    sums = [tuple(map(sum, zip(g, h))) for g in I.generators for h in J.generators]
    assert max(map(sum, sums)) == (1 << 63) - 1
    assert product(I, J).generators == minimalize_reference(sums)
    for gens in (
        [(big - 1, 0), (0, big - 1), (big - 2, 1)],  # squares reach 2^63 - 2
        [(big, 0), (0, big), (big - 1, 1), (1, big - 1)],
        [(big + 5, big), (2, 3), (big, big + 5)],
    ):
        ideal = MonomialIdeal.from_generators(("x", "y"), gens)
        for k in range(1, 5):
            P = power(ideal, k)
            assert P == _power_reference(ideal, k), (gens, k)
            assert all(type(e) is int for g in P.generators for e in g)


def test_product_memory_alarm():
    # The divisibility test runs in batches of at most _CHUNK_CELLS cells:
    # art4^13 (3,354 generators) times art4 peaks near 2 MiB of traced
    # allocations, where one unbatched test of every vector against its
    # prefix peaked near 41 MiB.
    ideal = fixture_ideal("artinian4")
    base = power(ideal, 13)
    tracemalloc.start()
    try:
        gens = product(base, ideal).generators
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(gens) == 4179
    assert peak <= 4 << 20, f"peak {peak / 1024:.0f} KiB"


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
