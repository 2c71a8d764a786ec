"""Exact rank computation, simplicial homology, and the Betti table engine."""
import pytest

from bettipowers.corpus import fixture_ideal
from bettipowers.monomial_core import parse_ideal, power
from bettipowers.resolution_engine import (
    GF2,
    RATIONALS,
    CoefficientField,
    ResourceLimitError,
    SimplicialComplex,
    betti_table,
    lcm_lattice,
    rank_integer,
    rank_mod_p,
    rank_over,
    reduced_homology_dims,
    taylor_betti,
    upper_koszul_complex,
)


def test_field_parse():
    assert CoefficientField.parse("q") == RATIONALS
    assert CoefficientField.parse("0") == RATIONALS
    assert CoefficientField.parse("2") == GF2
    assert str(CoefficientField.parse("7")) == "7"
    with pytest.raises(ValueError):
        CoefficientField.parse("4")
    with pytest.raises(ValueError):
        CoefficientField.parse("abc")


def test_field_primality_is_fast_and_exact():
    # Trial division up to sqrt(p) would never finish on the Mersenne prime.
    assert CoefficientField(2**61 - 1).characteristic == 2**61 - 1
    for composite in (2**61 + 1, 1, 561, 3215031751, 3825123056546413051):
        with pytest.raises(ValueError):
            CoefficientField(composite)
    with pytest.raises(ValueError, match="2\\^64"):
        CoefficientField(2**89 - 1)


def test_rank_depends_on_characteristic():
    rows = [[2, 0], [0, 2]]
    assert rank_integer(rows, 2) == 2
    assert rank_mod_p(rows, 2, 2) == 0
    assert rank_over(rows, 2, RATIONALS) == 2
    assert rank_over(rows, 2, GF2) == 0


def test_rank_rectangular():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert rank_integer(rows, 3) == 2
    assert rank_mod_p(rows, 3, 5) == 2
    assert rank_integer([], 3) == 0


def test_homology_of_small_complexes():
    # one point: contractible
    point = SimplicialComplex.from_faces(1, [[1]])
    assert all(d == 0 for d in reduced_homology_dims(point, RATIONALS))
    # two points: one reduced 0-class
    two = SimplicialComplex.from_faces(2, [[1], [2]])
    dims = reduced_homology_dims(two, RATIONALS)
    assert dims[1] == 1 and dims[0] == 0
    # hollow triangle: one 1-cycle
    tri = SimplicialComplex.from_faces(3, [[1, 2], [1, 3], [2, 3]])
    dims = reduced_homology_dims(tri, RATIONALS)
    assert dims[2] == 1 and dims[1] == 0
    # full simplex: contractible
    full = SimplicialComplex.from_faces(3, [[1, 2, 3]])
    assert all(d == 0 for d in reduced_homology_dims(full, RATIONALS))


def test_homology_void_and_empty_face():
    void = SimplicialComplex.from_faces(2, [])
    assert void.is_void
    assert reduced_homology_dims(void, RATIONALS)[0] == 1


def test_homology_of_projective_plane_triangulation():
    # 6-vertex triangulation: torsion makes homology field-dependent.
    facets = [
        [1, 2, 3], [1, 2, 4], [1, 3, 5], [1, 4, 6], [1, 5, 6],
        [2, 3, 6], [2, 4, 5], [2, 5, 6], [3, 4, 5], [3, 4, 6],
    ]
    complex_ = SimplicialComplex.from_faces(6, facets)
    over_q = reduced_homology_dims(complex_, RATIONALS)
    over_2 = reduced_homology_dims(complex_, GF2)
    assert over_q[2] == 0 and over_q[3] == 0
    assert over_2[2] == 1 and over_2[3] == 1


def test_antichain_of_maximal_faces():
    c = SimplicialComplex.from_faces(3, [[1, 2], [1], [3]])
    assert c.maximal_faces == (0b011, 0b100)
    assert c.has_face([1])
    assert not c.has_face([2, 3])


def test_lcm_lattice_small():
    ideal = parse_ideal("vars: x y; gens: x, y")
    assert lcm_lattice(ideal) == [(0, 1), (1, 0), (1, 1)]
    with pytest.raises(ResourceLimitError):
        lcm_lattice(fixture_ideal("mixed6"), max_size=3)


def _upper_koszul_reference(I, a):
    # One full simplex on {j : g_j < a_j} for each generator g dividing x^a.
    faces = [
        [j + 1 for j in range(I.nvars) if g[j] < a[j]]
        for g in I.generators
        if all(x <= y for x, y in zip(g, a))
    ]
    return SimplicialComplex.from_faces(I.nvars, faces)


def test_upper_koszul_complex_matches_definition():
    for name, k in (("mixed6", 2), ("rp2", 1), ("msquare2", 3)):
        ideal = power(fixture_ideal(name), k)
        points = lcm_lattice(ideal) + [(0,) * ideal.nvars, (1,) * ideal.nvars]
        for a in points:
            assert upper_koszul_complex(ideal, a) == _upper_koszul_reference(ideal, a)


def test_upper_koszul_complex_detects_syzygy():
    m2 = parse_ideal("vars: x y; gens: x^2, x*y, y^2")
    komplex = upper_koszul_complex(m2, (2, 1))
    dims = reduced_homology_dims(komplex, RATIONALS)
    assert dims[1] == 1  # two disconnected vertices: one first syzygy


def test_betti_table_maximal_ideal():
    table = betti_table(parse_ideal("vars: x y; gens: x, y"), RATIONALS)
    assert table.totals == (1, 2, 1)
    assert table.entries == {
        (0, (0, 0)): 1,
        (1, (1, 0)): 1,
        (1, (0, 1)): 1,
        (2, (1, 1)): 1,
    }


def test_betti_table_csv_exact():
    table = betti_table(parse_ideal("vars: x y; gens: x, y"), RATIONALS)
    assert table.to_csv() == (
        "i,multidegree,total_degree,beta\n"
        "0,0:0,0,1\n"
        "1,0:1,1,1\n"
        "1,1:0,1,1\n"
        "2,1:1,2,1\n"
        "0,*,,1\n"
        "1,*,,2\n"
        "2,*,,1\n"
    )


def test_betti_table_regular_sequence_multidegrees():
    table = betti_table(parse_ideal("vars: x y z; gens: x^2, y^3, z^4"), RATIONALS)
    assert table.totals == (1, 3, 3, 1)
    assert table.entries[(3, (2, 3, 4))] == 1


def test_betti_table_euler_identity():
    for name in ("msquare2", "edges5", "purepowers3"):
        totals = betti_table(fixture_ideal(name), RATIONALS).totals
        assert sum((-1) ** i * b for i, b in enumerate(totals)) == 0


@pytest.mark.parametrize("name", ["maximal2", "msquare2", "purepowers3", "edges5"])
@pytest.mark.parametrize("field", [RATIONALS, GF2])
def test_taylor_matches_koszul(name, field):
    ideal = fixture_ideal(name)
    assert tuple(taylor_betti(ideal, field)) == betti_table(ideal, field).totals


def test_taylor_matches_on_powers():
    ideal = fixture_ideal("msquare2")
    for k in (1, 2, 3):
        ideal_k = power(ideal, k)
        assert tuple(taylor_betti(ideal_k, RATIONALS)) == betti_table(
            ideal_k, RATIONALS
        ).totals


def test_taylor_generator_cap():
    with pytest.raises(ResourceLimitError):
        taylor_betti(fixture_ideal("rp2"), RATIONALS, max_generators=4)


def test_characteristic_changes_betti_numbers():
    ideal = fixture_ideal("rp2")
    assert betti_table(ideal, RATIONALS).totals == (1, 10, 15, 6, 0, 0, 0)
    assert betti_table(ideal, GF2).totals == (1, 10, 15, 7, 1, 0, 0)
