"""Exact rank computation, simplicial homology, and the Betti table engine."""
import random
import time

import numpy as np
import pytest

from bettipowers import resolution_engine
from bettipowers.monomial_core import MonomialIdeal, parse_ideal, power
from bettipowers.resolution_engine import (
    GF2,
    RATIONALS,
    CoefficientField,
    ResourceLimitError,
    _homology_dims_cached,
    _lcm_lattice_python,
    _maximal_masks,
    _upper_koszul_faces,
    betti_table,
    lcm_lattice,
    rank_over,
    taylor_betti,
)

from _dense_rank import rank_integer, rank_mod_p
from _fixtures import FIXTURE_DIR, fixture_ideal
from _kpolynomial import euler_characteristics, k_polynomial


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


def _sparse(dense):
    return [{c: x for c, x in enumerate(row) if x} for row in dense]


def test_rank_depends_on_characteristic():
    rows = [{0: 2}, {1: 2}]
    assert rank_over(rows, 2, RATIONALS) == 2
    assert rank_over(rows, 2, GF2) == 0
    assert rank_over(rows, 2, CoefficientField(3)) == 2


def test_rank_rectangular():
    rows = [{0: 1, 1: 2, 2: 3}, {0: 2, 1: 4, 2: 6}, {1: 1, 2: 1}]
    assert rank_over(rows, 3, RATIONALS) == 2
    assert rank_over(rows, 3, CoefficientField(5)) == 2
    assert rank_over([], 3, RATIONALS) == 0
    assert rank_over([{}, {}], 3, GF2) == 0


@pytest.mark.parametrize("p", [0, 2, 3, 2**61 - 1])
def test_rank_over_matches_dense_references(p):
    # Entries beyond +-1 make non-unit pivots and, over Q, a gcd to divide out;
    # zero rows, duplicate rows and stored zero entries are mixed in.
    rng = random.Random(20261018 + p)
    field = CoefficientField(p)
    for _ in range(300):
        m, ncols = rng.randint(0, 9), rng.randint(0, 9)
        density = rng.random()
        dense = [
            [rng.randint(-3, 5) if rng.random() < density else 0 for _ in range(ncols)]
            for _ in range(m)
        ]
        if dense and rng.random() < 0.3:
            dense.append(list(rng.choice(dense)))
        if rng.random() < 0.3:
            dense.insert(rng.randint(0, len(dense)), [0] * ncols)
        rows = _sparse(dense)
        zeros = [(i, c) for i, row in enumerate(dense) for c, x in enumerate(row) if not x]
        if zeros and rng.random() < 0.3:
            i, c = rng.choice(zeros)
            rows[i][c] = 0
        snapshot = [dict(r) for r in rows]
        expected = rank_integer(dense, ncols) if p == 0 else rank_mod_p(dense, ncols, p)
        assert rank_over(rows, ncols, field) == expected, (p, dense)
        assert rows == snapshot  # the input rows are left as they were


def _homology(n, facets, field=RATIONALS):
    # Reduced homology dims, indexed by j+1, of the complex on vertices 1..n
    # generated by the given facets (vertex lists).
    masks = [sum(1 << (v - 1) for v in facet) for facet in facets]
    return _homology_dims_cached(n, _maximal_masks(masks), field.characteristic)


def test_homology_of_small_complexes():
    # one point: contractible
    assert all(d == 0 for d in _homology(1, [[1]]))
    # two points: one reduced 0-class
    dims = _homology(2, [[1], [2]])
    assert dims[1] == 1 and dims[0] == 0
    # hollow triangle: one 1-cycle
    dims = _homology(3, [[1, 2], [1, 3], [2, 3]])
    assert dims[2] == 1 and dims[1] == 0
    # full simplex: contractible
    assert all(d == 0 for d in _homology(3, [[1, 2, 3]]))


def test_homology_void_and_empty_face():
    # The augmentation C_{-1} = K is always present, so both the void complex
    # and the complex whose only face is the empty one have H~_{-1} = K; the
    # latter is the upper Koszul complex at a generator's own multidegree.
    assert _homology(2, []) == (1, 0, 0)
    assert _homology(2, [[]]) == (1, 0, 0)


def test_homology_of_projective_plane_triangulation():
    # 6-vertex triangulation: torsion makes homology field-dependent.
    facets = [
        [1, 2, 3], [1, 2, 4], [1, 3, 5], [1, 4, 6], [1, 5, 6],
        [2, 3, 6], [2, 4, 5], [2, 5, 6], [3, 4, 5], [3, 4, 6],
    ]
    over_q = _homology(6, facets, RATIONALS)
    over_2 = _homology(6, facets, GF2)
    assert over_q[2] == 0 and over_q[3] == 0
    assert over_2[2] == 1 and over_2[3] == 1


def test_antichain_of_maximal_faces():
    assert _maximal_masks([0b011, 0b001, 0b100, 0b011]) == (0b011, 0b100)
    assert _maximal_masks([0b000, 0b010]) == (0b010,)
    assert _maximal_masks([0b000]) == (0b000,)
    assert _maximal_masks([]) == ()


def test_lcm_lattice_small():
    ideal = parse_ideal("vars: x y; gens: x, y")
    assert lcm_lattice(ideal) == [(0, 1), (1, 0), (1, 1)]
    with pytest.raises(ResourceLimitError):
        lcm_lattice(fixture_ideal("mixed6"), max_size=3)


def _lattice_or_error(lattice, ideal, cap):
    try:
        return lattice(ideal, cap)
    except ResourceLimitError as err:
        return str(err)


def _assert_lattice_matches_reference(ideal):
    expected = _lcm_lattice_python(ideal)
    assert lcm_lattice(ideal) == expected
    # The cap admits a lattice of exactly max_size points, and rejects a
    # larger one as soon as a join is added beyond it.
    assert lcm_lattice(ideal, len(expected)) == expected
    cap = len(expected) - 1
    assert _lattice_or_error(lcm_lattice, ideal, cap) == _lattice_or_error(
        _lcm_lattice_python, ideal, cap
    )


def test_lcm_lattice_matches_reference_on_fixtures():
    paths = sorted(FIXTURE_DIR.glob("*.ideal"))
    assert paths
    for path in paths:
        ideal = fixture_ideal(path.stem)
        for k in (1, 2, 3):
            _assert_lattice_matches_reference(power(ideal, k))


def _random_ideals(rng, count, max_exp, max_gens):
    # Ideals in 1 to 5 variables; a draw of the unit ideal is skipped.
    for _ in range(count):
        n = rng.randint(1, 5)
        gens = [
            tuple(rng.randint(0, max_exp) for _ in range(n))
            for _ in range(rng.randint(1, max_gens))
        ]
        if (0,) * n not in gens:
            yield MonomialIdeal.from_generators([f"x{i}" for i in range(n)], gens)


def test_lcm_lattice_matches_reference_on_random_ideals():
    for ideal in _random_ideals(random.Random(20091), 200, 4, 7):
        _assert_lattice_matches_reference(ideal)


def test_lcm_lattice_wide_keys_use_the_reference(monkeypatch):
    # Three distinct values in each of 40 coordinates: 3^40 > 2^63 keys.
    gens = [tuple((j + shift) % 3 for j in range(40)) for shift in range(3)]
    ideal = MonomialIdeal.from_generators([f"x{i}" for i in range(40)], gens)
    expected = _lcm_lattice_python(ideal)
    assert len(expected) == 7
    calls = []

    def counting(I, max_size):
        calls.append(I)
        return _lcm_lattice_python(I, max_size)

    monkeypatch.setattr(resolution_engine, "_lcm_lattice_python", counting)
    assert lcm_lattice(ideal) == expected
    assert calls == [ideal]


def test_lcm_lattice_cap_far_below_the_lattice():
    # The maximal ideal in 24 variables has 2^24 - 1 lattice points.
    n = 24
    ideal = MonomialIdeal.from_generators(
        [f"x{i}" for i in range(n)], [tuple(int(i == j) for j in range(n)) for i in range(n)]
    )
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError) as err:
        lcm_lattice(ideal, max_size=1000)
    assert str(err.value) == "lcm lattice exceeds cap of 1000 elements"
    assert time.perf_counter() - start < 1.0


def _upper_koszul_reference(I, a):
    # One full simplex on {j : g_j < a_j} for each generator g dividing x^a.
    masks = [
        sum(1 << j for j in range(I.nvars) if g[j] < a[j])
        for g in I.generators
        if all(x <= y for x, y in zip(g, a))
    ]
    return _maximal_masks(masks)


def _generator_matrix(I):
    return np.array(I.generators, dtype=np.int64)


def _assert_faces_match_reference(ideal, points):
    # Every yielded point has the reference's faces; every skipped point's
    # complex is a single nonempty simplex, so contractible.
    faces = list(_upper_koszul_faces(_generator_matrix(ideal), points))
    indices = [i for i, _ in faces]
    assert indices == sorted(set(indices))
    yielded = dict(faces)
    for i, a in enumerate(points):
        expected = _upper_koszul_reference(ideal, a)
        if i in yielded:
            assert yielded[i] == expected, a
        else:
            assert len(expected) == 1 and expected[0] != 0, a
    return yielded


def test_upper_koszul_complex_matches_definition():
    skipped = 0
    for name, k in (("mixed6", 2), ("rp2", 1), ("msquare2", 3), ("mixed6", 4)):
        ideal = power(fixture_ideal(name), k)
        zero, ones = (0,) * ideal.nvars, (1,) * ideal.nvars
        points = lcm_lattice(ideal) + [zero, ones]
        yielded = _assert_faces_match_reference(ideal, points)
        # A generator's own complex is the empty face alone (mask 0), and a
        # point no generator divides has the void complex.
        for g in ideal.generators:
            assert yielded[points.index(g)] == (0,)
        assert yielded[len(points) - 2] == ()
        skipped += len(points) - len(yielded)
    assert skipped > 0
    # The last case, mixed6 at k=4, spans several chunks.
    assert len(points) > resolution_engine._CHUNK_CELLS // len(ideal.generators)
    rng = random.Random(20092)
    for ideal in _random_ideals(rng, 100, 3, 6):
        extra = tuple(rng.randint(0, 4) for _ in range(ideal.nvars))
        _assert_faces_match_reference(ideal, lcm_lattice(ideal) + [extra])


def test_upper_koszul_complex_detects_syzygy():
    m2 = parse_ideal("vars: x y; gens: x^2, x*y, y^2")
    points = [(2, 1), (1, 0), (2, 2), (2, 0)]
    faces = list(_upper_koszul_faces(_generator_matrix(m2), points))
    # x^2 y: two disconnected vertices; x: no generator divides it; x^2 y^2:
    # the masks of x^2, y^2 lie in that of xy, a full edge, so it is skipped;
    # x^2: a generator, whose complex is the empty face alone.
    assert faces == [(0, (0b01, 0b10)), (1, ()), (3, (0,))]
    dims = _homology_dims_cached(m2.nvars, faces[0][1], RATIONALS.characteristic)
    assert dims[1] == 1  # two disconnected vertices: one first syzygy


def test_only_points_that_reach_homology_become_python_sets(monkeypatch):
    # A count, not a time: _maximal_masks runs once per point handed to
    # _homology_dims_cached, so every skipped point stays in numpy.
    calls = {"_maximal_masks": 0, "_homology_dims_cached": 0}
    for attr in calls:
        original = getattr(resolution_engine, attr)

        def counting(*args, _attr=attr, _original=original):
            calls[_attr] += 1
            return _original(*args)

        monkeypatch.setattr(resolution_engine, attr, counting)
    ideal = power(fixture_ideal("mixed6"), 4)
    betti_table(ideal)
    assert 0 < calls["_maximal_masks"] == calls["_homology_dims_cached"]
    assert calls["_homology_dims_cached"] < len(lcm_lattice(ideal))


def _assert_euler_characteristics_match_k_polynomial(ideal, field):
    table = betti_table(ideal, field)
    assert euler_characteristics(table) == k_polynomial(ideal.generators, ideal.nvars)


def test_euler_characteristics_match_k_polynomial_on_fixtures():
    for name, kmax in (("mixed6", 6), ("rp2", 3)):
        ideal = fixture_ideal(name)
        for k in range(1, kmax + 1):
            _assert_euler_characteristics_match_k_polynomial(power(ideal, k), RATIONALS)


def test_euler_characteristics_match_k_polynomial_on_random_ideals():
    for trial, ideal in enumerate(_random_ideals(random.Random(20093), 60, 3, 7)):
        field = GF2 if trial % 2 else RATIONALS
        _assert_euler_characteristics_match_k_polynomial(ideal, field)


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


def test_taylor_runs_at_its_generator_cap():
    # mixed6^2 has 16 generators, the default cap, so Taylor boundary maps
    # reach 12,870 x 11,440; elimination on sparse rows keeps them tractable.
    ideal = power(fixture_ideal("mixed6"), 2)
    assert len(ideal.generators) == resolution_engine.DEFAULT_TAYLOR_CAP
    assert taylor_betti(ideal, GF2) == betti_table(ideal, GF2).totals


def test_taylor_generator_cap():
    with pytest.raises(ResourceLimitError):
        taylor_betti(fixture_ideal("rp2"), RATIONALS, max_generators=4)


def test_characteristic_changes_betti_numbers():
    ideal = fixture_ideal("rp2")
    assert betti_table(ideal, RATIONALS).totals == (1, 10, 15, 6, 0, 0, 0)
    assert betti_table(ideal, GF2).totals == (1, 10, 15, 7, 1, 0, 0)
