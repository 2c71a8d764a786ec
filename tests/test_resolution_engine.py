"""Exact rank computation, simplicial homology, and the Betti table engine."""
import contextlib
import functools
import math
import operator
import random
import time
import tracemalloc

import numpy as np
import pytest

from bettipowers import resolution_engine
from bettipowers.monomial_core import MonomialIdeal, parse_ideal, power, powers
from bettipowers.resolution_engine import (
    GF2,
    RATIONALS,
    CoefficientField,
    ResourceLimitError,
    _homology_dims_cached,
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
from _lattice_reference import lcm_lattice_reference
from _taylor_reference import taylor_betti_reference


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


def test_rank_over_gf2_bit_rows_past_one_machine_word():
    # Over F_2 a row is one Python int, so only rows wider than 64 columns
    # reach multi-word XORs.  Rows are integer combinations of a few sparse
    # basis rows, so most of them reduce to 0 mod 2 after several steps.
    rng = random.Random(20261019)
    for _ in range(25):
        ncols = rng.randint(65, 200)
        basis = [
            [rng.randint(-3, 5) if rng.random() < 0.08 else 0 for _ in range(ncols)]
            for _ in range(rng.randint(1, 25))
        ]
        basis.append([0] * (ncols - 1) + [1])  # a lone entry in the top column
        dense = [
            [sum(c * row[j] for c, row in zip(coefficients, basis)) for j in range(ncols)]
            for coefficients in (
                [rng.choice((0, 0, 1, -1, 2, 3)) for _ in basis]
                for _ in range(rng.randint(1, 40))
            )
        ]
        rows = _sparse(dense)
        snapshot = [dict(r) for r in rows]
        assert rank_over(rows, ncols, GF2) == rank_mod_p(dense, ncols, 2), dense
        assert rows == snapshot


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


def _rows(lattice):
    # The rows of an lcm_lattice array as exponent tuples.
    assert lattice.dtype == np.int64 and lattice.ndim == 2
    return list(map(tuple, lattice.tolist()))


def _capped_lattice(ideal, cap):
    # lcm_lattice under a lattice cap of cap points.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(resolution_engine, "DEFAULT_LATTICE_CAP", cap)
        return lcm_lattice(ideal)


def test_lcm_lattice_small():
    ideal = parse_ideal("vars: x y; gens: x, y")
    assert _rows(lcm_lattice(ideal)) == [(0, 1), (1, 0), (1, 1)]
    with pytest.raises(ResourceLimitError):
        _capped_lattice(fixture_ideal("mixed6"), 3)


def _lattice_or_error(lattice, ideal, cap):
    try:
        result = lattice(ideal, cap)
        return result if isinstance(result, list) else _rows(result)
    except ResourceLimitError as err:
        return str(err)


def _dense(ideal):
    # Whether the key space is dense under the current lattice cap, so the
    # lattice comes from the grid table rather than from sorted runs.
    return resolution_engine._KeySpace(ideal.generators).dense


def _assert_lattice_matches_reference(ideal):
    expected = lcm_lattice_reference(ideal)
    assert _rows(lcm_lattice(ideal)) == expected
    # The cap admits a lattice of exactly as many points, and rejects a
    # larger one as soon as a join is added beyond it.  With two or more
    # generators the radix product exceeds the lattice size, so such a cap
    # runs the sorted-runs closure where the default cap may read the grid
    # table.
    radices = [len(set(column)) for column in zip(*ideal.generators)]
    assert (math.prod(radices) > len(expected)) == (len(ideal.generators) > 1)
    assert _rows(_capped_lattice(ideal, len(expected))) == expected
    cap = len(expected) - 1
    assert _lattice_or_error(_capped_lattice, ideal, cap) == _lattice_or_error(
        lcm_lattice_reference, ideal, cap
    )


def test_lcm_lattice_matches_reference_on_fixtures():
    paths = sorted(FIXTURE_DIR.glob("*.ideal"))
    assert paths
    for path in paths:
        ideal = fixture_ideal(path.stem)
        for k in (1, 2, 3):
            _assert_lattice_matches_reference(power(ideal, k))


def _random_ideals(rng, count, max_exp, max_gens, max_vars=5):
    # Ideals in 1 to max_vars variables; a draw of the unit ideal is skipped.
    for _ in range(count):
        n = rng.randint(1, max_vars)
        gens = [
            tuple(rng.randint(0, max_exp) for _ in range(n))
            for _ in range(rng.randint(1, max_gens))
        ]
        if (0,) * n not in gens:
            yield MonomialIdeal.from_generators([f"x{i}" for i in range(n)], gens)


def test_lcm_lattice_matches_reference_on_random_ideals():
    for ideal in _random_ideals(random.Random(20091), 200, 4, 7):
        _assert_lattice_matches_reference(ideal)


def test_grid_table_matches_runs_closure_and_reference():
    # In 1 to 6 variables every key space here is dense under the default
    # cap, so the default reads the lattice from the grid table and a cap of
    # the lattice size runs the sorted-runs closure.
    for ideal in _random_ideals(random.Random(20121), 150, 4, 7, max_vars=6):
        assert _dense(ideal)
        _assert_lattice_matches_reference(ideal)


def _squarefree(n, count):
    # count squarefree generators in n >= count variables: generator s holds
    # the variables j with j % count in {s, s + 1}, so every axis has radix 2.
    gens = [
        tuple(int(j % count in (s, (s + 1) % count)) for j in range(n)) for s in range(count)
    ]
    return MonomialIdeal.from_generators([f"x{j}" for j in range(n)], gens)


def test_grid_table_on_radix_one_axes_and_wide_cells():
    # The grid table has one bit per axis of radix >= 2 plus the up-closure
    # bit, in the narrowest unsigned dtype.  Axes of radix 1 (a variable in
    # no generator, an exponent every generator shares) get no bit; a single
    # generator, in any number of variables, gets the up-closure bit alone.
    radix_one = [
        parse_ideal("vars: x y z; gens: x^2, x*y, y^3"),
        parse_ideal("vars: x y z; gens: x^2*z, x*y*z, y^3*z"),
        parse_ideal("vars: x y z w; gens: x^2*w, y*z^2*w, x*y*z*w"),
        parse_ideal("vars: x y z; gens: x^2*y^3"),
        parse_ideal("vars: x; gens: x^3"),
        parse_ideal("vars: a b c d e f g h; gens: a*b^2*c*d*e*f*g*h"),
    ]
    for ideal in radix_one:
        for ideal_k in powers(ideal, 3):
            _assert_lattice_matches_reference(ideal_k)
            if ideal.nvars <= 6:
                _assert_routes_agree(ideal_k, RATIONALS)
            if len(ideal.generators) == 1:
                space = resolution_engine._KeySpace(ideal_k.generators)
                _, table = resolution_engine._grid_table(space)
                assert table.dtype == np.uint8 and table.tolist() == [1, 0]
    # n axes of radix 2 need n + 1 bits: uint8 up to 7 axes, uint16 up to 15,
    # and uint32 up to 20, where the radix product 2^20 is DEFAULT_LATTICE_CAP.
    for n, dtype in ((7, np.uint8), (8, np.uint16), (15, np.uint16), (16, np.uint32),
                     (20, np.uint32)):
        ideal = _squarefree(n, 5)
        space = resolution_engine._KeySpace(ideal.generators)
        assert space.radices == [2] * n and space.dense
        keys, table = resolution_engine._grid_table(space)
        assert table.dtype == dtype and len(table) == 2**n + 1 and table[-1] == 0
        assert _rows(space.decode(keys)) == lcm_lattice_reference(ideal)
        _assert_lattice_matches_reference(ideal)
    # The top bit is the up-closure: set exactly where a generator divides.
    ideal = _squarefree(8, 3)
    space = resolution_engine._KeySpace(ideal.generators)
    _, table = resolution_engine._grid_table(space)
    grid = space.decode(np.arange(space.size))
    divides = (np.array(ideal.generators)[:, None] <= grid).all(axis=2).any(axis=0)
    assert np.array_equal(table[:-1] >= 1 << 8, divides)


def _wide_keys(ideal):
    radices = [len(set(column)) for column in zip(*ideal.generators)]
    return math.prod(radices) >= 2**63


def test_lcm_lattice_wide_keys_match_the_reference():
    # Three distinct values in each of 40 coordinates: 3^40 > 2^63, so the
    # keys are Python ints.
    gens = [tuple((j + shift) % 3 for j in range(40)) for shift in range(3)]
    ideal = MonomialIdeal.from_generators([f"x{i}" for i in range(40)], gens)
    assert _wide_keys(ideal)
    expected = lcm_lattice_reference(ideal)
    assert len(expected) == 7
    assert _rows(lcm_lattice(ideal)) == expected


def test_lcm_lattice_wide_keys_on_random_ideals():
    # 35-63 variables, 2-9 generators, exponents 0-5: most radix products
    # pass 2^63 (35 of these 50); ideals with two or three generators often
    # stay below it and run the int64 keys.
    rng = random.Random(20095)
    wide = 0
    for _ in range(50):
        n = rng.randint(35, 63)
        gens = [tuple(rng.randint(0, 5) for _ in range(n)) for _ in range(rng.randint(2, 9))]
        ideal = MonomialIdeal.from_generators([f"x{i}" for i in range(n)], gens)
        wide += _wide_keys(ideal)
        assert _rows(lcm_lattice(ideal)) == lcm_lattice_reference(ideal)
    assert wide >= 30
    # The cap on wide keys: the exact size is admitted, one less is refused
    # with the reference's message.
    gens = [tuple(rng.randint(0, 5) for _ in range(50)) for _ in range(9)]
    ideal = MonomialIdeal.from_generators([f"x{i}" for i in range(50)], gens)
    assert _wide_keys(ideal)
    _assert_lattice_matches_reference(ideal)


def test_lcm_lattice_rejects_exponents_beyond_int64():
    # One exponent of 2^63 with int64 keys, then with wide keys (3^40 > 2^63).
    narrow = MonomialIdeal.from_generators(["x", "y"], [(2**63, 0), (0, 1)])
    gens = [tuple((j + shift) % 3 for j in range(40)) for shift in range(3)]
    gens[0] = (2**63,) + gens[0][1:]
    wide = MonomialIdeal.from_generators([f"x{i}" for i in range(40)], gens)
    message = f"exponent {2**63} is beyond the engine's 64-bit range"
    for ideal in (narrow, wide):
        with pytest.raises(ResourceLimitError) as err:
            lcm_lattice(ideal)
        assert str(err.value) == message
        with pytest.raises(ResourceLimitError) as err:
            betti_table(ideal)
        assert str(err.value) == message
    # The largest int64 exponent still fits.
    top = MonomialIdeal.from_generators(["x", "y"], [(2**63 - 1, 0), (0, 1)])
    assert _rows(lcm_lattice(top)) == lcm_lattice_reference(top)


def test_lcm_lattice_keys_near_the_int64_limit():
    # Two values in each of 62 coordinates: the radix product is 2^62, so the
    # int64-key path runs, and the join of all generators has key 2^62 - 1.
    n = 62
    top = [1 if j < n // 2 else 2**62 - j for j in range(n)]
    patterns = [lambda j: j % 2, lambda j: j % 2 == 0, lambda j: j % 4 < 2, lambda j: j < 40]
    gens = [tuple(top[j] if on(j) else 0 for j in range(n)) for on in patterns]
    ideal = MonomialIdeal.from_generators([f"x{i}" for i in range(n)], gens)
    radices = [len(set(column)) for column in zip(*ideal.generators)]
    assert math.prod(radices) == 2**62
    expected = lcm_lattice_reference(ideal)
    assert len(expected) > len(ideal.generators)
    assert _rows(lcm_lattice(ideal)) == expected


def test_lcm_lattice_cap_far_below_the_lattice(monkeypatch):
    # The maximal ideal in 24 variables has 2^24 - 1 lattice points.
    n = 24
    ideal = MonomialIdeal.from_generators(
        [f"x{i}" for i in range(n)], [tuple(int(i == j) for j in range(n)) for i in range(n)]
    )
    monkeypatch.setattr(resolution_engine, "DEFAULT_LATTICE_CAP", 1000)
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError) as err:
        lcm_lattice(ideal)
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
    for i, a in enumerate(points.tolist()):
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
        points = np.vstack((lcm_lattice(ideal), [zero, ones]))
        yielded = _assert_faces_match_reference(ideal, points)
        # A generator's own complex is the empty face alone (mask 0), and a
        # point no generator divides has the void complex.
        for g in ideal.generators:
            assert yielded[_rows(points).index(g)] == (0,)
        assert yielded[len(points) - 2] == ()
        skipped += len(points) - len(yielded)
    assert skipped > 0
    # The last case, mixed6 at k=4, spans several chunks.
    assert len(points) > resolution_engine._CHUNK_CELLS // len(ideal.generators)
    rng = random.Random(20092)
    for ideal in _random_ideals(rng, 100, 3, 6):
        extra = tuple(rng.randint(0, 4) for _ in range(ideal.nvars))
        _assert_faces_match_reference(ideal, np.vstack((lcm_lattice(ideal), [extra])))


def test_upper_koszul_faces_narrow_dtypes():
    # The comparisons run in the narrowest dtype that holds every exponent of
    # the generators and the points; a generator exponent of 256 would wrap
    # to 0 in uint8 and divide points it does not divide.
    def check(ideal, points):
        _assert_faces_match_reference(ideal, np.array(points, dtype=np.int64))

    wrap = MonomialIdeal.from_generators(["x", "y"], [(256, 0), (0, 1)])
    faces = list(_upper_koszul_faces(_generator_matrix(wrap), np.array([(1, 0), (0, 0)])))
    assert faces == [(0, ()), (1, ())]
    check(wrap, [(1, 0), (0, 0), (255, 0), (255, 1), (256, 1), (257, 2)])
    for top in (255, 256, 65535, 65536):
        ideal = MonomialIdeal.from_generators(
            ["x", "y", "z"], [(top, 0, 0), (0, top - 1, 1), (1, 1, top)]
        )
        lattice = _rows(lcm_lattice(ideal))
        below = [(top - 1, 0, 0), (0, top - 2, 0), (1, 0, top)]
        above = [(top + 1, top, top), (top, top - 1, top + 1)]
        check(ideal, lattice + below + above)
        # Only the points exceed the generators' range.
        check(ideal, [(top + 256, 0, 0), (65536, top - 1, 1), (2**32, 1, top)])
    # n = 8 masks fit in uint8, n = 9 need uint16: variable 8's bit must stay.
    rng = random.Random(20094)
    for n in (8, 9):
        gens = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        gens.append(tuple(rng.randint(0, 2) for _ in range(n)))
        ideal = MonomialIdeal.from_generators([f"x{i}" for i in range(n)], gens)
        points = _rows(lcm_lattice(ideal))
        points += [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(50)]
        check(ideal, points)


def test_upper_koszul_complex_detects_syzygy():
    m2 = parse_ideal("vars: x y; gens: x^2, x*y, y^2")
    points = np.array([(2, 1), (1, 0), (2, 2), (2, 0)])
    faces = list(_upper_koszul_faces(_generator_matrix(m2), points))
    # x^2 y: two disconnected vertices; x: no generator divides it; x^2 y^2:
    # the masks of x^2, y^2 lie in that of xy, a full edge, so it is skipped;
    # x^2: a generator, whose complex is the empty face alone.
    assert faces == [(0, (0b01, 0b10)), (1, ()), (3, (0,))]
    dims = _homology_dims_cached(m2.nvars, faces[0][1], RATIONALS.characteristic)
    assert dims[1] == 1  # two disconnected vertices: one first syzygy


def _is_cone(maximal):
    # A complex is a cone, so contractible, when one vertex lies in every
    # maximal face; the void complex and the empty face alone are not.
    return functools.reduce(operator.and_, maximal, -1) not in (0, -1)


@contextlib.contextmanager
def _mask_route(ideal):
    # A lattice cap at the lattice size and below the radix product: the
    # key space is not dense, so betti_table takes the mask route.
    size = len(lcm_lattice(ideal))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(resolution_engine, "DEFAULT_LATTICE_CAP", size)
        assert not _dense(ideal)
        yield


def test_only_points_that_reach_homology_become_python_sets(monkeypatch):
    # Counts, not times.  On the table route _maximal_masks runs once per
    # distinct complex that is not a cone; on the mask route once per point
    # handed to _homology_dims_cached, so every skipped point stays in numpy.
    ideal = power(fixture_ideal("mixed6"), 4)
    lattice = lcm_lattice(ideal)
    complexes = {_upper_koszul_reference(ideal, a) for a in _rows(lattice)}
    distinct = [c for c in complexes if not _is_cone(c)]
    calls = {"_maximal_masks": 0, "_homology_dims_cached": 0}
    for attr in calls:
        original = getattr(resolution_engine, attr)

        def counting(*args, _attr=attr, _original=original):
            calls[_attr] += 1
            return _original(*args)

        monkeypatch.setattr(resolution_engine, attr, counting)
    assert _dense(ideal)
    betti_table(ideal)
    assert 0 < calls["_maximal_masks"] == len(distinct) <= calls["_homology_dims_cached"]
    calls.update(dict.fromkeys(calls, 0))
    with _mask_route(ideal):
        betti_table(ideal)
    assert 0 < calls["_maximal_masks"] == calls["_homology_dims_cached"]
    assert calls["_homology_dims_cached"] < len(lattice)


def _assert_routes_agree(ideal, field):
    table = betti_table(ideal, field)
    assert ideal.nvars <= 6 and _dense(ideal)
    if len(ideal.generators) == 1:
        # One point, so no cap separates the routes: S/(x^g) has beta_1 = 1.
        g = ideal.generators[0]
        assert table.entries == {(0, (0,) * ideal.nvars): 1, (1, g): 1}
        return
    with _mask_route(ideal):
        mask = betti_table(ideal, field)
    assert table.entries == mask.entries
    assert table.totals == mask.totals


def test_table_route_matches_mask_route_on_fixtures():
    fields = (RATIONALS, GF2, CoefficientField(3))
    for path in sorted(FIXTURE_DIR.glob("*.ideal")):
        for ideal_k in powers(fixture_ideal(path.stem), 3):
            for field in fields:
                _assert_routes_agree(ideal_k, field)


def test_table_route_matches_mask_route_on_random_ideals():
    fields = (RATIONALS, GF2, CoefficientField(3))
    checked = 0
    for trial, ideal in enumerate(_random_ideals(random.Random(20122), 120, 3, 7, max_vars=6)):
        for ideal_k in powers(ideal, 2):
            _assert_routes_agree(ideal_k, fields[trial % 3])
            checked += 1
    assert checked == 204


def test_dense_betti_table_time_alarm():
    # A regression alarm, not a benchmark: art4^8 has 268,819 lattice points
    # and 804 generators.  Reading its lattice from the grid table takes about
    # 0.1 s on a 2-CPU host; closing it by joins took 1.7 s.
    ideal = power(fixture_ideal("artinian4"), 8)
    start = time.perf_counter()
    totals = betti_table(ideal).totals
    elapsed = time.perf_counter() - start
    assert totals == (1, 804, 2792, 3134, 1145)
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_dense_power_time_alarm():
    # A regression alarm, not a benchmark: building art4^1..art4^14 by the
    # batched divisibility test takes about 0.3 s on a 2-CPU host; the
    # pairwise scan it replaced took 7-10 s.
    ideal = fixture_ideal("artinian4")
    start = time.perf_counter()
    gens = power(ideal, 14).generators
    elapsed = time.perf_counter() - start
    assert len(gens) == 4179
    assert elapsed < 2.0, f"took {elapsed:.2f}s"


def test_dense_betti_table_memory_alarm():
    # Traced allocations of a warm betti_table on mixed6^8 peak near 1.35
    # MiB.  A boolean mask over the whole key grid would add about 0.75 MiB,
    # so the lattice keys are searched for one batch of cells at a time.
    ideal = power(fixture_ideal("mixed6"), 8)
    betti_table(ideal)
    tracemalloc.start()
    try:
        betti_table(ideal)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * 2**20, f"peak {peak / 2**10:.0f} KiB"


def test_mixed6_lattice_and_face_counts():
    # The benchmark's profile-mixed6 reads len(lcm_lattice(...)) as its
    # lattice point count: 42,047 over k = 1..8, of which 2,714 reach homology.
    ideal = fixture_ideal("mixed6")
    points = faces = 0
    for k in range(1, 9):
        ideal_k = power(ideal, k)
        lattice = lcm_lattice(ideal_k)
        points += len(lattice)
        faces += sum(1 for _ in _upper_koszul_faces(_generator_matrix(ideal_k), lattice))
    assert (points, faces) == (42047, 2714)


def _assert_euler_characteristics_match_k_polynomial(ideal, field):
    table = betti_table(ideal, field)
    assert euler_characteristics(table) == k_polynomial(ideal.generators, ideal.nvars)


def test_euler_characteristics_match_k_polynomial_on_fixtures():
    # artinian4's powers have dense lcm lattices (80,697 points at k = 6).
    for name, kmax in (("mixed6", 6), ("rp2", 3), ("artinian4", 6)):
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


def test_taylor_matches_koszul_on_random_ideals_and_powers():
    # A differential check over Q, F_2 and F_3.  Powers are kept up to 12
    # generators: the 15- and 16-generator powers of this draw take at most
    # 0.4 s each over Q and F_2, but 0.8-5.4 s over F_3, which keeps the dict
    # elimination.  The cap itself is exercised by test_taylor_runs_at_its_generator_cap.
    fields = (RATIONALS, GF2, CoefficientField(3))
    checked = 0
    for ideal in _random_ideals(random.Random(20096), 40, 3, 10):
        for ideal_k in powers(ideal, 4):
            if len(ideal_k.generators) > 12:
                break
            for field in fields:
                assert taylor_betti(ideal_k, field) == betti_table(ideal_k, field).totals
            checked += 1
    assert checked > 100


def test_taylor_matches_per_map_reference():
    # Q ranks certified from F_2 ranks, alone and beside other fields, against
    # the loop that ranks every map over the one field asked for.  On rp2 the
    # Q and F_2 totals differ, so a certificate taken for granted would show.
    fields = [RATIONALS, GF2, CoefficientField(3)]
    wide = MonomialIdeal.from_generators(  # exponents past int64
        ["x", "y", "z"], [(2**70, 0, 1), (1, 2**65, 0), (0, 3, 2**64), (5, 5, 5)]
    )
    ideals = [fixture_ideal("rp2"), wide]
    for ideal in _random_ideals(random.Random(20098), 30, 3, 6):
        ideals += [k for k in powers(ideal, 3) if len(k.generators) <= 10]
    assert len(ideals) > 50
    for ideal in ideals:
        expected = [taylor_betti_reference(ideal, field) for field in fields]
        assert taylor_betti(ideal, RATIONALS) == expected[0], ideal
        assert taylor_betti(ideal, fields) == expected, ideal
    assert taylor_betti_reference(ideals[0], RATIONALS) == (1, 10, 15, 6, 0, 0, 0)
    assert taylor_betti_reference(ideals[0], GF2) == (1, 10, 15, 7, 1, 0, 0)


def test_taylor_over_several_fields_equals_one_call_per_field():
    # One build of the boundary maps, ranked over each field in turn.
    fields = (RATIONALS, GF2, CoefficientField(3))
    ideals = [fixture_ideal("rp2")] + list(_random_ideals(random.Random(20097), 4, 3, 8))
    for ideal in ideals:
        assert taylor_betti(ideal, fields) == [taylor_betti(ideal, f) for f in fields]
    assert taylor_betti(ideals[0], fields)[0] != taylor_betti(ideals[0], fields)[1]


def test_taylor_runs_at_its_generator_cap():
    # mixed6^2 has 16 generators, the default cap, so Taylor boundary maps
    # reach 12,870 x 11,440.  A regression alarm, not a benchmark: on a 2-CPU
    # sandbox this [Q, F_2] call took 0.35-0.55 s with XOR ranks over F_2 and
    # Q ranks certified from them, and 2.6-2.7 s when every map was ranked
    # over each field by dict elimination.
    ideal = power(fixture_ideal("mixed6"), 2)
    assert len(ideal.generators) == resolution_engine.DEFAULT_TAYLOR_CAP
    fields = [RATIONALS, GF2]
    start = time.perf_counter()
    totals = taylor_betti(ideal, fields)
    elapsed = time.perf_counter() - start
    assert totals == [betti_table(ideal, field).totals for field in fields]
    assert elapsed < 2.0, f"took {elapsed:.2f}s"


def test_taylor_generator_cap(monkeypatch):
    monkeypatch.setattr(resolution_engine, "DEFAULT_TAYLOR_CAP", 4)
    with pytest.raises(ResourceLimitError):
        taylor_betti(fixture_ideal("rp2"), RATIONALS)


def test_characteristic_changes_betti_numbers():
    ideal = fixture_ideal("rp2")
    assert betti_table(ideal, RATIONALS).totals == (1, 10, 15, 6, 0, 0, 0)
    assert betti_table(ideal, GF2).totals == (1, 10, 15, 7, 1, 0, 0)
