"""Exact rank computation, simplicial homology, and the Betti table engine."""
import contextlib
import functools
import math
import operator
import random
import re
import signal
import time
import tracemalloc

import numpy as np
import pytest

from bettipowers import resolution_engine
from bettipowers.asymptotics import betti_series
from bettipowers.monomial_core import MonomialIdeal, parse_ideal, power, powers
from bettipowers.resolution_engine import (
    GF2,
    RATIONALS,
    CoefficientField,
    EngineInvariantError,
    ResourceLimitError,
    _homology_dims_cached,
    _maximal_masks,
    _upper_koszul_faces,
    betti_table,
    betti_totals,
    lcm_lattice,
    rank_over,
    taylor_betti,
)

from _dense_rank import rank_integer, rank_mod_p, signed_rows
from _face_code_reference import face_codes_reference
from _fixtures import FIXTURE_DIR, fixture_ideal
from _homology_reference import homology_reference, nerve_is_cheaper
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


def _dense_rank(dense, ncols, p):
    return rank_integer(dense, ncols) if p == 0 else rank_mod_p(dense, ncols, p)


def test_rank_depends_on_characteristic():
    # Determinants -2 (2-torsion) and 3 (3-torsion).
    for dense, ranks in (
        ([[1, 1], [1, -1]], {0: 2, 2: 1, 3: 2, 5: 2}),
        ([[1, -1, 0], [0, 1, -1], [1, 1, 1]], {0: 3, 2: 3, 3: 2, 5: 3}),
    ):
        ncols = len(dense[0])
        for p, rank in ranks.items():
            assert rank_over(signed_rows(dense), ncols, CoefficientField(p)) == rank, (dense, p)
            assert _dense_rank(dense, ncols, p) == rank


def test_rank_rectangular():
    # The second row is the negated first; the third is independent of it.
    dense = [[1, -1, 0, 1], [-1, 1, 0, -1], [0, 1, 1, -1]]
    for p in (0, 2, 3, 5):
        assert rank_over(signed_rows(dense), 4, CoefficientField(p)) == 2
        assert rank_over(signed_rows([list(c) for c in zip(*dense)]), 3, CoefficientField(p)) == 2
    assert rank_over([], 3, RATIONALS) == 0
    for p in (0, 2, 3):
        assert rank_over([(0, 0), (0, 0)], 3, CoefficientField(p)) == 0


@pytest.mark.parametrize("p", [0, 2, 3, 5, 7, 2**61 - 1])
def test_rank_over_matches_dense_references(p):
    # Random matrices with entries 0 and +-1, so the dense determinants are
    # small integers that vanish mod 2, 3, 5 or 7 now and then; elimination
    # makes non-unit entries and, over Q, a gcd to divide out.  Q and F_p for
    # p >= 5 share one dict elimination.  Zero rows and duplicate rows,
    # negated or not, are mixed in.
    rng = random.Random(20261018 + p)
    field = CoefficientField(p)
    torsion = 0
    for _ in range(300):
        m, ncols = rng.randint(0, 9), rng.randint(0, 9)
        density = rng.random()
        dense = [
            [rng.choice((1, -1)) if rng.random() < density else 0 for _ in range(ncols)]
            for _ in range(m)
        ]
        if dense and rng.random() < 0.3:
            dense.append([x * rng.choice((1, -1)) for x in rng.choice(dense)])
        if rng.random() < 0.3:
            dense.insert(rng.randint(0, len(dense)), [0] * ncols)
        rows = signed_rows(dense)
        snapshot = list(rows)
        expected = _dense_rank(dense, ncols, p)
        assert rank_over(rows, ncols, field) == expected, (p, dense)
        assert rows == snapshot  # the input rows are left as they were
        torsion += expected != rank_integer(dense, ncols)
    assert (torsion > 0) == (p in (2, 3, 5, 7))


def _check_wide_rows(p, seed):
    # Rows over 64 columns wide, so only they reach multi-word bit operations.
    # Each row is a combination of a few sparse basis rows, reduced mod p and
    # written with entries 0 and +-1 (residue 2 as -1 mod 3, and mod 2 each 1
    # with a random sign), so most rows reduce to 0 mod p after several steps.
    rng = random.Random(seed)
    for _ in range(25):
        ncols = rng.randint(65, 200)
        basis = [
            [rng.choice((1, -1)) if rng.random() < 0.08 else 0 for _ in range(ncols)]
            for _ in range(rng.randint(1, 25))
        ]
        basis.append([0] * (ncols - 1) + [1])  # a lone entry in the top column
        dense = []
        for _ in range(rng.randint(1, 40)):
            coefficients = [rng.choice((0, 0, 1, -1, 2)) for _ in basis]
            residues = [
                sum(c * row[j] for c, row in zip(coefficients, basis)) % p for j in range(ncols)
            ]
            row = [x - p if x > 1 else x for x in residues]
            dense.append([x * rng.choice((1, -1)) for x in row] if p == 2 else row)
        rows = signed_rows(dense)
        snapshot = list(rows)
        assert rank_over(rows, ncols, CoefficientField(p)) == rank_mod_p(dense, ncols, p), dense
        assert rows == snapshot


def test_rank_over_gf2_bit_rows_past_one_machine_word():
    _check_wide_rows(2, 20261019)


def test_rank_over_gf3_bit_rows_past_one_machine_word():
    _check_wide_rows(3, 20261020)


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


def test_homology_matches_the_face_listing_reference_on_fixture_powers(monkeypatch):
    # Every complex the engine hands to homology on the fixtures' powers up
    # to k = 2 and on C7's (the mask route), over Q, F_2 and F_3.  The engine
    # lists the nerve of the maximal faces where that is cheaper; the
    # reference lists every face.
    homology = resolution_engine._homology_dims_cached
    seen = set()
    monkeypatch.setattr(
        resolution_engine, "_homology_dims_cached",
        lambda n, faces, p: seen.add((n, faces)) or homology(n, faces, p),
    )
    ideals = [_seven_cycle(), power(_seven_cycle(), 2)]
    for path in sorted(FIXTURE_DIR.glob("*.ideal")):
        ideals += powers(fixture_ideal(path.stem), 2)
    for ideal in ideals:
        betti_totals(ideal)
    for n, faces in seen:
        for p in (0, 2, 3):
            assert homology(n, faces, p) == homology_reference(n, faces, p), (n, faces, p)
    nerves = sum(nerve_is_cheaper(n, faces) for n, faces in seen)
    assert (len(seen), nerves) == (436, 50)


def test_homology_matches_the_face_listing_reference_on_random_complexes():
    # Random antichains of faces on up to 8 vertices, empty faces included,
    # so both the nerve and the face listing run.
    rng = random.Random(20261020)
    nerves = 0
    for _ in range(400):
        n = rng.randint(1, 8)
        masks = [rng.getrandbits(n) for _ in range(rng.randint(1, 6))]
        faces = _maximal_masks(masks)
        nerves += nerve_is_cheaper(n, faces)
        for p in (0, 2, 3, 5):
            assert _homology_dims_cached(n, faces, p) == homology_reference(n, faces, p), faces
    assert 50 < nerves < 350


@contextlib.contextmanager
def _alarm(seconds):
    # Interrupts the block with TimeoutError after seconds of wall time, so a
    # regression that lists 2^31 faces stops before it fills the memory.
    def expired(signum, frame):
        raise TimeoutError(f"took over {seconds}s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_large_faces_take_the_nerve_time_alarms():
    # Regression alarms, not benchmarks.  Listing the 2^|F| faces below each
    # maximal face F, betti_totals of these 5-generator draws took 0.06, 0.33
    # and 2.3 s in 10, 12 and 14 variables on a 2-CPU host, and the ideal in
    # 63 variables, whose first two generators make faces of 31 and 32
    # vertices, did not finish.  Listing the nerve where that is cheaper, they
    # take about 0.01, 0.15, 0.002 and 0.003 s.
    fields = [RATIONALS, GF2]
    for n in (10, 12, 14):
        rng = random.Random(5)
        gens = [tuple(rng.randint(1, 9) for _ in range(n)) for _ in range(5)]
        ideal = MonomialIdeal.from_generators([f"x{i}" for i in range(n)], gens)
        with _alarm(2.0):
            totals = betti_totals(ideal, fields)
        assert totals == taylor_betti(ideal, fields), n
    wide = [(1,) * 31 + (0,) * 32, (0,) * 31 + (1,) * 32, (2,) + (0,) * 30 + (2,) + (0,) * 31]
    ideal = MonomialIdeal.from_generators([f"x{i}" for i in range(63)], wide)
    for field in fields:
        with _alarm(2.0):
            table = betti_table(ideal, field)
        assert table.totals == taylor_betti(ideal, field) == (1, 3, 3, 1) + (0,) * 60


def _five_in_twelve():
    # 5 generators in 12 variables: at most 2^5 - 1 = 31 lattice points in a
    # dense key space of 14,745,600 cells.
    return parse_ideal(
        "vars: x1 x2 x3 x4 x5 x6 x7 x8 x9 x10 x11 x12; gens:"
        " x1*x3*x4^4*x5*x7^2*x9^2*x10*x11^3*x12^4,"
        " x2*x3*x4^3*x5^4*x6^2*x8^2*x9^4*x10^2*x12,"
        " x1*x2^3*x3^3*x5^2*x7^4*x8^3*x9*x10^3*x11,"
        " x1^2*x2^2*x3^4*x4^3*x5*x7*x10^4*x11^2*x12^3,"
        " x1^4*x2^4*x3^2*x4*x5*x6^4*x7*x8*x9^3*x10^2*x11^2*x12"
    )


def test_mask_route_joins_few_generators_time_alarm(monkeypatch):
    # A regression alarm, not a benchmark.  The mask route reads only the
    # lattice keys, so it closes them by joins when the generators' at most
    # 2^m - 1 points times m joins are fewer than the grid's cells: here 155
    # against 14,745,600.  Building the grid table took betti_totals 0.10-0.13 s
    # on a 2-CPU host; the joins take about 1 ms.
    ideal = _five_in_twelve()
    space = resolution_engine._KeySpace(ideal.generators)
    assert space.dense and space.size == 14_745_600
    grids = []
    grid_table = resolution_engine._grid_table
    monkeypatch.setattr(
        resolution_engine, "_grid_table", lambda space: grids.append(1) or grid_table(space)
    )
    fields = [RATIONALS, GF2]
    start = time.perf_counter()
    totals = betti_totals(ideal, fields)
    elapsed = time.perf_counter() - start
    assert totals == taylor_betti(ideal, fields)
    assert not grids
    assert elapsed < 0.05, f"took {elapsed:.3f}s"


def test_mask_route_closures_agree_with_the_rule_forced_either_way():
    # On the mask route the grid table and the join closure find the same
    # keys, so the Betti tables are the same whichever closure the rule
    # picks.  The 5-generator ideal's grid is only compared by its keys.
    rng = random.Random(20271)
    ideals = [_seven_cycle(), power(_seven_cycle(), 2)]
    for _ in range(16):
        n = rng.randint(7, 8)
        gens = [tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(rng.randint(2, 5))]
        if (0,) * n not in gens:
            ideals += powers(MonomialIdeal.from_generators([f"x{i}" for i in range(n)], gens), 2)
    picks = {"joins": 0, "grid": 0}
    for ideal in [_five_in_twelve(), *ideals]:
        space = resolution_engine._KeySpace(ideal.generators)
        assert space.dense
        keys, _ = resolution_engine._closure(space, keys_only=True)
        assert np.array_equal(keys, resolution_engine._grid_table(space)[0])
        assert np.array_equal(keys, resolution_engine._join_closure(space))
        m = len(ideal.generators)
        picks["joins" if ((1 << m) - 1) * m < space.size else "grid"] += 1
    assert min(picks.values()) >= 5, picks
    for ideal in ideals:
        expected = {F: betti_table(ideal, F) for F in (RATIONALS, GF2)}
        for forced in (
            lambda space, keys_only=False: resolution_engine._grid_table(space),
            lambda space, keys_only=False: (resolution_engine._join_closure(space), None),
        ):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(resolution_engine, "_closure", forced)
                for F, table in expected.items():
                    assert betti_table(ideal, F).entries == table.entries
                    assert betti_totals(ideal, F) == table.totals


def test_antichain_of_maximal_faces():
    assert _maximal_masks([0b011, 0b001, 0b100, 0b011]) == (0b011, 0b100)
    assert _maximal_masks([0b000, 0b010]) == (0b010,)
    assert _maximal_masks([0b000]) == (0b000,)
    assert _maximal_masks([]) == ()


def _rows(lattice):
    # The rows of an lcm_lattice array as exponent tuples.
    assert lattice.dtype == np.int64 and lattice.ndim == 2
    return list(map(tuple, lattice.tolist()))


def _capped_lattice(ideal, cap, closure=False):
    # lcm_lattice under a lattice cap of cap points; with closure, under a
    # grid bound of cap cells too, so that a key space larger than the
    # lattice is closed by sorted runs instead of the grid table.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(resolution_engine, "DEFAULT_LATTICE_CAP", cap)
        if closure:
            mp.setattr(resolution_engine, "GRID_CAP", cap)
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
    # Whether the key space is dense under the current grid bound, so the
    # lattice comes from the grid table rather than from sorted runs.
    return resolution_engine._KeySpace(ideal.generators).dense


def _assert_lattice_matches_reference(ideal):
    expected = lcm_lattice_reference(ideal)
    assert _rows(lcm_lattice(ideal)) == expected
    # The cap admits a lattice of exactly as many points, and rejects a
    # larger one once joins beyond the generators pass it, on the grid table
    # and on the sorted-runs closure.  With two or more generators the radix
    # product exceeds the lattice size, so a grid bound at the cap runs the
    # closure where the default bound may read the grid table.
    radices = [len(set(column)) for column in zip(*ideal.generators)]
    assert (math.prod(radices) > len(expected)) == (len(ideal.generators) > 1)
    cap = len(expected) - 1
    for closure in (False, True):
        capped = functools.partial(_capped_lattice, closure=closure)
        assert _rows(capped(ideal, len(expected))) == expected
        assert _lattice_or_error(capped, ideal, cap) == _lattice_or_error(
            lcm_lattice_reference, ideal, cap
        )


def test_lcm_lattice_matches_reference_on_fixtures():
    paths = sorted(FIXTURE_DIR.glob("*.ideal"))
    assert paths
    for path in paths:
        ideal = fixture_ideal(path.stem)
        for k in (1, 2, 3):
            _assert_lattice_matches_reference(power(ideal, k))


def _seven_cycle():
    # The edge ideal of the 7-cycle: 7 variables, so the mask route.
    return parse_ideal("vars: a b c d e f g; gens: a*b, b*c, c*d, d*e, e*f, f*g, g*a")


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
    # grid bound, so the default reads the lattice from the grid table and a
    # grid bound of the lattice size runs the sorted-runs closure.
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
    # and uint32 beyond, up to the 24 axes whose radix product is GRID_CAP.
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
    # The maximal ideal in 24 variables has 2^24 - 1 lattice points.  Its
    # 2^24 keys are within GRID_CAP, so the whole grid table is built (about
    # 0.6 s on a 2-CPU host) before the cap stops the search for its keys.
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
    # A lattice cap and a grid bound at the lattice size, below the radix
    # product: the key space is not dense, so betti_table takes the mask
    # route and closes the lattice by joins.
    size = len(lcm_lattice(ideal))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(resolution_engine, "DEFAULT_LATTICE_CAP", size)
        mp.setattr(resolution_engine, "GRID_CAP", size)
        assert not _dense(ideal)
        yield


def test_only_points_that_reach_homology_become_python_sets(monkeypatch):
    # Counts, not times.  On the table route _homology_dims_cached runs once
    # per distinct complex that is not a cone, on the maximal faces read off
    # its face code, and _maximal_masks does not run.  On the mask route
    # _maximal_masks runs once per point whose complex is not one simplex,
    # so every skipped point stays in numpy, and _homology_dims_cached once
    # per such point that is not a cone: the cone skip both routes share.
    ideal = power(fixture_ideal("mixed6"), 4)
    lattice = lcm_lattice(ideal)
    per_point = [_upper_koszul_reference(ideal, a) for a in _rows(lattice)]
    distinct = [c for c in set(per_point) if not _is_cone(c)]
    calls = {"_maximal_masks": 0, "_homology_dims_cached": 0}
    maximal_faces = []
    for attr in calls:
        original = getattr(resolution_engine, attr)

        def counting(*args, _attr=attr, _original=original):
            calls[_attr] += 1
            if _attr == "_homology_dims_cached":
                maximal_faces.append(args[1])
            return _original(*args)

        monkeypatch.setattr(resolution_engine, attr, counting)
    assert _dense(ideal)
    betti_table(ideal)
    assert calls["_maximal_masks"] == 0
    assert 0 < calls["_homology_dims_cached"] == len(distinct)
    assert all(_maximal_masks(faces) == faces for faces in maximal_faces)
    # betti_totals classifies the same complexes as betti_table, as often.
    table_calls = dict(calls)
    calls.update(dict.fromkeys(calls, 0))
    betti_totals(ideal)
    assert calls == table_calls
    calls.update(dict.fromkeys(calls, 0))
    with _mask_route(ideal):
        betti_table(ideal)
        simplices = sum(len(c) == 1 and c[0] != 0 for c in per_point)
        assert calls["_maximal_masks"] == len(lattice) - simplices
        cones = sum(_is_cone(c) for c in per_point)
        assert 0 < calls["_homology_dims_cached"] == len(lattice) - cones
        assert calls["_homology_dims_cached"] < calls["_maximal_masks"]
        mask_calls = dict(calls)
        calls.update(dict.fromkeys(calls, 0))
        betti_totals(ideal)
    assert calls == mask_calls


def _assert_routes_agree(ideal, field):
    # Both routes give the same table, and betti_totals gives its totals.
    table = betti_table(ideal, field)
    assert ideal.nvars <= 6 and _dense(ideal)
    assert betti_totals(ideal, field) == table.totals
    if len(ideal.generators) == 1:
        # One point, so no cap separates the routes: S/(x^g) has beta_1 = 1.
        g = ideal.generators[0]
        assert table.entries == {(0, (0,) * ideal.nvars): 1, (1, g): 1}
        return
    with _mask_route(ideal):
        mask = betti_table(ideal, field)
        assert betti_totals(ideal, field) == mask.totals
    assert table.entries == mask.entries
    assert table.totals == mask.totals


def _assert_face_codes_match_reference(ideal):
    # The codes equal the every-subset reference bit for bit.  Returns how
    # many points read one cell (their support is a face, so their code is
    # inside[support]) and how many points there are.
    space = resolution_engine._KeySpace(ideal.generators)
    keys, table = resolution_engine._grid_table(space)
    codes = resolution_engine._face_codes(space, keys, table)
    expected = face_codes_reference(space, keys, table)
    assert codes.dtype == expected.dtype and np.array_equal(codes, expected)
    positive = keys[:, None] // space.weights % np.array(space.radices) != 0
    support = np.packbits(positive, axis=1, bitorder="little")[:, 0]
    inside = resolution_engine._subset_tables(ideal.nvars)[2]
    return int((codes == inside[support]).sum()), len(keys)


def test_face_codes_match_the_every_subset_reference(monkeypatch):
    for path in sorted(FIXTURE_DIR.glob("*.ideal")):
        for ideal_k in powers(fixture_ideal(path.stem), 3):
            _assert_face_codes_match_reference(ideal_k)
    # Most points of these powers read one cell instead of 2^n.
    mixed6, art4 = fixture_ideal("mixed6"), fixture_ideal("artinian4")
    assert _assert_face_codes_match_reference(power(mixed6, 8)) == (14445, 15266)
    assert _assert_face_codes_match_reference(power(art4, 8)) == (261255, 268819)
    # Batches of a few points split both reads.  The draws include principal
    # ideals (one point, support 0) and axes of radix 1.
    monkeypatch.setattr(resolution_engine, "_CHUNK_CELLS", 1 << 7)
    principal = radix_one = 0
    for ideal in _random_ideals(random.Random(20191), 150, 3, 6, max_vars=6):
        for ideal_k in powers(ideal, 2):
            _assert_face_codes_match_reference(ideal_k)
        principal += len(ideal.generators) == 1
        radix_one += any(len(set(column)) == 1 for column in zip(*ideal.generators))
    assert principal and radix_one


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


def test_routes_agree_over_f5_without_a_grid(monkeypatch):
    # With GRID_CAP = 1 no key space is dense, so each ideal takes the mask
    # route and closes its lattice by joins; by default rp2 and mixed6^2 take
    # the table route and C7^2 the mask route on the grid table.
    F5 = CoefficientField(5)
    ideals = [fixture_ideal("rp2"), power(fixture_ideal("mixed6"), 2), power(_seven_cycle(), 2)]
    expected = [betti_table(ideal, F5) for ideal in ideals]
    monkeypatch.setattr(resolution_engine, "GRID_CAP", 1)
    for ideal, table in zip(ideals, expected):
        assert not _dense(ideal)
        assert betti_table(ideal, F5).entries == table.entries
        assert betti_totals(ideal, F5) == table.totals


def test_betti_totals_over_several_fields_equals_one_call_per_field(monkeypatch):
    # One lattice and one set of complexes, homology once per field, on both
    # routes; the powers of C7 take the mask route even with a dense key
    # space.  rp2 has 2-torsion, so its Q and F_2 totals differ.
    fields = [RATIONALS, GF2, CoefficientField(3), CoefficientField(5)]
    ideals = [fixture_ideal("rp2"), power(fixture_ideal("mixed6"), 2), *powers(_seven_cycle(), 3)]
    ideals += list(_random_ideals(random.Random(20221), 20, 3, 6, max_vars=6))
    grids = []
    grid_table = resolution_engine._grid_table
    monkeypatch.setattr(
        resolution_engine, "_grid_table", lambda space: grids.append(1) or grid_table(space)
    )
    for ideal in ideals:
        expected = [betti_table(ideal, field).totals for field in fields]
        del grids[:]
        assert betti_totals(ideal, fields) == expected, ideal
        assert len(grids) == 1
        if len(ideal.generators) > 1:
            with _mask_route(ideal):
                assert betti_totals(ideal, fields) == expected, ideal
    assert betti_totals(ideals[0], fields)[0] != betti_totals(ideals[0], fields)[1]


def test_each_betti_call_closes_one_lattice_and_decodes_only_tables(monkeypatch):
    # On both routes a call builds one key space and closes its lattice once,
    # and the route classifies those keys.  betti_table decodes the points
    # with homology in one call; betti_totals decodes none.
    calls = {}
    space = resolution_engine._KeySpace
    targets = [(space, "__init__"), (space, "decode")]
    targets += [(resolution_engine, a) for a in ("_grid_table", "_join_closure", "lcm_lattice")]
    for owner, attr in targets:
        original = getattr(owner, attr)

        def counting(*args, _attr=attr, _original=original):
            calls[_attr] = calls.get(_attr, 0) + 1
            return _original(*args)

        monkeypatch.setattr(owner, attr, counting)
    rp2 = fixture_ideal("rp2")
    routes = [
        (power(fixture_ideal("mixed6"), 2), "_grid_table", contextlib.nullcontext()),  # table
        (power(_seven_cycle(), 2), "_grid_table", contextlib.nullcontext()),  # mask
        (rp2, "_join_closure", _mask_route(rp2)),  # mask, a key space that is not dense
    ]
    for ideal, closure, route in routes:
        with route:
            for call, field, decodes in (
                (betti_table, GF2, {"decode": 1}),
                (betti_totals, GF2, {}),
                (betti_totals, [RATIONALS, GF2], {}),
            ):
                calls.clear()
                call(ideal, field)
                assert calls == {"__init__": 1, closure: 1, **decodes}, (ideal, call)


def test_homology_above_the_ambient_dimension_names_its_multidegree(monkeypatch):
    # An invariant failure, made by adding a class in homological index n + 1
    # to every complex with a reduced H~_0.  The mask route names the first
    # such point in key order from betti_table and betti_totals alike; the
    # table route's totals decode no point.
    homology = resolution_engine._homology_dims_cached

    def above(n, faces, p):
        dims = homology(n, faces, p)
        return dims[:-1] + (1,) if dims[1] else dims

    monkeypatch.setattr(resolution_engine, "_homology_dims_cached", above)
    mixed6 = fixture_ideal("mixed6")
    for call, ideal, at in (
        (betti_table, _seven_cycle(), "(0, 0, 0, 0, 1, 1, 1)"),
        (betti_totals, _seven_cycle(), "(0, 0, 0, 0, 1, 1, 1)"),
        (betti_table, mixed6, "(1, 6, 0, 0, 0, 0)"),
        (betti_totals, mixed6, "a lattice point"),
    ):
        message = f"homology above the ambient dimension at {at}"
        with pytest.raises(EngineInvariantError, match=re.escape(message) + "$"):
            call(ideal)


def test_betti_data_are_invariant_under_relabelling():
    # Permuting the variables is an automorphism of S: it moves each
    # beta_{i,a}(S/I^k) to the permuted multidegree and keeps the totals, so
    # a scan computes one ideal per relabelling.  In 7 and 8 variables the
    # mask route runs, below that the table route.  The key space sorts its
    # axes by radix, largest outermost and ties in the ideal's order, so a
    # permutation moves the space's axes but nothing that leaves the engine:
    # lattice rows and decoded keys are in the ideal's own variable order.
    fields = (RATIONALS, GF2, CoefficientField(3))
    rng = random.Random(20200)
    checked = {"table": 0, "mask": 0, "moved axes": 0}
    for ideal in _random_ideals(rng, 60, 2, 4, max_vars=8):
        n = ideal.nvars
        for perm in (rng.sample(range(n), n) for _ in range(2)):
            moved = MonomialIdeal.from_generators(
                ideal.variables, [tuple(g[j] for j in perm) for g in ideal.generators]
            )
            for ideal_k, moved_k in zip(powers(ideal, 3), powers(moved, 3)):
                for field in fields:
                    table, moved_table = betti_table(ideal_k, field), betti_table(moved_k, field)
                    assert moved_table.entries == {
                        (i, tuple(a[j] for j in perm)): b for (i, a), b in table.entries.items()
                    }
                    assert moved_table.totals == table.totals
                    totals = betti_totals(moved_k, field), betti_totals(ideal_k, field)
                    assert totals == (table.totals, table.totals)
                lattice = _rows(lcm_lattice(moved_k))
                assert all(a < b for a, b in zip(lattice, lattice[1:]))
                assert lattice == lcm_lattice_reference(moved_k)
                space = resolution_engine._KeySpace(moved_k.generators)
                radices = [len(set(column)) for column in zip(*moved_k.generators)]
                order = sorted(range(n), key=lambda j: -radices[j])
                assert space.order == (None if order == list(range(n)) else order)
                assert space.radices == [radices[j] for j in order]
                assert _rows(space.decode(space.generator_keys)) == list(moved_k.generators)
                checked["mask" if n >= 7 else "table"] += 1
                checked["moved axes"] += space.order is not None
    assert checked["mask"] > 50 and checked["table"] > 200 and checked["moved axes"] > 100, checked


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


def test_grid_bound_time_alarms():
    # Regression alarms, not benchmarks.  art4^11 has 1,221,858 keys, past
    # the lattice cap, which was also the grid bound: the join closure took
    # 60-76 s, and gave these totals.  Under GRID_CAP the grid table takes
    # about 0.2 s on a 2-CPU host.  art4^12 (1,726,272 keys) has more than
    # DEFAULT_LATTICE_CAP points: the grid table finds that in about 0.02 s,
    # where the closure raised after 23.7 s.
    art4 = fixture_ideal("artinian4")
    ideal = power(art4, 11)
    start = time.perf_counter()
    totals = betti_table(ideal).totals
    elapsed = time.perf_counter() - start
    assert totals == (1, 2046, 7223, 8222, 3044)
    assert elapsed < 2.0, f"took {elapsed:.2f}s"
    ideal = power(art4, 12)
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="lcm lattice exceeds cap of 1048576 elements"):
        betti_table(ideal)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_rp2_series_time_and_memory_alarms():
    # Regression alarms, not benchmarks.  betti_series(rp2, 9) takes about
    # 0.9 s on a 2-CPU host (1.5 s when each power decoded its table).  Its
    # traced allocations peak near 27.5 MiB, most of it the generators of
    # the powers; decoding every table took the peak to 56 MiB.
    ideal = fixture_ideal("rp2")
    start = time.perf_counter()
    series = betti_series(ideal, 9)
    elapsed = time.perf_counter() - start
    assert series.rows[-1] == (1, 17962, 79425, 141390, 126744, 57240, 10422)
    assert elapsed < 4.0, f"took {elapsed:.2f}s"
    tracemalloc.start()
    try:
        betti_series(ideal, 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * 2**20, f"peak {peak / 2**20:.1f} MiB"


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
    # C7's powers take the mask route; its square and cube, with 28 and 84
    # generators, are past the Taylor cap.
    for ideal_k in powers(_seven_cycle(), 3):
        for field in (RATIONALS, GF2, CoefficientField(3)):
            _assert_euler_characteristics_match_k_polynomial(ideal_k, field)


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
    # A differential check over Q, F_2 and F_3.  Powers are kept up to 14
    # generators, so the test takes about as long as it did at 12 when F_3
    # ranked by dict elimination (0.45-0.48 s on a 2-CPU sandbox).  With
    # bit-sliced F_3 the 15- and 16-generator powers of this draw take
    # 0.10-0.63 s per field each (F_3 took 0.8-5.4 s by dict elimination), so
    # the test would take 3.9 s at the cap; test_taylor_runs_at_its_generator_cap
    # and test_taylor_over_gf3_at_its_generator_cap exercise the cap instead.
    # C7 comes first: in 7 variables the engine takes the mask route.
    fields = (RATIONALS, GF2, CoefficientField(3))
    checked = 0
    for ideal in [_seven_cycle(), *_random_ideals(random.Random(20096), 40, 3, 10)]:
        for ideal_k in powers(ideal, 4):
            if len(ideal_k.generators) > 14:
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
    # sandbox this [Q, F_2] call took 0.35-0.63 s in fresh interpreters (0.30 s
    # at best in one process) with rows built from numpy as signed bit rows,
    # 0.33-0.59 s (0.31 s) with one dict per row, and 2.6-2.7 s when every map
    # was ranked over each field by dict elimination.
    ideal = power(fixture_ideal("mixed6"), 2)
    assert len(ideal.generators) == resolution_engine.DEFAULT_TAYLOR_CAP
    fields = [RATIONALS, GF2]
    start = time.perf_counter()
    totals = taylor_betti(ideal, fields)
    elapsed = time.perf_counter() - start
    assert totals == [betti_table(ideal, field).totals for field in fields]
    assert elapsed < 2.0, f"took {elapsed:.2f}s"
    # A memory alarm on a second call: the bit rows are as wide as their last
    # column, and the traced peak was 30.6 MiB here (16.5 MiB with dict rows).
    tracemalloc.start()
    try:
        again = taylor_betti(ideal, fields)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again == totals
    assert peak <= 40 << 20, f"peak {peak / 2**20:.1f} MiB"


def test_taylor_over_gf3_at_its_generator_cap():
    # The same 16 generators over F_3 alone.  A regression alarm, not a
    # benchmark: on a 2-CPU sandbox this call took 0.42-0.62 s with
    # bit-sliced F_3 rows, and 1.2-1.8 s by dict elimination.
    ideal = power(fixture_ideal("mixed6"), 2)
    field = CoefficientField(3)
    start = time.perf_counter()
    totals = taylor_betti(ideal, field)
    elapsed = time.perf_counter() - start
    assert totals == betti_table(ideal, field).totals
    assert elapsed < 2.0, f"took {elapsed:.2f}s"


def test_taylor_generator_cap(monkeypatch):
    monkeypatch.setattr(resolution_engine, "DEFAULT_TAYLOR_CAP", 4)
    with pytest.raises(ResourceLimitError):
        taylor_betti(fixture_ideal("rp2"), RATIONALS)


def test_characteristic_changes_betti_numbers():
    ideal = fixture_ideal("rp2")
    assert betti_table(ideal, RATIONALS).totals == (1, 10, 15, 6, 0, 0, 0)
    assert betti_table(ideal, GF2).totals == (1, 10, 15, 7, 1, 0, 0)
