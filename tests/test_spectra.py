"""Root finding, Sturm certification, loci, and the convergence report."""
import random
from fractions import Fraction

import numpy as np
import pytest

from bettipowers.asymptotics import (
    KodiyalamProfile,
    betti_series,
    closed_form_profile,
    kodiyalam_profile,
)
from bettipowers import spectra
from bettipowers.polynomials import RationalPolynomial
from bettipowers.spectra import (
    DEFAULT_MAX_ITER,
    DEFAULT_RESIDUAL_TOL,
    DEFAULT_STEP_TOL,
    RootFindingError,
    betti_polynomial_at,
    find_roots,
    real_root_multiplicities,
    root_locus,
    sturm_real_root_count,
)

from _fixtures import fixture_ideal
from _limit_theorem import limit_polynomial, limit_root_multiset, verify_limit_theorem
from _polynomial_product import multiply


def _poly(*coeffs):
    return RationalPolynomial.from_coefficients(list(coeffs))


def _maximal2_profile():
    return kodiyalam_profile(betti_series(fixture_ideal("maximal2"), 8))


def test_betti_polynomial_is_monic_with_exact_root():
    profile = _maximal2_profile()
    poly = betti_polynomial_at(profile, 3)
    # t^2 + 4t + 3 = (t+1)(t+3)
    assert poly.coefficients == (Fraction(3), Fraction(4), Fraction(1))
    assert poly(Fraction(-1)) == 0


def test_betti_polynomial_threshold_gate():
    profile = _maximal2_profile()
    gated = KodiyalamProfile(
        polynomials=profile.polynomials,
        k0=3,
        apd=profile.apd,
        ell=profile.ell,
        bigK=profile.bigK,
        multiplicities=profile.multiplicities,
        column_thresholds=profile.column_thresholds,
    )
    with pytest.raises(ValueError):
        betti_polynomial_at(gated, 2)
    assert betti_polynomial_at(gated, 2, allow_unstabilized=True)(Fraction(-1)) == 0
    with pytest.raises(ValueError):
        betti_polynomial_at(profile, 0)


def test_find_roots_linear_and_quadratic():
    assert find_roots(_poly(6, 2)) == [complex(-3.0)]
    roots = find_roots(_poly(2, -3, 1))
    assert [round(z.real, 12) for z in roots] == [1.0, 2.0]
    pair = find_roots(_poly(5, 2, 1))
    assert pair[0] == pair[1].conjugate()
    assert pair[0].imag == -2.0 and pair[0].real == -1.0


def test_find_roots_quartic_accuracy():
    roots = find_roots(_poly(24, -50, 35, -10, 1))
    assert all(z.imag == 0.0 for z in roots)
    for got, want in zip(roots, (1.0, 2.0, 3.0, 4.0)):
        assert abs(got - want) < 1e-9


def test_find_roots_valuation_zeros_are_exact():
    roots = find_roots(_poly(0, 0, 0, 1, 0, 1))
    assert roots.count(complex(0.0)) == 3
    assert sum(1 for z in roots if z.imag != 0.0) == 2


def test_find_roots_rejects_constants():
    with pytest.raises(ValueError):
        find_roots(_poly(5))


def test_find_roots_high_multiplicity_cluster():
    # (1+t)^20: the cluster passes by backward error, not by step convergence.
    p = multiply(*[_poly(1, 1)] * 20)
    roots = find_roots(p)
    assert len(roots) == 20
    assert sum(1 for z in roots if z.imag == 0.0) == 2
    assert max(abs(z + 1) for z in roots) < 0.5


def test_find_roots_error_carries_best_iterate(monkeypatch):
    monkeypatch.setattr(spectra, "DEFAULT_MAX_ITER", 1)
    monkeypatch.setattr(spectra, "DEFAULT_RESIDUAL_TOL", 1e-30)
    with pytest.raises(RootFindingError) as err:
        find_roots(_poly(1, 1, 0, 1))
    assert len(err.value.roots) == 3
    assert len(err.value.residuals) == 3


def _scaled_residuals_reference(coeffs, roots):
    # The residual of one polynomial by np.polyval, through the reversed
    # polynomial at 1/z where |z| > 1; spectra._scaled_residuals must give the
    # same bits on every row of a batch.
    high = coeffs[::-1]
    absz = np.abs(roots)
    out = np.empty(len(roots))
    with np.errstate(all="ignore"):
        small = absz <= 1.0
        if small.any():
            z = roots[small]
            num = np.abs(np.polyval(high, z))
            den = np.polyval(np.abs(high), np.abs(z))
            out[small] = np.divide(num, den, out=np.zeros_like(num), where=den != 0)
        if (~small).any():
            w = 1.0 / roots[~small]
            out[~small] = np.abs(np.polyval(coeffs, w)) / np.polyval(
                np.abs(coeffs), np.abs(w)
            )
    return out


def test_scaled_residuals_match_polyval_reference_bit_for_bit():
    # Rows of one batch with points inside, outside and on |z| = 1, an exact
    # zero root on a zero constant term (where the scale vanishes too), and
    # non-finite points.
    rng = np.random.default_rng(20261019)
    coeffs = rng.normal(size=(5, 7))
    coeffs[:, -1] = 1.0
    coeffs[1, 0] = 0.0
    roots = rng.normal(size=(5, 6)) * 2.0 + 1j * rng.normal(size=(5, 6))
    roots[0, :3] = (1.0, -1.0, 1j)
    roots[0, 3] = -1j
    roots[1, :2] = (0.0, np.inf)
    roots[2, 0] = complex(np.inf, 0.0)
    roots[2, 1] = complex(np.nan, 1.0)
    roots[3, 2] = complex(0.0, np.inf)
    small = np.abs(roots) <= 1.0
    assert small.any() and (~small).any() and (np.abs(roots) == 1.0).sum() >= 4
    got = spectra._scaled_residuals(coeffs, roots)
    want = np.array([_scaled_residuals_reference(c, z) for c, z in zip(coeffs, roots)])
    assert got[1, 0] == 0.0 and got[1, 1] == 1.0 and np.isnan(got[2, 1])
    assert got.tobytes() == want.tobytes()


def _aberth_reference(coeffs, z, real_slots, pairs, max_iter, step_tol, residual_tol):
    # The sweep evaluated by four np.polyval calls (p, p', and the reversed
    # polynomial and its derivative at 1/z), with the symmetry projections
    # as Python loops; spectra._aberth_sweeps must return the same bits.
    m = len(z)
    high = coeffs[::-1]
    dhigh = (high[:-1] * np.arange(m, 0, -1)).astype(float)
    low = coeffs
    dlow = (low[:-1] * np.arange(m, 0, -1)).astype(float)
    for _ in range(max_iter):
        with np.errstate(all="ignore"):
            absz = np.abs(z)
            big = absz > 1.0
            p = np.polyval(high, z)
            dp = np.polyval(dhigh, z)
            newton = p / dp
            if big.any():
                w = 1.0 / z[big]
                q = np.polyval(low, w)
                dq = np.polyval(dlow, w)
                newton[big] = z[big] * q / (m * q - w * dq)
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, np.inf)
            repulse = (1.0 / diff).sum(axis=1)
            step = newton / (1.0 - newton * repulse)
            bad = ~np.isfinite(step)
            if bad.any():
                fallback = np.where(np.isfinite(newton), newton, 0.0)
                step = np.where(bad, fallback, step)
            limit = 1.0 + absz
            mag = np.abs(step)
            with np.errstate(invalid="ignore"):
                scale = np.where(mag > limit, limit / mag, 1.0)
            step = step * scale
        z = z - step
        for i in real_slots:
            z[i] = complex(z[i].real, 0.0)
        for i, j in pairs:
            avg = (z[i] + z[j].conjugate()) / 2.0
            z[i] = avg
            z[j] = avg.conjugate()
        max_step = float(np.max(np.abs(step) / (1.0 + np.abs(z))))
        if max_step < step_tol:
            return z, bool((_scaled_residuals_reference(coeffs, z) <= residual_tol).all())
        if max_step < 1e-8 and (_scaled_residuals_reference(coeffs, z) <= residual_tol).all():
            return z, True
    return z, bool((_scaled_residuals_reference(coeffs, z) <= residual_tol).all())


def _newton_polish_reference(coeffs, z, iters=4):
    # The polish with the same four np.polyval calls per step.
    m = len(z)
    high = coeffs[::-1]
    dhigh = (high[:-1] * np.arange(m, 0, -1)).astype(float)
    low = coeffs
    dlow = (low[:-1] * np.arange(m, 0, -1)).astype(float)
    best = z.copy()
    best_res = _scaled_residuals_reference(coeffs, best)
    cur = z.copy()
    for _ in range(iters):
        with np.errstate(all="ignore"):
            big = np.abs(cur) > 1.0
            newton = np.polyval(high, cur) / np.polyval(dhigh, cur)
            if big.any():
                w = 1.0 / cur[big]
                q = np.polyval(low, w)
                dq = np.polyval(dlow, w)
                newton[big] = cur[big] * q / (m * q - w * dq)
            nxt = cur - newton
        moved = np.where(np.isfinite(nxt), nxt, cur)
        res = _scaled_residuals_reference(coeffs, moved)
        improve = res < best_res
        best[improve] = moved[improve]
        best_res[improve] = res[improve]
        cur = moved
    return best


def _assert_sweeps_match_reference(polys, symmetric):
    # One batch over same-degree polynomials: every row, and each polynomial
    # run alone as a batch of one, must equal the reference run of that
    # polynomial bit for bit, and so must one polish of all accepted rows.
    coeffs = np.array([[float(c) for c in exact] for exact in polys])
    coeffs /= coeffs[:, -1:]
    starts = [
        spectra._initial_points(spectra._newton_polygon_radii(c), symmetric=symmetric)
        for c in coeffs
    ]
    _, real_slots, pairs = starts[0]
    z0 = np.array([z for z, _, _ in starts])
    tolerances = (DEFAULT_MAX_ITER, DEFAULT_STEP_TOL, DEFAULT_RESIDUAL_TOL)
    batch, batch_ok = spectra._aberth_sweeps(coeffs, z0, real_slots, pairs)
    polished = spectra._newton_polish(coeffs[batch_ok], batch[batch_ok])
    accepted = iter(polished)
    for row, c in enumerate(coeffs):
        want, want_ok = _aberth_reference(c, z0[row], real_slots, pairs, *tolerances)
        alone, alone_ok = spectra._aberth_sweeps(
            c[None], z0[row : row + 1], real_slots, pairs
        )
        for got, got_ok in ((batch[row], batch_ok[row]), (alone[0], alone_ok[0])):
            assert got_ok == want_ok
            assert np.array_equal(got, want)
        if want_ok:
            assert np.array_equal(next(accepted), _newton_polish_reference(c, want))


def test_find_roots_fallback_matches_reference(monkeypatch):
    # Each of these fails the symmetric sweep's checks, so find_roots sweeps
    # again from the asymmetric start, polishes that batch of one and pairs
    # the result; the reference runs the same steps by np.polyval.
    sweeps = []
    original = spectra._aberth_sweeps
    monkeypatch.setattr(
        spectra, "_aberth_sweeps", lambda *args: sweeps.append(1) or original(*args)
    )
    tolerances = (DEFAULT_MAX_ITER, DEFAULT_STEP_TOL, DEFAULT_RESIDUAL_TOL)
    for exact in ([-9, 7, -8, -2, -5, -6, -7, 4], [-6, 2, 5, 4], [3, 5, 5, -3, 8, -1, 7]):
        sweeps.clear()
        got = find_roots(_poly(*exact))
        assert len(sweeps) == 2
        c = np.array(exact, dtype=float) / exact[-1]
        z0, _, _ = spectra._initial_points(spectra._newton_polygon_radii(c), symmetric=False)
        z, _ = _aberth_reference(c, z0, [], [], *tolerances)
        paired = spectra._pair_output(_newton_polish_reference(c, z))
        want = [complex(v.real + 0.0, v.imag + 0.0) for v in paired]
        assert got == sorted(want, key=lambda v: (v.real, v.imag))


def test_symmetric_start_layout_is_real_slots_then_adjacent_pairs():
    # The sweep builds its storage order and its conjugate partners from
    # this layout, which is only right for it.
    rng = random.Random(20261019)
    for m in range(3, 31):
        for radii in ([1.0] * m, [rng.uniform(0.1, 10.0) for _ in range(m)]):
            z, real_slots, pairs = spectra._initial_points(radii, symmetric=True)
            n_real = len(real_slots)
            assert real_slots == list(range(n_real)) and n_real in (2, 3)
            assert pairs == [(i, i + 1) for i in range(n_real, m, 2)]
            assert all(z[i].imag == 0.0 for i in real_slots)
            assert all(z[j] == z[i].conjugate() and z[i].imag > 0 for i, j in pairs)


def test_aberth_sweeps_match_reference_on_regular_sequence():
    # One batch of four rows per length that leave at different sweeps: k=1
    # is (1+t)^n, whose roots end as a noise ring after all sweeps; k=2 leaves
    # at the residual gate; k=5 and k=n run every sweep.  n=20 has 2 real
    # slots and 9 conjugate pairs, n=19 has 3 real slots and 8 pairs.
    for n in (20, 19):
        profile = closed_form_profile(n)
        polys = [betti_polynomial_at(profile, k).coefficients for k in (1, 2, 5, n)]
        _assert_sweeps_match_reference(polys, True)


def test_newton_corrections_and_reciprocals_commute_with_conjugation():
    # The sweep runs Horner and the repulsion divisions only at the real
    # slots and upper pair members and conjugates the results for the lower
    # members, which keeps the bits only while these hold bit for bit, off
    # the real axis, inside and outside the unit circle.
    rng = np.random.default_rng(20261020)
    coeffs = rng.normal(size=(8, 13))
    coeffs[:, -1] = 1.0
    modulus = np.exp(rng.uniform(-7.0, 7.0, size=(8, 40)))
    z = modulus * np.exp(1j * rng.uniform(0.01, np.pi - 0.01, size=(8, 40)))
    assert (z.imag > 0).all() and (modulus < 1).any() and (modulus > 1).any()
    columns = spectra._horner_columns(coeffs, z.shape[1])
    x, y = np.empty((2,) + z.shape[:1] + (4,) + z.shape[1:], dtype=complex)
    with np.errstate(all="ignore"):
        at_z = spectra._newton_corrections(columns, z, np.abs(z), x, y)
        at_conj = spectra._newton_corrections(columns, z.conj(), np.abs(z.conj()), x, y)
        assert np.isfinite(at_z).all()
        assert at_conj.tobytes() == at_z.conj().tobytes()
        for d in (z, (z[:, :, None] - z[:, None, :])[:, ~np.eye(z.shape[1], dtype=bool)]):
            assert np.divide(1.0, d.conj()).tobytes() == np.divide(1.0, d).conj().tobytes()


def test_aberth_sweeps_match_reference_on_random_polynomials():
    # The polynomials of each degree run as one batch; between them these
    # runs leave by all three exits: the step tolerance, the residual gate
    # and the sweep limit.
    rng = random.Random(20261018)
    by_degree = {}
    for _ in range(50):
        degree = rng.randint(3, 9)
        coeffs = [rng.choice((-1, 1)) * rng.randint(1, 9)]
        coeffs += [rng.randint(-9, 9) for _ in range(degree - 1)] + [rng.randint(1, 9)]
        by_degree.setdefault(degree, []).append(coeffs)
    for polys in by_degree.values():
        for symmetric in (True, False):
            _assert_sweeps_match_reference(polys, symmetric)


def _match_order_reference(prev, cur):
    # Greedy nearest-neighbor continuation over every pair, sorted as Python
    # tuples (|p - c|, i, j); spectra._match_order must make the same choices.
    ranked = sorted((abs(p - c), i, j) for i, p in enumerate(prev) for j, c in enumerate(cur))
    assignment, used_cur = {}, set()
    for _, i, j in ranked:
        if i not in assignment and j not in used_cur:
            used_cur.add(j)
            assignment[i] = cur[j]
    return [assignment[i] for i in range(len(prev))]


def test_match_order_matches_the_sorted_reference():
    # The regular-sequence locus to k=40, and random points on a coarse grid,
    # where equal distances, and so the index tie-breaks, are common.
    profile = closed_form_profile(20)
    found = spectra._find_roots_batch(
        [betti_polynomial_at(profile, k, allow_unstabilized=True) for k in range(1, 41)]
    )
    rng = random.Random(20261020)
    grid = []
    for _ in range(300):
        m = rng.randint(1, 10)
        grid.append([[complex(rng.randint(-3, 3), rng.randint(-2, 2)) for _ in range(m)] for _ in "pc"])
    for prev, cur in list(zip(found, found[1:])) + grid:
        assert spectra._match_order(prev, cur) == _match_order_reference(prev, cur)


def _locus_csv_one_k_at_a_time(profile, ks):
    # root_locus as a loop of find_roots calls, one k at a time, followed by
    # trajectory matching and the escape rule.
    lines = ["k,root_index,re,im,trajectory_id,is_escape"]
    prev = None
    for k in ks:
        found = find_roots(betti_polynomial_at(profile, k, allow_unstabilized=True))
        ordered = found if prev is None else spectra._match_order(prev, found)
        prev = ordered
        esc = None
        real_idx = [t for t, z in enumerate(ordered) if z.imag == 0.0]
        if real_idx:
            t_big = max(real_idx, key=lambda t: abs(ordered[t]))
            others = [abs(z) for t, z in enumerate(ordered) if t != t_big]
            if not others or abs(ordered[t_big]) > 2.0 * max(others):
                esc = t_big
        for t, z in enumerate(ordered):
            lines.append(f"{k},{t},{z.real!r},{z.imag!r},{t},{1 if esc == t else 0}")
    return "\n".join(lines) + "\n"


def _mixed_degree_profile():
    # P(k,t) = t^5 + 2t^4 + 3t^3 + 3(k-1)t^2 + (k-1)t + (k-1)(k-2): at k=1 the
    # reduced degree is 2 (closed form), at k=2 it is 4, and from k=3 on it is 5.
    k = _poly(0, 1)
    one = RationalPolynomial.constant(1)
    return KodiyalamProfile(
        polynomials=(
            one,
            RationalPolynomial.constant(2),
            RationalPolynomial.constant(3),
            (k - one).scale(3),
            k - one,
            _poly(2, -3, 1),  # (k - 1)(k - 2)
        ),
        k0=1,
        apd=5,
        ell=1,
        bigK=0,
        multiplicities=(),
        column_thresholds=(1,) * 6,
    )


def test_mixed_degree_profile_groups():
    # Valuations 3, 1, 0, 0: reduced degrees 2, 4, 5 and 5.
    for k, valuation in ((1, 3), (2, 1), (3, 0), (9, 0)):
        coeffs = betti_polynomial_at(_mixed_degree_profile(), k).coefficients
        assert all(c == 0 for c in coeffs[:valuation]) and coeffs[valuation] != 0


@pytest.mark.parametrize(
    "profile",
    [closed_form_profile(4), closed_form_profile(10), _mixed_degree_profile()],
    ids=["regseq4", "regseq10", "mixed-degree"],
)
def test_root_locus_batch_equals_one_k_at_a_time(profile):
    ks = range(1, 13)
    assert root_locus(profile, ks).to_csv() == _locus_csv_one_k_at_a_time(profile, ks)


def test_root_locus_blocks_keep_the_bits(monkeypatch):
    # Rows are independent, so blocks of any size give the same locus: a
    # budget of a few rows' Horner columns splits each locus into 3 blocks.
    cases = ((6, range(1, 9), 3), (20, range(1, 6), 2))
    wholes = [root_locus(closed_form_profile(n), ks).to_csv() for n, ks, _ in cases]
    sweeps = []
    original = spectra._aberth_sweeps
    monkeypatch.setattr(
        spectra, "_aberth_sweeps", lambda *args: sweeps.append(1) or original(*args)
    )
    for (n, ks, rows_per_block), whole in zip(cases, wholes):
        monkeypatch.setattr(spectra, "_BLOCK_BYTES", rows_per_block * 64 * n * (n + 1))
        sweeps.clear()
        assert root_locus(closed_form_profile(n), ks).to_csv() == whole
        assert len(sweeps) == 3


def test_root_locus_raises_for_the_first_failing_k(monkeypatch):
    # k=1 has a closed form and cannot fail, and k=2 fails after one sweep,
    # so the locus must raise at k=2 with the error find_roots gives on it.
    monkeypatch.setattr(spectra, "DEFAULT_MAX_ITER", 1)
    profile = _mixed_degree_profile()
    with pytest.raises(RootFindingError) as err:
        root_locus(profile, range(1, 6))
    with pytest.raises(RootFindingError) as alone:
        find_roots(betti_polynomial_at(profile, 2))
    assert len(err.value.roots) == 4
    assert str(err.value) == str(alone.value)
    assert err.value.roots == alone.value.roots
    assert err.value.residuals == alone.value.residuals


def test_sturm_counts_and_intervals():
    p = _poly(2, -3, 1)  # roots 1, 2
    assert sturm_real_root_count(p) == 2
    assert sturm_real_root_count(p, (1, 2)) == 1  # half-open: 1 excluded
    assert sturm_real_root_count(p, (0, 1)) == 1
    assert sturm_real_root_count(p, (2, None)) == 0
    assert sturm_real_root_count(p, (None, 0)) == 0
    assert sturm_real_root_count(_poly(1, 0, 1)) == 0
    with pytest.raises(ValueError):
        sturm_real_root_count(RationalPolynomial.zero())


def test_sturm_counts_distinct_roots():
    p = multiply(_poly(1, 1), _poly(1, 1), _poly(-2, 1))
    assert sturm_real_root_count(p) == 2
    assert real_root_multiplicities(p) == {1: 1, 2: 1}
    assert real_root_multiplicities(_poly(0, 0, 0, 1)) == {3: 1}
    assert real_root_multiplicities(_poly(1, 0, 1)) == {}


def test_random_polynomials_against_sturm():
    """Numeric real-root counts must match the exact Sturm census."""
    rng = random.Random(20260815)
    for trial in range(200):
        degree = rng.randint(3, 9)
        coeffs = [rng.randint(-9, 9) for _ in range(degree)] + [rng.randint(1, 9)]
        p = RationalPolynomial.from_coefficients(coeffs)
        roots = find_roots(p)
        assert len(roots) == p.degree
        # every root is a backward-stable zero
        for z in roots:
            value = abs(p(z))
            scale = sum(
                abs(float(c)) * abs(z) ** i for i, c in enumerate(p.coefficients)
            )
            assert value <= 1e-10 * scale
        # the root multiset is closed under conjugation, exactly
        assert sorted((z.real, z.imag) for z in roots) == sorted(
            (z.real, -z.imag) for z in roots
        )
        exact = sum(m * c for m, c in real_root_multiplicities(p).items())
        numeric = sum(1 for z in roots if z.imag == 0.0)
        assert numeric == exact, f"trial {trial}: {coeffs}"


def test_limit_polynomial_vanishes_at_minus_one():
    profile = _maximal2_profile()
    assert limit_polynomial(profile) == _poly(1, 1)
    assert limit_root_multiset(profile) == [complex(-1.0)]


def test_limit_polynomial_requires_ell_two():
    profile = kodiyalam_profile(betti_series(fixture_ideal("principal"), 6))
    with pytest.raises(ValueError):
        limit_polynomial(profile)


def test_limit_root_multiset_with_zero_roots():
    # apd=5, bigK=3, multiplicities (6,12,6): limit polynomial 6t^2(t+1)^2
    profile = KodiyalamProfile(
        polynomials=(
            RationalPolynomial.constant(1),
            _poly(-7, 4, 3),
            _poly(-7, 3, 6),
            _poly(5, -1, 3),
            RationalPolynomial.constant(5),
            RationalPolynomial.constant(1),
            RationalPolynomial.zero(),
        ),
        k0=3,
        apd=5,
        ell=3,
        bigK=3,
        multiplicities=(6, 12, 6),
        column_thresholds=(1, 3, 3, 3, 1, 1, 1),
    )
    roots = limit_root_multiset(profile)
    assert roots == [complex(0.0), complex(0.0), complex(-1.0), complex(-1.0)]


def test_root_locus_trajectories_of_maximal2():
    # P(k,t) = (t+1)(t+k): one trajectory pinned at -1, one escaping at -k.
    profile = _maximal2_profile()
    locus = root_locus(profile, range(1, 11))
    pinned = [t for t in range(2) if abs(locus.roots[10][t] + 1) < 1e-9]
    assert len(pinned) == 1
    escaping = 1 - pinned[0]
    assert locus.escape_trajectory == escaping
    for k in range(3, 11):
        assert locus.escape_index[k] == escaping
        assert abs(locus.roots[k][escaping] + k) < 1e-9
    assert locus.escape_index[1] is None
    assert locus.escape_index[2] is None
    assert sum(1 for z in locus.roots[7] if z.imag == 0.0) == 2


def test_root_locus_csv_layout():
    locus = root_locus(_maximal2_profile(), range(1, 4))
    lines = locus.to_csv().splitlines()
    assert lines[0] == "k,root_index,re,im,trajectory_id,is_escape"
    assert len(lines) == 1 + 3 * 2
    assert lines[1].startswith("1,0,")


def test_root_locus_residual_is_zero_at_an_exact_zero_root():
    # P = (1, 2k, k-1) with k0 = 2: below k0, P(1,t) = t^2 + 2t has the exact
    # root 0, where every term of the residual's scale vanishes.
    k = _poly(0, 1)
    one = RationalPolynomial.constant(1)
    profile = KodiyalamProfile(
        polynomials=(one, k.scale(2), k - one),
        k0=2,
        apd=2,
        ell=2,
        bigK=2,
        multiplicities=(2, 1),
        column_thresholds=(1, 1, 2),
    )
    locus = root_locus(profile, range(1, 4))
    assert locus.roots[1] == (complex(-2.0), complex(0.0))
    assert locus.residuals[1] == (0.0, 0.0)
    for ks in locus.krange:
        assert all(np.isfinite(locus.residuals[ks]))


def test_verify_limit_theorem_maximal3():
    report = verify_limit_theorem(closed_form_profile(3), range(1, 13))
    assert report.limit_roots == (complex(-1.0), complex(-1.0))
    assert report.distances_nonincreasing is True
    assert report.escape_real is True
    assert report.escape_divergent is True
    assert all(report.minus_one_exact.values())
    assert len(report.bounded_trajectories) == 2


def test_verify_limit_theorem_requires_ell_two():
    profile = kodiyalam_profile(betti_series(fixture_ideal("principal"), 6))
    with pytest.raises(ValueError):
        verify_limit_theorem(profile, range(1, 5))
