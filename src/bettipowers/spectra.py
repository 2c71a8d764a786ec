"""Root behavior of the Betti polynomial P(I)(k,t) across powers k.

The polynomial for each k is exact; root extraction is the only floating
point step.  The finder is a simultaneous (Aberth-Ehrlich style) iteration
with initial points on Newton-polygon circles, run under an exact conjugate
pairing so that root sets of real polynomials stay symmetric and each sweep
runs one Horner and one repulsion row per conjugate pair; realness and root
counts over intervals are certified separately by exact Sturm chains.
A root locus sweeps, polishes and gates all its powers of one reduced degree
as one batch, with the same bits as one power at a time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .asymptotics import KodiyalamProfile
from .polynomials import RationalPolynomial

# Read at call time, so a test can lower them with monkeypatch.
DEFAULT_MAX_ITER = 1000
DEFAULT_STEP_TOL = 1e-12
DEFAULT_RESIDUAL_TOL = 1e-10
_POLISH_ITERS = 4
_CLUSTER_TOL = 1e-6
_BLOCK_BYTES = 1 << 21  # bound on the Horner columns of one sweep block


class RootFindingError(RuntimeError):
    """Root iteration failed to meet the residual tolerance; carries the best iterate."""

    def __init__(self, message: str, roots: Sequence[complex], residuals: Sequence[float]):
        super().__init__(message)
        self.roots = list(roots)
        self.residuals = list(residuals)


def betti_polynomial_at(
    profile: KodiyalamProfile, k: int, allow_unstabilized: bool = False
) -> RationalPolynomial:
    """The degree-apd polynomial sum_i P_i(k) t^(apd-i), exact and monic.

    Below the stabilization threshold the fitted values differ from the true
    Betti numbers; pass allow_unstabilized to evaluate there anyway.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if k < profile.k0 and not allow_unstabilized:
        raise ValueError(
            f"k={k} is below the stabilization threshold {profile.k0}; "
            "pass allow_unstabilized to evaluate anyway"
        )
    apd = profile.apd
    poly = RationalPolynomial.from_coefficients([p(k) for p in profile.polynomials[apd::-1]])
    if poly.degree != apd or poly.leading_coefficient != 1:
        raise RuntimeError("Betti polynomial is not monic of degree apd")
    return poly


# ---------------------------------------------------------------------------
# numeric root finding


def _newton_polygon_radii(coeffs: Sequence[float]) -> list[float]:
    # Initial moduli from the upper convex hull of (i, log|c_i|): each hull
    # segment of width d contributes d starting radii.
    pts = [(i, math.log(abs(c))) for i, c in enumerate(coeffs) if c != 0]
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x1) <= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    radii = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        r = math.exp((y1 - y2) / (x2 - x1))
        radii.extend([r] * (x2 - x1))
    return radii


def _scaled_residuals(coeffs: np.ndarray, roots: np.ndarray) -> np.ndarray:
    # Backward-error residuals |p(z)| / sum_i |c_i| |z|^i of a (K, n) batch of
    # points, row r at the polynomial coeffs[r] (lowest degree first).  Where
    # |z| > 1 the reversed polynomial is evaluated at w = 1/z so that nothing
    # overflows; each point sees np.polyval's operations.
    small = np.abs(roots) <= 1.0
    with np.errstate(all="ignore"):
        x = np.where(small, roots, 1.0 / roots)
        ax = np.abs(x)
        table = np.where(small, coeffs.T[::-1, :, None], coeffs.T[:, :, None])
        num, den = np.zeros_like(x), np.zeros_like(ax)
        for c, a in zip(table, np.abs(table)):
            num *= x
            num += c
            den *= ax
            den += a
        # den is 0 only where every term vanishes (z = 0 on a zero constant
        # term), and then so does p(z).
        return np.divide(np.abs(num), den, out=np.zeros_like(den), where=den != 0)


def _cluster_consistent(coeffs: np.ndarray, roots: np.ndarray) -> bool:
    # A pile of c coincident iterates passes the residual gate whenever the
    # common point is any root at all, so a multiplicity-c claim is accepted
    # only when the derivatives through order c-1 are small there too.
    m = len(roots)
    assigned = [False] * m
    for i in range(m):
        if assigned[i]:
            continue
        cluster = [i]
        assigned[i] = True
        for j in range(i + 1, m):
            if not assigned[j] and (
                abs(roots[i] - roots[j]) <= _CLUSTER_TOL * (1.0 + abs(roots[i]))
            ):
                assigned[j] = True
                cluster.append(j)
        if len(cluster) == 1:
            continue
        center = roots[cluster].mean()
        deriv = coeffs.copy()
        for _ in range(1, len(cluster)):
            deriv = deriv[1:] * np.arange(1, len(deriv))
            with np.errstate(all="ignore"):
                value = abs(np.polyval(deriv[::-1], center))
                scale = float(np.polyval(np.abs(deriv[::-1]), abs(center)))
            if scale > 0 and value > _CLUSTER_TOL * scale:
                return False
    return True


def _quadratic_roots(c0: float, c1: float, c2: float) -> list[complex]:
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc >= 0:
        q = -(c1 + math.copysign(math.sqrt(disc), c1)) / 2.0
        r1 = q / c2
        r2 = (c0 / q) if q != 0 else r1
        return [complex(r1), complex(r2)]
    im = math.sqrt(-disc) / (2.0 * c2)
    re = -c1 / (2.0 * c2)
    return [complex(re, -abs(im)), complex(re, abs(im))]


def _initial_points(
    radii: Sequence[float], symmetric: bool
) -> tuple[np.ndarray, list[int], list[tuple[int, int]]]:
    # Symmetric layout: real slots on the axis (largest radius on the
    # negative side for the escaping root), remaining radii in conjugate
    # pairs.  Asymmetric layout: one point per radius, angles offset so no
    # symmetry can lock the iteration.
    m = len(radii)
    radii = sorted(radii)
    if not symmetric:
        angles = [2.0 * math.pi * j / m + 0.7 / m for j in range(m)]
        pts = [radii[j] * complex(math.cos(a), math.sin(a)) for j, a in enumerate(angles)]
        return np.array(pts, dtype=complex), [], []
    n_real = 2 if m % 2 == 0 else 3  # m >= 3: lower degrees are never swept
    points: list[complex] = [complex(-radii[-1]), complex(radii[0])]
    if n_real == 3:
        # Factor 0.5 keeps this slot distinct from the escape slot when all
        # radii coincide; identical starting points share identical dynamics
        # forever and collapse onto one root.
        points.append(complex(-0.5 * math.sqrt(radii[0] * radii[-1])))
    real_slots = list(range(len(points)))
    middle = radii[1:-1] if n_real == 2 else radii[1:-2]
    pairs: list[tuple[int, int]] = []
    npairs = (m - n_real) // 2
    for t in range(npairs):
        r1 = middle[2 * t]
        r2 = middle[2 * t + 1]
        r = math.sqrt(r1 * r2)
        angle = math.pi * (t + 1) / (npairs + 1)
        z = r * complex(math.cos(angle), math.sin(angle))
        pairs.append((len(points), len(points) + 1))
        points.extend([z, z.conjugate()])
    return np.array(points, dtype=complex), real_slots, pairs


def _horner_columns(coeffs: np.ndarray, width: int) -> np.ndarray:
    # Complex coefficient columns (m+1, K, 4, width), highest degree first, of
    # the rows p, p', q, q' with q(w) = w^m p(1/w) of each of a (K, m+1) batch
    # of polynomials, broadcast over width iterates so that each Horner step
    # adds two contiguous arrays.  Derivative rows get a leading zero so that
    # all four share one length.
    m = coeffs.shape[1] - 1
    weights = np.arange(m, 0, -1)
    rows = np.zeros((4,) + coeffs.shape)
    rows[0] = coeffs[:, ::-1]
    rows[1, :, 1:] = coeffs[:, :0:-1] * weights
    rows[2] = coeffs
    rows[3, :, 1:] = coeffs[:, :-1] * weights
    return np.repeat(rows.transpose(2, 1, 0)[..., None].astype(complex), width, axis=3)


def _newton_corrections(columns: np.ndarray, z: np.ndarray, absz: np.ndarray, x, y) -> np.ndarray:
    # p(z)/p'(z) for a (K, n) batch of iterates, absz = |z|, by Horner on all
    # four rows in the (K, 4, n) buffers x and y, taken through the reversed
    # polynomial at w = 1/z where |z| > 1 so that nothing overflows.  Horner
    # starts from the first column, which is np.polyval's first step 0*x + c
    # at every finite x, so every row sees np.polyval's operations.
    m = len(columns) - 1
    x[:, :2] = z[:, None]
    np.divide(1.0, z[:, None], out=x[:, 2:])
    w = x[:, 2]
    y[...] = columns[0]
    for c in columns[1:]:
        y *= x
        y += c
    p, dp, q, dq = y.transpose(1, 0, 2)
    return np.where(absz > 1.0, z * q / (m * q - w * dq), p / dp)


def _aberth_sweeps(
    coeffs: np.ndarray, z: np.ndarray, real_slots: list[int], pairs: list[tuple[int, int]]
) -> tuple[np.ndarray, np.ndarray]:
    # Simultaneous iteration on a (K, m) batch: row r holds the iterates of
    # the polynomial coeffs[r], and every row shares one start layout, whose
    # real slots come first and whose conjugate pairs fill adjacent slots
    # after them.  After every projection each lower pair member is bitwise
    # the conjugate of its upper one, and numpy's complex *, +, / and
    # reciprocal commute exactly with conjugation.  So one Horner and one
    # repulsion row run per conjugate pair: the iterates are stored own
    # points (real slots, upper members, any unpaired slot) first and lower
    # members last, and a lower member takes the conjugate of its partner's
    # correction and of its partner's repulsion row with the pair columns
    # swapped, gathered C-contiguous because numpy's row sum adds in another
    # order on other layouts.  A row leaves at the sweep where it would have
    # left on its own, and the rows still running are compacted into the
    # leading rows of the Horner columns and of the buffers, which are
    # allocated once.  No step mixes rows, so each row's bits are those of a
    # batch of one.  Returns the final iterates and, per row, whether they
    # pass the gate.
    m, n_real, n_pairs = z.shape[1], len(real_slots), len(pairs)
    end, n_own = n_real + 2 * n_pairs, m - n_pairs
    order = np.r_[0:n_real, n_real:end:2, end:m, n_real + 1 : end : 2]
    slots = np.empty_like(order)  # where each slot is stored
    slots[order] = np.arange(m)
    upper, lower = slice(n_real, n_real + n_pairs), slice(n_own, m)
    partner = np.r_[0:n_real, np.arange(n_real, end).reshape(-1, 2)[:, ::-1].ravel(), end:m]
    columns = _horner_columns(coeffs, n_own)
    out = np.empty_like(z)
    accepted = np.zeros(len(z), dtype=bool)
    running = np.arange(len(z))
    z = z[:, order]
    absz = np.abs(z)
    limit = 1.0 + absz
    x, y = np.empty((2, len(z), 4, n_own), dtype=complex)
    diff = np.empty((len(z), n_own, m), dtype=complex)
    diagonal = np.arange(n_own) * m + order[:n_own]
    gate_below = max(DEFAULT_STEP_TOL, 1e-8)
    for _ in range(DEFAULT_MAX_ITER):
        with np.errstate(all="ignore"):
            newton = np.empty_like(z)
            newton[:, :n_own] = _newton_corrections(columns, z[:, :n_own], absz[:, :n_own], x, y)
            np.conjugate(newton[:, upper], out=newton[:, lower])
            np.subtract(z[:, :n_own, None], z[:, None, slots], out=diff)
            diff.reshape(len(z), -1)[:, diagonal] = np.inf
            inverse = np.divide(1.0, diff, out=diff)
            repulse = np.empty_like(z)
            repulse[:, :n_own] = inverse.sum(axis=2)
            mirrored = np.take(inverse[:, upper], partner, axis=2)
            np.conjugate(mirrored.sum(axis=2), out=repulse[:, lower])
            step = newton / (1.0 - newton * repulse)
            if not np.isfinite(step).all():
                fallback = np.where(np.isfinite(newton), newton, 0.0)
                step = np.where(np.isfinite(step), step, fallback)
            mag = np.abs(step)
            step *= np.minimum(limit / mag, 1.0)
        z -= step
        z[:, :n_real].imag = 0.0
        z_upper, z_lower = z[:, upper], z[:, lower]
        z_upper += z_lower.conj()
        z_upper /= 2.0
        np.conjugate(z_upper, out=z_lower)
        absz = np.abs(z)
        limit = 1.0 + absz
        max_step = np.max(np.abs(step) / limit, axis=1)
        # Tiny steps alone are not convergence: collided points freeze the
        # iteration through the repulsion term, so acceptance always goes
        # through the residual gate.
        if max_step.min() >= gate_below:
            continue
        done = max_step < DEFAULT_STEP_TOL
        near = np.flatnonzero(max_step < gate_below)
        gate = (_scaled_residuals(coeffs[near], z[near]) <= DEFAULT_RESIDUAL_TOL).all(axis=1)
        accepted[running[near]] = gate
        done[near] |= gate
        if done.any():
            out[running[done]] = z[done][:, slots]
            keep = ~done
            running, z, coeffs = running[keep], z[keep], coeffs[keep]
            absz, limit = absz[keep], limit[keep]
            if not len(running):
                return out, accepted
            for c in columns:
                c[: len(z)] = c[keep]
            columns = columns[:, : len(z)]
            x, y, diff = x[: len(z)], y[: len(z)], diff[: len(z)]
    accepted[running] = (_scaled_residuals(coeffs, z) <= DEFAULT_RESIDUAL_TOL).all(axis=1)
    out[running] = z[:, slots]
    return out, accepted


def _newton_polish(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    # Per-point Newton after the simultaneous phase, on a (K, m) batch of
    # iterates, row r of the polynomial coeffs[r].  Near-coincident partners
    # freeze the collective steps through the repulsion term while clustered
    # roots are still far from evaluation-noise accuracy; plain Newton closes
    # that gap.  A point only moves when its residual improves, so the
    # residual gate stays satisfied.
    best, cur = z.copy(), z
    best_res = _scaled_residuals(coeffs, best)
    columns = _horner_columns(coeffs, z.shape[1])
    x, y = np.empty((2, len(z), 4, z.shape[1]), dtype=complex)
    for _ in range(_POLISH_ITERS):
        with np.errstate(all="ignore"):
            nxt = cur - _newton_corrections(columns, cur, np.abs(cur), x, y)
        moved = np.where(np.isfinite(nxt), nxt, cur)
        res = _scaled_residuals(coeffs, moved)
        improve = res < best_res
        best[improve] = moved[improve]
        best_res[improve] = res[improve]
        cur = moved
    return best


def _pair_output(roots: Iterable[complex]) -> list[complex]:
    # Enforce exact conjugate symmetry on a near-symmetric root list: match
    # upper and lower half-plane roots greedily, average each pair, and
    # declare whatever remains unpaired real.
    reals, upper, lower = [], [], []
    for z in roots:
        tol = 1e-6 * (1.0 + abs(z))
        if abs(z.imag) <= tol:
            reals.append(complex(z.real, 0.0))
        elif z.imag > 0:
            upper.append(z)
        else:
            lower.append(z)
    candidates = sorted(
        (
            (abs(u - l.conjugate()), iu, il)
            for iu, u in enumerate(upper)
            for il, l in enumerate(lower)
        ),
    )
    used_u, used_l = set(), set()
    out = list(reals)
    for dist, iu, il in candidates:
        if iu in used_u or il in used_l:
            continue
        if dist > 1e-3 * (1.0 + abs(upper[iu])):
            continue
        used_u.add(iu)
        used_l.add(il)
        avg = (upper[iu] + lower[il].conjugate()) / 2.0
        out.extend([avg, avg.conjugate()])
    for iu, u in enumerate(upper):
        if iu not in used_u:
            out.append(complex(u.real, 0.0))
    for il, l in enumerate(lower):
        if il not in used_l:
            out.append(complex(l.real, 0.0))
    return out


def find_roots(p: RationalPolynomial) -> list[complex]:
    """All complex roots of p with multiplicity, as doubles sorted by (re, im).

    Zero roots are split off exactly.  Runs the simultaneous iteration first
    with a conjugate-symmetric start (exactly two or three points on the real
    axis, matching the generic real root count of a real polynomial of that
    parity), falling back to an asymmetric start with conjugate post-pairing.
    Each run stops after DEFAULT_MAX_ITER sweeps, or sooner once its steps
    fall below DEFAULT_STEP_TOL, or below 1e-8 with the residual gate met.  A
    root list is accepted when every scaled residual |p(z)| / sum |c_i||z|^i
    is at most DEFAULT_RESIDUAL_TOL; otherwise RootFindingError carries the
    best iterate.
    """
    return _find_roots_batch([p])[0]


def _find_roots_batch(polys: Sequence[RationalPolynomial]) -> list[list[complex]]:
    # find_roots for each polynomial in turn.  The polynomials of one reduced
    # degree m >= 3 run in blocks whose Horner columns fit _BLOCK_BYTES: one
    # symmetric sweep per block, then one polish of its accepted rows.  The
    # cluster check and the asymmetric fallback then run per polynomial in
    # order, so the first one that fails raises.
    reduced = []
    for p in polys:
        exact = p.coefficients
        if len(exact) < 2:
            raise ValueError("root finding requires degree >= 1")
        valuation = next(i for i, c in enumerate(exact) if c != 0)
        coeffs = np.array([float(c) for c in exact[valuation:]], dtype=float)
        reduced.append((valuation, coeffs / coeffs[-1]))
    by_degree: dict[int, list[int]] = {}
    for i, (_, coeffs) in enumerate(reduced):
        if len(coeffs) > 3:
            by_degree.setdefault(len(coeffs) - 1, []).append(i)
    swept = {}
    for m, rows in by_degree.items():
        size = max(1, _BLOCK_BYTES // (64 * m * (m + 1)))
        for block in (rows[i : i + size] for i in range(0, len(rows), size)):
            coeffs = np.array([reduced[i][1] for i in block])
            radii = [_newton_polygon_radii(c) for c in coeffs]
            starts = [_initial_points(r, symmetric=True) for r in radii]
            # The real slots and conjugate pairs depend only on m.
            _, real_slots, pairs = starts[0]
            z0 = np.array([z for z, _, _ in starts])
            z, ok = _aberth_sweeps(coeffs, z0, real_slots, pairs)
            if ok.any():
                z[ok] = _newton_polish(coeffs[ok], z[ok])
            swept.update(zip(block, zip(radii, z, ok)))
    return [
        _finish_roots(valuation, coeffs, swept.get(i))
        for i, (valuation, coeffs) in enumerate(reduced)
    ]


def _finish_roots(valuation: int, coeffs: np.ndarray, swept: Optional[tuple]) -> list[complex]:
    # Degrees 1 and 2 by closed form; otherwise keep the polished sweep, or
    # sweep again from an asymmetric start when it fails the checks.
    m = len(coeffs) - 1
    rest = []
    if m == 1:
        rest = [complex(-coeffs[0])]
    elif m == 2:
        rest = _quadratic_roots(coeffs[0], coeffs[1], coeffs[2])
    elif m > 2:
        radii, z, ok = swept
        if not ok or not _cluster_consistent(coeffs, z):
            z0, _, _ = _initial_points(radii, symmetric=False)
            z, _ = _aberth_sweeps(coeffs[None], z0[None], [], [])
            z = np.array(_pair_output(_newton_polish(coeffs[None], z)[0]), dtype=complex)
            residuals = _scaled_residuals(coeffs[None], z[None])[0]
            if not (residuals <= DEFAULT_RESIDUAL_TOL).all() or not _cluster_consistent(coeffs, z):
                raise RootFindingError(
                    f"no convergence after {DEFAULT_MAX_ITER} iterations "
                    f"(worst residual {float(residuals.max()):.3e})",
                    list(z),
                    [float(r) for r in residuals],
                )
        rest = [complex(v.real + 0.0, v.imag + 0.0) for v in z]
    return sorted([complex(0.0)] * valuation + rest, key=lambda c: (c.real, c.imag))


# ---------------------------------------------------------------------------
# exact real-root counting


def _sturm_chain(p: RationalPolynomial) -> list[RationalPolynomial]:
    chain = [p, p.derivative()]
    while not chain[-1].is_zero and chain[-1].degree >= 1:
        rem = chain[-2].divmod(chain[-1])[1]
        if rem.is_zero:
            break
        chain.append(-rem)
    return [q for q in chain if not q.is_zero]


def _sign_at(q: RationalPolynomial, x) -> int:
    if x in ("-inf", "+inf"):
        s = 1 if q.leading_coefficient > 0 else -1
        return -s if x == "-inf" and q.degree % 2 else s
    v = q(Fraction(x))
    return 0 if v == 0 else (1 if v > 0 else -1)


def _variations(chain: Sequence[RationalPolynomial], x) -> int:
    signs = [s for s in (_sign_at(q, x) for q in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


Endpoint = Optional[Union[int, Fraction]]


def sturm_real_root_count(
    p: RationalPolynomial, interval: tuple[Endpoint, Endpoint] = (None, None)
) -> int:
    """Number of distinct real roots of p in the half-open interval (a, b].

    None endpoints mean -infinity / +infinity.  The count is exact: the
    Sturm chain is built on the square-free part with Fraction arithmetic.
    Root multiplicities are available separately from real_root_multiplicities.
    """
    if p.is_zero:
        raise ValueError("the zero polynomial has no root count")
    sf = p.squarefree_part()
    if sf.degree < 1:
        return 0
    a, b = interval
    lo = "-inf" if a is None else Fraction(a)
    hi = "+inf" if b is None else Fraction(b)
    if lo != "-inf" and hi != "+inf" and lo > hi:
        raise ValueError("empty interval")
    chain = _sturm_chain(sf)
    return _variations(chain, lo) - _variations(chain, hi)


def real_root_multiplicities(p: RationalPolynomial) -> dict[int, int]:
    """Map multiplicity -> number of distinct real roots with that multiplicity.

    Square-free (Yun) decomposition over the rationals, then one Sturm count
    per multiplicity layer.
    """
    if p.degree < 1:
        return {}
    d = p.gcd(p.derivative())
    b = p.divmod(d)[0]
    c = p.derivative().divmod(d)[0]
    out: dict[int, int] = {}
    i = 1
    while b.degree >= 1:
        d1 = c - b.derivative()
        a = b.gcd(d1)
        if a.degree >= 1:
            count = sturm_real_root_count(a)
            if count:
                out[i] = count
        b = b.divmod(a)[0]
        c = d1.divmod(a)[0]
        i += 1
    return out


# ---------------------------------------------------------------------------
# root loci


@dataclass(frozen=True)
class RootLocus:
    """Per-k roots of P(I)(k,t), matched into trajectories across k.

    roots[k] is ordered by trajectory, so trajectory t is the sequence
    roots[k][t] over the krange.  escape_index[k] is the designated
    unbounded root position once a real root dominates (plotting heuristic).
    """

    krange: tuple[int, ...]
    roots: dict[int, tuple[complex, ...]]
    residuals: dict[int, tuple[float, ...]]
    escape_index: dict[int, Optional[int]]
    escape_trajectory: Optional[int]

    @property
    def degree(self) -> int:
        return len(self.roots[self.krange[0]])

    def to_csv(self) -> str:
        lines = ["k,root_index,re,im,trajectory_id,is_escape"]
        for k in self.krange:
            esc = self.escape_index[k]
            for t, z in enumerate(self.roots[k]):
                flag = 1 if esc == t else 0
                lines.append(f"{k},{t},{z.real!r},{z.imag!r},{t},{flag}")
        return "\n".join(lines) + "\n"


def _match_order(prev: Sequence[complex], cur: Sequence[complex]) -> list[complex]:
    # Greedy nearest-neighbor continuation, ties broken by smaller indices:
    # a stable sort of the row-major distances ranks the pairs by
    # (|p - c|, i, j), taken until every trajectory has its partner.
    # Python's sort, since numpy's maps its sort code into the process.
    dist = np.abs(np.subtract.outer(np.array(prev), np.array(cur))).ravel().tolist()
    assignment: dict[int, complex] = {}
    used_cur = set()
    for flat in sorted(range(len(dist)), key=dist.__getitem__):
        i, j = divmod(flat, len(cur))
        if i in assignment or j in used_cur:
            continue
        used_cur.add(j)
        assignment[i] = cur[j]
        if len(assignment) == len(prev):
            break
    return [assignment[i] for i in range(len(prev))]


def root_locus(profile: KodiyalamProfile, krange: Iterable[int]) -> RootLocus:
    """Roots of the Betti polynomial for each k, with trajectory matching.

    The escape root at a given k is the real root of largest modulus once
    its modulus exceeds twice that of every other root.
    """
    ks = sorted(set(krange))
    if not ks or ks[0] < 1:
        raise ValueError("krange must contain positive integers")
    roots: dict[int, tuple[complex, ...]] = {}
    residuals: dict[int, tuple[float, ...]] = {}
    escape: dict[int, Optional[int]] = {}
    polys = [betti_polynomial_at(profile, k, allow_unstabilized=True) for k in ks]
    ordered_by_k = []
    for found in _find_roots_batch(polys):
        ordered_by_k.append(found if not ordered_by_k else _match_order(ordered_by_k[-1], found))
    # Every polynomial is monic of degree apd, so one pass takes all residuals.
    coeffs = np.array([[float(c) for c in poly.coefficients] for poly in polys])
    res_by_k = _scaled_residuals(coeffs, np.array(ordered_by_k, dtype=complex))
    for k, ordered, res in zip(ks, ordered_by_k, res_by_k):
        roots[k] = tuple(ordered)
        residuals[k] = tuple(float(r) for r in res)
        esc = None
        real_idx = [t for t, z in enumerate(ordered) if z.imag == 0.0]
        if real_idx:
            t_big = max(real_idx, key=lambda t: abs(ordered[t]))
            others = [abs(z) for t, z in enumerate(ordered) if t != t_big]
            if not others or abs(ordered[t_big]) > 2.0 * max(others):
                esc = t_big
        escape[k] = esc
    return RootLocus(
        krange=tuple(ks),
        roots=roots,
        residuals=residuals,
        escape_index=escape,
        escape_trajectory=escape[ks[-1]],
    )
