"""Exact multigraded Betti numbers of monomial quotients.

Two independent routes are provided.  The main engine evaluates reduced
simplicial homology of upper Koszul complexes at the points of the lcm
lattice; the oracle computes ranks in the Taylor complex tensored with the
field.  Both work in exact arithmetic (fraction-free integer elimination for
characteristic zero, modular elimination for prime fields) and share the
vertex order and boundary sign convention.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .monomial_core import ExponentVector, MonomialIdeal

DEFAULT_LATTICE_CAP = 1 << 20
DEFAULT_TAYLOR_CAP = 16
# Elements that one batch holds at a time: points x generators x variables
# in the lattice closure, points x generators in the face assembly.
_CHUNK_CELLS = 1 << 15


class ResourceLimitError(RuntimeError):
    """A configured size cap (lattice size, generator count) was exceeded."""


class EngineInvariantError(RuntimeError):
    """An internal consistency check on computed Betti data failed."""


_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin test; these bases decide every p < 3.3e24."""
    if p < 2 or any(p % b == 0 for b in _MILLER_RABIN_BASES):
        return p in _MILLER_RABIN_BASES
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2^s with d odd
    d = (p - 1) >> s
    return not any(
        pow(b, d, p) != 1 and all(pow(b, d << r, p) != p - 1 for r in range(s))
        for b in _MILLER_RABIN_BASES
    )


@dataclass(frozen=True)
class CoefficientField:
    """Coefficient field: the rationals (characteristic 0) or a prime field F_p."""

    characteristic: int = 0

    def __post_init__(self):
        p = self.characteristic
        if p == 0:
            return
        if p >= 1 << 64:
            raise ValueError(f"characteristic must be below 2^64, got {p}")
        if not _is_prime(p):
            raise ValueError(f"characteristic must be 0 or a prime, got {p}")

    @property
    def is_rational(self) -> bool:
        return self.characteristic == 0

    @classmethod
    def parse(cls, label: str) -> "CoefficientField":
        """Accepts "q" / "0" for the rationals or a prime such as "2"."""
        if label.strip().lower() in ("q", "0", "rational", "rationals"):
            return cls(0)
        return cls(int(label))

    def __str__(self) -> str:
        return "q" if self.is_rational else str(self.characteristic)


RATIONALS = CoefficientField(0)
GF2 = CoefficientField(2)


def rank_integer(rows: Sequence[Sequence[int]], ncols: int) -> int:
    """Rank over the rationals of an integer matrix, by Bareiss elimination.

    Fraction-free: every division is exact, so the arithmetic stays in the
    integers regardless of pivot growth.
    """
    M = [list(r) for r in rows]
    m = len(M)
    rank = 0
    prev = 1
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, m) if M[r][col] != 0), None)
        if piv is None:
            continue
        M[row], M[piv] = M[piv], M[row]
        p = M[row][col]
        for r in range(row + 1, m):
            mr = M[r]
            mrc = mr[col]
            if mrc == 0 and prev == 1 and p == 1:
                continue
            top = M[row]
            for c in range(col, ncols):
                mr[c] = (mr[c] * p - mrc * top[c]) // prev
        prev = p
        rank += 1
        row += 1
        if row == m:
            break
    return rank


def rank_mod_p(rows: Sequence[Sequence[int]], ncols: int, p: int) -> int:
    """Rank of an integer matrix over the prime field F_p."""
    M = [[x % p for x in r] for r in rows]
    m = len(M)
    rank = 0
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, m) if M[r][col]), None)
        if piv is None:
            continue
        M[row], M[piv] = M[piv], M[row]
        inv = pow(M[row][col], p - 2, p)
        M[row] = [(x * inv) % p for x in M[row]]
        top = M[row]
        for r in range(row + 1, m):
            f = M[r][col]
            if f:
                M[r] = [(a - f * b) % p for a, b in zip(M[r], top)]
        rank += 1
        row += 1
        if row == m:
            break
    return rank


def rank_over(rows: Sequence[Sequence[int]], ncols: int, F: CoefficientField) -> int:
    if not rows or ncols == 0:
        return 0
    if F.is_rational:
        return rank_integer(rows, ncols)
    return rank_mod_p(rows, ncols, F.characteristic)


def _maximal_masks(masks: Iterable[int]) -> tuple[int, ...]:
    distinct = sorted(set(masks), key=lambda m: (-bin(m).count("1"), m))
    out: list[int] = []
    for m in distinct:
        if not any(m & big == m for big in out):
            out.append(m)
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def _homology_dims_cached(
    n: int, maximal_faces: tuple[int, ...], characteristic: int
) -> tuple[int, ...]:
    # Reduced homology dims over F_char (Q for 0) of the complex with these
    # maximal faces, indexed by j+1 for j = -1..n-1.  Boundary matrices use
    # d[v_0 < ... < v_j] = sum_t (-1)^t [.. v_t omitted ..].  The augmentation
    # C_{-1} = K is always present, so the void complex has H~_{-1} = K.
    F = CoefficientField(characteristic)
    faces: set[int] = set()
    for M in maximal_faces:
        sub = M
        while sub:  # every nonempty face below M
            faces.add(sub)
            sub = (sub - 1) & M
    faces_by_dim: list[list[int]] = [[] for _ in range(n)]
    for f in sorted(faces):
        faces_by_dim[bin(f).count("1") - 1].append(f)
    # rank[j+1] is the rank of the boundary map out of C_j for j = -1..n: a
    # vertex maps onto the empty face, and C_{-1} and C_n map to zero.
    rank = [0] * (n + 2)
    rank[1] = 1 if faces else 0
    for j in range(1, n):
        upper = faces_by_dim[j]
        if not upper:
            break
        lower = {f: i for i, f in enumerate(faces_by_dim[j - 1])}
        mat = [[0] * len(upper) for _ in lower]
        for ci, f in enumerate(upper):
            sign = 1
            for v in range(n):
                bit = 1 << v
                if f & bit:
                    mat[lower[f ^ bit]][ci] = sign
                    sign = -sign
        rank[j + 1] = rank_over(mat, len(upper), F)
    counts = [1] + [len(fs) for fs in faces_by_dim]
    return tuple(counts[i] - rank[i] - rank[i + 1] for i in range(n + 1))


def lcm_lattice(
    I: MonomialIdeal, max_size: int = DEFAULT_LATTICE_CAP
) -> list[ExponentVector]:
    """Join-closure of the generators under componentwise max, sorted.

    Every multidegree with a nonzero Betti number in homological index >= 1
    lies in this set.  Raises ResourceLimitError beyond max_size elements.
    """
    gens = I.generators
    # Every coordinate of a join is some generator's value there, so each
    # point is coded by the ranks of its coordinates among those values,
    # packed into one mixed-radix key whose order is lexicographic order.
    values = [sorted(set(column)) for column in zip(*gens)]
    radices = [len(v) for v in values]
    if math.prod(radices) >= 1 << 63:
        return _lcm_lattice_python(I, max_size)
    weights = np.array(
        [math.prod(radices[j + 1:]) for j in range(len(radices))], dtype=np.int64
    )
    rank_of = [{v: r for r, v in enumerate(vals)} for vals in values]
    R = np.array(
        [[rank[e] for rank, e in zip(rank_of, g)] for g in gens], dtype=np.int64
    )
    keys = R @ weights
    keys.sort()
    # runs: disjoint sorted arrays holding every key found, each more than
    # twice as long as the next, so a chunk is checked against O(log) arrays
    # and every key is re-sorted O(log) times; pending: found keys not yet
    # joined with the generators.
    runs = [keys]
    pending = [keys]
    count = len(keys)
    step = max(1, _CHUNK_CELLS // R.size)
    while pending:
        frontier = pending.pop()[:, None] // weights % radices
        for start in range(0, len(frontier), step):
            joins = (np.maximum(frontier[start:start + step, None, :], R) @ weights).ravel()
            joins.sort()
            new = joins[np.concatenate(([True], joins[1:] != joins[:-1]))]
            for run in runs:
                at = np.searchsorted(run, new)
                at[at == len(run)] = 0
                new = new[run[at] != new]
            if not len(new):
                continue
            count += len(new)
            if count > max_size:
                raise ResourceLimitError(f"lcm lattice exceeds cap of {max_size} elements")
            runs.append(new)
            pending.append(new)
            while len(runs) > 1 and len(runs[-2]) <= 2 * len(runs[-1]):
                merged = np.concatenate((runs.pop(-2), runs.pop()))
                merged.sort()
                runs.append(merged)
    keys = np.concatenate(runs)
    keys.sort()
    columns = [
        list(map(vals.__getitem__, (keys // w % r).tolist()))
        for vals, w, r in zip(values, weights.tolist(), radices)
    ]
    return list(zip(*columns))


def _lcm_lattice_python(
    I: MonomialIdeal, max_size: int = DEFAULT_LATTICE_CAP
) -> list[ExponentVector]:
    # lcm_lattice for inputs whose keys would not fit in int64; the tests
    # compare lcm_lattice against it.
    gens = list(I.generators)
    seen: set[ExponentVector] = set(gens)
    frontier = gens
    while frontier:
        new = set()
        for a in frontier:
            for g in gens:
                j = tuple(map(max, a, g))
                if j not in seen:
                    seen.add(j)
                    new.add(j)
                    if len(seen) > max_size:
                        raise ResourceLimitError(
                            f"lcm lattice exceeds cap of {max_size} elements"
                        )
        frontier = list(new)
    return sorted(seen)


def _upper_koszul_faces(
    G: np.ndarray, points: Sequence[ExponentVector]
) -> Iterator[tuple[int, tuple[int, ...]]]:
    # The upper Koszul complex at a point a has the squarefree s with x^(a-s)
    # in the ideal as faces: one full simplex on {j : g_j < a_j} per generator
    # g dividing x^a (the rows of G).  It is a single nonempty simplex, so
    # contractible, exactly when the OR of these masks is one of them and is
    # not 0.  Numpy finds those points, and only the others are yielded, as
    # (index into points, maximal faces): 2,714 of the 42,047 points of
    # `profile mixed6 --kmax 8`.  D (g divides x^a) and M (the mask, 0 where g
    # does not divide) are points x generators, built one variable at a time.
    # Points become an array one chunk at a time: one array of the whole
    # lattice raised the peak memory of `profile mixed6 --kmax 8` by about 0.7 MiB.
    step = max(1, _CHUNK_CELLS // len(G))
    for start in range(0, len(points), step):
        P = np.array(points[start:start + step], dtype=np.int64)
        D = np.ones((len(P), len(G)), dtype=bool)
        M = np.zeros((len(P), len(G)), dtype=np.int64)
        for j in range(G.shape[1]):
            D &= G[:, j] <= P[:, j, None]
            M |= (G[:, j] < P[:, j, None]) * (1 << j)
        M *= D
        join = np.bitwise_or.reduce(M, axis=1)
        simplex = (join != 0) & (M == join[:, None]).any(axis=1)
        rest = np.flatnonzero(~simplex)
        rows = np.where(D[rest], M[rest], -1).tolist()
        for i, row in zip((rest + start).tolist(), rows):
            yield i, _maximal_masks(mask for mask in row if mask >= 0)


@dataclass(frozen=True)
class BettiTable:
    """Multigraded Betti numbers of S/I over one coefficient field."""

    ideal: MonomialIdeal
    field: CoefficientField
    entries: dict[tuple[int, ExponentVector], int]
    totals: tuple[int, ...]

    def to_csv(self) -> str:
        lines = ["i,multidegree,total_degree,beta"]
        for (i, a), beta in sorted(
            self.entries.items(), key=lambda kv: (kv[0][0], sum(kv[0][1]), kv[0][1])
        ):
            lines.append(f"{i},{':'.join(map(str, a))},{sum(a)},{beta}")
        for i, beta in enumerate(self.totals):
            lines.append(f"{i},*,,{beta}")
        return "\n".join(lines) + "\n"


def betti_table(
    I: MonomialIdeal,
    F: CoefficientField = RATIONALS,
    lattice_cap: int = DEFAULT_LATTICE_CAP,
) -> BettiTable:
    """Betti table of S/I assembled from upper Koszul homology on the lcm lattice.

    beta_{i,a}(S/I) = dim H~_{i-2}(K^a(I)) for i >= 1, plus beta_0 = 1 in
    multidegree zero.  Internal consistency (beta_1 = generator count, Euler
    alternating sum zero) is asserted on the result.
    """
    n = I.nvars
    if n > 63:
        raise ResourceLimitError(f"{n} variables exceed the engine's limit of 63")
    top = max(max(g) for g in I.generators)
    if top >= 1 << 63:
        raise ResourceLimitError(f"exponent {top} is beyond the engine's 64-bit range")
    lattice = lcm_lattice(I, max_size=lattice_cap)
    G = np.array(I.generators, dtype=np.int64)
    entries: dict[tuple[int, ExponentVector], int] = {(0, (0,) * n): 1}
    totals = [0] * (n + 1)
    totals[0] = 1
    char = F.characteristic
    for p, maximal in _upper_koszul_faces(G, lattice):
        a = lattice[p]
        dims = _homology_dims_cached(n, maximal, char)
        for idx, d in enumerate(dims):
            if d:
                i = idx + 1  # homological index: j + 2 with j = idx - 1
                if i <= n:
                    entries[(i, a)] = d
                    totals[i] += d
                else:
                    raise EngineInvariantError(
                        f"homology above the ambient dimension at {a}"
                    )
    if totals[1] != len(I.generators):
        raise EngineInvariantError(
            f"beta_1 = {totals[1]} disagrees with {len(I.generators)} minimal generators"
        )
    if sum((-1) ** i * b for i, b in enumerate(totals)) != 0:
        raise EngineInvariantError("Euler alternating sum of Betti totals is nonzero")
    return BettiTable(I, F, entries, tuple(totals))


def taylor_betti(
    I: MonomialIdeal,
    F: CoefficientField = RATIONALS,
    max_generators: int = DEFAULT_TAYLOR_CAP,
) -> tuple[int, ...]:
    """Betti totals from the Taylor complex tensored with the field.

    Independent oracle for betti_table: the differential entry between a
    generator subset and a facet is +-1 exactly when omitting the generator
    does not change the subset lcm.  Exponential in the generator count.
    """
    m = len(I.generators)
    if m > max_generators:
        raise ResourceLimitError(
            f"{m} generators exceed the Taylor oracle cap of {max_generators}"
        )
    n = I.nvars
    gens = I.generators

    @lru_cache(maxsize=None)
    def lcm_of(mask: int) -> ExponentVector:
        if mask == 0:
            return (0,) * n
        low = mask & (-mask)
        rest = lcm_of(mask ^ low)
        g = gens[low.bit_length() - 1]
        return tuple(map(max, g, rest))

    subsets = {size: list(itertools.combinations(range(m), size)) for size in range(m + 1)}

    def mask_of(subset: tuple[int, ...]) -> int:
        out = 0
        for g in subset:
            out |= 1 << g
        return out

    ranks = {1: 0}  # the differential into T_0 vanishes modulo the maximal ideal
    for size in range(2, m + 1):
        upper = subsets[size]
        lower = {s: j for j, s in enumerate(subsets[size - 1])}
        mat = [[0] * len(upper) for _ in lower]
        for ci, s in enumerate(upper):
            full = lcm_of(mask_of(s))
            for pos in range(size):
                t = s[:pos] + s[pos + 1:]
                if lcm_of(mask_of(t)) == full:
                    mat[lower[t]][ci] = -1 if pos % 2 else 1
        ranks[size] = rank_over(mat, len(upper), F)
    betti = [1]
    for i in range(1, m + 1):
        betti.append(len(subsets[i]) - ranks.get(i, 0) - ranks.get(i + 1, 0))
    for i in range(n + 1, m + 1):
        if betti[i] != 0:
            raise EngineInvariantError(
                f"Taylor homology persists above the ambient dimension at index {i}"
            )
    betti.extend([0] * (n - len(betti) + 1))
    return tuple(betti[: n + 1])
