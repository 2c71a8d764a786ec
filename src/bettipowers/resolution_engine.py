"""Exact multigraded Betti numbers of monomial quotients.

Two independent routes are provided.  The main engine evaluates reduced
simplicial homology of upper Koszul complexes at the points of the lcm
lattice; the oracle computes ranks in the Taylor complex tensored with the
field.  Both pass their boundary maps, one signed bit row of +-1 entries
per cell, to a single exact rank kernel (XOR over F_2, bit-sliced over F_3,
decoded rows otherwise) and share the vertex order and sign convention.

The engine codes lattice points as mixed-radix keys over the generators'
distinct values on each axis, and closes the lattice once per call.  The key
space orders its axes by radix, largest outermost, and key order is
lexicographic order over that axis order; decoded points, lcm_lattice rows
and the faces the homology sees are in the ideal's own variable order.  When
that key space has at most GRID_CAP keys, and no more than one grid batch or
the joins m generators can make (min(2^m - 1, the lattice cap) points times
m), one table over the key grid holds both the lattice and the generators'
up-closure; otherwise the closure joins points into sorted runs.
Both enforce DEFAULT_LATTICE_CAP on the points.  Two routes only classify the
points' complexes by their maximal faces: in at most 6 variables when the
grid table closed the lattice, from a 2^n-bit face code per point read from
that table, one group per distinct code (the table route); otherwise from
the generators that divide each point, compared in ranks read off its key
(the mask route).  One downstream skips cones, runs the homology once per
field and complex, and adds the totals; the homology lists the faces of the
complex or of the nerve of its maximal faces, whichever is fewer.  The two
routes give the same tables.  Only betti_table decodes points, those with
homology, in one call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import islice
from operator import and_
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from .monomial_core import ExponentVector, MonomialIdeal

# Size caps, read at call time: lattice points, grid-table cells (the key
# space the grid may cover), and Taylor generators.
DEFAULT_LATTICE_CAP = 1 << 20
GRID_CAP = 1 << 24
DEFAULT_TAYLOR_CAP = 16
# Batch size in elements.  A lattice-closure batch and a face-assembly batch
# take _CHUNK_CELLS // generators points, whose temporaries are points x
# generators; a face-code batch takes _CHUNK_CELLS // n points, whose
# temporaries are points x n axes, and gathers 2^n cells for at most
# _CHUNK_CELLS >> n points at a time; a grid-table batch is _CHUNK_CELLS cells.
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


def rank_over(rows: Sequence[tuple[int, int]], ncols: int, F: CoefficientField) -> int:
    """Exact rank over F of the matrix with these signed bit rows (plus, minus).

    The bits of plus are the columns of the +1 entries, those of minus the
    -1 entries.  Each row is reduced against the pivot kept for its leading
    column until it vanishes or that column is new.  Over F_2 (plus | minus,
    by XOR) and F_3 a row leads with its highest bit; over F_3 plus and minus
    are the bit planes of 1 and 2, pivots lead with 1, and a row adds a pivot
    or its negation (planes swapped) in seven bit operations (Boothby-Bradshaw
    bit-slicing).  Otherwise a row is decoded to {column: entry}, led by its
    lowest column, and r <- a*r - b*top clears that column, with b/a the
    ratio of the leading entries in lowest terms; then the entries are
    reduced mod p over F_p, and over Q divided by their gcd.  ncols serves
    perfbench/tracer.py, which reads len(rows) * ncols.
    """
    p = F.characteristic
    if p == 2:
        bits: dict[int, int] = {}
        for plus, minus in rows:
            r = plus | minus
            lead = r.bit_length()
            while lead in bits:
                r ^= bits[lead]
                lead = r.bit_length()
            if lead:
                bits[lead] = r
        return len(bits)
    if p == 3:
        planes: dict[int, tuple[int, int]] = {}
        for one, two in rows:
            lead = (one | two).bit_length()
            while lead in planes:
                top_one, top_two = planes[lead]
                if one >> lead - 1:  # r - top = r + (-top)
                    top_one, top_two = top_two, top_one
                t = (one | top_two) ^ (two | top_one)  # r + top, plane by plane
                one, two = (two | top_two) ^ t, (one | top_one) ^ t
                lead = (one | two).bit_length()
            if lead:
                planes[lead] = (one, two) if one >> lead - 1 else (two, one)
        return len(planes)
    pivots: dict[int, dict[int, int]] = {}
    for signed in rows:
        r = {}
        for plane, x in zip(signed, (1, p - 1 if p else -1)):
            while plane:
                low = plane & -plane
                r[low.bit_length() - 1] = x
                plane ^= low
        while r:
            low = min(r)
            top = pivots.get(low)
            if top is None:
                pivots[low] = r
                break
            g = math.gcd(top[low], r[low])
            a, b = top[low] // g, r[low] // g
            if a != 1:
                r = {c: x * a % p if p else x * a for c, x in r.items()}
            for c, x in top.items():
                y = r.get(c, 0) - b * x
                if p:
                    y %= p
                if y:
                    r[c] = y
                else:
                    del r[c]
            if not p:
                g = math.gcd(*r.values())
                if g > 1:
                    r = {c: x // g for c, x in r.items()}
    return len(pivots)


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
    # Listing the faces below a maximal face F takes 2^|F| steps.  When no F
    # is empty, the nerve (vertex i for the i-th F; its faces are the subsets
    # of some M_v, the F through vertex v) has the same reduced homology, as
    # an intersection of simplices is a simplex or empty (the nerve lemma), so
    # it is listed instead when sum_v 2^|M_v| is below sum_F 2^|F|.
    F = CoefficientField(characteristic)
    vertices, tops = n, maximal_faces
    if all(maximal_faces):
        through = [sum(1 << i for i, M in enumerate(maximal_faces) if M >> v & 1) for v in range(n)]
        if sum(1 << M.bit_count() for M in through) < sum(1 << M.bit_count() for M in tops):
            vertices, tops = len(maximal_faces), through
    faces: set[int] = set()
    for M in tops:
        sub = M
        while sub:  # every nonempty face below M
            faces.add(sub)
            sub = (sub - 1) & M
    faces_by_dim: list[list[int]] = [[] for _ in range(vertices)]
    for f in sorted(faces):
        faces_by_dim[f.bit_count() - 1].append(f)
    # rank[j+1] is the rank of the boundary map out of C_j for j = -1..vertices:
    # a vertex maps onto the empty face, and the ends map to zero.
    rank = [0] * (vertices + 2)
    rank[1] = 1 if faces else 0
    for j in range(1, vertices):
        upper = faces_by_dim[j]
        if not upper:
            break
        lower = {f: i for i, f in enumerate(faces_by_dim[j - 1])}
        columns = []
        for f in upper:
            signed, sign, rest = [0, 0], 0, f
            while rest:  # the vertices of f, in ascending order
                bit = rest & -rest
                signed[sign] |= 1 << lower[f ^ bit]
                sign, rest = sign ^ 1, rest ^ bit
            columns.append(tuple(signed))
        rank[j + 1] = rank_over(columns, len(lower), F)
    counts = [1] + [len(fs) for fs in faces_by_dim]
    dims = tuple(counts[i] - rank[i] - rank[i + 1] for i in range(vertices + 1))
    return (dims + (0,) * n)[: n + 1]


class _KeySpace:
    """Mixed-radix keys for the points that joins of the generators reach.

    Every coordinate of a join is some generator's value there, so a point is
    coded by the ranks of its coordinates among those values, packed into one
    key.  The space's axes are the ideal's variables stably sorted by radix,
    largest outermost (order[i] is the variable of axis i, None when that is
    the identity), so the grid's strided axes are its smallest; radices,
    weights and ranks follow that order, and key order is lexicographic order
    over it.  Keys are int64 while the space's size, the radix product, is
    below 2^63, and exact Python ints (an object array) past it.  Raises
    ResourceLimitError when an exponent does not fit in int64.
    """

    def __init__(self, gens: Sequence[ExponentVector]):
        top = max(max(g) for g in gens)
        if top >= 1 << 63:
            raise ResourceLimitError(f"exponent {top} is beyond the engine's 64-bit range")
        values = [sorted(set(column)) for column in zip(*gens)]
        order = sorted(range(len(values)), key=lambda j: -len(values[j]))
        self.order = None if order == list(range(len(order))) else order
        if self.order is not None:
            values = [values[j] for j in order]
            gens = [[g[j] for j in order] for g in gens]
        self.values = values
        self.radices = [len(v) for v in values]
        self.size = math.prod(self.radices)
        key = np.int64 if self.size < 1 << 63 else object
        self.weights = np.array(
            [math.prod(self.radices[j + 1:]) for j in range(len(self.radices))], dtype=key
        )
        rank_of = [{v: r for r, v in enumerate(vals)} for vals in values]
        self.ranks = np.array(
            [[rank[e] for rank, e in zip(rank_of, g)] for g in gens], dtype=key
        )
        self.generator_keys = self.ranks @ self.weights

    def decode(self, keys: np.ndarray) -> np.ndarray:
        """The exponent rows of these keys, as a (len(keys), n) int64 array.

        Its columns are the ideal's variables in the ideal's own order."""
        # One column at a time, so no temporary is (N, n).
        rows = np.empty((len(keys), len(self.values)), dtype=np.int64)
        columns = self.order or range(len(self.values))
        for j, vals, w, r in zip(columns, self.values, self.weights.tolist(), self.radices):
            codes = (keys // w % r).astype(np.intp, copy=False)
            rows[:, j] = np.array(vals, dtype=np.int64)[codes]
        return rows


def _grid_table(space: _KeySpace) -> tuple[np.ndarray, np.ndarray]:
    """Sorted keys of the join-closure of a key space, and its grid table.

    A point a is a join of generators exactly when, on each axis j, some
    generator g <= a has g_j = a_j.  Cell a of the table has that bit for each
    axis of radix >= 2, and a top bit (the up-closure U) when some generator
    divides a, so the keys are the cells with every bit set; the last cell
    stays 0.  A table of at most GRID_CAP cells has at most 24 such axes: uint32.
    Like _join_closure, raises ResourceLimitError when the joins beyond the
    generators take the lattice past DEFAULT_LATTICE_CAP points.
    """
    swept = [(w, r) for w, r in zip(space.weights.tolist(), space.radices) if r > 1]
    full = (2 << len(swept)) - 1
    table = np.zeros(space.size + 1, dtype=np.min_scalar_type(full))
    table[space.generator_keys] = full
    item = table.itemsize
    carry = np.empty(space.size * item // 2, dtype=np.uint8)  # reused by every axis
    for bit, (w, r) in enumerate(swept):
        # A running OR up the axis carries every bit but the axis's own.  Runs
        # of w cells are read as words of up to 8 bytes, the mask in each cell,
        # so that short runs (2^24 cells on 24 axes of radix 2) stay fast.
        run = w * item
        unit = min(8, run & -run)
        words = table[:-1].view(f"u{unit}")
        spread = sum(1 << 8 * item * k for k in range(unit // item))  # 1 in each cell
        mask = words.dtype.type((full ^ 1 << bit) * spread)
        axis = words.reshape(-1, r, run // unit)
        below = carry[: len(words) // r * unit].view(words.dtype).reshape(-1, run // unit)
        for i in range(1, r):
            np.bitwise_and(axis[:, i - 1], mask, out=below)
            axis[:, i] |= below
    keys, count = [], 0
    most = max(DEFAULT_LATTICE_CAP, len(space.generator_keys))
    for at in range(0, space.size, _CHUNK_CELLS):
        keys.append(np.flatnonzero(table[at:at + _CHUNK_CELLS] == full) + at)
        count += len(keys[-1])
        if count > most:
            raise ResourceLimitError(f"lcm lattice exceeds cap of {DEFAULT_LATTICE_CAP} elements")
    return np.concatenate(keys), table


def _join_closure(space: _KeySpace) -> np.ndarray:
    """Sorted keys of the join-closure of a key space.

    The keys found are kept as sorted runs, and ResourceLimitError is raised
    as soon as a join is added beyond DEFAULT_LATTICE_CAP points.
    """
    # Max commutes with scaling by a positive weight, so the key of a join is
    # the sum over j of max(f_j * w_j, g_j * w_j): one 2-D maximum per variable
    # on the weighted columns, each sum below the radix product.
    weighted = (space.ranks * space.weights).T.copy()
    # runs: disjoint sorted arrays of the keys found, each over twice as long as
    # the next, so a chunk meets O(log) arrays and a key is re-sorted O(log) times.
    runs = [np.sort(space.generator_keys)]
    count = len(space.generator_keys)
    # pending: found points not yet joined with the generators, weighted.
    pending = [weighted]
    step = max(1, _CHUNK_CELLS // len(space.ranks))
    scale = space.weights[:, None]
    radix = np.array(space.radices, dtype=scale.dtype)[:, None]
    while pending:
        frontier = pending.pop()
        for start in range(0, frontier.shape[1], step):
            block = frontier[:, start:start + step, None]
            joins = np.maximum(block[0], weighted[0])
            for f, w in zip(block[1:], weighted[1:]):
                joins += np.maximum(f, w)
            joins = joins.ravel()
            joins.sort()
            new = joins[np.concatenate(([True], joins[1:] != joins[:-1]))]
            for run in runs:
                at = run.searchsorted(new)
                at[at == len(run)] = 0
                new = new[run[at] != new]
            if not len(new):
                continue
            count += len(new)
            if count > DEFAULT_LATTICE_CAP:
                raise ResourceLimitError(
                    f"lcm lattice exceeds cap of {DEFAULT_LATTICE_CAP} elements"
                )
            runs.append(new)
            while len(runs) > 1 and len(runs[-2]) <= 2 * len(runs[-1]):
                merged = np.concatenate((runs.pop(-2), runs.pop()))
                merged.sort()
                runs.append(merged)
            pending.append(new // scale % radix * scale)
    keys = np.concatenate(runs)
    keys.sort()
    return keys


def _closure(space: _KeySpace) -> tuple[np.ndarray, np.ndarray | None]:
    # The sorted keys of the lattice, and the grid table if that closed it.
    # m generators make at most min(2^m - 1, DEFAULT_LATTICE_CAP) points, each
    # joined with m generators, before the closure ends or raises; the grid is
    # swept when its cells are at most GRID_CAP and no more than those joins
    # or one grid batch.
    m = len(space.generator_keys)
    most = max(_CHUNK_CELLS, min((1 << m) - 1, DEFAULT_LATTICE_CAP) * m)
    if space.size <= min(GRID_CAP, most):
        return _grid_table(space)
    return _join_closure(space), None


def lcm_lattice(I: MonomialIdeal) -> np.ndarray:
    """Join-closure of the generators under componentwise max.

    Returns an (N, n) int64 array with one exponent vector per row, the rows
    in lexicographic order.  Every multidegree with a nonzero Betti number in
    homological index >= 1 lies in this set.  Points are closed as
    mixed-radix keys (see _KeySpace), as the Betti engine closes them; keys
    sort lexicographically over the space's axis order, so the rows are
    sorted again when that is not the ideal's.  Raises ResourceLimitError
    beyond DEFAULT_LATTICE_CAP elements, or when an exponent does not fit in
    int64.
    """
    space = _KeySpace(I.generators)
    rows = space.decode(_closure(space)[0])
    return rows if space.order is None else rows[np.lexsort(rows.T[::-1])]


def _upper_koszul_faces(
    G: np.ndarray, points: np.ndarray
) -> Iterator[tuple[int, tuple[int, ...]]]:
    # The upper Koszul complex at a point a has the squarefree s with x^(a-s)
    # in the ideal as faces: one full simplex on {j : g_j < a_j} per generator
    # g dividing x^a (the rows of G).  It is a single nonempty simplex, so
    # contractible, exactly when the OR of these masks is one of them and is
    # not 0.  Numpy finds those points, and only the others are yielded, as
    # (row of points, maximal faces): 2,714 of the 42,047 points of
    # `profile mixed6 --kmax 8`.  D (g divides x^a) and M (the mask, 0 where g
    # does not divide) are points x generators, built one variable at a time.
    # The comparisons run in the narrowest unsigned dtype that holds every
    # exponent of G and of points, and M in the narrowest that holds n bits.
    n = G.shape[1]
    exponents = np.min_scalar_type(max(int(G.max()), int(points.max(initial=0))))
    masks = np.min_scalar_type((1 << n) - 1)
    GT = G.T.astype(exponents)
    PT = points.T.astype(exponents)[:, :, None]
    bits = [masks.type(1 << j) for j in range(n)]
    step = max(1, _CHUNK_CELLS // len(G))
    for start in range(0, len(points), step):
        P = PT[:, start:start + step]
        D = GT[0] <= P[0]
        M = (GT[0] < P[0]) * bits[0]
        for g, p, bit in zip(GT[1:], P[1:], bits[1:]):
            D &= g <= p
            M |= (g < p) * bit
        M *= D
        join = np.bitwise_or.reduce(M, axis=1)
        simplex = (join != 0) & (M == join[:, None]).any(axis=1)
        rest = (~simplex).nonzero()[0]
        rows = np.where(D[rest], M[rest].astype(np.int64), -1).tolist()
        for i, row in zip((rest + start).tolist(), rows):
            yield i, _maximal_masks(mask for mask in row if mask >= 0)


@lru_cache(maxsize=None)
def _subset_tables(n: int) -> tuple[np.ndarray, ...]:
    # Tables over the subsets F of n vertices, as bit masks, for face codes
    # of 2^n bits in the narrowest unsigned dtype that holds them:
    #   members[j, F]: 1 when j lies in F;
    #   within[s, F]: F lies in s;
    #   inside[s]: the code with a bit at each F within s (row s of within);
    #   without[j]: the code with a bit at each F that omits j;
    #   shifts[j]: 2^j, the shift that moves bit F + j onto bit F.
    code = np.dtype(f"<u{max(1, (1 << n) // 8)}")
    subsets = np.arange(1 << n)
    axes = np.arange(n)[:, None]
    members = subsets >> axes & 1
    within = (subsets & ~subsets[:, None]) == 0
    inside = np.packbits(within, axis=1, bitorder="little").view(code).ravel()
    without = np.packbits(members == 0, axis=1, bitorder="little").view(code)
    shifts = (1 << axes).astype(code)
    return members, within, inside, without, shifts


def _face_codes(space: _KeySpace, keys: np.ndarray, table: np.ndarray) -> np.ndarray:
    # Bit F of a point's code is set when F is a face of its upper Koszul
    # complex: 2^n bits, at most 64 for n <= 6.  At a lattice point a, x^(a-F)
    # lies in the ideal exactly when some generator g has g_j < a_j for j in F
    # and g_j <= a_j elsewhere.  In ranks that reads: rank_j >= 1 for j in F,
    # and key - sum_{j in F} w_j lies in U, the generators' up-closure: the
    # top bit of the grid table.  U is an up-set, so when the support s (the
    # j with rank_j >= 1) is a face, so is every F within s: the complex is
    # the full simplex on s, whose code is inside[s] (Miller-Sturmfels Thm.
    # 1.34), read from one cell.  Only the other points gather all 2^n cells;
    # a face off the support reads the table's last cell, 0.
    n = len(space.radices)
    top = 1 << sum(r > 1 for r in space.radices)
    members, within, inside, _, _ = _subset_tables(n)
    # rank_j >= 1 exactly when key mod w_j * r_j is at least w_j, and
    # w_j * r_j is w_(j-1) (the size for j = 0): one remainder per axis.
    offsets = space.weights @ members  # sum of w_j over F
    spans = np.array([space.size, *space.weights.tolist()[:-1]])
    codes = np.empty(len(keys), dtype=inside.dtype)
    step, wide = max(1, _CHUNK_CELLS // n), max(1, _CHUNK_CELLS >> n)
    for at in range(0, len(keys), step):
        chunk = keys[at:at + step]
        positive = chunk[:, None] % spans >= space.weights
        support = np.packbits(positive, axis=1, bitorder="little")[:, 0]
        codes[at:at + step] = inside[support]
        rest = np.flatnonzero(table[chunk - offsets[support]] < top)
        for lo in range(0, len(rest), wide):
            part = rest[lo:lo + wide]
            cells = chunk[part, None] - offsets
            cells[~within[support[part]]] = space.size
            faces = np.packbits(table[cells] >= top, axis=1, bitorder="little")
            codes[at + part] = faces.view(codes.dtype).ravel()
    return codes


def _table_cells(
    space: _KeySpace, keys: np.ndarray, table: np.ndarray, keyed: bool
) -> Iterator[tuple[int, tuple[int, ...], np.ndarray | None]]:
    # The table route: (points, maximal faces in ascending order, their keys
    # if keyed) per distinct face code, grouped by one sort (a stable argsort
    # if keyed).
    n = len(space.radices)
    codes = _face_codes(space, keys, table)
    if keyed:
        order = np.argsort(codes, kind="stable")
        codes, keys = codes[order], keys[order]
    else:
        codes.sort()
    starts = np.flatnonzero(np.concatenate(([True], codes[1:] != codes[:-1])))
    ends = np.append(starts[1:], len(codes))
    distinct = codes[starts]
    # F is a maximal face when no F + j is a face.
    _, _, _, without, shifts = _subset_tables(n)
    above = (distinct >> shifts) & without  # bit F of row j: F + j is a face
    tops = distinct & ~np.bitwise_or.reduce(above, axis=0)
    for lo, hi, top in zip(starts.tolist(), ends.tolist(), tops.tolist()):
        faces = []
        while top:
            faces.append((top & -top).bit_length() - 1)
            top &= top - 1
        yield hi - lo, tuple(faces), keys[lo:hi] if keyed else None


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


def _assemble(
    I: MonomialIdeal, fields: Sequence[CoefficientField], entries: dict | None
) -> list[tuple[int, ...]]:
    # The Betti totals of S/I over each field, checked, and each point's
    # nonzero beta_{i,a} in entries if given, with one field.  Either route
    # yields (points, maximal faces, their keys or None) per complex; a cone
    # (a vertex in every maximal face) is contractible.  The keys of points
    # with homology are decoded for entries only, in one call.
    n = I.nvars
    if n > 63:
        raise ResourceLimitError(f"{n} variables exceed the engine's limit of 63")
    space = _KeySpace(I.generators)
    keys, table = _closure(space)
    if n <= 6 and table is not None:
        cells = _table_cells(space, keys, table, entries is not None)
    else:  # the mask route: divisibility in ranks read off the keys
        ranks = keys[:, None] // space.weights % np.array(space.radices)
        cells = (
            (1, faces, keys[at:at + 1]) for at, faces in _upper_koszul_faces(space.ranks, ranks)
        )
    totals = [[1] + [0] * n for _ in fields]
    groups = []
    moved: dict[int, int] = {}  # a face over the space's axes -> over the variables
    for count, faces, group in cells:
        if reduce(and_, faces):  # a cone
            continue
        if space.order is not None:  # the homology cache sees the ideal's variables
            for face in faces:
                if face not in moved:
                    moved[face] = sum(1 << j for i, j in enumerate(space.order) if face >> i & 1)
            faces = tuple(sorted([moved[face] for face in faces]))
        dims_per_field = [_homology_dims_cached(n, faces, F.characteristic) for F in fields]
        if not any(map(any, dims_per_field)):
            continue
        for total, dims in zip(totals, dims_per_field):
            if dims[n]:  # homological index n + 1
                at = "a lattice point" if group is None else tuple(space.decode(group)[0].tolist())
                raise EngineInvariantError(f"homology above the ambient dimension at {at}")
            for i, d in enumerate(dims, start=1):  # homological index: j + 2 for H~_j
                if d:
                    total[i] += d * count
        if entries is not None:
            groups.append((group, dims_per_field[0]))
    if entries is not None:  # each generator's complex is the empty face alone: not empty
        rows = map(tuple, space.decode(np.concatenate([group for group, _ in groups])).tolist())
        for group, dims in groups:
            points = list(islice(rows, len(group)))
            entries.update(((i, a), d) for i, d in enumerate(dims, start=1) if d for a in points)
    for total in totals:
        if total[1] != len(I.generators):
            raise EngineInvariantError(
                f"beta_1 = {total[1]} disagrees with {len(I.generators)} minimal generators"
            )
        if sum((-1) ** i * b for i, b in enumerate(total)) != 0:
            raise EngineInvariantError("Euler alternating sum of Betti totals is nonzero")
    return [tuple(total) for total in totals]


def betti_table(I: MonomialIdeal, F: CoefficientField = RATIONALS) -> BettiTable:
    """Betti table of S/I assembled from upper Koszul homology on the lcm lattice.

    beta_{i,a}(S/I) = dim H~_{i-2}(K^a(I)) for i >= 1, plus beta_0 = 1 in
    multidegree zero, on the table or the mask route (see the module
    docstring).  Internal consistency (beta_1 = generator count, Euler
    alternating sum zero) is asserted on the result.
    """
    entries: dict[tuple[int, ExponentVector], int] = {(0, (0,) * I.nvars): 1}
    totals = _assemble(I, [F], entries)[0]
    return BettiTable(I, F, entries, totals)


def betti_totals(
    I: MonomialIdeal, F: Union[CoefficientField, Sequence[CoefficientField]] = RATIONALS
) -> Union[tuple[int, ...], list[tuple[int, ...]]]:
    """betti_table(I, F).totals, with the same checks, without the multidegrees.

    No point is decoded; on the table route each distinct face code adds its
    homology dims times its number of points.  Given a sequence of
    fields, returns one totals tuple per field from one lattice and one set
    of complexes; only the homology runs once per field.
    """
    totals = _assemble(I, [F] if isinstance(F, CoefficientField) else list(F), None)
    return totals[0] if isinstance(F, CoefficientField) else totals


def _taylor_maps(gens: Sequence[ExponentVector]) -> Iterator[list[tuple[int, int]]]:
    # d_s for s = 2..m, in signed bit rows.  Row S (a bit mask; masks
    # ascend in each size) has (-1)^(members of S below b) at column S - b
    # where S - b keeps lcm(S).  Exponents are ranked per axis, 0 included:
    # codes fit in uint8, the 2^m lcms take m doubling steps, and lcm(S - b)
    # <= lcm(S) are equal iff their sums are.  A batch of rows packs each sign
    # into at most _CHUNK_CELLS << 3 bytes, and a row reads its bytes up to
    # its last entry.
    m = len(gens)
    codes = np.array([[sorted({0, *c}).index(e) for e in c] for c in zip(*gens)], np.uint8).T
    lcm = np.zeros((1 << m, codes.shape[1]), dtype=np.uint8)
    for b in range(m):
        np.maximum(lcm[: 1 << b], codes[b], out=lcm[1 << b: 2 << b])
    weight = lcm.sum(axis=1, dtype=np.int64)
    size = np.bitwise_count(np.arange(1 << m))
    subsets = [np.flatnonzero(size == s) for s in range(m + 1)]
    bits = 1 << np.arange(m)
    for s in range(2, m + 1):
        width = (len(subsets[s - 1]) + 7) // 8  # bytes per row
        step = max(1, (_CHUNK_CELLS << 3) // width)
        rows = []
        for at in range(0, len(subsets[s]), step):
            S = subsets[s][at:at + step, None]
            faces = S ^ bits
            row, b = ((S & bits != 0) & (weight[faces] == weight[S])).nonzero()
            column = np.searchsorted(subsets[s - 1], faces[row, b])
            sign = np.bitwise_count(S[row, 0] & (bits[b] - 1)) & 1  # 1 for -1
            planes = np.zeros((2, len(S), width), np.uint8)
            np.bitwise_or.at(planes, (sign, row, column >> 3), (1 << (column & 7)).astype(np.uint8))
            start = np.arange(len(S)) * width
            end = start.copy()
            np.maximum.at(end, row, start[row] + (column >> 3) + 1)
            plus, minus = (memoryview(plane.ravel()) for plane in planes)
            rows += [
                (int.from_bytes(plus[i:j], "little"), int.from_bytes(minus[i:j], "little"))
                for i, j in zip(start.tolist(), end.tolist())
            ]
        yield rows


def taylor_betti(
    I: MonomialIdeal, F: Union[CoefficientField, Sequence[CoefficientField]] = RATIONALS
) -> Union[tuple[int, ...], list[tuple[int, ...]]]:
    """Betti totals from the Taylor complex tensored with the field.

    Independent oracle for betti_table: the differential entry between a
    generator subset and a facet is +-1 exactly when omitting the generator
    does not change the subset lcm.  Exponential in the generator count, so
    more than DEFAULT_TAYLOR_CAP generators raise ResourceLimitError.  Given
    a sequence of fields, returns one totals tuple per field from one build
    of each map.  An integer rank only drops mod p, so next to a zero mod-p
    Betti number the F_p ranks hold over Q.  When Q is asked for, every map
    is ranked over F_2; a map that no zero mod-2 Betti number certifies reads
    the F_3 ranks of itself and its neighbours, and is ranked over Q only if
    no zero mod-3 Betti number certifies it either.
    """
    fields = [F] if isinstance(F, CoefficientField) else list(F)
    gens, m, n = I.generators, len(I.generators), I.nvars
    if m > DEFAULT_TAYLOR_CAP:
        raise ResourceLimitError(
            f"{m} generators exceed the Taylor oracle cap of {DEFAULT_TAYLOR_CAP}"
        )
    dims = [math.comb(m, s) for s in range(m + 2)]  # dim T_s
    wanted = {f.characteristic for f in fields}
    every = sorted(wanted - {0} | ({2} if 0 in wanted else set()))  # ranked on every map
    maps: dict[int, list[tuple[int, int]]] = {}  # at most two: Q settles d_(s-1) beside d_s
    memo: dict[tuple[int, int], int] = {}

    def rank(p: int, s: int) -> int:  # of d_s over F_p (Q for 0); d_1 = 0 mod the max ideal
        if (p, s) not in memo:
            memo[p, s] = rank_over(maps[s], dims[s - 1], CoefficientField(p)) if 1 < s <= m else 0
        return memo[p, s]

    def betti(p: int, t: int) -> int:
        return dims[t] - rank(p, t) - rank(p, t + 1)

    built = _taylor_maps(gens)
    for s in range(2, m + 2):
        maps[s] = next(built, [])
        for p in every:
            rank(p, s)
        t = s - 1
        if 0 in wanted and t > 1:
            if betti(2, t):  # the certificate of d_(t+1) may read it
                rank(3, t)
            cert = next((p for p in (2, 3) if not (betti(p, t - 1) and betti(p, t))), 0)
            memo[0, t] = rank(cert, t)
        maps.pop(t, None)
        # Betti numbers are nonzero up to the projective dimension and zero
        # beyond, so past a zero mod-2 one F_2 certifies every later map.
        if not (0 in wanted and betti(2, t)):
            del maps[s]
    betti_of = {p: [betti(p, t) for t in range(m + 1)] for p in wanted}
    if any(any(b[n + 1:]) for b in betti_of.values()):
        raise EngineInvariantError(f"Taylor homology above the ambient dimension: {betti_of}")
    totals = [tuple((betti_of[f.characteristic] + [0] * n)[: n + 1]) for f in fields]
    return totals[0] if isinstance(F, CoefficientField) else totals
