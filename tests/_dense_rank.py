"""Dense reference rank kernels that resolution_engine.rank_over is checked against.

Both take the matrix as a list of equal-length integer rows; signed_rows
writes a matrix with entries 0 and +-1 in the rows rank_over takes.
"""
from typing import Sequence


def signed_rows(rows: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    """The signed bit rows (plus, minus) of a matrix with entries 0 and +-1."""
    return [
        (
            sum(1 << c for c, x in enumerate(row) if x == 1),
            sum(1 << c for c, x in enumerate(row) if x == -1),
        )
        for row in rows
    ]


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
