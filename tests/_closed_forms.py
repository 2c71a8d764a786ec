"""Closed forms the tests check the engine against.

The Betti totals of the powers of a regular sequence, and the socle
dimension of an Artinian quotient, counted monomial by monomial.  No command
runs them, so they live with the tests that use them.
"""
from __future__ import annotations

import itertools
import math

from bettipowers.monomial_core import MonomialIdeal, _pure_powers


def closed_form_regular_sequence(n: int, k: int) -> tuple[int, ...]:
    """Betti totals of S/I^k for I generated by a regular sequence of length n.

    The resolution of I^k is an Eagon-Northcott style complex, giving
    beta_i = C(k+n-1, n-i) * C(k-2+i, i-1) for 1 <= i <= n and beta_0 = 1.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    row = [1]
    for i in range(1, n + 1):
        row.append(math.comb(k + n - 1, n - i) * math.comb(k - 2 + i, i - 1))
    return tuple(row)


def socle_dimension(I: MonomialIdeal) -> int:
    """Dimension of the socle of S/I for Artinian I.

    Counts monomials u outside I with u*x_i inside I for every variable; the
    enumeration runs over the finite box spanned by the pure-power generators.
    """
    pure = _pure_powers(I)
    n = I.nvars
    if len(pure) != n:
        raise ValueError("socle enumeration requires an Artinian ideal")
    bounds = [pure[i] for i in range(n)]
    count = 0
    for u in itertools.product(*(range(b) for b in bounds)):
        if I.contains(u):
            continue
        if all(
            I.contains(u[:i] + (u[i] + 1,) + u[i + 1:])
            for i in range(n)
        ):
            count += 1
    return count
