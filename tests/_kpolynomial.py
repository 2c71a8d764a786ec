"""K-polynomials of monomial quotients, an oracle independent of the Betti engine.

The K-polynomial of S/I is the numerator of its multigraded Hilbert series,
and its coefficient of x^a is sum_i (-1)^i beta_{i,a}(S/I).  It comes from
the pivot recursion K(S/(J + (m))) = K(S/J) - x^m K(S/(J : m)) (Bigatti 1997;
Miller-Sturmfels, Combinatorial Commutative Algebra, ch. 1 and 5), which
computes no rank and never looks at the lcm lattice.  So a lattice point
that the engine wrongly skips or adds shows up as a wrong coefficient.
"""
from collections import defaultdict

from _power_reference import minimalize_reference


def _shift(a, m):
    return tuple(x + y for x, y in zip(a, m))


def k_polynomial(generators, nvars):
    """{exponent: coefficient} of K(S/I), zero coefficients left out."""
    memo = {}

    def k(gens):
        # K(S/(gens)) for a minimal antichain gens; results are never mutated.
        if gens in memo:
            return memo[gens]
        supports = [{j for j, e in enumerate(g) if e} for g in gens]
        if gens and not supports[0]:
            out = {}  # the unit ideal
        elif sum(map(len, supports)) == len(set().union(*supports)):
            # Pairwise coprime generators form a regular sequence, so
            # K = prod (1 - x^g); the products of distinct subsets differ.
            out = {(0,) * nvars: 1}
            for g in gens:
                out = {**out, **{_shift(a, g): -c for a, c in out.items()}}
        else:
            *rest, m = gens
            rest = tuple(rest)
            colon = minimalize_reference(
                tuple(max(x - y, 0) for x, y in zip(g, m)) for g in rest
            )
            out = defaultdict(int, k(rest))
            for a, c in k(colon).items():
                out[_shift(a, m)] -= c
        memo[gens] = out
        return out

    return {a: c for a, c in k(minimalize_reference(generators)).items() if c}


def euler_characteristics(table):
    """{multidegree: sum_i (-1)^i beta_{i,a}} of a BettiTable, zeros left out."""
    out = defaultdict(int)
    for (i, a), beta in table.entries.items():
        out[a] += (-1) ** i * beta
    return {a: c for a, c in out.items() if c}
