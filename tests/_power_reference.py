"""Pairwise minimal generators, the reference monomial_core.minimalize is checked against."""
import operator


def minimalize_reference(gens):
    """The minimal antichain of these exponent vectors, sorted by (degree, lex).

    Scans the distinct vectors in order of increasing total degree and keeps
    one iff no vector kept before it divides it componentwise.
    """
    out = []
    for g in sorted({tuple(v) for v in gens}, key=lambda v: (sum(v), v)):
        if not any(all(map(operator.le, h, g)) for h in out):
            out.append(g)
    return tuple(out)
