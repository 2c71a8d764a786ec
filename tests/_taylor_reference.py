"""The per-map Taylor loop that resolution_engine.taylor_betti is checked against.

Subset lcms come from a recursive cache over exponent tuples, subsets from
itertools.combinations, and every boundary map is ranked over the one field
asked for: no numpy, no rank coding, and no ranks certified from another
field.  Each row is built entry by entry as the signed bit row (plus, minus)
that rank_over takes, with no batches.  The ranks themselves come from
resolution_engine.rank_over, whose kernels are checked against the dense
ones in _dense_rank.
"""
import itertools
from functools import lru_cache

from bettipowers.resolution_engine import CoefficientField, rank_over


def taylor_betti_reference(I, field: CoefficientField) -> tuple[int, ...]:
    """Betti totals of S/I over the field, from the Taylor complex."""
    m, n = len(I.generators), I.nvars
    gens = I.generators

    @lru_cache(maxsize=None)
    def lcm_of(mask):
        if mask == 0:
            return (0,) * n
        low = mask & -mask
        return tuple(map(max, gens[low.bit_length() - 1], lcm_of(mask ^ low)))

    subsets = {
        size: [sum(1 << g for g in c) for c in itertools.combinations(range(m), size)]
        for size in range(m + 1)
    }
    # ranks[s]: rank of the differential out of T_s; it vanishes into T_0
    # modulo the maximal ideal, and T_(m+1) is zero.
    ranks = {1: 0, m + 1: 0}
    for size in range(2, m + 1):
        lower = {s: j for j, s in enumerate(subsets[size - 1])}
        columns = []
        for s in subsets[size]:
            plus = minus = 0  # the columns of the +1 and of the -1 entries
            sign, rest = 1, s
            while rest:
                bit = rest & -rest
                rest ^= bit
                if lcm_of(s ^ bit) == lcm_of(s):
                    if sign > 0:
                        plus |= 1 << lower[s ^ bit]
                    else:
                        minus |= 1 << lower[s ^ bit]
                sign = -sign
            columns.append((plus, minus))
        ranks[size] = rank_over(columns, len(lower), field)
    betti = [1] + [len(subsets[i]) - ranks[i] - ranks[i + 1] for i in range(1, m + 1)]
    assert not any(betti[n + 1:]), betti
    return tuple(betti[: n + 1] + [0] * (n + 1 - len(betti)))
