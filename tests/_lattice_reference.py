"""Pure-Python lcm lattice that resolution_engine.lcm_lattice is checked against."""
from bettipowers.resolution_engine import DEFAULT_LATTICE_CAP, ResourceLimitError


def lcm_lattice_reference(I, max_size=DEFAULT_LATTICE_CAP):
    """Join-closure of the generators as a sorted list of exponent tuples.

    Joins every point found with every generator, one frontier at a time,
    and raises the engine's ResourceLimitError as soon as a join is added
    beyond max_size points.
    """
    gens = list(I.generators)
    seen = set(gens)
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
