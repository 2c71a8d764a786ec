"""The face-listing homology that resolution_engine._homology_dims_cached is checked against.

Every nonempty face below each maximal face is listed, whatever it costs,
and the reduced homology is read off the boundary ranks: no nerve.  The
ranks come from resolution_engine.rank_over, whose kernels are checked
against the dense ones in _dense_rank.
"""
from bettipowers.resolution_engine import CoefficientField, rank_over


def homology_reference(n: int, maximal_faces, characteristic: int) -> tuple[int, ...]:
    """Reduced homology dims, indexed by j+1 for j = -1..n-1, of the complex
    on n vertices with these maximal faces (bit masks), over F_char (Q for 0)."""
    faces = set()
    for M in maximal_faces:
        sub = M
        while sub:
            faces.add(sub)
            sub = (sub - 1) & M
    faces_by_dim = [[] for _ in range(n)]
    for f in sorted(faces):
        faces_by_dim[bin(f).count("1") - 1].append(f)
    # rank[j+1] is the rank of the boundary map out of C_j for j = -1..n.
    rank = [0] * (n + 2)
    rank[1] = 1 if faces else 0
    for j in range(1, n):
        lower = {f: i for i, f in enumerate(faces_by_dim[j - 1])}
        columns = []
        for f in faces_by_dim[j]:
            signed, sign, rest = [0, 0], 0, f
            while rest:
                bit = rest & -rest
                signed[sign] |= 1 << lower[f ^ bit]
                sign, rest = sign ^ 1, rest ^ bit
            columns.append(tuple(signed))
        rank[j + 1] = rank_over(columns, len(lower), CoefficientField(characteristic))
    counts = [1] + [len(fs) for fs in faces_by_dim]
    return tuple(counts[i] - rank[i] - rank[i + 1] for i in range(n + 1))


def nerve_is_cheaper(n: int, maximal_faces) -> bool:
    """Whether the engine lists the nerve of these maximal faces: none is
    empty, and sum_v 2^|M_v| (M_v the faces through v) is below sum_F 2^|F|."""
    if not all(maximal_faces):
        return False
    through = [sum(1 for M in maximal_faces if M >> v & 1) for v in range(n)]
    return sum(2**t for t in through) < sum(2 ** bin(M).count("1") for M in maximal_faces)
