"""Face codes from every subset's cell, the reference for resolution_engine._face_codes.

Every lattice point reads all 2^n cells key - offsets[F] of the grid table,
one 2-D gather per chunk of keys, with no shortcut for points whose complex
is a full simplex.
"""
import numpy as np

from bettipowers.resolution_engine import _CHUNK_CELLS


def face_codes_reference(space, keys, table):
    """The 2^n-bit face code of each key: bit F set when F is a face of its upper Koszul complex.

    At a lattice point a, x^(a-F) lies in the ideal exactly when rank_j >= 1
    for j in F and key - sum_{j in F} w_j lies in U, the generators'
    up-closure: the top bit of the grid table.  A face off the support reads
    the table's last cell, which is 0.
    """
    n = len(space.radices)
    top = 1 << sum(r > 1 for r in space.radices)
    subsets = np.arange(1 << n)
    members = subsets >> np.arange(n)[:, None] & 1
    within = (subsets & ~subsets[:, None]) == 0  # within[s, F]: F lies in s
    code = np.dtype(f"<u{max(1, (1 << n) // 8)}")
    offsets = (space.weights @ members).astype(np.int32)
    radices = np.array(space.radices, dtype=np.int32)
    step = max(1, _CHUNK_CELLS >> n)
    packed = []
    for at in range(0, len(keys), step):
        chunk = keys[at:at + step, None]
        positive = chunk // space.weights % radices != 0
        support = np.packbits(positive, axis=1, bitorder="little")[:, 0]
        cells = np.where(within[support], chunk - offsets, space.size)
        packed.append(np.packbits(table[cells] >= top, axis=1, bitorder="little"))
    return np.concatenate(packed).view(code).ravel()
