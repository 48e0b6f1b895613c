"""Hot numeric kernels: the Fourier transform of the control register, one
column per function-register content, and the gate-level transform kept as
its independent oracle. Both act along axis 0 of a (q, m) matrix.

`dft_columns` evaluates the defining sum
out[c, j] = (1/sqrt(q)) * sum_a exp(2*pi*i*a*c/q) * cols[a, j]
for every column in one batched radix-2 FFT (O(q log q) per column).
`qft_gates` applies the same unitary as a circuit of Hadamard stages,
conditional phase rotations and a bit-order reversal, sharing no code with
the FFT.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=16)
def bit_reverse_permutation(s: int) -> np.ndarray:
    """perm[a] = the s-bit reversal of a."""
    q = 1 << s
    perm = np.zeros(q, dtype=np.int64)
    for b in range(s):
        perm |= ((np.arange(q) >> b) & 1) << (s - 1 - b)
    perm.setflags(write=False)
    return perm


def dft_columns(cols: np.ndarray) -> np.ndarray:
    """Length-q transform of each column of a (q, m) matrix.

    numpy's inverse FFT carries the exp(+2*pi*i*a*c/q) sign, and "ortho"
    scaling gives the 1/sqrt(q) factor of the defining sum.
    """
    return np.fft.ifft(cols, axis=0, norm="ortho")


def qft_gates(mat: np.ndarray, s: int) -> np.ndarray:
    """Gate-level transform on the control axis of a (q, right) matrix: one Hadamard stage
    per control qubit, conditional phase rotations between qubit pairs, then a bit-order
    reversal. Consumes its input; the pipeline passes only its (q, m) occupied columns."""
    q, right = mat.shape
    assert q == 1 << s
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    a_bits = np.arange(q)
    for j in range(s):
        p = s - 1 - j
        view = mat.reshape(-1, 2, 1 << p, right)
        hi = view[:, 0].copy()
        lo = view[:, 1]
        view[:, 0] = (hi + lo) * inv_sqrt2
        view[:, 1] = (hi - lo) * inv_sqrt2
        for k in range(2, s - j + 1):
            pc = p - (k - 1)
            w = np.exp(2j * np.pi / (1 << k))
            mask = (((a_bits >> p) & 1) & ((a_bits >> pc) & 1)).astype(bool)
            mat[mask] *= w
    return mat[bit_reverse_permutation(s)]
