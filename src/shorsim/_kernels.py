"""Hot numeric kernels: the Fourier transform of the control register, one
column per function-register content, and the gate-level transform kept as
its independent oracle. Both act along axis 0 of a (q, m) matrix.

`dft_columns` evaluates the defining sum
out[c, j] = (1/sqrt(q)) * sum_a exp(2*pi*i*a*c/q) * cols[a, j]
for every column in one batched radix-2 FFT (O(q log q) per column).
`qft_gates` applies the same unitary as a circuit of Hadamard stages,
conditional phase rotations and a bit-order reversal, sharing no code with
the FFT. Each kernel transforms the matrix it is handed in place and returns
that same array, so a transform holds one (q, m) buffer.
"""

from __future__ import annotations

import numpy as np


def dft_columns(cols: np.ndarray) -> np.ndarray:
    """Length-q transform of each column of a (q, m) complex128 matrix.

    numpy's inverse FFT carries the exp(+2*pi*i*a*c/q) sign, and "ortho"
    scaling gives the 1/sqrt(q) factor of the defining sum. The result is
    written into `cols`, which is returned.
    """
    return np.fft.ifft(cols, axis=0, norm="ortho", out=cols)


def qft_gates(mat: np.ndarray, s: int) -> np.ndarray:
    """Gate-level transform on the control axis of a (q, right) matrix: one Hadamard stage
    per control qubit, conditional phase rotations between qubit pairs, then a bit-order
    reversal. Every gate acts in place on a reshaped view of its C-contiguous input, which
    is returned; the pipeline passes only its (q, m) occupied columns."""
    q, right = mat.shape
    assert q == 1 << s and mat.flags.c_contiguous
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for j in range(s):
        p = s - 1 - j
        view = mat.reshape(-1, 2, 1 << p, right)
        upper, lo = view[:, 0], view[:, 1]
        hi = upper.copy()
        upper += lo
        upper *= inv_sqrt2
        np.subtract(hi, lo, out=lo)
        lo *= inv_sqrt2
        for k in range(2, s - j + 1):
            pc = p - (k - 1)
            w = np.exp(2j * np.pi / (1 << k))
            # The rows whose bits p and pc are both set.
            mat.reshape(-1, 2, 1 << (k - 2), 2, 1 << pc, right)[:, 1, :, 1] *= w
    # The bit reversal transposes the s bit axes: s + 1 axes in all, within the 64 that
    # numpy allows while s <= 63. The transposed copy is the one temporary; it is written
    # back into `mat`.
    bits = mat.reshape((2,) * s + (right,))
    mat[...] = bits.transpose(*range(s - 1, -1, -1), s).reshape(q, right)
    return mat
