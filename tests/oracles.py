"""Full-space reference simulation of the order-finding circuit, for tests.

Every amplitude of the register space is held, as a (q, 2**L, ..., 2**L)
tensor with one axis per register, and nothing is shared with shorsim's
pipeline, register storage or kernels:

- the fan-out is the XOR permutation |a, y> -> |a, y xor (x^a mod n)> over
  every basis state of every function register, with x^a from `pow`;
- the transform is the explicit q x q matrix exp(2*pi*i*(a*c mod q)/q)/sqrt(q),
  applied to the control axis with `np.tensordot`.

The tensor's C-order ravel runs over shorsim's packed index (control register
most significant, then y_1 .. y_ell), so `tensor.ravel()[index]` is the
amplitude a state stores at `index`. The full space of (n, ell) has
q * 2**(ell*L) amplitudes; keep it to about 2**20. `scatter`, `as_dict` and
`total_variation` read shorsim's states and outcome tables for comparison,
through their public arrays only.
"""

import numpy as np


def register_sizes(n: int) -> tuple[int, int]:
    """(q, 2**L): the smallest power of two at least n**2, and the smallest
    at least n, which holds every residue mod n."""
    q = 1
    while q < n * n:
        q *= 2
    side = 1
    while side < n:
        side *= 2
    return q, side


def initial_state(n: int, ell: int = 1) -> np.ndarray:
    """Uniform control register, every function register 0."""
    q, side = register_sizes(n)
    psi = np.zeros((q,) + (side,) * ell, dtype=np.complex128)
    psi[(slice(None),) + (0,) * ell] = 1 / np.sqrt(q)
    return psi


def fanout(psi: np.ndarray, n: int, x: int) -> np.ndarray:
    """XOR x^a mod n into every function register of each basis state |a, ...>."""
    out = np.empty_like(psi)
    ys = np.arange(psi.shape[1])
    for a in range(psi.shape[0]):
        # XOR is its own inverse: the new amplitude at y is the old one at y ^ f(a).
        flip = ys ^ pow(x, a, n)
        out[a] = psi[a][np.ix_(*[flip] * (psi.ndim - 1))]
    return out


def transform(psi: np.ndarray) -> np.ndarray:
    """The q x q Fourier matrix exp(2*pi*i*(a*c mod q)/q)/sqrt(q) on the control axis."""
    q = psi.shape[0]
    exponent = np.multiply.outer(np.arange(q), np.arange(q))
    exponent %= q
    matrix = np.exp(2j * np.pi * np.arange(q) / q)[exponent] / np.sqrt(q)
    return np.tensordot(matrix, psi, axes=(1, 0))


def final_state(n: int, x: int, ell: int = 1) -> np.ndarray:
    """The state the circuit measures: initialisation, fan-out, transform."""
    return transform(fanout(initial_state(n, ell), n, x))


def scatter(state) -> np.ndarray:
    """A shorsim state's amplitudes as one flat vector over the full space."""
    index, amps = state.nonzero_arrays()
    flat = np.zeros(state.layout.dim, dtype=np.complex128)
    flat[index] = amps
    return flat


def as_dict(dist) -> dict:
    """An outcome table as a dict, outcome tuple -> probability, in array order."""
    return dict(zip(dist.outcome_tuples(), dist.probs.tolist()))


def total_variation(probs: np.ndarray, dist) -> float:
    """Total-variation distance between a full-space probability tensor and
    an outcome table over every register."""
    table = np.zeros(probs.size)
    table[dist.index] = dist.probs
    return 0.5 * float(np.abs(probs.ravel() - table).sum())
