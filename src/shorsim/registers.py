"""Register layout, global index packing, and the state-vector container.

Index packing contract: the control register occupies the most significant
bits, followed by the function registers in order. For a layout with control
width s, function width L and ell function registers,

    index = a * 2**(ell*L) + sum_i y_i * 2**((ell - i) * L),   i = 1..ell

so measuring the control value is an index shift and the Fourier transform
touches a contiguous stride pattern.

Storage is decided here and nowhere else: `StateVector.nonzero_arrays` reads
a state as (ascending packed indices, amplitudes) and `StateVector.from_arrays`
writes one, for either backend. Every circuit stage goes through these two
calls, and sparse storage drops amplitudes at or below SPARSE_AMPLITUDE_FLOOR
in `from_arrays`. A sparse state stores exactly that ascending pair, so
handing a state from one stage to the next converts nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import CapacityError, NotCoprimeError, RangeError
from .numtheory import gcd

DEFAULT_QUBIT_CAP = 26
# Packed indices are int64 arrays, so s + ell*L may not exceed 63.
INDEX_BITS = 63
SPARSE_AMPLITUDE_FLOOR = 1e-15
NORM_TOLERANCE = 1e-12
CSV_CHUNK_ROWS = 1 << 16

DENSE = "dense"
SPARSE = "sparse"


def choose_modulus_power(n: int) -> tuple[int, int]:
    """The unique (q, s) with q = 2**s and n**2 <= q < 2*n**2."""
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    s = (n * n - 1).bit_length()
    q = 1 << s
    assert n * n <= q < 2 * n * n
    return q, s


@dataclass(frozen=True)
class ProblemInstance:
    """One order-finding run: modulus n, base x, control-register size q = 2**s."""

    n: int
    x: int
    q: int
    s: int

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"n must be >= 3, got {self.n}")
        if not 1 < self.x < self.n:
            raise ValueError(f"base must satisfy 1 < x < n, got x={self.x}, n={self.n}")
        g = gcd(self.x, self.n)
        if g != 1:
            raise NotCoprimeError(self.x, self.n, g)
        if self.q != 1 << self.s:
            raise ValueError(f"q={self.q} is not 2**{self.s}")
        if not self.n**2 <= self.q < 2 * self.n**2:
            raise ValueError(f"q={self.q} outside [n^2, 2n^2) for n={self.n}")

    @classmethod
    def create(cls, n: int, x: int) -> "ProblemInstance":
        q, s = choose_modulus_power(n)
        return cls(n=n, x=x, q=q, s=s)

    @property
    def function_register_width(self) -> int:
        """Bit width that holds every residue in [0, n)."""
        return (self.n - 1).bit_length()

    def layout(self, ell: int = 1, qubit_cap: int = DEFAULT_QUBIT_CAP) -> "RegisterLayout":
        return RegisterLayout(
            s=self.s, L=self.function_register_width, ell=ell, qubit_cap=qubit_cap
        )


@dataclass(frozen=True)
class RegisterLayout:
    """Widths of the control register (s) and the ell function registers (L each).

    `qubit_cap` limits the memory a state on this layout may allocate; it is
    checked by `check_capacity` wherever a state is allocated, not here.
    """

    s: int
    L: int
    ell: int
    qubit_cap: int = DEFAULT_QUBIT_CAP

    def __post_init__(self):
        if self.s < 1 or self.L < 1:
            raise ValueError("register widths must be >= 1")
        if self.ell < 1:
            raise ValueError(f"need at least one function register, got ell={self.ell}")
        if self.total_qubits > INDEX_BITS:
            raise CapacityError(
                f"layout needs {self.total_qubits} qubits, packed indices hold {INDEX_BITS}"
            )

    @property
    def total_qubits(self) -> int:
        return self.s + self.ell * self.L

    @property
    def q(self) -> int:
        """Control-register dimension."""
        return 1 << self.s

    @property
    def function_dim(self) -> int:
        """Dimension of one function register."""
        return 1 << self.L

    @property
    def right_dim(self) -> int:
        """Combined dimension of all function registers."""
        return 1 << (self.ell * self.L)

    @property
    def dim(self) -> int:
        return 1 << self.total_qubits

    def check_capacity(self, backend: str) -> None:
        """Refuse a state whose storage would exceed 2**qubit_cap amplitudes:
        2**(s + ell*L) for dense storage, at most 2**(s + L) for sparse."""
        if backend == DENSE:
            qubits = self.total_qubits
        elif backend == SPARSE:
            qubits = self.s + self.L
        else:
            raise ValueError(f"unknown backend {backend!r}")
        if qubits > self.qubit_cap:
            raise CapacityError(
                f"{backend} state needs up to 2^{qubits} amplitudes, cap is 2^{self.qubit_cap} "
                f"(raise the cap explicitly to allow this)"
            )

    def pack_index(self, a: int, ys) -> int:
        """Global basis index for control value a and function values ys."""
        if not 0 <= a < self.q:
            raise RangeError(f"control value {a} outside [0, {self.q})")
        ys = tuple(ys)
        if len(ys) != self.ell:
            raise RangeError(f"expected {self.ell} function values, got {len(ys)}")
        index = a
        for y in ys:
            if not 0 <= y < self.function_dim:
                raise RangeError(f"function value {y} outside [0, {self.function_dim})")
            index = (index << self.L) | y
        return index

    def unpack_index(self, index: int) -> tuple[int, tuple[int, ...]]:
        """Inverse of pack_index."""
        if not 0 <= index < self.dim:
            raise RangeError(f"index {index} outside [0, {self.dim})")
        mask = self.function_dim - 1
        ys = []
        for _ in range(self.ell):
            ys.append(index & mask)
            index >>= self.L
        return index, tuple(reversed(ys))


class StateVector:
    """Complex amplitudes over the full register space, dense or sparse.

    Dense states hold a flat complex128 array of length layout.dim. Sparse
    states hold the read-only pair (ascending int64 packed indices, complex128
    amplitudes) of the entries above SPARSE_AMPLITUDE_FLOOR, which
    `nonzero_arrays` returns as it is. In a pipeline state each control value
    pairs with at most r <= 2**L function-register contents (x^k repeated in
    every register), so a sparse state holds at most q * 2**L entries whatever
    ell is.

    Callers outside this module read a state with `nonzero_arrays` and build
    one with `from_arrays`, so they never see which storage it uses. The
    constructor also takes a dict from packed index to amplitude for a sparse
    state, and `data` turns a sparse pair into such a dict, for code that edits
    entries in place.
    """

    def __init__(self, layout: RegisterLayout, backend: str, data):
        if backend not in (DENSE, SPARSE):
            raise ValueError(f"unknown backend {backend!r}")
        self.layout = layout
        self.backend = backend
        self._data = data

    @property
    def data(self):
        """The flat array of a dense state, or a sparse state's entries as a
        dict from packed index to amplitude. The dict is made on first access
        and from then on is the state's storage, so edits to it stick."""
        if isinstance(self._data, tuple):
            index, amps = self._data
            self._data = dict(zip(index.tolist(), amps.tolist()))
        return self._data

    @classmethod
    def zeros(cls, layout: RegisterLayout, backend: str = SPARSE) -> "StateVector":
        empty = np.empty(0, dtype=np.int64)
        return cls.from_arrays(layout, backend, empty, empty.astype(np.complex128))

    @classmethod
    def from_arrays(
        cls, layout: RegisterLayout, backend: str, index: np.ndarray, amps: np.ndarray
    ) -> "StateVector":
        """State holding amps[k] at the packed index index[k]; a repeated
        index raises ValueError.

        Dense storage scatters every amplitude into the flat array; sparse
        storage keeps those with magnitude above SPARSE_AMPLITUDE_FLOOR, in
        ascending index order.
        """
        layout.check_capacity(backend)
        index = np.asarray(index, dtype=np.int64)
        amps = np.asarray(amps, dtype=np.complex128)
        # Every stage writes ascending indices; a snapshot may not.
        if np.any(index[1:] <= index[:-1]):
            order = np.argsort(index)
            index, amps = index[order], amps[order]
            if np.any(index[1:] == index[:-1]):
                raise ValueError("state repeats an index")
        if backend == DENSE:
            data = np.zeros(layout.dim, dtype=np.complex128)
            data[index] = amps
            return cls(layout, DENSE, data)
        kept = np.abs(amps) > SPARSE_AMPLITUDE_FLOOR
        index, amps = index[kept], amps[kept]
        index.flags.writeable = False
        amps.flags.writeable = False
        return cls(layout, SPARSE, (index, amps))

    def amplitude(self, index: int) -> complex:
        if self.backend == DENSE:
            return complex(self._data[index])
        stored, amps = self.nonzero_arrays()
        k = int(np.searchsorted(stored, index))
        return complex(amps[k]) if k < stored.size and stored[k] == index else 0j

    def nonzero_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(packed indices, amplitudes) of the stored nonzero entries, the
        indices ascending on both backends. A sparse state returns its stored
        read-only pair, without a copy."""
        if self.backend == DENSE:
            # Half the time of np.flatnonzero(self.data), which tests each
            # complex entry twice (once to count, once to collect).
            index = np.flatnonzero(self._data != 0)
            return index, self._data[index]
        if isinstance(self._data, tuple):
            return self._data
        count = len(self._data)
        index = np.fromiter(self._data.keys(), dtype=np.int64, count=count)
        amps = np.fromiter(self._data.values(), dtype=np.complex128, count=count)
        # A dict handed to the constructor or edited in place may be in any order.
        if np.any(index[1:] < index[:-1]):
            order = np.argsort(index)
            index, amps = index[order], amps[order]
        return index, amps

    def nonzero_count(self) -> int:
        if self.backend == DENSE:
            return int(np.count_nonzero(self._data))
        return self.nonzero_arrays()[0].size

    def norm_squared(self) -> float:
        amps = self.nonzero_arrays()[1]
        return float(np.vdot(amps, amps).real)

    def densify(self) -> "StateVector":
        """Dense copy with identical amplitudes."""
        self.layout.check_capacity(DENSE)
        if self.backend == DENSE:
            # A copy of the flat array is cheaper than a scatter of its entries.
            return StateVector(self.layout, DENSE, self._data.copy())
        return StateVector.from_arrays(self.layout, DENSE, *self.nonzero_arrays())

    def sparsify(self) -> "StateVector":
        """Sparse copy, dropping amplitudes at or below SPARSE_AMPLITUDE_FLOOR."""
        return StateVector.from_arrays(self.layout, SPARSE, *self.nonzero_arrays())

    def dump(self, path) -> None:
        """Write the text snapshot: header line, then one 'index re im' line per entry."""
        layout = self.layout
        index, amps = self.nonzero_arrays()
        with open(path, "w") as fh:
            fh.write(f"{layout.s} {layout.L} {layout.ell} {self.backend}\n")
            write_rows(fh, "%d %.17g %.17g\n", [index, amps.real, amps.imag])

    @classmethod
    def load(cls, path, qubit_cap: int = DEFAULT_QUBIT_CAP) -> "StateVector":
        """Read a `dump` snapshot, which is outside input: an index outside the layout, a
        repeated index, a non-finite amplitude or a norm off 1 raises ValueError, and
        a state larger than `qubit_cap` allows raises CapacityError."""
        with open(path) as fh:
            header = fh.readline().split()
            if len(header) != 4:
                raise ValueError(f"malformed snapshot header: {header}")
            s, L, ell = (int(v) for v in header[:3])
            layout = RegisterLayout(s=s, L=L, ell=ell, qubit_cap=qubit_cap)
            # The header alone decides the capacity: refuse before reading the body.
            layout.check_capacity(header[3])
            indices, amps = [], []
            for line in fh:
                index_str, re_str, im_str = line.split()
                indices.append(int(index_str))
                amps.append(complex(float(re_str), float(im_str)))
        bad = [i for i in indices if not 0 <= i < layout.dim]
        if bad:
            raise ValueError(f"snapshot index {bad[0]} outside [0, {layout.dim})")
        amps = np.array(amps, dtype=np.complex128)
        if not np.all(np.isfinite(amps)):
            raise ValueError("snapshot holds a non-finite amplitude")
        norm = float(np.vdot(amps, amps).real)
        if abs(norm - 1.0) > NORM_TOLERANCE:
            raise ValueError(f"snapshot norm is {norm}, not 1 within {NORM_TOLERANCE}")
        return cls.from_arrays(layout, header[3], np.array(indices, dtype=np.int64), amps)


def distinct_positions(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ascending distinct keys, position of each key among them)."""
    # Not np.unique: its first call imports numpy.ma, about 15 ms of start-up.
    ordered = np.sort(keys)
    distinct = ordered[np.diff(ordered, prepend=ordered[:1] - 1) != 0]
    return distinct, np.searchsorted(distinct, keys)


def max_abs_difference(
    index_a: np.ndarray, values_a: np.ndarray, index_b: np.ndarray, values_b: np.ndarray
) -> float:
    """Max |a - b| over the union of the keys of two (index, values) tables, a
    key missing from a table read as 0 and a repeated key summing its values;
    0.0 when both tables are empty."""
    keys, slot = distinct_positions(np.concatenate([index_a, index_b]))
    difference = np.zeros(keys.size, dtype=np.result_type(values_a, values_b))
    np.add.at(difference, slot, np.concatenate([values_a, -values_b]))
    return float(np.abs(difference).max(initial=0.0))


def write_rows(fh, row: str, columns) -> None:
    """Write `row % values` for each position of `columns`, one `%` per CSV_CHUNK_ROWS rows."""
    for start in range(0, len(columns[0]), CSV_CHUNK_ROWS):
        chunk = [column[start : start + CSV_CHUNK_ROWS].tolist() for column in columns]
        fh.write(row * len(chunk[0]) % tuple(chain.from_iterable(zip(*chunk))))
