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

import numpy as np

from .errors import CapacityError, NotCoprimeError, RangeError
from .numtheory import gcd

DEFAULT_QUBIT_CAP = 26
# Packed indices are int64 arrays, so s + ell*L may not exceed 63.
INDEX_BITS = 63
SPARSE_AMPLITUDE_FLOOR = 1e-15
NORM_TOLERANCE = 1e-12
CSV_CHUNK_ROWS = 1 << 14

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

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"n must be >= 3, got {self.n}")
        if not 1 < self.x < self.n:
            raise ValueError(f"base must satisfy 1 < x < n, got x={self.x}, n={self.n}")
        g = gcd(self.x, self.n)
        if g != 1:
            raise NotCoprimeError(self.x, self.n, g)

    @classmethod
    def create(cls, n: int, x: int) -> "ProblemInstance":
        return cls(n=n, x=x)

    @property
    def q(self) -> int:
        return choose_modulus_power(self.n)[0]

    @property
    def s(self) -> int:
        return choose_modulus_power(self.n)[1]

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
        """Write the text snapshot: the header line `s L ell backend`, then one
        line per stored entry, ascending, as the bytes of
        `'%d %.17g %.17g\\n' % (index, re, im)`, written by `write_rows`."""
        layout = self.layout
        index, amps = self.nonzero_arrays()
        with open(path, "wb") as fh:
            fh.write(f"{layout.s} {layout.L} {layout.ell} {self.backend}\n".encode())
            write_rows(fh, [index, amps.real, amps.imag], " ", "\n")

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


# Rows are formatted in numpy, several ASCII bytes per uint32 word, into a
# NUL-padded (rows, words) matrix that one `mat[mat != 0]` compresses. Python's
# `%` formats only the values the kernel leaves undecided (`_float_words`).

# Each integer 0..9999 as the word "dddd"; then with its trailing zeros NUL
# (for fractions), its leading zeros NUL, and its leading zeros but a last one
# NUL (for integers, whose lowest group prints at least one digit).
def _digit_quads() -> np.ndarray:
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T.copy()
    chars = digits + np.uint8(ord("0"))
    nonzero = digits != 0
    from_first = np.logical_or.accumulate(nonzero, axis=1)
    to_last = np.logical_or.accumulate(nonzero[:, ::-1], axis=1)[:, ::-1]
    kept = [np.True_, to_last, from_first, from_first | (np.arange(4) == 3)]
    return np.concatenate([chars * keep for keep in kept]).view(np.uint32).ravel()


_QUADS = _digit_quads()
_FULL, _TRAILING_NUL, _LEADING_NUL, _LEADING_NUL_BUT_ONE = (0, 10000, 20000, 30000)


def _words(rows) -> np.ndarray:
    """uint32 words from rows of four byte values (0 for NUL)."""
    return np.array(rows, dtype=np.uint8).view(np.uint32).ravel()


_ZERO, _POINT, _MINUS = ord("0"), ord("."), ord("-")
# A float field is 7 words: [sign 0 . 0] [0 0 d .], four words of 16 digits,
# [e - x x], for a value with decimal exponent X and first digit d. z = -X
# zeros open "0.000d..." in %g's fixed notation for -4 <= X < 0, else z = 0.
# Word 0 is indexed by sign * 5 + z, word 1 by (z * 10 + d) * 2 + point, the
# last word by -X in the exponent form (X < -4), else by 0.
_SIGN_WORDS = _words(
    [[sign, _ZERO * (z > 0), _POINT * (z > 0), _ZERO * (z > 1)]
     for sign in (0, _MINUS) for z in range(5)]
)
_LEAD_WORDS = _words(
    [[_ZERO * (z > 2), _ZERO * (z > 3), _ZERO + d, _POINT * point]
     for z in range(5) for d in range(10) for point in (0, 1)]
)
_EXPONENT_WORDS = _words(
    [[ord("e"), _MINUS, _ZERO + x // 10, _ZERO + x % 10] if x else [0] * 4 for x in range(26)]
)
_FLOAT_WORDS = 7

# The kernel decides 1e-24 <= |v| < 10, where 16 - X stays within the table.
# 10**k is the unevaluated sum of the doubles hi + lo, and hi's Veltkamp halves
# (split by 2**27 + 1) feed Dekker's error-free product.
_FLOAT_RANGE = (1e-24, 10.0)
_POW10_HI = np.array([float(10**k) for k in range(42)])
_POW10_LO = np.array([float(10**k - int(float(10**k))) for k in range(42)])
# The double-double product is off by less than 1e-14; a rounding decision
# closer than this to a tie goes to Python.
_TIE_BAND = 1e-6


def _veltkamp_split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(high, low) with v = high + low exactly, each with at most 26 significant bits."""
    c = 134217729.0 * v
    high = c - (c - v)
    return high, v - high


_POW10_HIGH, _POW10_LOW = _veltkamp_split(_POW10_HI)


def _float_words(column: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write `'%.17g' % v` of each float64 v into the rows of `out` (7 words)
    and return the rows it leaves undecided, for Python to format: ±0.0,
    non-finite values, |v| outside [1e-24, 10), a scaled value outside
    [10**16, 10**17) before or after rounding (log10 off by one next to a
    power of ten), and a rounding decision within _TIE_BAND of a tie."""
    magnitude = np.abs(column)
    decided = (magnitude >= _FLOAT_RANGE[0]) & (magnitude < _FLOAT_RANGE[1])
    magnitude = np.where(decided, magnitude, 1.0)
    exponent = np.floor(np.log10(magnitude)).astype(np.int64)
    k = 16 - exponent
    # magnitude * 10**k = p + e + magnitude * lo, p + e exact (Dekker).
    p = magnitude * _POW10_HI[k]
    m_high, m_low = _veltkamp_split(magnitude)
    p_high, p_low = _POW10_HIGH[k], _POW10_LOW[k]
    e = ((m_high * p_high - p) + m_high * p_low + m_low * p_high) + m_low * p_low
    whole = np.floor(p)
    rest = (p - whole) + (e + magnitude * _POW10_LO[k])
    carry = np.floor(rest)
    fraction = rest - carry
    digits = whole.astype(np.int64) + carry.astype(np.int64)
    decided &= (digits >= 10**16) & (digits < 10**17) & (np.abs(fraction - 0.5) >= _TIE_BAND)
    # 17 significant digits, rounded; a round-up to 10**17 goes to Python.
    digits += fraction > 0.5
    decided &= digits < 10**17
    digits = np.where(decided, digits, 10**16)

    # The 17 digits as the lead digit and four groups of four, in int32.
    high, low = (half.astype(np.int32) for half in np.divmod(digits, 10**8))
    lead, high = np.divmod(high, 10**8)
    groups = [high // 10000, high % 10000, low // 10000, low % 10000]
    zeros = np.where((exponent < 0) & (exponent >= -4), -exponent, 0)
    point = ((high | low) != 0) & (zeros == 0)
    out[:, 0] = _SIGN_WORDS[(column < 0) * 5 + zeros]
    out[:, 1] = _LEAD_WORDS[(zeros * 10 + lead) * 2 + point]
    # Trailing zeros after the last nonzero digit become NUL.
    nothing_after = np.ones(column.size, dtype=bool)
    for word in range(5, 1, -1):
        group = groups[word - 2]
        out[:, word] = _QUADS[group + _TRAILING_NUL * nothing_after]
        nothing_after &= group == 0
    out[:, 6] = _EXPONENT_WORDS[np.where(exponent < -4, -exponent, 0)]
    return np.flatnonzero(~decided)


def _int_words(column: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write `'%d' % v` of each non-negative int64 v into the rows of `out`
    (enough words for the widest); return the negative rows, for Python."""
    negative = column < 0
    value = np.where(negative, 0, column)
    groups = out.shape[1]
    for word in range(groups - 1, -1, -1):
        higher = value // 10000
        table = _LEADING_NUL_BUT_ONE if word == groups - 1 else _LEADING_NUL
        out[:, word] = _QUADS[value - higher * 10000 + np.where(higher == 0, table, _FULL)]
        value = higher
    return np.flatnonzero(negative)


def _tail_words(text: str) -> np.ndarray:
    chars = text.encode("ascii")
    return np.frombuffer(chars.ljust(-(-len(chars) // 4) * 4, b"\0"), dtype=np.uint32)


def write_rows(fh, columns, sep: str, end: str) -> None:
    """Write one row per position of `columns` to the binary file `fh`: each
    entry as `'%d'` for an integer column or `'%.17g'` for a float column,
    joined by `sep` and ended by `end`. The bytes are those of
    `(sep.join(templates) + end) % row` for every row; numpy formats them,
    CSV_CHUNK_ROWS rows at a time, and Python formats only negative integers
    and the floats `_float_words` leaves undecided."""
    fields = []
    for column in map(np.asarray, columns):
        if column.dtype.kind == "f":
            column = column.astype(np.float64, casting="safe")
            fields.append((column, _float_words, _FLOAT_WORDS, "%.17g"))
        else:
            column = column.astype(np.int64, casting="safe")
            # Digits of the widest entry, sign included, in groups of four.
            top = max(int(column.max(initial=0)), -10 * int(column.min(initial=0)))
            fields.append((column, _int_words, -(-len(str(top)) // 4), "%d"))
    tails = [_tail_words(sep)] * (len(fields) - 1) + [_tail_words(end)]
    width = sum(words for _, _, words, _ in fields) + sum(tail.size for tail in tails)
    rows = len(fields[0][0])
    mat = np.empty((min(rows, CSV_CHUNK_ROWS), width), dtype=np.uint32)
    spans, at = [], 0
    for (_, _, words, _), tail in zip(fields, tails):
        spans.append((at, at + words))
        mat[:, at + words : at + words + tail.size] = tail
        at += words + tail.size
    for start in range(0, rows, CSV_CHUNK_ROWS):
        chunk = mat[: min(CSV_CHUNK_ROWS, rows - start)]
        for (column, kernel, _, template), (lo, hi) in zip(fields, spans):
            values = column[start : start + chunk.shape[0]]
            field = chunk[:, lo:hi]
            for row in kernel(values, field).tolist():
                text = np.frombuffer((template % values[row].item()).encode(), dtype=np.uint8)
                chars = field[row].view(np.uint8)
                chars[:] = 0
                chars[: text.size] = text
        chars = chunk.view(np.uint8)
        fh.write(chars[chars != 0])
