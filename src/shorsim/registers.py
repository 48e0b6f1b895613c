"""Register layout, global index packing, and the state-vector container.

Index packing contract: the control register occupies the most significant
bits, followed by the function registers in order. For a layout with control
width s, function width L and ell function registers,

    index = a * 2**(ell*L) + sum_i y_i * 2**((ell - i) * L),   i = 1..ell

so measuring the control value is an index shift and the Fourier transform
touches a contiguous stride pattern.

Storage is decided here and nowhere else: `StateVector.nonzero_arrays` reads
a state as (ascending packed indices, amplitudes) and `StateVector.from_arrays`
writes one; `StateVector.from_columns` writes one from a transform's (q, m)
matrix, which it consumes. Every circuit stage goes through these three
calls. Every state stores exactly that read-only ascending pair, so handing
a state from one stage to the next converts nothing. A state built from or
edited as a dict (`StateVector.data`) is read through `from_arrays` too, so
it passes the same checks and floor as a pair. The backend decides only
what the two writers drop, by one rule (`_stored`): exact zeros for dense
storage, amplitudes at or below SPARSE_AMPLITUDE_FLOOR for sparse.
Where `from_arrays` drops nothing from an ascending pair, the state takes
the caller's arrays themselves, read-only from then on, so a stage's output
is stored without a copy; `from_columns` compacts the kept cells within the
matrix's own buffer and shrinks it to them; measuring a state
(`take_probabilities`) consumes it the same way. No state holds a flat array
of 2**(s + ell*L) amplitudes, so one capacity rule serves both backends.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConsumedStateError, NotCoprimeError

DEFAULT_QUBIT_CAP = 26
# Packed indices are int64 arrays, so s + ell*L may not exceed 63.
INDEX_BITS = 63
SPARSE_AMPLITUDE_FLOOR = 1e-15
NORM_TOLERANCE = 1e-12
CSV_CHUNK_ROWS = 1 << 13
# Cells per block when `from_columns` compacts a transformed matrix,
# `square_in_place` squares one and `max_abs_difference` pairs keys.
COMPACT_CELLS = 1 << 14

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
        g = math.gcd(self.x, self.n)
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
    def right_dim(self) -> int:
        """Combined dimension of all function registers."""
        return 1 << (self.ell * self.L)

    @property
    def dim(self) -> int:
        return 1 << self.total_qubits

    def check_capacity(
        self,
        backend: str = SPARSE,
        qubits: int | None = None,
        needs: str = "{backend} state needs up to 2^{qubits} amplitudes",
    ) -> None:
        """Refuse, before it is made, an allocation of 2**qubits entries above
        2**qubit_cap; `needs` words the error. By default qubits is s + L, the
        most entries a pipeline state on this layout holds on either backend:
        each control value pairs with at most r <= 2**L function-register
        contents (x^k repeated in every register), whatever ell is."""
        if qubits is None:
            qubits = self.s + self.L
        if qubits > self.qubit_cap:
            raise CapacityError(
                f"{needs.format(backend=backend, qubits=qubits)}, cap is 2^{self.qubit_cap} "
                f"(raise the cap explicitly to allow this)"
            )


def _require_backend(backend: str) -> None:
    if backend not in (DENSE, SPARSE):
        raise ValueError(f"unknown backend {backend!r}")


def _stored(backend: str, amps: np.ndarray) -> np.ndarray:
    """Mask of the amplitudes a `backend` state keeps: the nonzero ones for
    dense storage, those above SPARSE_AMPLITUDE_FLOOR for sparse. A
    non-finite amplitude raises ValueError."""
    if not np.all(np.isfinite(amps)):
        raise ValueError("state holds a non-finite amplitude")
    return amps != 0 if backend == DENSE else np.abs(amps) > SPARSE_AMPLITUDE_FLOOR


def square_in_place(amps: np.ndarray) -> np.ndarray:
    """The squared magnitudes of `amps` as a flat float64 array in `amps`'
    own buffer, with the bits of `np.abs(amps) ** 2` and no second full-size
    array. One block of COMPACT_CELLS cells at a time, `np.abs` then
    `np.square` write over amplitudes already read, at the front; then the
    buffer shrinks to them. `amps` must be a writable C-contiguous
    complex128 array that owns its buffer; it is consumed, and nothing may
    read it again."""
    flat = amps.reshape(-1)
    floats = flat.view(np.float64)
    size = flat.size
    for start in range(0, size, COMPACT_CELLS):
        block = np.abs(flat[start : start + COMPACT_CELLS])
        np.square(block, out=floats[start : start + block.size])
    # Resized without a reference check: the views above are not read again.
    del flat, floats
    amps.resize(-(-size // 2), refcheck=False)
    return amps.view(np.float64)[:size]


class StateVector:
    """Complex amplitudes over the full register space, stored by their support.

    Every state holds the read-only pair (ascending int64 packed indices,
    complex128 amplitudes), which `nonzero_arrays` returns as it is. The
    backend decides only what the writers keep: every nonzero amplitude
    for dense storage, those above SPARSE_AMPLITUDE_FLOOR for sparse.
    Callers outside this module read a state with `nonzero_arrays` and build
    one with `from_arrays`, or with `from_columns` from a (q, m) matrix. The
    constructor also takes a dict from packed index to amplitude, and `data`
    turns the pair into such a dict, for code that edits entries in place;
    each read of a dict goes through `from_arrays`, with its checks and floor.

    Ownership: measuring consumes a state (`take_probabilities`); from then
    on `nonzero_arrays`, `data`, `dump`, `nonzero_count` and every other
    read raise ConsumedStateError.
    """

    def __init__(self, layout: RegisterLayout, backend: str, data):
        _require_backend(backend)
        self.layout = layout
        self.backend = backend
        self._data = data

    @property
    def data(self) -> dict:
        """The entries as a dict from packed index to amplitude, made on first
        access and kept: from then on it is the state's storage, so edits to
        it stick."""
        if isinstance(self._entries(), tuple):
            index, amps = self._data
            self._data = dict(zip(index.tolist(), amps.tolist()))
        return self._data

    def _entries(self):
        """The stored pair or dict, unless the state was consumed."""
        if self._data is None:
            raise ConsumedStateError("the state was consumed by measuring it")
        return self._data

    @classmethod
    def from_arrays(
        cls, layout: RegisterLayout, backend: str, index: np.ndarray, amps: np.ndarray
    ) -> "StateVector":
        """State holding amps[k] at the packed index index[k]. Arrays that are
        not 1-D of one length, a repeated index, an index outside
        [0, layout.dim) or a non-finite amplitude raise ValueError, and more
        than 2**layout.qubit_cap entries CapacityError, before anything is
        copied.

        Dense storage keeps the nonzero amplitudes, sparse storage those with
        magnitude above SPARSE_AMPLITUDE_FLOOR; both keep their indices in
        ascending order.

        Ownership: where the indices already ascend and the backend drops no
        entry, the state keeps the arrays it was handed (each one already of
        its dtype) and marks them read-only, so the caller writes to them no
        more. Where it sorts or drops, it holds copies, and the caller's
        arrays stay as they were.
        """
        layout.check_capacity(backend)
        # A pipeline state fits by the rule above; a state from outside input
        # may hold more entries.
        layout.check_capacity(backend, qubits=(len(index) - 1).bit_length())
        index = np.asarray(index, dtype=np.int64)
        amps = np.asarray(amps, dtype=np.complex128)
        if index.ndim != 1 or amps.shape != index.shape:
            raise ValueError(
                f"expected 1-D index and amplitude arrays of one length, "
                f"got shapes {index.shape} and {amps.shape}"
            )
        # Every stage writes ascending indices; a snapshot or a dict may not.
        if np.any(index[1:] <= index[:-1]):
            order = np.argsort(index)
            index, amps = index[order], amps[order]
            if np.any(index[1:] == index[:-1]):
                raise ValueError("state repeats an index")
        if index.size and not 0 <= index[0] <= index[-1] < layout.dim:
            raise ValueError(f"state index outside [0, {layout.dim})")
        kept = _stored(backend, amps)
        if not kept.all():
            index, amps = index[kept], amps[kept]
        index.flags.writeable = False
        amps.flags.writeable = False
        return cls(layout, backend, (index, amps))

    @classmethod
    def from_columns(
        cls, layout: RegisterLayout, backend: str, ykeys: np.ndarray, cols: np.ndarray
    ) -> "StateVector":
        """State holding cols[c, j] at the packed index c * right_dim + ykeys[j]:
        bit for bit the state `from_arrays` builds from those indices and
        `cols.ravel()`, without a second full-size array. `ykeys` must ascend
        within [0, right_dim) and `cols` have layout.q rows and one column per
        key, else ValueError; a non-finite amplitude raises ValueError, and
        more than 2**layout.qubit_cap cells CapacityError.

        Ownership: the state consumes `cols`. One block of rows at a time
        (about COMPACT_CELLS cells), it applies the backend's floor, moves the
        kept cells to the front of the buffer that holds them and writes their
        packed indices; then it shrinks that buffer and the indices to the
        kept cells, so the state holds no dropped tail. The caller reads and
        writes `cols` no more. Where `cols` is not a writable C-contiguous
        complex128 array that owns its buffer, it is copied first.
        """
        ykeys = np.asarray(ykeys, dtype=np.int64)
        q, m, right = layout.q, ykeys.size, layout.right_dim
        if cols.shape != (q, m):
            raise ValueError(f"expected a ({q}, {m}) column matrix, got shape {cols.shape}")
        if np.any(ykeys[1:] <= ykeys[:-1]) or (m and not 0 <= ykeys[0] <= ykeys[-1] < right):
            raise ValueError(f"column keys must ascend within [0, {right})")
        layout.check_capacity(backend)
        layout.check_capacity(backend, qubits=(cols.size - 1).bit_length())
        owner = np.require(cols, np.complex128, "CWO")
        flat = owner.reshape(-1)
        index = np.empty(flat.size, dtype=np.int64)
        rows = max(1, COMPACT_CELLS // max(m, 1))
        kept = 0
        for start in range(0, q, rows):
            stop = min(start + rows, q)
            block = flat[start * m : stop * m]
            keep = _stored(backend, block)
            packed = np.arange(start, stop, dtype=np.int64)[:, None] * right
            if keep.all():
                np.add(packed, ykeys, out=index[kept : kept + block.size].reshape(stop - start, m))
                if kept < start * m:
                    flat[kept : kept + block.size] = block
                kept += block.size
            else:
                count = int(np.count_nonzero(keep))
                index[kept : kept + count] = (packed + ykeys).ravel()[keep]
                flat[kept : kept + count] = block[keep]
                kept += count
        # Resized without a reference check: no view of the old buffers is
        # read again, and the caller's `cols` is consumed.
        del flat, block
        index.resize(kept, refcheck=False)
        owner.resize(kept, refcheck=False)
        index.flags.writeable = False
        owner.flags.writeable = False
        return cls(layout, backend, (index, owner))

    def nonzero_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(packed indices, amplitudes) of the stored nonzero entries, the
        indices ascending: the stored read-only pair, without a copy. Entries
        held as a dict (handed to the constructor, or opened by `data`) go
        through `from_arrays` at every read, which checks and floors them as
        it would a pair; the dict itself keeps every entry."""
        if isinstance(self._entries(), tuple):
            return self._data
        count = len(self._data)
        index = np.fromiter(self._data.keys(), dtype=np.int64, count=count)
        amps = np.fromiter(self._data.values(), dtype=np.complex128, count=count)
        return StateVector.from_arrays(self.layout, self.backend, index, amps).nonzero_arrays()

    def nonzero_count(self) -> int:
        return self.nonzero_arrays()[0].size

    def take_probabilities(self) -> tuple[np.ndarray, np.ndarray]:
        """Consume the state and return (packed indices, squared magnitudes),
        ascending, the magnitudes with the bits of `np.abs(amps) ** 2`.

        Where the state alone references its amplitude array, the
        probabilities take over that array's buffer (`square_in_place`).
        Where anything else still does (a dense state's `densify` twin, which
        shares the pair, or a caller that kept the arrays it passed to
        `from_arrays`), they are a new array, and the holder's amplitudes
        keep their bytes."""
        index, amps = self.nonzero_arrays()
        self._data = None
        # The test `ndarray.resize(refcheck=True)` makes: an array that owns
        # its buffer, no weak reference, and no reference beyond `amps`
        # itself, counted against a fresh array's so that the interpreter's
        # own references cancel.
        fresh = np.empty(0)
        if (
            amps.flags.owndata
            and amps.flags.c_contiguous
            and weakref.getweakrefcount(amps) == 0
            and sys.getrefcount(amps) <= sys.getrefcount(fresh)
        ):
            amps.flags.writeable = True
            return index, square_in_place(amps)
        probs = np.abs(amps)
        np.square(probs, out=probs)
        return index, probs

    def densify(self) -> "StateVector":
        """Dense state with identical amplitudes, written by `from_arrays`; a
        dense state's copy keeps its read-only pair, which drops nothing."""
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
            write_rows(fh, [index, amps.real, amps.imag], [" ", " ", "\n"])

    @classmethod
    def load(cls, path, qubit_cap: int = DEFAULT_QUBIT_CAP) -> "StateVector":
        """Read a `dump` snapshot, which is outside input: an unknown backend, an index
        outside the layout, a repeated index, a non-finite amplitude or a norm off 1
        raises ValueError, and a state larger than `qubit_cap` allows raises
        CapacityError."""
        with open(path) as fh:
            header = fh.readline().split()
            if len(header) != 4:
                raise ValueError(f"malformed snapshot header: {header}")
            s, L, ell = (int(v) for v in header[:3])
            layout = RegisterLayout(s=s, L=L, ell=ell, qubit_cap=qubit_cap)
            # The header alone decides the backend and the layout's capacity:
            # refuse before reading the body.
            _require_backend(header[3])
            layout.check_capacity(header[3])
            indices, amps = [], []
            # One line past the cap is enough for from_arrays to refuse the state.
            for line in itertools.islice(fh, (1 << qubit_cap) + 1):
                index_str, re_str, im_str = line.split()
                indices.append(int(index_str))
                amps.append(complex(float(re_str), float(im_str)))
        bad = [i for i in indices if not 0 <= i < layout.dim]
        if bad:
            raise ValueError(f"snapshot index {bad[0]} outside [0, {layout.dim})")
        amps = np.array(amps, dtype=np.complex128)
        # from_arrays refuses too many entries, a repeated index and a
        # non-finite amplitude.
        state = cls.from_arrays(layout, header[3], np.array(indices, dtype=np.int64), amps)
        norm = float(np.vdot(amps, amps).real)
        if abs(norm - 1.0) > NORM_TOLERANCE:
            raise ValueError(f"snapshot norm is {norm}, not 1 within {NORM_TOLERANCE}")
        return state


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
    key missing from a table read as 0; 0.0 when both tables are empty.

    Each table's keys must ascend without repeats, as every caller's do; a
    table that breaks this raises ValueError before any pairing. Each block
    of COMPACT_CELLS keys of `a` finds its partner in `b` by `searchsorted`,
    so no array spans both tables."""
    index_a, values_a, index_b, values_b = map(np.asarray, (index_a, values_a, index_b, values_b))
    if np.any(index_a[1:] <= index_a[:-1]) or np.any(index_b[1:] <= index_b[:-1]):
        raise ValueError("a table's keys must ascend without repeats")
    dtype = np.result_type(values_a, values_b)
    paired = np.zeros(index_b.size, dtype=bool)
    worst = 0.0
    for start in range(0, index_a.size, COMPACT_CELLS):
        keys = index_a[start : start + COMPACT_CELLS]
        difference = values_a[start : start + COMPACT_CELLS].astype(dtype)
        at = np.searchsorted(index_b, keys)
        hit = at < index_b.size
        hit[hit] = index_b[at[hit]] == keys[hit]
        at = at[hit]
        difference[hit] -= values_b[at]
        paired[at] = True
        # np.maximum, unlike max, carries a NaN through.
        worst = np.maximum(worst, np.abs(difference).max())
    return float(np.maximum(worst, np.abs(values_b[~paired]).max(initial=0.0)))


# One writer, `write_row_blocks` (`write_rows` hands it whole columns), writes
# CSV rows, snapshot rows and JSON record rows. It formats them in numpy,
# several ASCII bytes per uint32 word, into a NUL-padded (rows, words) matrix
# that one `mat[mat != 0]` compresses; Python formats only the values the
# kernels leave undecided. JSON rows take their floats from the float
# kernel's shortest mode (`repr`'s digits).

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


def _float_words(column: np.ndarray, out: np.ndarray, shortest: bool = False) -> np.ndarray:
    """Write `'%.17g' % v` of each float64 v into the rows of `out` (7 words),
    or with `shortest` `repr(v)`, and return the rows it leaves undecided, for
    Python to format: ±0.0, non-finite values, |v| outside [1e-24, 10), a
    scaled value outside [10**16, 10**17) before or after rounding (log10 off
    by one next to a power of ten), and a rounding decision within _TIE_BAND
    of a tie.

    `repr` prints the fewest digits whose nearest double is v (Steele and
    White; Gay), the nearest such decimal to v among those. v's ulp is less
    than 2.3e-16 * v, so decimals of 15 significant digits lie more than
    one ulp apart and at most one lies inside v's rounding interval: the
    15-digit rounding, where a shorter `repr` is that rounding without its
    trailing zeros. `repr` is therefore the 15-digit rounding where it lies
    inside the interval, else the 16-digit rounding where it does, else the
    17-digit one, which always does. The kernel tests the 15- and 16-digit
    roundings (multiples of 100 and 10 in the scaled units) against the
    interval's half-width `spacing(v) * 10**k / 2`. Python also formats, in
    this mode, a rounding within _TIE_BAND of the interval's edge or of a
    tie, a power of two (its interval is asymmetric) and a whole number,
    which `repr` writes as `d.0`.
    """
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
    # 17 significant digits, rounded.
    rounded = digits + (fraction > 0.5)
    if shortest:
        # Powers of two and whole numbers go to Python.
        mantissa = column.view(np.int64) & ((1 << 52) - 1)
        decided &= (mantissa != 0) & (magnitude != np.floor(magnitude))
        half = np.spacing(magnitude) * _POW10_HI[k] / 2
        # The 16-digit rounding, then the 15-digit one, replaces the
        # 17-digit one where it lies inside the interval.
        for unit in (10, 100):
            rest = digits % unit
            down, up = rest + fraction, (unit - rest) - fraction
            distance = np.minimum(down, up)
            inside = distance < half
            decided &= (np.abs(distance - half) >= _TIE_BAND) & ~(
                inside & (np.abs(down - up) < _TIE_BAND)
            )
            nearest = np.where(down < up, digits - rest, digits - rest + unit)
            rounded = np.where(inside, nearest, rounded)
    digits = rounded
    # A round-up to 10**17 goes to Python.
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


_NO_ROWS = np.empty(0, dtype=np.intp)


def _gathered_words(table: np.ndarray, column: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write `table[v]`, the words of `'%d' % v` as one void item, into the
    rows of `out` for each v of `column`; every row is decided."""
    out.view(table.dtype)[:, 0] = table[column]
    return _NO_ROWS


def _tail_words(text: str) -> np.ndarray:
    chars = text.encode("ascii")
    return np.frombuffer(chars.ljust(-(-len(chars) // 4) * 4, b"\0"), dtype=np.uint32)


def write_rows(fh, columns, tails, json_floats: bool = False) -> None:
    """Write one row per position of `columns` to the binary file `fh`: each
    entry as `'%d'` for an integer column or `'%.17g'` for a float column,
    followed by its column's ASCII text in `tails`. With `json_floats`, a float
    entry is written as `json.dumps` writes it instead: `repr`'s digits, and
    `NaN`, `Infinity` or `-Infinity`. Columns of unequal length raise
    ValueError, and a column not safely castable to int64 or float64
    TypeError, before anything is written. `write_row_blocks` formats the
    rows, CSV_CHUNK_ROWS at a time, and its note on the gathered integer
    path applies: here an integer column's bounds are its least and largest
    values."""
    columns = [np.asarray(column) for column in columns]
    if len({len(column) for column in columns}) > 1:
        raise ValueError("the columns of a row table must have one length")
    fields = []
    for column in columns:
        if column.dtype.kind not in "iuf":
            raise TypeError(f"a column must hold integers or floats, not {column.dtype}")
        target = np.float64 if column.dtype.kind == "f" else np.int64
        if not np.can_cast(column.dtype, target, casting="safe"):
            raise TypeError(f"a {column.dtype} column does not cast safely to {np.dtype(target)}")
        if column.dtype.kind == "f":
            fields.append(None)
        else:
            fields.append((int(column.min(initial=0)), int(column.max(initial=0))))
    write_row_blocks(
        fh, fields, tails, len(columns[0]),
        lambda start, stop: [column[start:stop] for column in columns], json_floats,
    )


def write_row_blocks(fh, fields, tails, rows: int, block, json_floats: bool = False) -> None:
    """Write `rows` rows to the binary file `fh`, CSV_CHUNK_ROWS at a time, as
    `write_rows` does; `block(start, stop)` returns the columns' values at rows
    start..stop-1, so no full-length column need exist. `fields` describes the
    columns: None for a float column, (low, high) for an integer column whose
    values all lie in [low, high]. Each field's kernel, its width in words and
    the text between fields are prepared once, and one word matrix of a
    chunk's rows is reused for every chunk; Python formats only negative
    integers and the floats `_float_words` leaves undecided.

    An integer field with 0 <= low and high below the row count, such as an
    outcome table's register values, is formatted once as `arange(high + 1)`,
    and each chunk gathers the words of its values."""
    prepared = []
    for bounds in fields:
        if bounds is None:
            kernel = functools.partial(_float_words, shortest=json_floats)
            fallback = json.dumps if json_floats else "%.17g".__mod__
            prepared.append((np.float64, kernel, _FLOAT_WORDS, fallback))
            continue
        low, high = bounds
        # Digits of the widest entry, sign included, in groups of four.
        words = -(-len(str(max(high, -10 * low))) // 4)
        kernel = _int_words
        if low >= 0 and high < rows:
            table = np.empty((high + 1, words), dtype=np.uint32)
            _int_words(np.arange(high + 1), table)
            kernel = functools.partial(_gathered_words, table.view(f"V{4 * words}").ravel())
        prepared.append((np.int64, kernel, words, "%d".__mod__))
    tails = [_tail_words(tail) for tail in tails]
    width = sum(words for _, _, words, _ in prepared) + sum(tail.size for tail in tails)
    mat = np.empty((min(rows, CSV_CHUNK_ROWS), width), dtype=np.uint32)
    spans, at = [], 0
    for (_, _, words, _), tail in zip(prepared, tails):
        spans.append((at, at + words))
        mat[:, at + words : at + words + tail.size] = tail
        at += words + tail.size
    for start in range(0, rows, CSV_CHUNK_ROWS):
        stop = min(start + CSV_CHUNK_ROWS, rows)
        chunk = mat[: stop - start]
        for values, (dtype, kernel, _, fallback), (lo, hi) in zip(
            block(start, stop), prepared, spans
        ):
            values = values.astype(dtype, copy=False)
            field = chunk[:, lo:hi]
            for row in kernel(values, field).tolist():
                text = np.frombuffer(fallback(values[row].item()).encode(), dtype=np.uint8)
                chars = field[row].view(np.uint8)
                chars[:] = 0
                chars[: text.size] = text
        chars = chunk.view(np.uint8)
        fh.write(chars[chars != 0])
