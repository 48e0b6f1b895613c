"""The batched FFT column transform and the gate-level transform against loop
and matrix references that share no code with either."""

import hashlib

import numpy as np
import pytest

from shorsim import _kernels


def brute_dft(support, amps, q):
    out = np.zeros(q, dtype=np.complex128)
    for c in range(q):
        acc = 0j
        for a, amp in zip(support, amps):
            acc += np.exp(2j * np.pi * a * c / q) * amp
        out[c] = acc
    return out / np.sqrt(q)


def random_state(q, right, seed):
    rng = np.random.default_rng(seed)
    mat = rng.normal(size=(q, right)) + 1j * rng.normal(size=(q, right))
    mat /= np.linalg.norm(mat)
    return mat.astype(np.complex128)


def random_amplitudes(rng, size):
    amps = (rng.normal(size=size) + 1j * rng.normal(size=size)).astype(np.complex128)
    return amps / np.linalg.norm(amps)


def columns_of(supports, amps, q):
    """(q, m) matrix whose column j holds amps[j] at rows supports[j]."""
    cols = np.zeros((q, len(supports)), dtype=np.complex128)
    for j, (support, values) in enumerate(zip(supports, amps)):
        cols[support, j] = values
    return cols


def assert_columns_match_brute_force(supports, amps, q):
    got = _kernels.dft_columns(columns_of(supports, amps, q))
    assert got.shape == (q, len(supports))
    for col, support, values in zip(got.T, supports, amps):
        assert np.max(np.abs(col - brute_dft(support, values, q))) <= 1e-12


@pytest.mark.parametrize("q", [8, 64, 256])
def test_dft_support_against_brute_force(q):
    # Columns with different supports: half, a quarter and one point of q.
    rng = np.random.default_rng(q)
    supports = [np.sort(rng.choice(q, size=size, replace=False)) for size in (q // 2, q // 4, 1)]
    amps = [random_amplitudes(rng, support.size) for support in supports]
    assert_columns_match_brute_force(supports, amps, q)


def test_dft_support_full_support():
    q = 256
    rng = np.random.default_rng(17)
    supports = [np.arange(q), np.arange(q)]
    amps = [random_amplitudes(rng, q), random_amplitudes(rng, q)]
    assert_columns_match_brute_force(supports, amps, q)


def test_dft_support_single_point():
    q, a = 64, 5
    got = _kernels.dft_columns(columns_of([[a]], [[1.0 + 0j]], q))[:, 0]
    expected = np.exp(2j * np.pi * a * np.arange(q) / q) / np.sqrt(q)
    assert np.max(np.abs(got - expected)) <= 1e-12
    assert np.max(np.abs(got - brute_dft([a], [1.0 + 0j], q))) <= 1e-12


def test_kernels_return_their_input_transformed():
    # Each kernel writes into the matrix it is handed and returns that array,
    # with the bits of an allocating reference: numpy's FFT without `out`, and
    # for the gate circuit the SHA-256 of the output it returned as a new,
    # reshaped copy of its bit-reversal transpose.
    cols = random_state(99, 73, seed=8)
    expected = np.fft.ifft(cols, axis=0, norm="ortho")
    assert _kernels.dft_columns(cols) is cols
    assert cols.tobytes() == expected.tobytes()

    mat = random_state(128, 3, seed=9)
    assert _kernels.qft_gates(mat, 7) is mat
    assert hashlib.sha256(mat.tobytes()).hexdigest() == (
        "4bbed255a8ac0a640aab7f3987741d89481a01da8d1588b3e80eddb67297d577"
    )


@pytest.mark.parametrize("s", range(1, 11))
@pytest.mark.parametrize("right", [1, 3])
def test_gate_transform_matches_dft_matrix(s, right):
    q = 1 << s
    mat = random_state(q, right, seed=100 * s + right)
    dft = np.exp(2j * np.pi * np.outer(np.arange(q), np.arange(q)) / q) / np.sqrt(q)
    got = _kernels.qft_gates(mat.copy(), s)
    assert np.max(np.abs(got - dft @ mat)) <= 1e-12
