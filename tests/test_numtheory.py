import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shorsim.errors import InvalidOrderError, NotCoprimeError, UndefinedInputError
from shorsim.numtheory import (
    FactorPair,
    continued_fraction_convergents,
    euler_phi,
    factor_from_order,
    gcd,
    mod_pow,
    mod_pow_array,
    multiplicative_order,
    order_recovery_steps,
    prime_factors,
    recover_order_from_sample,
    recoverable_controls,
)
from shorsim.registers import ProblemInstance

# Odd composite non-prime-power n: the inputs order finding is run on.
FACTORABLE_N_150 = [n for n in range(9, 151, 2) if len(prime_factors(n)) > 1]
FACTORABLE_N_45 = [n for n in FACTORABLE_N_150 if n <= 45]


def coprime_bases(n):
    return [x for x in range(2, n) if math.gcd(x, n) == 1]


def brute_order(x, n):
    y = x % n
    r = 1
    while y != 1:
        y = (y * x) % n
        r += 1
    return r


class TestGcd:
    def test_examples(self):
        assert gcd(48, 15) == 3
        assert gcd(7, 1) == 1
        assert gcd(0, 9) == 9

    def test_both_zero_is_undefined(self):
        with pytest.raises(UndefinedInputError):
            gcd(0, 0)


class TestModPow:
    def test_examples(self):
        assert mod_pow(7, 4, 15) == 1  # 7^4 = 2401 = 160*15 + 1
        assert mod_pow(2, 6, 21) == 1
        for x, n in [(3, 7), (10, 21), (999, 1000)]:
            assert mod_pow(x, 0, n) == 1

    def test_matches_brute_multiplication(self):
        for x in range(2, 12):
            acc = 1
            for e in range(0, 40):
                assert mod_pow(x, e, 1009) == acc
                acc = (acc * x) % 1009

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            mod_pow(2, 3, 1)


class TestMultiplicativeOrder:
    def test_examples(self):
        assert multiplicative_order(7, 15) == 4
        assert multiplicative_order(2, 21) == 6
        for n in (5, 9, 14, 33):
            assert multiplicative_order(1, n) == 1

    def test_not_coprime_carries_factor(self):
        with pytest.raises(NotCoprimeError) as err:
            multiplicative_order(6, 15)
        assert err.value.common_factor == 3

    def test_order_is_minimal(self):
        for n in range(3, 60):
            for x in range(2, n):
                if math.gcd(x, n) != 1:
                    continue
                r = multiplicative_order(x, n)
                assert mod_pow(x, r, n) == 1
                assert all(mod_pow(x, t, n) != 1 for t in range(1, r))


class TestEulerPhi:
    def test_examples(self):
        assert euler_phi(1) == 1
        assert euler_phi(4) == 2  # {1, 3}
        assert euler_phi(12) == 4  # {1, 5, 7, 11}

    def test_matches_brute_count_up_to_1000(self):
        for r in range(1, 1001):
            brute = sum(1 for k in range(1, r + 1) if math.gcd(k, r) == 1)
            assert euler_phi(r) == brute, r


class TestConvergents:
    def test_examples(self):
        assert continued_fraction_convergents(192, 256) == [(0, 1), (1, 1), (3, 4)]
        assert continued_fraction_convergents(0, 256) == [(0, 1)]
        assert continued_fraction_convergents(64, 256) == [(0, 1), (1, 4)]

    @given(st.integers(min_value=0, max_value=4095), st.integers(min_value=4, max_value=12))
    def test_invariants(self, c, s):
        q = 1 << s
        c = c % q
        pairs = continued_fraction_convergents(c, q)
        # Fraction is the oracle: each pair is already in lowest terms with a
        # positive denominator, so Fraction leaves it as it is.
        convergents = [Fraction(*pair) for pair in pairs]
        assert [(f.numerator, f.denominator) for f in convergents] == pairs
        assert convergents[-1] == Fraction(c, q)
        # Denominators increase; the only permitted tie is 0/1 followed by a
        # second convergent with denominator 1 (second quotient equal to 1).
        denominators = [conv.denominator for conv in convergents]
        assert denominators[0] <= denominators[-1]
        assert all(a <= b for a, b in zip(denominators, denominators[1:]))
        assert all(a < b for a, b in zip(denominators[1:], denominators[2:]))
        target = Fraction(c, q)
        for conv in convergents:
            assert abs(target - conv) < Fraction(1, conv.denominator**2)

    def test_denominators_increase(self):
        for c in range(1, 512):
            dens = [den for _, den in continued_fraction_convergents(c, 512)]
            assert all(a <= b for a, b in zip(dens, dens[1:]))
            assert all(a < b for a, b in zip(dens[1:], dens[2:]))


class TestRecoverOrder:
    def test_examples(self):
        assert recover_order_from_sample(192, 256, 7, 15, 1) == 4
        assert recover_order_from_sample(0, 256, 7, 15, 1) is None
        # convergent 1/2 fails (7^2 = 4), the multiple 2*2 = 4 verifies
        assert recover_order_from_sample(128, 256, 7, 15, 2) == 4

    def test_not_coprime_rejected(self):
        with pytest.raises(NotCoprimeError):
            recover_order_from_sample(64, 256, 6, 15, 1)

    def test_recorded_steps(self):
        # 128/256 = 1/2: t = 1 fails for m = 1, 2; t = 2 fails, then 2*2 = 4 verifies
        assert order_recovery_steps(128, 256, 7, 15, 2) == (
            4,
            [(0, 1), (1, 2)],
            [(1, 1, False), (2, 2, False), (2, 1, False), (4, 2, True)],
        )
        # 7/256 has a convergent with denominator >= 15: recorded, then the scan stops
        raw, convergents, checks = order_recovery_steps(7, 256, 7, 15, 1)
        assert raw is None
        assert convergents[-1][1] >= 15
        assert all(not verified for _, _, verified in checks)

    def test_steps_agree_with_recovery(self):
        for bound in (1, 3):
            for c in range(512):
                raw, _, checks = order_recovery_steps(c, 512, 2, 21, bound)
                assert raw == recover_order_from_sample(c, 512, 2, 21, bound)
                assert (raw is not None) == (bool(checks) and checks[-1][2])

    def test_recovered_candidate_is_verified(self):
        for c in range(0, 512, 7):
            candidate = recover_order_from_sample(c, 512, 2, 21, 4)
            if candidate is not None:
                assert mod_pow(2, candidate, 21) == 1


class TestModPowArray:
    @pytest.mark.parametrize("n", FACTORABLE_N_45)
    def test_equals_pow_for_every_exponent(self, n):
        q = ProblemInstance.create(n, 2).q
        exponents = np.arange(q, dtype=np.int64)
        for x in coprime_bases(n):
            got = mod_pow_array(x, exponents, n)
            assert got.dtype == np.int64
            assert got.tolist() == [pow(x, e, n) for e in range(q)]

    def test_empty_and_zero_exponents(self):
        assert mod_pow_array(7, np.zeros(3, dtype=np.int64), 15).tolist() == [1, 1, 1]
        assert mod_pow_array(7, np.zeros(0, dtype=np.int64), 15).size == 0

    def test_int64_guard(self):
        # (n-1)^2 must stay below 2^63; the largest allowed n passes.
        largest = math.isqrt(2**63 - 1) + 1
        assert mod_pow_array(2, np.array([64]), largest).tolist() == [pow(2, 64, largest)]
        with pytest.raises(ValueError, match="too large"):
            mod_pow_array(2, np.array([3]), largest + 1)

    def test_bad_arguments(self):
        with pytest.raises(ValueError, match="modulus"):
            mod_pow_array(2, np.array([3]), 1)
        with pytest.raises(ValueError, match="non-negative"):
            mod_pow_array(2, np.array([3, -1]), 15)


def scalar_mask(q, x, n, bound):
    return [recover_order_from_sample(c, q, x, n, bound) is not None for c in range(q)]


class TestRecoverableControls:
    @pytest.mark.parametrize("n", FACTORABLE_N_45)
    def test_equals_scalar_rule_exhaustively(self, n):
        q = ProblemInstance.create(n, 2).q
        for x in coprime_bases(n):
            for bound in (1, 8):
                mask = recoverable_controls(q, x, n, bound)
                assert mask.dtype == np.bool_
                assert mask.tolist() == scalar_mask(q, x, n, bound)

    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_equals_scalar_rule(self, data):
        n = data.draw(st.sampled_from(FACTORABLE_N_150), label="n")
        x = data.draw(st.sampled_from(coprime_bases(n)), label="x")
        bound = data.draw(st.integers(min_value=1, max_value=8), label="bound")
        q = ProblemInstance.create(n, x).q
        assert recoverable_controls(q, x, n, bound).tolist() == scalar_mask(q, x, n, bound)

    def test_any_denominator(self):
        # The rule is defined for every q >= 1, not only the powers of two
        # the circuit uses.
        for q in (1, 2, 3, 100, 255, 1000):
            for bound in (1, 2):
                assert recoverable_controls(q, 2, 21, bound).tolist() == scalar_mask(q, 2, 21, bound)

    def test_not_coprime_rejected(self):
        with pytest.raises(NotCoprimeError):
            recoverable_controls(256, 6, 15, 1)

    def test_int64_guard(self):
        # Denominators stay below (q+1)*n; the check runs before any allocation.
        with pytest.raises(ValueError, match="too large"):
            recoverable_controls(2**62, 2, 3, 1)


class TestFactorFromOrder:
    def test_examples(self):
        assert factor_from_order(15, 7, 4) == FactorPair(3, 5)
        assert factor_from_order(15, 14, 2) is None  # 14 = -1 (mod 15)
        assert factor_from_order(21, 2, 6) == FactorPair(3, 7)

    def test_invalid_order_rejected(self):
        with pytest.raises(InvalidOrderError):
            factor_from_order(15, 7, 3)

    def test_odd_order_returns_none(self):
        # ord_31(5) = 3
        assert multiplicative_order(5, 31) == 3
        assert factor_from_order(31, 5, 3) is None

    def test_product_invariant(self):
        for n in (15, 21, 33, 35, 39, 51, 55, 57, 65):
            for x in range(2, n):
                if math.gcd(x, n) != 1:
                    continue
                pair = factor_from_order(n, x, brute_order(x, n))
                if pair is not None:
                    assert pair.f1 * pair.f2 == n
                    assert 1 < pair.f1 <= pair.f2 < n


class TestFactorPair:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            FactorPair(5, 3)
        with pytest.raises(ValueError):
            FactorPair(1, 15)

    def test_of_checks_product(self):
        assert FactorPair.of(15, 5, 3) == FactorPair(3, 5)
        with pytest.raises(ValueError):
            FactorPair.of(16, 3, 5)


class TestPrimeFactors:
    def test_examples(self):
        assert prime_factors(1) == []
        assert prime_factors(2) == [(2, 1)]
        assert prime_factors(81) == [(3, 4)]
        assert prime_factors(360) == [(2, 3), (3, 2), (5, 1)]
        assert prime_factors(2 * 1009) == [(2, 1), (1009, 1)]

    def test_matches_brute_force_below_2000(self):
        primes = [p for p in range(2, 2000) if all(p % d for d in range(2, p))]
        for m in range(1, 2000):
            expected = []
            for p in primes:
                e = 0
                while m % p ** (e + 1) == 0:
                    e += 1
                if e:
                    expected.append((p, e))
            assert prime_factors(m) == expected, m

    def test_rejects_below_one(self):
        for m in (0, -1, -12):
            with pytest.raises(ValueError):
                prime_factors(m)
