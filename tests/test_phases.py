import random

import pytest

from quditmbqc.phases import (
    PhaseSum,
    _reduce,
    _tau_sum,
    cyclotomic_poly,
    omega_exponent,
    tau_period,
    tau_power_keys,
)


class TestCyclotomic:
    def test_small_cases(self):
        assert cyclotomic_poly(1) == (-1, 1)
        assert cyclotomic_poly(2) == (1, 1)
        assert cyclotomic_poly(3) == (1, 1, 1)
        assert cyclotomic_poly(4) == (1, 0, 1)
        assert cyclotomic_poly(6) == (1, -1, 1)

    def test_degree_is_totient(self):
        def phi(n):
            return sum(1 for k in range(1, n + 1) if __import__("math").gcd(k, n) == 1)

        for n in (5, 9, 10, 12, 18):
            assert len(cyclotomic_poly(n)) - 1 == phi(n)


class TestPhaseSum:
    def test_full_root_sum_vanishes(self):
        for d in (3, 5, 9):
            ps = PhaseSum(d)
            for j in range(d):
                ps.add_tau_power(2 * j)  # omega^j for j = 0..d-1
            assert ps.is_zero()

    def test_even_d_cancellation(self):
        ps = PhaseSum(2)
        ps.add_tau_power(1)
        ps.add_tau_power(3)  # i + (-i) = 0
        assert ps.is_zero()

    def test_tau_ratio_recognition(self):
        # 2 * tau^2 is tau^2 times 2: the product a * conj(b) reads tau^2 |b|^2,
        # and no other tau power
        base = PhaseSum(3)
        base.add_tau_power(0, weight=2)
        ps = PhaseSum(3)
        ps.add_tau_power(2)
        ps.add_tau_power(2)
        norm_sq = base.mul(base.conjugate()).as_rational_integer()
        assert norm_sq == 4
        scaled_units = [tuple(norm_sq * c for c in key) for key in tau_power_keys(3)]
        ratio = ps.mul(base.conjugate()).key()
        assert [r for r, key in enumerate(scaled_units) if key == ratio] == [2]
        assert ps.key() != base.key()

    def test_negative_unit_is_tau_squared_for_qubits(self):
        ps = PhaseSum(2)
        ps.add_tau_power(0, weight=-1)  # -1 = tau^2 for d=2
        assert ps.key() == tau_power_keys(2)[2]

    def test_tau_power_keys_are_distinct_units(self):
        for d in (2, 3, 4, 6, 9):
            keys = tau_power_keys(d)
            assert len(keys) == tau_period(d) == len(set(keys))
        one_plus_i = PhaseSum(4)
        one_plus_i.add_tau_power(0)
        one_plus_i.add_tau_power(2)  # 1 + i is no tau power
        assert one_plus_i.key() not in tau_power_keys(4)
        assert one_plus_i.mul(one_plus_i.conjugate()).as_rational_integer() == 2

    def test_period(self):
        assert tau_period(3) == 3
        assert tau_period(2) == 4
        assert tau_period(9) == 9
        assert tau_period(4) == 8

    def test_omega_exponent_consistency(self):
        # tau^(2k) is omega^k for every d
        for d in (2, 3, 4, 5, 9):
            for k in range(d):
                assert omega_exponent(2 * k, d) == k % d


def _random_exponents(rng: random.Random) -> list[int]:
    """Up to 30 exponents: small, negative and far past any period."""
    pick = [lambda: rng.randrange(-40, 40), lambda: rng.randrange(-10**6, 10**6),
            lambda: rng.choice([-1, 10**20 + 3, -(10**20) - 7])]
    return [rng.choice(pick)() for _ in range(rng.randrange(31))]


class TestTauSum:
    @pytest.mark.parametrize("period", range(2, 19))
    def test_matches_phase_sum_accumulation(self, period):
        rng = random.Random(period)
        for _ in range(50):
            exponents = _random_exponents(rng)
            ref = PhaseSum(2)
            ref.period, ref.coeffs = period, [0] * period  # add_tau_power reads only these
            for e in exponents:
                ref.add_tau_power(e)
            assert _tau_sum(exponents, period) == ref.coeffs
            assert sum(ref.coeffs) == len(exponents)

    @pytest.mark.parametrize("d", range(2, 10))
    def test_reduces_to_the_phase_sum_key(self, d):
        rng, period = random.Random(100 + d), tau_period(d)
        for _ in range(50):
            exponents = _random_exponents(rng)
            ref = PhaseSum(d)
            for e in exponents:
                ref.add_tau_power(e)
            assert tuple(_reduce(_tau_sum(exponents, period), period)) == ref.key()

    def test_takes_any_iterable(self):
        assert _tau_sum(iter([0, 3, -1, 7]), 4) == [1, 0, 0, 3]
        assert _tau_sum([], 5) == [0] * 5
