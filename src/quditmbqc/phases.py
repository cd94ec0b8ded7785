"""Phase bookkeeping for qudit operators.

All operator phases in this package are powers of tau, a fixed square root
of omega = exp(2*pi*i/d).  For odd d we take tau = omega**((d+1)/2), itself
a d-th root of unity, so tau-exponents live mod d.  For even d, tau =
exp(i*pi/d) is a primitive 2d-th root of unity and exponents live mod 2d.
Sums of tau-powers (which appear in measurement projections) are handled
exactly as integer vectors reduced modulo the cyclotomic polynomial.
"""

from __future__ import annotations

import cmath
from functools import lru_cache

from .errors import PhaseDomainError


def tau_period(d: int) -> int:
    """Multiplicative order of tau for dimension d."""
    return d if d % 2 == 1 else 2 * d


def tau_value(d: int) -> complex:
    """tau as a complex number (tau**2 == omega)."""
    if d % 2 == 1:
        return cmath.exp(2j * cmath.pi * ((d + 1) // 2) / d)
    return cmath.exp(1j * cmath.pi / d)


def omega_exponent(tau_exp: int, d: int) -> int:
    """Convert a tau-exponent to an omega-exponent in Z_d.

    Raises PhaseDomainError when the phase is not a d-th root of unity
    (odd tau-exponent with d even).
    """
    t = tau_exp % tau_period(d)
    if t % 2 == 0:
        return (t // 2) % d
    if d % 2 == 1:
        return (t * ((d + 1) // 2)) % d
    raise PhaseDomainError(f"tau^{t} is not an omega power for d={d}")


def tau_exponent_of_omega(omega_exp: int, d: int) -> int:
    """tau-exponent representing omega**omega_exp."""
    return (2 * omega_exp) % tau_period(d)


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the n-th cyclotomic polynomial."""
    # Phi_n(x) = (x^n - 1) / prod_{m | n, m < n} Phi_m(x), exact in Z[x].
    num = [-1] + [0] * (n - 1) + [1]
    for m in range(1, n):
        if n % m == 0:
            num = _polydiv_exact(num, list(cyclotomic_poly(m)))
    return tuple(num)


def _polydiv_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (den monic, remainder zero)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1]
        out[i] = c
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    assert all(c == 0 for c in num), "non-exact polynomial division"
    return out


class PhaseSum:
    """An exact integer combination of tau-powers for dimension d.

    Used to accumulate interference terms in measurement projections.
    Reduction modulo the cyclotomic polynomial of the tau order makes the
    zero test and the k*tau^t recognition exact.
    """

    __slots__ = ("d", "period", "coeffs")

    def __init__(self, d: int):
        self.d = d
        self.period = tau_period(d)
        self.coeffs = [0] * self.period

    def add_tau_power(self, tau_exp: int, weight: int = 1) -> None:
        self.coeffs[tau_exp % self.period] += weight

    def _reduced(self) -> list[int]:
        return _reduce(self.coeffs, self.period)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self._reduced())

    def conjugate(self) -> "PhaseSum":
        out = PhaseSum(self.d)
        for j, c in enumerate(self.coeffs):
            if c:
                out.add_tau_power(-j, c)
        return out

    def mul(self, other: "PhaseSum") -> "PhaseSum":
        out = PhaseSum(self.d)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out.add_tau_power(i + j, a * b)
        return out

    def key(self) -> tuple[int, ...]:
        """Canonical form: two sums are equal exactly when their keys are."""
        return tuple(self._reduced())

    def as_rational_integer(self) -> int | None:
        """The value as a plain integer, or None if it is not one."""
        rem = self._reduced()
        if any(rem[1:]):
            return None
        return rem[0]


def _reduce(coeffs: list[int], period: int) -> list[int]:
    """coeffs of a polynomial in tau, reduced modulo the cyclotomic
    polynomial of the tau order."""
    phi = cyclotomic_poly(period)
    deg = len(phi) - 1
    rem = list(coeffs)
    for i in range(len(rem) - 1, deg - 1, -1):
        c = rem[i]
        if c:
            for j in range(deg + 1):
                rem[i - deg + j] -= c * phi[j]
    return rem[:deg]


@lru_cache(maxsize=None)
def tau_power_keys(d: int) -> tuple[tuple[int, ...], ...]:
    """PhaseSum.key of tau^r for r = 0 .. period-1."""
    period = tau_period(d)
    return tuple(tuple(_reduce([int(j == r) for j in range(period)], period))
                 for r in range(period))
