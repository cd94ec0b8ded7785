"""Symplectic Weyl/Clifford algebra over Z_d at the label level.

Single-site Weyl operators W_(a,b) = tau^(-ab) Z^a X^b are tracked as label
pairs (a, b) in Z_d^2 with a tau-exponent prefactor.  Vector convention is
(Z-part, X-part) with symplectic form [[0,1],[-1,0]], fixed project-wide.

Conjugation by a Clifford control V = U W_x follows one rule at every d:
U W_v U^-1 = W_(Cv) exactly on labels carried mod tau_period(d) (d at odd d,
2d at even d), so V^f W_v V^-f = omega^(sum_k [x, C^k v]) W_(C^f v) with no
per-step correction of the carried label; reduce_label folds the wraparound
into the phase of each label read off the orbit, so one walk of f steps
gives every power up to f (Appleby, J. Math. Phys. 46, 052107 (2005)).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .errors import QuditMbqcError, plain_dimension, plain_int, plain_ints
from .phases import omega_exponent, tau_period


def symplectic_product(v: tuple[int, int], w: tuple[int, int], d: int) -> int:
    """[v, w] = v^T sigma w mod d with sigma = [[0,1],[-1,0]]."""
    (a, b), (c, e) = plain_ints(v, "label v", 2), plain_ints(w, "label w", 2)
    return (a * e - b * c) % plain_dimension(d)


def check_symplectic(C, d: int) -> bool:
    """True iff C^T sigma C == sigma mod d (2x2 case: det C == 1)."""
    (a, b), (c, e) = C
    return (a * e - b * c) % d == 1 % d


def reduce_label(a: int, b: int, d: int) -> tuple[int, int, int]:
    """Reduce an integer label mod d; returns (a', b', tau_correction).

    W_(a,b) = tau^corr * W_(a', b').  corr is a multiple of d, hence an
    omega power; it vanishes identically for odd d.
    """
    ar, br = a % d, b % d
    corr = (a * b - ar * br) % tau_period(d)
    return ar, br, corr


def weyl_power(t: int, v: tuple[int, int], e: int, d: int) -> tuple[int, tuple[int, int]]:
    """(tau^t W_v)^e for e >= 0 as (tau_exp, label)."""
    if e < 0:
        raise ValueError("exponent must be non-negative")
    a, b, corr = reduce_label(e * v[0], e * v[1], d)
    return (e * t + corr) % tau_period(d), (a, b)


@dataclass(frozen=True)
class WeylLabel:
    """A Weyl operator label with tau-power prefactor."""

    d: int
    v: tuple[int, int]
    tau_exp: int = 0

    def __post_init__(self):
        d = plain_dimension(self.d)
        a, b = plain_ints(self.v, "fiducial v", 2)
        tau_exp = plain_int(self.tau_exp, "fiducial tau_exp")
        object.__setattr__(self, "v", (a % d, b % d))
        object.__setattr__(self, "tau_exp", tau_exp % tau_period(d))

    def to_json(self) -> dict:
        return {"v": list(self.v), "tau_exp": self.tau_exp}

    @classmethod
    def from_json(cls, d: int, obj: dict) -> "WeylLabel":
        return cls(d, obj["v"], obj.get("tau_exp", 0))


def commutation_phase(v: WeylLabel, w: WeylLabel) -> int:
    """Exponent k with W_v W_w = omega^k W_w W_v."""
    for label in (v, w):
        if not isinstance(label, WeylLabel):
            raise QuditMbqcError(f"label is {label!r}, expected a WeylLabel")
    if v.d != w.d:
        raise QuditMbqcError(f"dimension mismatch: {v.d} != {w.d}")
    return symplectic_product(v.v, w.v, v.d)


@dataclass(frozen=True)
class CliffordSpec:
    """Single-site Clifford control V = U W_x up to a tau-power.

    C is the 2x2 symplectic action of the symplectic part U, x the
    displacement, tau_exp a global phase exponent (irrelevant under
    conjugation, kept for serialization fidelity).  A control is written
    from its value: {"named": "S"} or {"named": "Mu", "u": C[1][1]} when x
    and tau_exp are 0 and C is S's matrix or diagonal, else the matrix form.
    """

    d: int
    C: tuple[tuple[int, int], tuple[int, int]]
    x: tuple[int, int] = (0, 0)
    tau_exp: int = 0

    def __post_init__(self):
        d = plain_dimension(self.d)
        if not isinstance(self.C, (list, tuple)) or len(self.C) != 2:
            raise QuditMbqcError(f"control C is {self.C!r}, expected 2 rows of 2 integers")
        C = tuple(tuple(c % d for c in plain_ints(row, "control C row", 2)) for row in self.C)
        x = plain_ints(self.x, "control x", 2)
        tau_exp = plain_int(self.tau_exp, "control tau_exp")
        if not check_symplectic(C, d):
            raise QuditMbqcError(f"matrix {C} is not symplectic mod {d}")
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "x", (x[0] % d, x[1] % d))
        object.__setattr__(self, "tau_exp", tau_exp % tau_period(d))

    def apply_C(self, v: tuple[int, int]) -> tuple[int, int]:
        (a, b), (c, e) = self.C
        return ((a * v[0] + b * v[1]) % self.d, (c * v[0] + e * v[1]) % self.d)

    def monomial_factors(self) -> tuple[int, int] | None:
        """Factor C = C_{M_s} C_{S^m} when C is upper triangular.

        Returns (s, m) or None.  Upper-triangular symplectic actions are
        exactly the ones realizable by monomial (generalized-permutation)
        unitaries, which covers every control used in this package.
        """
        (p, q), (c, s) = self.C
        if c != 0:
            return None
        return s, (s * q) % self.d  # det C = p*s = 1 mod d, so s is a unit

    def to_json(self) -> dict:
        if self.x == (0, 0) and not self.tau_exp:
            if self.C == ((1, 1), (0, 1)):
                return {"named": "S"}
            if self.C[0][1] == self.C[1][0] == 0:
                return {"named": "Mu", "u": self.C[1][1]}
        return {"C": [list(r) for r in self.C], "x": list(self.x), "tau_exp": self.tau_exp}

    @classmethod
    def from_json(cls, d: int, obj: dict) -> "CliffordSpec":
        if "named" in obj:
            if obj["named"] == "S":
                return named_clifford(d, "S")
            if obj["named"] == "Mu":
                return named_clifford(d, "Mu", u=obj["u"])
            raise QuditMbqcError(f"unknown named control {obj['named']!r}")
        return cls(d, obj["C"], obj.get("x", (0, 0)), obj.get("tau_exp", 0))


def named_clifford(d: int, name: str, u: int | None = None,
                   x: tuple[int, int] | None = None) -> CliffordSpec:
    """Construct S, M_u, or a pure Weyl displacement.

    S acts on labels as [[1,1],[0,1]] (X goes to ZX up to phase); M_u as
    diag(u^-1, u); a displacement has identity symplectic part.
    """
    d = plain_dimension(d)
    if name == "S":
        return CliffordSpec(d, ((1, 1), (0, 1)))
    if name == "Mu":
        if math.gcd(plain_int(u, "control u") % d, d) != 1:
            raise QuditMbqcError(f"u={u} is not a unit mod {d}")
        uinv = pow(u % d, -1, d)
        return CliffordSpec(d, ((uinv, 0), (0, u % d)))
    if name == "weyl-displacement":
        if x is None:
            raise QuditMbqcError("displacement needs x")
        return CliffordSpec(d, ((1, 0), (0, 1)), x=x)
    raise QuditMbqcError(f"unknown Clifford name {name!r}")


def conjugate_weyl(spec: CliffordSpec, v: tuple[int, int], f: int) -> tuple[int, tuple[int, int]]:
    """Exact conjugation V^f W_v V^-f = omega^phase W_label.

    The phase is state-independent and always an omega power.  At odd d any
    symplectic C acts on labels mod d.  At even d C must be upper triangular,
    C = C_(M_s) C_(S^m), and its lift [[s^-1, s^-1 m], [0, s]] with s^-1 taken
    mod 2d acts exactly on labels mod 2d.
    """
    if not isinstance(spec, CliffordSpec):
        raise QuditMbqcError(f"control is {spec!r}, expected a CliffordSpec")
    v = plain_ints(v, "label v", 2)
    if plain_int(f, "f") < 0:
        raise ValueError("f must be non-negative")
    return deque(_orbit(spec, v, f + 1), maxlen=1)[0]


def _orbit(spec: CliffordSpec, v: tuple[int, int], count: int):
    """conjugate_weyl(spec, v, f) for f = 0..count-1, one step apart."""
    d, period = spec.d, tau_period(spec.d)
    (p, q), (c, s) = spec.C
    if period != d:  # even d
        factors = spec.monomial_factors()
        if factors is None:
            raise QuditMbqcError("even-d conjugation needs an upper-triangular "
                                 "(monomial) symplectic part")
        s, m = factors
        p = pow(s, -1, period)
        q = p * m
    (x0, x1), a, b = spec.x, v[0] % d, v[1] % d
    phase = 0
    for _ in range(count):
        ar, br, corr = reduce_label(a, b, d)
        yield (phase + omega_exponent(corr, d)) % d, (ar, br)
        phase += x0 * b - x1 * a
        a, b = (p * a + q * b) % period, (c * a + s * b) % period
