"""Constructive generation of plans from target functions.

Covers the three worked computations (three-qubit NAND, the quadratic
f(f-1)/2 output on the 2d-qudit resource, and the exponential u^-f output)
plus two general single-variable compilations: any m: Z_p -> Z_p on
p(p-1)^2 qudits (prime p), and any m: Z_d -> Z_d on 2d qudits (odd d,
composite allowed).  Both are sums of deltas at each point j, laid out by
one builder from a gadget of (setting multiplier, control) pairs.  Every
compiled plan is temporally flat and is verified against its target table
before being reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .engine import MbqcPlan, extract_output_function
from .errors import QuditMbqcError, VerificationError
from . import fields
from .fields import is_prime, make_field
from .states import SparseState, basis_state, make_example2_state
from .weyl import CliffordSpec, WeylLabel, named_clifford


@dataclass
class CompileReport:
    """A compiled plan with its target table and verification status."""

    plan: MbqcPlan
    qudit_count: int
    construction: str
    target: dict
    verified: bool = False

    def to_json(self) -> dict:
        return {
            "construction": self.construction,
            "qudit_count": self.qudit_count,
            "verified": self.verified,
            "target": {",".join(map(str, k)): v for k, v in sorted(self.target.items())},
            "plan": self.plan.to_json(),
        }


def verify(report: CompileReport) -> bool:
    """Recompute the output table and compare against the target.

    Marks the report verified on success; raises VerificationError naming
    the first differing input otherwise.
    """
    table, _ = extract_output_function(report.plan)
    for i in sorted(report.target):
        want = report.target[i] % report.plan.d
        if table[i] != want:
            report.verified = False
            raise VerificationError(
                f"output mismatch at input {i}: plan gives {table[i]}, target {want}"
            )
    report.verified = True
    return True


def compile_nand() -> CompileReport:
    """The three-qubit NAND computation on the signed GHZ state
    (|001> - |110>)/sqrt(2).

    Controls are the qubit Clifford with symplectic part [[1,1],[0,1]] and
    displacement (0,1) (the (X+Y)/sqrt(2) rotation up to phase); settings
    are i1, i2, i1+i2.
    """
    d = 2
    fid = WeylLabel(d, (0, 1))
    control = CliffordSpec(d, ((1, 1), (0, 1)), (0, 1))
    plan = MbqcPlan(
        d=d, n=2, N=3,
        resource=SparseState(2, 3, ((0, (0, 0, 1)), (2, (1, 1, 0)))),
        parties=[(fid, control)] * 3,
        Q=[[1, 0], [0, 1], [1, 1]],
        z=[1, 1, 1], s0=0,
    )
    target = {(i1, i2): 1 - (i1 * i2) % 2 for i1 in range(2) for i2 in range(2)}
    report = CompileReport(plan, 3, "nand-ghz", target)
    verify(report)
    return report


def compile_quadratic(d: int, f: list[int] | None = None) -> CompileReport:
    """Quadratic output f(i)(f(i)-1)/2 from accumulated symplectic products.

    2d qudits on the shifted-pair resource state; the first party's control
    carries the displacement (0,-1) so each power of the phase gate
    contributes its step index to the output phase.
    """
    if d < 3 or d % 2 == 0 or not is_prime(d):
        raise QuditMbqcError("quadratic compilation needs an odd prime d")
    f = list(f) if f is not None else [1]
    n = len(f)
    N = 2 * d
    fid = WeylLabel(d, (0, 1))
    first = CliffordSpec(d, ((1, 1), (0, 1)), (0, d - 1))
    s_gate = named_clifford(d, "S")
    plan = MbqcPlan(
        d=d, n=n, N=N,
        resource=make_example2_state(d),
        parties=[(fid, first)] + [(fid, s_gate)] * (N - 1),
        Q=[list(f)] * N,
        z=[1] * N, s0=0,
    )
    target = {}
    for i in plan.inputs():
        fi = sum(c * v for c, v in zip(f, i)) % d
        target[i] = (fi * (fi - 1) // 2) % d
    report = CompileReport(plan, N, "quadratic", target)
    verify(report)
    return report


def compile_exponential(d: int, u: int, f: list[int] | None = None) -> CompileReport:
    """Single-qudit exponential output u^-f(i) via the multiplier gate."""
    if not is_prime(d):
        raise QuditMbqcError("exponential compilation needs prime d")
    if math.gcd(u % d, d) != 1:
        raise QuditMbqcError(f"u={u} is not a unit mod {d}")
    f = list(f) if f is not None else [1]
    n = len(f)
    plan = MbqcPlan(
        d=d, n=n, N=1,
        resource=basis_state(d, (1,)),
        parties=[(WeylLabel(d, (1, 0)), named_clifford(d, "Mu", u=u))],
        Q=[list(f)],
        z=[1], s0=0,
    )
    uinv = pow(u % d, -1, d)
    target = {}
    for i in plan.inputs():
        fi = sum(c * v for c, v in zip(f, i)) % d
        target[i] = pow(uinv, fi, d)
    report = CompileReport(plan, 1, "exponential", target)
    verify(report)
    return report


def primitive_element(p: int) -> int:
    """Smallest generator of the multiplicative group mod prime p."""
    if not is_prime(p):
        raise QuditMbqcError(f"{p} is not prime")
    return fields.primitive_element(make_field(p))


def exponential_sum(p: int, u: int, x: int) -> int:
    """sum_{k=1}^{p-1} (u^x)^k mod p; equals p-1 at x in {0, p-1}, else 0."""
    return sum(pow(u, x * k, p) for k in range(1, p)) % p


def sigma_table(p: int, u: int | None = None) -> list[int]:
    """Normalized exponential sum (p-1)^-1 sum_l (u^x)^l for x = 0..p-1."""
    u = primitive_element(p) if u is None else u
    inv = pow(p - 1, -1, p)
    return [(inv * exponential_sum(p, u, x)) % p for x in range(p)]


def delta_from_sigma(p: int, u: int | None = None) -> list[int]:
    """Recover the delta table via 1 + (p-1)/2 * (1 + sum_k sigma((k*x) mod p))."""
    sigma = sigma_table(p, u)
    half = (p - 1) // 2
    out = []
    for x in range(p):
        acc = sum(sigma[(k * x) % p] for k in range(1, p))
        out.append((1 + half * (1 + acc)) % p)
    return out


def _normalize_target(m, d: int) -> dict:
    """A list of exactly d integers, or a dict on exactly the points 0..d-1
    (ints or 1-tuples) with integer values, as {(x,): m(x) mod d}."""
    if isinstance(m, dict):
        table = {(k if isinstance(k, tuple) else (k,)): v for k, v in m.items()}
        if len(table) != len(m) or set(table) != {(x,) for x in range(d)}:
            raise QuditMbqcError(f"target must cover all {d} inputs of one variable")
    else:
        m = list(m)
        if len(m) != d:
            raise QuditMbqcError(f"target must list {d} values, got {len(m)}")
        table = {(x,): v for x, v in enumerate(m)}
    for x, v in table.items():
        if not isinstance(v, int):
            raise QuditMbqcError(f"target value {v!r} at input {x[0]} is not an integer")
    return {x: v % d for x, v in table.items()}


def _delta_sum(target: dict, d: int, gadget, s0: int, construction: str) -> CompileReport:
    """One party per point j and gadget pair (k, control): fiducial Z on |1>,
    setting k(x-j), weight m(j)/2.  The gadget's outcomes must sum to 2 + c
    at x = j and to c elsewhere; s0 = -c * sum_j m(j)/2 cancels c."""
    fid = WeylLabel(d, (1, 0))
    inv2 = pow(2, -1, d)
    parties, Q, q0, z = [], [], [], []
    for j in range(d):
        zj = (target[(j,)] * inv2) % d
        for k, control in gadget:
            parties.append((fid, control))
            Q.append([k])
            q0.append((-k * j) % d)
            z.append(zj)
    N = len(parties)
    plan = MbqcPlan(d=d, n=1, N=N, resource=basis_state(d, (1,) * N),
                    parties=parties, Q=Q, z=z, s0=s0, q0=q0)
    report = CompileReport(plan, N, construction, target)
    verify(report)
    return report


def compile_general_prime(m, p: int | None = None) -> CompileReport:
    """Compile any m: Z_p -> Z_p as a flat plan on p(p-1)^2 qudits.

    One exponential party per triple (j, k, l): control is the multiplier
    gate for u^-l, the setting is k*(x-j), so the party's outcome is the
    power (u^(k(x-j) mod p))^l.  Summing over l kills every value of
    k(x-j) outside {0, p-1}, summing over k then isolates x = j, and the
    post-processing row m_j/2 with constant sum_j m_j/2 assembles m(x).

    For p = 2 every target is affine and a single-qubit plan suffices.
    """
    if p is None:
        p = len(m)
    if not is_prime(p):
        raise QuditMbqcError(f"general compilation needs prime p, got {p}")
    target = _normalize_target(m, p)
    if p == 2:
        return _compile_affine_qubit(target)
    u = primitive_element(p)
    controls = [named_clifford(p, "Mu", u=pow(u, -l, p)) for l in range(1, p)]
    s0 = (pow(2, -1, p) * sum(target.values())) % p
    return _delta_sum(target, p, [(k, c) for k in range(1, p) for c in controls],
                      s0, "prime-general")


def _compile_affine_qubit(target: dict) -> CompileReport:
    """Every boolean one-variable table is affine: one displaced-control qubit."""
    m0, m1 = target[(0,)], target[(1,)]
    c = (m0 + m1) % 2
    plan = MbqcPlan(
        d=2, n=1, N=1,
        resource=basis_state(2, (1,)),
        parties=[(WeylLabel(2, (1, 0)), named_clifford(2, "weyl-displacement", x=(0, 1)))],
        Q=[[c]],
        z=[1], s0=(m0 + 1) % 2,
    )
    report = CompileReport(plan, 1, "prime-general", target)
    verify(report)
    return report


def compile_odd_ring(m, d: int | None = None) -> CompileReport:
    """Compile any m: Z_d -> Z_d (odd d, composite allowed) on 2d qudits.

    Uses the self-inverse multiplier gate for d-1: the party outcome
    (d-1)^(k(x-j) mod d) for k = +-1 pairs exponents of opposite parity
    whenever x != j, so each (j, +-) pair contributes the delta at j.
    """
    if d is None:
        d = len(m)
    if d < 3 or d % 2 == 0:
        raise QuditMbqcError("odd-ring compilation needs odd d >= 3 (2 must be a unit)")
    target = _normalize_target(m, d)
    control = named_clifford(d, "Mu", u=d - 1)
    return _delta_sum(target, d, [(1, control), (d - 1, control)], 0, "odd-ring")
