"""Constructive generation of plans from target functions.

Covers the three worked computations (three-qubit NAND, the quadratic
f(f-1)/2 output on the 2d-qudit resource at odd d, and the exponential
u^-f output at any d)
plus two general single-variable compilations: any m: Z_p -> Z_p on
p(p-1)^2 qudits (prime p), and any m: Z_d -> Z_d on 2d qudits (odd d,
composite allowed).  Both are sums of deltas at each point j, built from a
gadget of (setting multiplier, control) pairs.  Every construction is a list
of (control, Q row, q0, z) rows laid out by one builder, so every compiled
plan is temporally flat; each is verified against its target table before
being reported.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import MbqcPlan, _check_plan, _point_table
from .errors import QuditMbqcError, VerificationError, plain_int
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
            # a plain int point is the 1-tuple of it, as verify reads it
            "target": {",".join(map(str, k)) if isinstance(k, tuple) else str(k): v
                       for k, v in sorted(self.target.items())},
            "plan": self.plan.to_json(),
        }


def verify(report: CompileReport) -> bool:
    """Recompute the output table and compare against the target.

    The target is read by fields._table_values: a complete table on the
    plan's inputs, with integer values read mod d; a bad target raises
    QuditMbqcError.  Marks the report verified on success; raises
    VerificationError naming the first differing input, in input order, or
    saying that the plan is not deterministic, otherwise.
    """
    if not isinstance(report, CompileReport):
        raise QuditMbqcError(f"report is {report!r}, expected a CompileReport")
    plan = _check_plan(report.plan)
    report.verified = False
    try:
        values = fields._table_values(report.target, plan.d, plan.n)[1]
    except ValueError as exc:
        raise QuditMbqcError(f"target: {exc}") from None
    table = _point_table(plan)
    if table is None:
        raise VerificationError("plan is not deterministic: an output law is not a point mass")
    for (i, got), want in zip(table.items(), values):  # both in input order
        if got != want:
            raise VerificationError(f"output mismatch at input {i}: plan gives {got}, target {want}")
    report.verified = True
    return True


def _layout(d: int, n: int, resource: SparseState, v: tuple[int, int], rows,
            s0: int) -> MbqcPlan:
    """The flat plan on resource with fiducial W_v at every party, one party
    per (control, Q row, q0, z) row, and output constant s0, built by
    MbqcPlan._trusted, which checks each distinct control and Q-row object
    once."""
    controls, Q, q0, z = zip(*rows)
    return MbqcPlan._trusted(d, n, resource, WeylLabel(d, v), controls, Q, q0, z, s0)


def _of_linear(plan: MbqcPlan, f: list[int], g) -> dict:
    """The target {i: g(f.i mod d) mod d} on the plan's inputs."""
    d = plan.d
    return {i: g(sum(c * v for c, v in zip(f, i)) % d) % d for i in plan.inputs()}


def _verified(plan: MbqcPlan, construction: str, target: dict) -> CompileReport:
    """The verified report of a plan on its plan.N qudits."""
    report = CompileReport(plan, plan.N, construction, target)
    verify(report)
    return report


def compile_nand() -> CompileReport:
    """The three-qubit NAND computation on the signed GHZ state
    (|001> - |110>)/sqrt(2).

    Controls are the qubit Clifford with symplectic part [[1,1],[0,1]] and
    displacement (0,1) (the (X+Y)/sqrt(2) rotation up to phase); settings
    are i1, i2, i1+i2.
    """
    control = CliffordSpec(2, ((1, 1), (0, 1)), (0, 1))
    resource = SparseState(2, 3, ((0, (0, 0, 1)), (2, (1, 1, 0))))
    rows = [(control, q, 0, 1) for q in ((1, 0), (0, 1), (1, 1))]
    plan = _layout(2, 2, resource, (0, 1), rows, 0)
    target = {(i1, i2): 1 - (i1 * i2) % 2 for i1 in range(2) for i2 in range(2)}
    return _verified(plan, "nand-ghz", target)


def compile_quadratic(d: int, f: list[int] | None = None) -> CompileReport:
    """Quadratic output f(i)(f(i)-1)/2 from accumulated symplectic products.

    2d qudits on the shifted-pair resource state; the first party's control
    carries the displacement (0,-1) so each power of the phase gate
    contributes its step index to the output phase.
    """
    if plain_int(d, "d") < 3 or d % 2 == 0:
        raise QuditMbqcError("quadratic compilation needs odd d >= 3")
    f = [1] if f is None else list(_listed(f, "f", (list, tuple), "a list of coefficients"))
    first = CliffordSpec(d, ((1, 1), (0, 1)), (0, d - 1))
    rows = [(first, f, 0, 1)] + [(named_clifford(d, "S"), f, 0, 1)] * (2 * d - 1)
    plan = _layout(d, len(f), make_example2_state(d), (0, 1), rows, 0)
    return _verified(plan, "quadratic", _of_linear(plan, f, lambda x: x * (x - 1) // 2))


def compile_exponential(d: int, u: int, f: list[int] | None = None) -> CompileReport:
    """Single-qudit exponential output u^-f(i) via the multiplier gate, for
    any d >= 2 and unit u mod d."""
    f = [1] if f is None else list(_listed(f, "f", (list, tuple), "a list of coefficients"))
    rows = [(named_clifford(d, "Mu", u=u), f, 0, 1)]
    plan = _layout(d, len(f), basis_state(d, (1,)), (1, 0), rows, 0)
    return _verified(plan, "exponential", _of_linear(plan, f, lambda x: pow(u, -x, d)))


def primitive_element(p: int) -> int:
    """Smallest generator of the multiplicative group mod prime p."""
    if not is_prime(p):
        raise QuditMbqcError(f"{p} is not prime")
    return fields.primitive_element(make_field(p))


def exponential_sum(p: int, u: int, x: int) -> int:
    """sum_{k=1}^{p-1} (u^x)^k mod p; equals p-1 at x in {0, p-1}, else 0."""
    return sum(pow(u, x * k, p) for k in range(1, p)) % p


def sigma_table(p: int) -> list[int]:
    """Normalized exponential sum (p-1)^-1 sum_l (u^x)^l for x = 0..p-1, u
    the primitive element; every generator of Z_p^* gives this table."""
    u = primitive_element(p)
    inv = pow(p - 1, -1, p)
    return [(inv * exponential_sum(p, u, x)) % p for x in range(p)]


def delta_from_sigma(p: int) -> list[int]:
    """Recover the delta table via 1 + (p-1)/2 * (1 + sum_k sigma((k*x) mod p))."""
    sigma = sigma_table(p)
    half = (p - 1) // 2
    out = []
    for x in range(p):
        acc = sum(sigma[(k * x) % p] for k in range(1, p))
        out.append((1 + half * (1 + acc)) % p)
    return out


def _listed(value, name: str, kinds: tuple, expected: str):
    """value, if an instance of kinds, before len or list reads it; else
    refused as not being the expected container."""
    if not isinstance(value, kinds):
        raise QuditMbqcError(f"{name} is {value!r}, expected {expected}")
    return value


def _normalize_target(m, d: int) -> dict:
    """A list of exactly d values, or a dict read as a one-variable table
    by fields._table_values, as {(x,): m(x) mod d}."""
    if not isinstance(m, dict):
        m = list(m)
        if len(m) != d:
            raise QuditMbqcError(f"target must list {d} values, got {len(m)}")
        m = dict(enumerate(m))
    try:
        return {(x,): v for x, v in enumerate(fields._table_values(m, d, 1)[1])}
    except ValueError as exc:
        raise QuditMbqcError(f"target: {exc}") from None


def _delta_sum(target: dict, d: int, gadget, s0: int, construction: str) -> CompileReport:
    """One party per point j and gadget pair (k, control): fiducial Z on |1>,
    setting k(x-j), weight m(j)/2.  The gadget's outcomes must sum to 2 + c
    at x = j and to c elsewhere; s0 = -c * sum_j m(j)/2 cancels c."""
    inv2 = pow(2, -1, d)
    directions = [(control, (k,), k) for k, control in gadget]  # one Q row per gadget pair
    weights = [target[(j,)] * inv2 for j in range(d)]
    rows = [(control, row, -k * j, w) for j, w in enumerate(weights) for control, row, k in directions]
    plan = _layout(d, 1, basis_state(d, (1,) * len(rows)), (1, 0), rows, s0)
    return _verified(plan, construction, target)


def compile_general_prime(m, p: int | None = None) -> CompileReport:
    """Compile any m: Z_p -> Z_p as a flat plan on p(p-1)^2 qudits.

    One exponential party per triple (j, k, l): control is the multiplier
    gate for u^-l, the setting is k*(x-j), so the party's outcome is the
    power (u^(k(x-j) mod p))^l.  Summing over l kills every value of
    k(x-j) outside {0, p-1}, summing over k then isolates x = j, and the
    post-processing row m_j/2 with constant sum_j m_j/2 assembles m(x).

    For p = 2 every target is affine and a single-qubit plan suffices.
    """
    m = _listed(m, "target", (list, tuple, dict), "a list or dict of values")
    p = plain_int(len(m) if p is None else p, "p")
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
    rows = [(named_clifford(2, "weyl-displacement", x=(0, 1)), (m0 + m1,), 0, 1)]
    plan = _layout(2, 1, basis_state(2, (1,)), (1, 0), rows, m0 + 1)
    return _verified(plan, "prime-general", target)


def compile_odd_ring(m, d: int | None = None) -> CompileReport:
    """Compile any m: Z_d -> Z_d (odd d, composite allowed) on 2d qudits.

    Uses the self-inverse multiplier gate for d-1: the party outcome
    (d-1)^(k(x-j) mod d) for k = +-1 pairs exponents of opposite parity
    whenever x != j, so each (j, +-) pair contributes the delta at j.
    """
    m = _listed(m, "target", (list, tuple, dict), "a list or dict of values")
    d = plain_int(len(m) if d is None else d, "d")
    if d < 3 or d % 2 == 0:
        raise QuditMbqcError("odd-ring compilation needs odd d >= 3 (2 must be a unit)")
    target = _normalize_target(m, d)
    control = named_clifford(d, "Mu", u=d - 1)
    return _delta_sum(target, d, [(1, control), (d - 1, control)], 0, "odd-ring")
