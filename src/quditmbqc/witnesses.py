"""Contextuality and non-locality analysis.

Degree witnesses (an output monomial of combined degree >= d certifies
strong non-locality when Z_d is a field), an exact linear solve for local
value assignments, the temporal-ordering degree bound, the probabilistic
distance/threshold arithmetic, and analyze_plan.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .engine import (MbqcPlan, _point_table, _settings_of, extract_output_function, longest_path,
                     temporal_graph)
from .errors import QuditMbqcError, SizeGuardError, SparseFormError, UnsupportedWitnessError
from .fields import (
    IntegerRing,
    MultiPoly,
    _monomial_text,
    _table_values,
    all_points,
    combined_degree,
    is_polynomial_over_ring,
    solve_mod,
    subspace_monomials,
)

STRONGLY_NONLOCAL = "strongly-nonlocal"
NCVA_FOUND = "ncva-found"
INCONCLUSIVE = "inconclusive"

NU_GUARD = 10**5  # bound on the number of candidate polynomials


@dataclass(frozen=True)
class Witness:
    """Analysis verdict with its certificate.

    assignment: per-party outcome tables (one length-d tuple per party)
    when the verdict is ncva-found; monomial: the offending exponent tuple
    for a degree-based proof; space: (d, cells) for a search-based proof,
    which decided all searched = d^cells assignments.
    """

    verdict: str
    assignment: tuple[tuple[int, ...], ...] | None = None
    monomial: tuple[int, ...] | None = None
    space: tuple[int, int] | None = None
    detail: str = ""

    @property
    def searched(self) -> int | None:
        return None if self.space is None else self.space[0] ** self.space[1]

    def to_text(self) -> str:
        lines = [f"verdict: {self.verdict}"]
        if self.monomial is not None:
            lines.append(f"certificate: monomial {_monomial_text(self.monomial)} "
                         f"with combined degree {sum(self.monomial)}")
        if self.assignment is not None:
            for k, table in enumerate(self.assignment):
                lines.append(f"assignment party {k + 1}: {list(table)}")
        if self.space is not None:
            lines.append("searched: %d^%d assignments" % self.space)
        if self.detail:
            lines.append(f"note: {self.detail}")
        return "\n".join(lines)


def degree_witness(o: MultiPoly) -> Witness:
    """Strong non-locality from the combined degree of the output polynomial.

    Over a field, a monomial with exponent sum >= d proves strong
    non-locality; degree <= d-1 is inconclusive (it does not prove a local
    model exists).  Over a composite ring Z_d the verdict is always
    inconclusive: a local output there need not have degree <= d-1.
    """
    d = o.modulus.d
    if not o.modulus.is_field:
        return Witness(INCONCLUSIVE, detail=f"Z_{d} is not a field: a local output "
                                            f"may have combined degree >= d")
    offenders = sorted(e for e in o.coeffs if sum(e) >= d)
    if offenders:
        return Witness(STRONGLY_NONLOCAL, monomial=offenders[-1],
                       detail=f"combined degree {combined_degree(o)} >= d = {d}")
    return Witness(INCONCLUSIVE,
                   detail=f"combined degree {combined_degree(o)} <= {d - 1}")


def degree_witness_for_table(table: dict, d: int) -> Witness:
    """Degree witness for a raw output table over Z_d, read from its
    least-degree polynomial (is_polynomial_over_ring).  At composite d the
    verdict is inconclusive (see degree_witness), and a table that is no
    polynomial over Z_d has no degree witness (UnsupportedWitnessError).
    """
    return _polynomial_witness(is_polynomial_over_ring(table, d), d)


def _polynomial_witness(poly: MultiPoly | None, d: int) -> Witness:
    if poly is None:
        raise UnsupportedWitnessError(
            f"table is not polynomial over Z_{d}; degree witness does not apply"
        )
    return degree_witness(poly)


def ncva_search(plan: MbqcPlan, target: dict | None = None) -> Witness:
    """Exact search for local value assignments reproducing the output."""
    if not plan.temporally_flat:
        raise QuditMbqcError("assignment search applies to temporally flat plans")
    if target is None:
        target, _ = extract_output_function(plan)
    return ncva_search_raw(plan.d, plan.n, plan.N, plan.Q, plan.z, plan.s0,
                           target, q0=plan.q0)


def ncva_search_raw(d: int, n: int, N: int, Q, z, s0: int, table: dict,
                    q0=None) -> Witness:
    """Assignments s_k: settings -> outcomes with
    sum_k z_k s_k(q_k(i)) + s0 = o(i) for every input i.

    These equations are linear over Z_d in the table entries s_k(q) of the
    reachable cells (k, q), so one exact solve (fields.solve_mod) decides
    the whole assignment space: no solution is an all-versus-nothing proof
    of strong non-locality.  Entries of unreached cells are 0.  The table
    is read by fields._table_values; its arity must be n.
    """
    q0 = tuple(q0) if q0 is not None else (0,) * N
    _, target = _table_values(table, d, n)
    weighted = [k for k in range(N) if z[k] % d]
    columns = tuple(zip(*Q))
    # column k*d + q holds s_k(q)
    rows = []
    for i in itertools.product(range(d), repeat=n):
        q = _settings_of(columns, q0, i, d)
        rows.append({k * d + q[k]: z[k] for k in weighted})
    values = solve_mod(rows, [o - s0 for o in target], N * d, d)
    space = (d, len(set().union(*rows)))
    if values is None:
        return Witness(STRONGLY_NONLOCAL, space=space,
                       detail=f"the assignment equations have no solution over Z_{d}")
    assignment = tuple(tuple(values[k * d:k * d + d]) for k in range(N))
    return Witness(NCVA_FOUND, assignment=assignment, space=space)


def temporal_degree_bound(plan: MbqcPlan) -> int:
    """(d-1) ** |l| with |l| the longest temporal path in vertices.

    Output degree beyond this bound certifies strong contextuality even
    for temporally ordered plans; flat plans give the base bound d-1.
    """
    return (plan.d - 1) ** longest_path(temporal_graph(plan))


class Analysis(dict):
    """analyze_plan's record: its JSON fields in report order, and their text.
    The text writes the temporal bound as (d-1)^|l|, |l| = temporal_path,
    as it writes the assignment space as d^cells."""

    def to_json(self) -> dict:
        return dict(self)

    def to_text(self) -> str:
        yes = {True: "yes", False: "no", None: f"unknown ({self.get('deterministic_reason')})"}
        lines = [
            f"d: {self['d']}  inputs: {self['n']}  parties: {self['parties']}",
            f"temporally flat: {yes[self['temporally_flat']]}",
            f"temporal bound: {self['d'] - 1}^{self.temporal_path}",
            f"deterministic: {yes[self['deterministic']]}",
        ]
        if self["deterministic"] is False:
            lines.append("output table: skipped (plan is not deterministic; use empirical_success)")
        if not self["deterministic"]:
            return "\n".join(lines)
        lines.append("output table: " + ",".join(str(v) for v in self["table"]))
        if "polynomial" in self:
            lines.append(f"polynomial: {self['polynomial']}")
        if "combined_degree" in self:
            lines.append(f"combined degree: {self['combined_degree']}")
        lines.append(f"degree witness: {self['degree_witness']}")
        search = self["assignment_search"]
        if "searched" in self:
            search = f"{search} (searched {self['searched']} assignments)"
        lines.append(f"assignment search: {search}")
        return "\n".join(lines)


def analyze_plan(plan: MbqcPlan) -> Analysis:
    """Every exact verdict on one plan, flat or temporally ordered.

    Determinism reads each input's exact output law: the spectral law of a
    flat plan, the merged party-by-party walk of an ordered one.  When the
    walk is refused (SizeGuardError, SparseFormError) it is unknown (None)
    and the record gives the reason.  A deterministic plan reports its table,
    polynomial and combined degree beside the temporal bound; the degree
    witness and the assignment search apply to flat plans only.  The
    polynomial is the least-degree one over Z_d (is_polynomial_over_ring;
    at prime d, the interpolation); a table that is no polynomial over Z_d
    reports none and its degree witness reads unsupported.
    """
    path = longest_path(temporal_graph(plan))
    out = Analysis(d=plan.d, n=plan.n, parties=plan.N, temporally_flat=plan.temporally_flat,
                   temporal_bound=(plan.d - 1) ** path)
    out.temporal_path = path
    try:
        table = _point_table(plan)
    except (SizeGuardError, SparseFormError) as exc:
        out["deterministic"] = None
        out["deterministic_reason"] = str(exc)
        return out
    out["deterministic"] = table is not None
    if table is None:
        return out
    inputs = sorted(table)
    out["inputs"] = [list(i) for i in inputs]
    out["table"] = [table[i] for i in inputs]
    poly = is_polynomial_over_ring(table, plan.d)
    if poly is not None:
        out["polynomial"] = poly.pretty()
        out["polynomial_serialized"] = poly.serialize()
        out["combined_degree"] = combined_degree(poly)
    if not plan.temporally_flat:
        out["degree_witness"] = out["assignment_search"] = "skipped (temporally ordered plan)"
        return out
    try:
        out["degree_witness"] = _polynomial_witness(poly, plan.d).verdict
    except UnsupportedWitnessError as exc:
        out["degree_witness"] = f"unsupported ({exc})"
    w = ncva_search(plan, table)
    out["assignment_search"] = w.verdict
    out["searched"] = "%d^%d" % w.space
    return out


def delta_distance(q: int, d: int) -> int:
    """Distance of q from 0 on the cycle Z_d (odd d): min(q, d-q)."""
    if d % 2 == 0:
        raise QuditMbqcError("the cycle distance is defined for odd d")
    q %= d
    return min(q, d - q)


def nu_distance(table: dict, d: int, n: int) -> tuple[int, MultiPoly]:
    """Exact minimal cycle-distance from a table to the degree-(d-1) class.

    Scores every polynomial of combined degree <= d-1 at once: the d^M
    candidate coefficient vectors (M monomials, itertools.product order)
    times the M x d^n monomial values, read mod d, give each candidate's
    table; each entry is at most M * (d-1)^2, so int64 is exact.  Returns
    (minimal summed distance, lexicographically first minimizer).  Guarded;
    never heuristic.
    """
    if d % 2 == 0:
        raise QuditMbqcError("distance minimization is defined for odd d")
    ring = IntegerRing(d)
    mons = subspace_monomials(ring, n, d - 1)
    if d ** len(mons) > NU_GUARD:
        raise SizeGuardError(f"candidate class has {d}^{len(mons)} = {d ** len(mons)} "
                             f"polynomials, over the limit {NU_GUARD}")
    _, values = _table_values(table, d, n)
    # a monomial of degree <= d-1 is at most (d-1)^(d-1) before reduction
    points = np.array(all_points(ring, n))
    monomials = np.prod(points[None, :, :] ** np.array(mons)[:, None, :], axis=2) % d
    candidates = np.indices((d,) * len(mons)).reshape(len(mons), -1).T
    diff = (candidates @ monomials - values) % d
    dist = np.minimum(diff, d - diff, out=diff).sum(axis=1)
    best = int(dist.argmin())
    return int(dist[best]), MultiPoly._trusted(ring, n, zip(mons, candidates[best].tolist()))


@dataclass(frozen=True)
class ThresholdReport:
    """Arithmetic of the probabilistic non-locality thresholds."""

    p_worst: Fraction
    p_avg: Fraction
    nu: int
    d: int
    n: int
    threshold: Fraction
    exceeded: bool
    ncf_bound: Fraction | None

    def to_text(self) -> str:
        lines = [
            f"worst-case success: {self.p_worst}",
            f"average success: {self.p_avg}",
            f"nu: {self.nu}",
            f"threshold: > {self.threshold}",
            "strong non-locality: " + ("yes" if self.exceeded else "not established"),
        ]
        if self.ncf_bound is None:
            lines.append("non-contextual fraction bound: undefined (nu = 0)")
        else:
            lines.append(f"non-contextual fraction bound: <= {self.ncf_bound}")
        return "\n".join(lines)


def threshold_check(p_worst, p_avg, nu: int, d: int, n: int) -> ThresholdReport:
    """Evaluate the worst-case threshold and the failure-rate bound.

    Strong non-locality is flagged when p_worst strictly exceeds
    1 - 2*nu / ((d-1) * d^n).  When nu > 0, the average failure rate bounds
    the non-contextual fraction by (1 - p_avg) / nu.
    """
    if type(d) is not int or d < 2:
        raise ValueError(f"d must be >= 2 and an integer, got {d!r}")
    if type(n) is not int or n < 0:
        raise ValueError(f"n must be >= 0 and an integer, got {n!r}")
    if type(nu) is not int or nu < 0:
        raise ValueError(f"nu must be >= 0 and an integer, got {nu!r}")
    p_worst = Fraction(p_worst)
    p_avg = Fraction(p_avg)
    for p in (p_worst, p_avg):
        if not 0 <= p <= 1:
            raise ValueError(f"probability {p} outside [0, 1]")
    threshold = 1 - Fraction(2 * nu, (d - 1) * d**n)
    exceeded = p_worst > threshold
    ncf_bound = (1 - p_avg) / nu if nu > 0 else None
    return ThresholdReport(p_worst, p_avg, nu, d, n, threshold, exceeded, ncf_bound)
