"""Contextuality and non-locality analysis.

Degree witnesses (an output monomial of combined degree >= d certifies
strong non-locality when Z_d is a field), an exact linear solve for local
value assignments, the temporal-ordering degree bound, the probabilistic
distance/threshold arithmetic, and analyze_plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .engine import MbqcPlan, _int_rows, _point_table, longest_path, temporal_graph
from .errors import (QuditMbqcError, SizeGuardError, SparseFormError, UnsupportedWitnessError,
                     plain_dimension, plain_int)
from .fields import (
    IntegerRing,
    MultiPoly,
    _monomial_text,
    _table_values,
    all_points,
    combined_degree,
    interpolate,
    is_polynomial_over_ring,
    is_prime,
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
    """Exact search for local value assignments reproducing the target, by
    default the plan's own output table (_point_table)."""
    if not plan.temporally_flat:
        raise QuditMbqcError("assignment search applies to temporally flat plans")
    if target is None:
        target = _point_table(plan)
        if target is None:
            raise QuditMbqcError("plan is not deterministic; use empirical_success instead")
    return _ncva_search(plan.d, plan.n, plan.N, plan.Q, plan.z, plan.s0, target, plan.q0)


def ncva_search_raw(d: int, n: int, N: int, Q, z, s0: int, table: dict,
                    q0=None) -> Witness:
    """Assignments s_k: settings -> outcomes with
    sum_k z_k s_k(q_k(i)) + s0 = o(i) for every input i.

    These equations are linear over Z_d.  The weighted parties (z_k != 0)
    are grouped by their Q row mod d, the direction a.  Within a group each
    s_k is free and i -> a.i + q0_k only shifts the setting, so the group's
    sum is any function of a.i with values in g_a Z_d, g_a = gcd(d, z_k
    over the group): g_a x_a(a.i) for a free x_a.  One exact solve
    (fields.solve_mod) for the unknowns x_a(v), one per (direction, value),
    decides the whole assignment space; no solution is an all-versus-nothing
    proof of strong non-locality.  The space is still counted over the
    reachable cells (k, q).  The certificate is s_k(q) = c_k x_a(q - q0_k)
    with sum_k c_k z_k = g_a (mod d) over the group; entries of unreached
    cells are 0.  The table is read by fields._table_values; its arity
    must be n.

    Refused with QuditMbqcError, in MbqcPlan's words: a d that is not an
    int >= 2; an n, N or s0 that is not an int; Q, z and q0 that are not
    lists or tuples of N rows, or a row of Q not a list or tuple of n
    entries; an entry of them that is not an int.  A bool is not an int here.
    """
    d, n, N = plain_dimension(d), plain_int(n, "n"), plain_int(N, "N")
    s0 = plain_int(s0, "s0")
    q0 = (0,) * N if q0 is None else q0
    if not (isinstance(Q, (list, tuple)) and all(isinstance(x, (list, tuple)) for x in (z, q0, *Q))
            and len(Q) == len(z) == len(q0) == N and set(map(len, Q)) <= {n}):
        raise QuditMbqcError(f"Q, z and q0 need N = {N} rows, and each row of Q "
                             f"n = {n} entries")
    Q = _int_rows(Q, n, d, "Q row {}".format, n)
    z, q0 = _int_rows((z, q0), N, d, ("z", "q0").__getitem__, f"one per party ({N})")
    return _ncva_search(d, n, N, Q, z, s0, table, q0)


def _ncva_search(d: int, n: int, N: int, Q, z, s0: int, table: dict, q0) -> Witness:
    """ncva_search_raw on checked arguments, with the rows of Q and the
    entries of z and q0 tuples of ints reduced mod d, as a plan's are."""
    _, target = _table_values(table, d, n)
    groups = {}  # direction (a Q row) -> its weighted parties
    for k, a, zk in zip(range(N), Q, z):
        if zk:
            groups.setdefault(a, []).append(k)
    # column c*d + v holds x_a(v) for the c-th direction a
    rows = [{} for _ in range(d**n)]
    g, cells = [], 0
    for base, (a, ks) in zip(range(0, len(groups) * d, d), groups.items()):
        g.append(gc := math.gcd(d, *map(z.__getitem__, ks)))
        cells += len(ks) * d // math.gcd(d, *a)  # a.i + q0_k takes d / gcd(d, a) values
        dots = [0]  # a.i over the inputs i, in itertools.product order
        for ak in a:
            dots = [v + ak * x for v in dots for x in range(d)]
        for row, v in zip(rows, dots):
            row[base + v % d] = gc
    values = solve_mod(rows, [o - s0 for o in target], len(g) * d, d)
    space = (d, cells)
    if values is None:
        return Witness(STRONGLY_NONLOCAL, space=space,
                       detail=f"the assignment equations have no solution over Z_{d}")
    assignment = [(0,) * d] * N
    tables = {}  # (direction, c_k, q0_k) -> s_k
    for c, (ks, gc) in enumerate(zip(groups.values(), g)):
        x = values[c * d:c * d + d]
        for k, ck in _bezout(d, z, ks, gc).items():
            shift = q0[k]
            if (c, ck, shift) not in tables:
                rotated = x[-shift:] + x[:-shift]  # x(q - q0_k) at q
                tables[c, ck, shift] = tuple([ck * v % d for v in rotated])
            assignment[k] = tables[c, ck, shift]
    return Witness(NCVA_FOUND, assignment=tuple(assignment), space=space)


def _bezout(d: int, z, ks: list[int], g: int) -> dict[int, int]:
    """{k: c_k != 0} over the parties ks with sum_k c_k z_k = g (mod d),
    g = gcd(d, z_k over ks): one inverse when some gcd(z_k, d) is g (always
    at prime d), else a one-row solve_mod."""
    for k in ks:
        if math.gcd(z[k], d) == g:
            return {k: pow(z[k] % d // g, -1, d // g)}
    c = solve_mod([{j: z[k] for j, k in enumerate(ks)}], [g], len(ks), d)
    return {k: ck for k, ck in zip(ks, c) if ck}


def temporal_degree_bound(plan: MbqcPlan) -> int:
    """(d-1) ** |l| with |l| the longest temporal path in vertices.

    Output degree beyond this bound certifies strong contextuality even
    for temporally ordered plans; flat plans give the base bound d-1.
    """
    return (plan.d - 1) ** _temporal_path(plan)


def _temporal_path(plan: MbqcPlan) -> int:
    """The longest temporal path in vertices: 1 for a flat plan, without
    building its N-vertex graph."""
    return 1 if plan.temporally_flat else longest_path(temporal_graph(plan))


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
    path = _temporal_path(plan)
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
    """Distance of q from 0 on the cycle Z_d: min(q mod d, -q mod d)."""
    if type(d) is not int or d < 1:
        raise ValueError(f"d must be >= 1 and an integer, got {d!r}")
    if type(q) is not int:
        raise ValueError(f"q must be an integer, got {q!r}")
    return min(q % d, -q % d)


def nu_distance(table: dict, d: int, n: int) -> tuple[int, MultiPoly]:
    """Exact minimal cycle-distance from a table to the degree-(d-1) class.

    Scores every polynomial of combined degree <= d-1 at once, one point
    of Z_d^n at a time: the d^M candidate coefficient vectors (M monomials,
    itertools.product order) times the M monomial values at the point,
    read mod d, give every candidate's value there.  Each entry is at most
    M * (d-1)^2, so int64 is exact, and no array holds more than d^M
    entries whatever d^n is.  Returns (minimal summed distance,
    lexicographically first minimizer).  At prime d a table whose
    interpolation lies in the class is answered (0, that polynomial)
    without enumerating: distinct reduced polynomials are distinct
    functions, so it is the one minimizer.  Guarded (the enumeration
    only); never heuristic.  At d = 2 the class is the affine functions
    and the distance is the Hamming distance.
    """
    if type(n) is not int or n < 0:
        raise ValueError(f"n must be >= 0 and an integer, got {n!r}")
    _, values = _table_values(table, d, n)
    ring = IntegerRing(d)
    if ring.is_field and combined_degree(poly := interpolate(ring, table)) < d:
        return 0, poly
    mons = subspace_monomials(ring, n, d - 1)
    if d ** len(mons) > NU_GUARD:
        raise SizeGuardError(f"candidate class has {d}^{len(mons)} = {d ** len(mons)} "
                             f"polynomials, over the limit {NU_GUARD}")
    # a monomial of degree <= d-1 is at most (d-1)^(d-1) before reduction
    points = np.array(all_points(ring, n))
    monomials = np.prod(points[None, :, :] ** np.array(mons)[:, None, :], axis=2) % d
    candidates = np.indices((d,) * len(mons)).reshape(len(mons), -1).T
    dist = sum(np.minimum(diff := (candidates @ row - v) % d, d - diff)
               for row, v in zip(monomials.T, values))
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
    1 - nu / (floor(d/2) * d^n), d prime.  A deterministic local model
    computes a function of the degree-(d-1) class, at Lee distance nu or
    more from the target and at most floor(d/2) per input, so it errs on
    at least nu / floor(d/2) of the d^n inputs; a mixture of such models
    then fails some input with probability at least nu / (floor(d/2) *
    d^n).  At odd d the threshold is 1 - 2*nu / ((d-1) * d^n).  A composite
    d is refused: there a local model need not stay in the degree-(d-1)
    class.  When nu > 0, the average failure rate bounds the non-contextual
    fraction by (1 - p_avg) / nu.  The probabilities are ints or Fractions:
    a float would round the comparison with the threshold.
    """
    if type(d) is not int or d < 2:
        raise ValueError(f"d must be >= 2 and an integer, got {d!r}")
    if not is_prime(d):
        raise ValueError(f"d = {d} is not prime: the threshold holds at prime d only")
    if type(n) is not int or n < 0:
        raise ValueError(f"n must be >= 0 and an integer, got {n!r}")
    if type(nu) is not int or nu < 0:
        raise ValueError(f"nu must be >= 0 and an integer, got {nu!r}")
    for p in (p_worst, p_avg):
        if type(p) not in (int, Fraction) or not 0 <= p <= 1:
            raise ValueError(f"probability {p!r} is not an int or a Fraction in [0, 1]")
    p_worst, p_avg = Fraction(p_worst), Fraction(p_avg)
    threshold = 1 - Fraction(nu, d // 2 * d**n)
    exceeded = p_worst > threshold
    ncf_bound = (1 - p_avg) / nu if nu > 0 else None
    return ThresholdReport(p_worst, p_avg, nu, d, n, threshold, exceeded, ncf_bound)
