"""Execution model for measurement-based computation with Z_d-linear control.

A plan fixes the dimension d, n classical inputs, N parties (each a fiducial
Weyl observable plus a Clifford control), the setting matrix Q, the temporal
matrix T (strictly lower triangular; zero means temporally flat), an optional
setting offset q0, and the linear post-processing row z with constant s0.

Settings follow q = T*m + Q*i + q0 mod d and the output is o = z*m + s0.
Plans are immutable after load; runs are pure given a seed, so enumeration
over inputs can be parallelized freely.

Extraction, the determinism check and success scoring read one exact output
law per input (output_distribution): the spectral law of W(i) for flat plans,
a party-by-party walk that merges equal branches for ordered ones; none of
them samples.  A flat law is one pass over the parties per input: the
settings of all parties come from Q's columns at once, and each party's
operator is one dictionary read keyed by (party kind, setting, power).  Runs
and the walk measure each party with the fused step
states.measurement_distribution, which removes the measured qudit, so their
sparse support never exceeds the resource's term count.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import PlanFormatError, QuditMbqcError, SizeGuardError, SparseFormError, plain_int, plain_ints
from .fields import MultiPoly, _table_values, is_polynomial_over_ring
from .phases import PhaseSum, tau_exponent_of_omega, tau_period
from .states import (
    GlobalObservable,
    MonomialOp,
    SparseState,
    _draw_branch,
    apply_observable,
    eigenphase_of,
    measure_local,
    measurement_distribution,
)
from .weyl import CliffordSpec, WeylLabel, conjugate_weyl, weyl_power

EXACT_BRANCH_BUDGET = 20000  # branches one layer of an exact walk may hold


class TableResource:
    """Abstract correlated resource: settings vector -> outcome distribution.

    Distributions are lists of (outcome-vector, probability) with exact
    rational weights summing to 1.  No-signalling is not enforced.
    """

    def __init__(self, N: int, behavior: dict[tuple[int, ...], list[tuple[tuple[int, ...], Fraction]]]):
        self.N = N
        self.behavior = {}
        for q, dist in behavior.items():
            total = sum(p for _, p in dist)
            if total != 1:
                raise QuditMbqcError(f"distribution for settings {q} sums to {total}")
            for m, p in dist:  # with the sum at 1, p >= 0 also caps p at 1
                if len(m) != N or not all(type(v) is int for v in m):
                    raise QuditMbqcError(f"outcome {m} for settings {q} needs {N} integers")
                if p < 0:
                    raise QuditMbqcError(f"probability {p} of outcome {m} for settings {q} is negative")
            self.behavior[tuple(q)] = [(tuple(m), Fraction(p)) for m, p in dist]

    @classmethod
    def deterministic(cls, N: int, mapping: dict[tuple[int, ...], tuple[int, ...]]) -> "TableResource":
        return cls(N, {q: [(m, Fraction(1))] for q, m in mapping.items()})

    def distribution(self, q: tuple[int, ...]) -> list[tuple[tuple[int, ...], Fraction]]:
        if q not in self.behavior:
            raise QuditMbqcError(f"table resource has no entry for settings {q}")
        return self.behavior[q]

    def to_json(self) -> dict:
        return {
            "kind": "table",
            "N": self.N,
            "entries": [
                {
                    "q": list(q),
                    "dist": [
                        {"m": list(m), "num": p.numerator, "den": p.denominator}
                        for m, p in dist
                    ],
                }
                for q, dist in sorted(self.behavior.items())
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "TableResource":
        behavior = {}
        for entry in obj["entries"]:
            behavior[plain_ints(entry["q"], "table q")] = [
                (tuple(rec["m"]), Fraction(*plain_ints([rec["num"], rec["den"]], "table num, den")))
                for rec in entry["dist"]
            ]
        return cls(plain_int(obj["N"], "table N"), behavior)

    def __eq__(self, other):
        return isinstance(other, TableResource) and self.behavior == other.behavior

    def __hash__(self):
        return hash(tuple(sorted((q, tuple(d)) for q, d in self.behavior.items())))


@dataclass(frozen=True)
class RunTrace:
    """One execution: input, settings, outcomes, and the linear output."""

    input: tuple[int, ...]
    settings: tuple[int, ...]
    outcomes: tuple[int, ...]
    output: int


class MbqcPlan:
    """Immutable description of one computation instance."""

    def __init__(self, d, n, N, resource, parties, Q, T=None, *, z, s0, q0=None):
        if any(type(v) is not int for row in Q for v in row):
            raise QuditMbqcError("Q has an entry that is not an integer")
        n, N, z, s0 = plain_int(n, "n"), plain_int(N, "N"), plain_ints(z, "z"), plain_int(s0, "s0")
        q0 = (0,) * N if q0 is None else plain_ints(q0, "q0")
        self.d = d
        self.n = n
        self.N = N
        self.resource = resource
        self.parties = tuple((fid, ctrl) for fid, ctrl in parties)
        # each party's kind: the first party with the same (fiducial, control)
        first: dict = {}
        self._kind = tuple(first.setdefault(party, k) for k, party in enumerate(self.parties))
        self._weyl: dict = {}  # (kind, setting) -> M_k(q) as (tau exponent, label)
        self._ops: dict = {}  # (M_k(q), power) -> MonomialOp, one object per operator
        self._site_ops: dict = {}  # (kind, setting, power) -> the object held in _ops
        self.Q = tuple(tuple(v % d for v in row) for row in Q)
        # (column, entry) of each row's nonzero entries: the only stored form of T
        self._t_nonzero = _sparse_rows(T, N, d)
        self.temporally_flat = not any(self._t_nonzero)
        self.z = tuple(v % d for v in z)
        self.s0 = s0 % d
        self.q0 = tuple(v % d for v in q0)
        self._validate()

    @functools.cached_property
    def T(self) -> tuple[tuple[int, ...], ...]:
        """T as a dense read-only N x N view, built on first use; every
        zero row is one shared tuple."""
        zero = (0,) * self.N
        dense = []
        for row in self._t_nonzero:
            if row:
                full = list(zero)
                for j, v in row:
                    full[j] = v
                dense.append(tuple(full))
            else:
                dense.append(zero)
        return tuple(dense)

    def _validate(self):
        if isinstance(self.resource, SparseState):
            if self.resource.d != self.d or self.resource.N != self.N:
                raise QuditMbqcError("resource state shape does not match the plan")
        elif isinstance(self.resource, TableResource):
            if self.resource.N != self.N:
                raise QuditMbqcError("table resource party count does not match")
            if not self.temporally_flat:
                raise QuditMbqcError("table resources support temporally flat plans only")
            for q, dist in self.resource.behavior.items():  # the table does not know d
                for m, _ in dist:
                    if not all(0 <= v < self.d for v in m):
                        raise QuditMbqcError(f"outcome {m} for settings {q} lies outside 0..{self.d - 1}")
        else:
            raise QuditMbqcError(f"unsupported resource {type(self.resource).__name__}")
        if len(self.parties) != self.N:
            raise QuditMbqcError(f"expected {self.N} parties, got {len(self.parties)}")
        for k in sorted(set(self._kind)):
            fid, ctrl = self.parties[k]
            if fid.d != self.d or ctrl.d != self.d:
                raise QuditMbqcError("party dimension does not match the plan")
            # conjugation by the control keeps the spectrum, so one check
            # per distinct party covers every party and setting
            if weyl_power(fid.tau_exp, fid.v, self.d, self.d) != (0, (0, 0)):
                raise QuditMbqcError(f"party {k} fiducial spectrum is not omega powers")
            if self.d % 2 == 0 and ctrl.monomial_factors() is None:  # as conjugate_weyl needs
                raise QuditMbqcError(f"party {k} control needs an upper-triangular "
                                     "symplectic part at even d")
        if len(self.Q) != self.N:
            raise QuditMbqcError(f"Q must have {self.N} rows, got {len(self.Q)}")
        for k, row in enumerate(self.Q):
            if len(row) != self.n:
                raise QuditMbqcError(f"Q row {k} has {len(row)} entries, expected {self.n}")
        for name, vec in (("z", self.z), ("q0", self.q0)):
            if len(vec) != self.N:
                raise QuditMbqcError(f"{name} has {len(vec)} entries, expected one per party ({self.N})")
        if isinstance(self.resource, TableResource):
            for i in self.inputs():  # raises at the first settings without an entry
                self.resource.distribution(self._settings(i))

    def inputs(self) -> list[tuple[int, ...]]:
        return list(itertools.product(range(self.d), repeat=self.n))

    def setting(self, k: int, i: tuple[int, ...], outcomes) -> int:
        """q_k for input i, reading the outcomes of the parties measured so
        far (any sequence; run passes its growing list)."""
        if len(i) != self.n:
            raise QuditMbqcError(f"input needs {self.n} symbols, got {len(i)}")
        acc = self.q0[k] + sum(map(operator.mul, self.Q[k], i))
        if outcomes:
            acc += sum(v * outcomes[j] for j, v in self._t_nonzero[k] if j < len(outcomes))
        return acc % self.d

    @functools.cached_property
    def _columns(self) -> tuple[tuple[int, ...], ...]:
        """The n columns of Q."""
        return tuple(zip(*self.Q))

    def _settings(self, i: tuple[int, ...]) -> tuple[int, ...]:
        """The settings of every party for input i (n symbols mod d) before
        any outcome is read: q0 + Q*i mod d."""
        return _settings_of(self._columns, self.q0, i, self.d)

    def _ops_at(self, settings, powers) -> list[MonomialOp]:
        """M_k(settings[k])**powers[k] for every party k, one dictionary read
        each once the plan has met the (kind, setting, power)."""
        keys = list(zip(self._kind, settings, powers))
        try:
            return list(map(self._site_ops.__getitem__, keys))
        except KeyError:
            get = self._site_ops.get
            return [get(key) or self._site_op(k, key[1], key[2]) for k, key in enumerate(keys)]

    def site_observable(self, k: int, q_k: int) -> MonomialOp:
        """M_k(q_k) = U_k^{q_k} M_k(0) U_k^{-q_k}, exact monomial form."""
        return self._site_op(k, q_k, 1)

    def _site_op(self, k: int, q_k: int, e: int) -> MonomialOp:
        """M_k(q_k)**e, built once per distinct operator and power."""
        front = (self._kind[k], q_k, e)
        op = self._site_ops.get(front)
        if op is None:
            key = (self._site_weyl(k, q_k), e)
            op = self._ops.get(key)
            if op is None:
                tau, label = weyl_power(*key[0], e, self.d)
                op = self._ops[key] = MonomialOp.from_weyl(self.d, label, tau)
            self._site_ops[front] = op
        return op

    def _site_weyl(self, k: int, q_k: int) -> tuple[int, tuple[int, int]]:
        """M_k(q_k) as (tau exponent, Weyl label), conjugated once per party
        kind and setting."""
        key = (self._kind[k], q_k)
        site = self._weyl.get(key)
        if site is None:
            fid, ctrl = self.parties[k]
            phase, label = conjugate_weyl(ctrl, fid.v, q_k)
            tau = (fid.tau_exp + tau_exponent_of_omega(phase, self.d)) % tau_period(self.d)
            site = self._weyl[key] = (tau, label)
        return site

    def output_of(self, outcomes: tuple[int, ...]) -> int:
        return (sum(zk * mk for zk, mk in zip(self.z, outcomes)) + self.s0) % self.d

    # -- serialization ------------------------------------------------------
    def to_json(self) -> dict:
        obj = {
            "d": self.d,
            "n": self.n,
            "N": self.N,
            "resource": self.resource.to_json(),
            "parties": [  # a repeated party is the index of its first occurrence
                kind if kind < k else {"fiducial": fid.to_json(), "control": ctrl.to_json()}
                for k, (kind, (fid, ctrl)) in enumerate(zip(self._kind, self.parties))
            ],
            "Q": [list(r) for r in self.Q],
            "T": [{str(j): v for j, v in row} for row in self._t_nonzero],
            "z": list(self.z),
            "s0": self.s0,
        }
        if any(self.q0):
            obj["q0"] = list(self.q0)
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "MbqcPlan":
        d = obj.get("d")
        if type(d) is not int or d < 2:
            raise PlanFormatError(f"malformed plan: d must be an integer >= 2, got {d!r}")
        try:
            res = obj["resource"]
            if res.get("kind") == "table":
                resource = TableResource.from_json(res)
            else:
                resource = SparseState.from_json(res)
            parties = []
            for k, p in enumerate(obj["parties"]):
                if isinstance(p, dict):
                    parties.append((WeylLabel.from_json(d, p["fiducial"]),
                                    CliffordSpec.from_json(d, p["control"])))
                elif type(p) is not int:
                    raise QuditMbqcError(f"party {k} is {p!r}, expected a party object "
                                         "or the index of an earlier party")
                elif not 0 <= p < k:
                    raise QuditMbqcError(f"party {k} repeats party {p}, which is not earlier")
                else:
                    parties.append(parties[p])
            if obj["T"] is None:  # None builds a flat plan; a file spells T out
                raise QuditMbqcError(f"T must have {obj['N']} rows, got null")
            return cls(d, obj["n"], obj["N"], resource, parties, obj["Q"], obj["T"],
                       z=obj["z"], s0=obj["s0"], q0=obj.get("q0"))
        except (KeyError, TypeError, IndexError, ValueError, AttributeError,
                ZeroDivisionError) as exc:
            raise PlanFormatError(f"malformed plan: missing or bad field {exc}") from exc
        except QuditMbqcError as exc:
            raise PlanFormatError(f"malformed plan: {exc}") from exc

    def dumps(self) -> str:
        return json.dumps(self.to_json(), separators=(",", ":")) + "\n"

    @classmethod
    def loads(cls, text: str) -> "MbqcPlan":
        try:
            obj = json.loads(text, parse_float=_reject_number, parse_constant=_reject_number)
        except json.JSONDecodeError as exc:
            raise PlanFormatError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
        if not isinstance(obj, dict):
            raise PlanFormatError("plan file must contain a JSON object")
        return cls.from_json(obj)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())

    @classmethod
    def load(cls, path) -> "MbqcPlan":
        with open(path, encoding="utf-8") as fh:
            return cls.loads(fh.read())

    def __eq__(self, other):
        return isinstance(other, MbqcPlan) and self.to_json() == other.to_json()


def _settings_of(columns, q0, i, d: int) -> tuple[int, ...]:
    """q0 + Q*i mod d from the columns of Q: one pass per nonzero symbol."""
    acc = q0
    for column, v in zip(columns, i):
        if v:
            acc = [a + c * v for a, c in zip(acc, column)]
    return tuple([a % d for a in acc])


def _sparse_rows(T, N: int, d: int) -> tuple:
    """The nonzero (column, entry) pairs of each row of T, reduced mod d and
    sorted by column.

    T is None (a temporally flat plan) or N rows.  A row is a dense list of
    N integers or a {column: entry} mapping; a mapping's columns are ints or
    decimal strings without sign or leading zeros (the plan-file form).
    """
    if T is None:
        return ((),) * N
    if not isinstance(T, (list, tuple)):
        raise QuditMbqcError(f"T must be a list of {N} rows, got {type(T).__name__}")
    if len(T) != N:
        raise QuditMbqcError(f"T must have {N} rows, got {len(T)}")
    rows = []
    for k, row in enumerate(T):
        if isinstance(row, dict):
            items = {_column(k, key): v for key, v in row.items()}
            if len(items) < len(row):  # an int key and a string key for one party
                raise QuditMbqcError(f"T row {k} names a party twice")
            items = sorted(items.items())
        elif isinstance(row, (list, tuple)):
            if len(row) != N:
                raise QuditMbqcError(f"T row {k} has {len(row)} entries, expected {N}")
            if row.count(0) == N:
                rows.append(())
                continue
            items = enumerate(row)
        else:
            raise QuditMbqcError(f"T row {k} is a {type(row).__name__}, "
                                 "expected a list or a {column: entry} object")
        entries = []
        for j, v in items:
            if type(v) is not int:
                raise QuditMbqcError(f"T row {k} has {v!r} for party {j}, expected an integer")
            v %= d
            if v:
                if j >= k:
                    raise QuditMbqcError(f"T row {k} reads party {j}, which is not earlier "
                                         "(T must be strictly lower triangular)")
                entries.append((j, v))
        rows.append(tuple(entries))
    return tuple(rows)


def _column(k: int, key) -> int:
    """The party a key of row k of T names: an int, or a decimal string
    without sign or leading zeros; it must be earlier than k."""
    if isinstance(key, str) and key.isascii() and key.isdigit() and (key == "0" or key[0] != "0"):
        j = int(key)
    elif isinstance(key, int) and not isinstance(key, bool):
        j = key
    else:
        raise QuditMbqcError(f"T row {k} has key {key!r}, expected a party number "
                             "in plain decimal")
    if not 0 <= j < k:
        raise QuditMbqcError(f"T row {k} reads party {j}, which is not earlier "
                             "(T must be strictly lower triangular)")
    return j


def _reject_number(text: str):
    # every number in a plan is an integer; a float would pass the arithmetic
    raise PlanFormatError(f"malformed plan: {text} is not an integer")


def _read_input(plan: MbqcPlan, i) -> tuple[int, ...]:
    """Input i as n integer symbols reduced mod d."""
    i = plain_ints(i, "input")
    if len(i) != plan.n:
        raise QuditMbqcError(f"input needs {plan.n} symbols, got {len(i)}")
    return tuple([v % plan.d for v in i])


def run(plan: MbqcPlan, i, seed=None) -> RunTrace:
    """Execute one seeded run, measuring parties in index order.

    Each measurement draws one (outcome, eigenvector cycle) branch of
    states.measurement_distribution and forgets the measured qudit, so the
    party measured next is always at position 0 of the remaining state.
    """
    i = _read_input(plan, i)
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    settings = plan._settings(i)
    if isinstance(plan.resource, TableResource):
        m, _ = _draw_branch(plan.resource.distribution(settings), rng)
        return RunTrace(i, settings, m, plan.output_of(m))
    settings = list(settings)
    outcomes: list[int] = []
    psi = plan.resource
    for k, reads in enumerate(plan._t_nonzero):
        if reads:
            settings[k] = (settings[k] + sum(v * outcomes[j] for j, v in reads)) % plan.d
        m_k, psi = measure_local(psi, 0, plan._site_op(k, settings[k], 1), rng)
        outcomes.append(m_k)
    return RunTrace(i, tuple(settings), tuple(outcomes), plan.output_of(outcomes))


def weighted_observable(plan: MbqcPlan, i) -> GlobalObservable:
    """Tensor product of M_k(q_k)**z_k; its eigenphase is z*m (mod d)."""
    settings = plan._settings(_read_input(plan, i))
    # the plan checked that every fiducial has an omega spectrum, which
    # conjugation by the controls and powers keep
    return GlobalObservable._trusted(plan.d, plan._ops_at(settings, plan.z))


def extract_output_function(plan: MbqcPlan) -> tuple[dict, MultiPoly | None]:
    """Exact output table over all d^n inputs, plus its least-degree
    polynomial over Z_d (is_polynomial_over_ring; at prime d, the
    interpolation), or None when no polynomial over Z_d matches the table.

    Requires a deterministic plan: the output law of every input must be a
    point mass.  A refused ordered walk raises SizeGuardError or SparseFormError.
    """
    table = _point_table(plan)
    if table is None:
        raise QuditMbqcError("plan is not deterministic; use empirical_success instead")
    return table, is_polynomial_over_ring(table, plan.d)


def _point_table(plan: MbqcPlan) -> dict[tuple[int, ...], int] | None:
    """The output per input; None at the first law that is not a point mass."""
    table = {}
    for i in plan.inputs():
        try:
            law = output_distribution(plan, i)
        except SparseFormError:
            # a flat law is irrational only after failing the eigenstate check
            if not plan.temporally_flat:
                raise
            return None
        if len(law) != 1:
            return None
        (table[i],) = law
    return table


def output_distribution(plan: MbqcPlan, i) -> dict[int, Fraction]:
    """Exact distribution of the output for one input.

    Flat plans are exact on every input: a table resource is read off, a
    quantum one follows P(o) = <psi|(1/d) sum_j omega^(-j(o-s0)) W^j|psi>
    with W = weighted_observable(plan, i), or raises SparseFormError when a
    probability is irrational.  Ordered plans are walked party by party,
    merging branches that agree on the rest state (global phase dropped),
    the settings pending for later parties and the partial output; the walk
    raises SizeGuardError when its widest layer, the branches after one
    party, exceeds EXACT_BRANCH_BUDGET.
    """
    i = _read_input(plan, i)
    if isinstance(plan.resource, TableResource):
        out = {}
        for m, p in plan.resource.distribution(plan._settings(i)):
            o = plan.output_of(m)
            out[o] = out.get(o, Fraction(0)) + p
        return {o: p for o, p in out.items() if p}
    if plan.temporally_flat:
        return _spectral_law(plan, i)
    reads: list[list] = [[] for _ in range(plan.N)]  # column l of T: (j, T[j][l]) pairs
    for j, row in enumerate(plan._t_nonzero):
        for l, v in row:
            reads[l].append((j, v))
    # (rest state, settings of parties k.. so far, partial output) -> probability
    layer = {(plan.resource, plan._settings(i), plan.s0): Fraction(1)}
    for k in range(plan.N):
        merged: dict[tuple, Fraction] = {}
        for (psi, pending, part), prob in layer.items():
            op = plan._site_op(k, pending[0], 1)
            for m_k, p, rest in measurement_distribution(psi, 0, op):
                settings = list(pending[1:])
                for j, v in reads[k]:
                    settings[j - k - 1] = (settings[j - k - 1] + v * m_k) % plan.d
                key = (rest, tuple(settings), (part + plan.z[k] * m_k) % plan.d)
                merged[key] = merged.get(key, Fraction(0)) + prob * p
        if len(merged) > EXACT_BRANCH_BUDGET:
            raise SizeGuardError(f"ordered walk of input {i} reached {len(merged)} branches "
                                 f"at party {k}, over the widest-layer limit "
                                 f"{EXACT_BRANCH_BUDGET}")
        layer = merged
    # every branch ends in the one empty state, so the outputs are distinct
    return {o: p for (_, _, o), p in layer.items()}


def _spectral_law(plan: MbqcPlan, i: tuple[int, ...]) -> dict[int, Fraction]:
    """d*K*P(o) as exact tau-power sums over the kets W^j psi shares with psi."""
    d, psi = plan.d, plan.resource
    W = weighted_observable(plan, i)
    o = eigenphase_of(W, psi)  # the j = 1 moment decides a point mass
    if o is not None:
        return {(o + plan.s0) % d: Fraction(1)}
    tau_of = {ket: t for t, ket in psi.terms}
    laws = [PhaseSum(d) for _ in range(d)]
    phi = psi
    for j in range(d):
        for t, ket in phi.terms:
            if ket in tau_of:
                for o, law in enumerate(laws):
                    law.add_tau_power(t - tau_of[ket] - 2 * j * (o - plan.s0))
        phi = apply_observable(W, phi)
    weights = [law.as_rational_integer() for law in laws]
    if None in weights:
        raise SparseFormError(f"output law at input {i} has an irrational probability")
    return {o: Fraction(w, d * len(psi.terms)) for o, w in enumerate(weights) if w}


def is_deterministic(plan: MbqcPlan) -> bool:
    """Whether the output is input-determined, independent of outcomes.

    Every input's exact output law must be a point mass; the check stops at
    the first input whose law is not.  A flat plan's irrational law reads
    as not deterministic; an ordered plan's merged walk raises
    SizeGuardError or SparseFormError rather than guess.
    """
    return _point_table(plan) is not None


def temporal_graph(plan: MbqcPlan) -> dict[int, list[int]]:
    """Dependency DAG: edge j -> k whenever party k's setting reads m_j."""
    adj: dict[int, list[int]] = {k: [] for k in range(plan.N)}
    for k, row in enumerate(plan._t_nonzero):
        for j, _ in row:
            adj[j].append(k)
    return adj


def longest_path(adj: dict[int, list[int]]) -> int:
    """Longest directed path, counted in vertices; 1 for an edgeless graph."""
    indegree = {v: 0 for v in adj}
    for v in adj:
        for w in adj[v]:
            indegree[w] += 1
    depth = {v: 1 for v in adj}
    ready = [v for v in adj if not indegree[v]]
    for v in ready:  # ready grows into a topological order
        for w in adj[v]:
            depth[w] = max(depth[w], depth[v] + 1)
            indegree[w] -= 1
            if not indegree[w]:
                ready.append(w)
    if len(ready) < len(adj):
        raise QuditMbqcError("temporal graph has a cycle")
    return max(depth.values(), default=1)


def empirical_success(plan: MbqcPlan, target: dict) -> tuple[Fraction, Fraction]:
    """(worst-case, average) probability of matching the target table.

    Every input is scored from its exact output law (output_distribution),
    so the result is exact or an error, never an estimate.  The target is
    read by fields._table_values; its arity must be n.
    """
    _, values = _table_values(target, plan.d, plan.n)
    per_input = [output_distribution(plan, i).get(o, Fraction(0))
                 for i, o in zip(plan.inputs(), values)]
    return min(per_input), sum(per_input, Fraction(0)) / len(per_input)
