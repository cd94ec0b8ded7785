"""Execution model for measurement-based computation with Z_d-linear control.

A plan fixes the dimension d, n classical inputs, N parties (each a fiducial
Weyl observable plus a Clifford control), the setting matrix Q, the temporal
matrix T (strictly lower triangular; zero means temporally flat), an optional
setting offset q0, and the linear post-processing row z with constant s0.

Settings follow q = T*m + Q*i + q0 mod d and the output is o = z*m + s0.
Plans are immutable after load; runs are pure given a seed, so enumeration
over inputs can be parallelized freely.

Extraction, the determinism check, success scoring and output_distribution
read exact output laws from one stream (_laws), in input order: the
spectral law of W(i) for flat plans, a chunk of inputs at a time, and a
party-by-party walk that merges equal branches for ordered ones; none of
them samples.  Every site observable M_k(q) = V_k^q W_k V_k^-q of a plan
comes from one table (MbqcPlan._sites) of Weyl labels (t, a, b), M_k(q) =
tau^t W_(a,b), filled at first use by one orbit walk of each distinct
(fiducial, control) pair under its control.  A flat law builds no
operator: W(i) = (x)_k M_k(q_k(i))**z_k is one N-qudit Weyl operator whose
label _flat_labels gathers from that table, for a whole chunk of inputs
per call: the point table reads the chunk's point masses alone, and a
spread law its own row of the chunk's labels.  Runs, the ordered walk,
site_observable and weighted_observable share one MonomialOp per distinct
label (MbqcPlan._ops), whatever party, setting or power it comes from.
Runs, the ordered walk and site_observable read M_k(q) from one table of
operators (MbqcPlan._site_ops), built from _ops at the first of them, so
columns with one label hold one operator.  Every per-column table is read
at entry _site_columns[k] + q, the one per-party index the plan stores:
c*d for the kind c of party k, recorded while __init__ numbers the kinds.
Runs and the ordered walk measure party k with
states._measurement_branches on level k of the resource's suffix trie
(MbqcPlan._trie, built at the first use), passed as it is: a rest is (tau
exponent, suffix class) terms, so a step costs O(K) for its K <= the
resource's term count, whatever N is, and the plan's proof that every site
operator has an omega spectrum stands in for a check per step.  The kernel
weighs every branch before it builds a rest; the walk builds every rest,
and a run step draws over the weights and builds the one rest it keeps,
so it costs O(K) however many outcomes the step has.  Both reach the
kernel through MbqcPlan._branches, which keeps one branch list per
distinct step, (site operator, rest terms, trie level), in the plan's
step memo (MbqcPlan._steps), emptied when it reaches EXACT_BRANCH_BUDGET
entries: a step met again, as on a periodic resource, whose equal trie
levels are one object, costs a lookup keyed by its rest terms.  A run
step on one ket skips the kernel and draws straight off the cycle of the site
operator that holds the ket's digit, read from that operator's row of
(cycle length, outcomes) per digit (MonomialOp._digit_cycles): one row per
entry of _site_ops (MbqcPlan._digit_rows, built once from that table), so
columns with one operator share one row.  A temporally flat plan whose
resource is one ket (every compiled plan) runs in one numpy pass
(_one_ket_run): its settings come from the arrays of MbqcPlan._flat, which
flat laws read too, and its outcomes from one take of MbqcPlan._sure, the
sure outcome of each (site entry, digit), -1 where the cycle has L >= 2;
only those parties draw, in party order, from _digit_rows.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from .errors import (PlanFormatError, QuditMbqcError, SizeGuardError, SparseFormError,
                     plain_dimension, plain_index, plain_int, plain_ints)
from .fields import MultiPoly, _table_values, is_polynomial_over_ring
from .phases import _as_integer, _reduce, _tau_sum, omega_exponent, tau_exponent_of_omega, tau_period
from .states import (
    GlobalObservable,
    MonomialOp,
    SparseState,
    _below,
    _check_seed,
    _draw_branch,
    _measurement_branches,
    _read_seed,
    _suffix_trie,
)
from .weyl import CliffordSpec, WeylLabel, _orbit, weyl_power

# branches one layer of an exact walk may hold, and steps a plan's step memo may hold
EXACT_BRANCH_BUDGET = 20000
# (input, party) pairs per _flat_labels call of the law stream, so that its
# int64 arrays (the largest, the gathered labels, 3 x 32 KiB) stay under
# 128 KiB where N allows: glibc serves smaller blocks from its heap, and
# freeing a larger one raises its mmap threshold for the rest of the
# process (an analyze_plan at p = 37 then peaked 20 % higher)
_FLAT_CHUNK = 2**12
# the plan-file encoder; MbqcPlan.dumps encodes one field per call
_ENCODER = json.JSONEncoder(separators=(",", ":"))


class TableResource:
    """Abstract correlated resource: settings vector -> outcome distribution.

    Distributions are lists of (outcome-vector, probability) with exact
    rational weights summing to 1.  No-signalling is not enforced.
    """

    def __init__(self, N: int, behavior: dict[tuple[int, ...], list[tuple[tuple[int, ...], Fraction]]]):
        self.N = N = plain_int(N, "table N")
        self.behavior = {}
        for q, dist in behavior.items():
            q = plain_ints(q, "table q", N)
            if not isinstance(dist, (list, tuple)) or not all(
                    isinstance(pair, (list, tuple)) and len(pair) == 2 for pair in dist):
                raise QuditMbqcError(f"distribution for settings {q} is {dist!r}, "
                                     "expected (outcome, probability) pairs")
            for m, p in dist:  # a float would make the sum below inexact
                if not isinstance(m, (list, tuple)) or len(m) != N or not all(type(v) is int for v in m):
                    raise QuditMbqcError(f"outcome {m} for settings {q} needs {N} integers")
                if type(p) not in (int, Fraction):
                    raise QuditMbqcError(f"probability {p!r} of outcome {m} for settings {q} "
                                         "is not an integer or a Fraction")
                if p < 0:
                    raise QuditMbqcError(f"probability {p} of outcome {m} for settings {q} is negative")
            total = sum(p for _, p in dist)
            if total != 1:  # with every p >= 0, this also caps each p at 1
                raise QuditMbqcError(f"distribution for settings {q} sums to {total}")
            self.behavior[q] = [(tuple(m), Fraction(p)) for m, p in dist]

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
        return cls(obj["N"], behavior)


@dataclass(frozen=True)
class RunTrace:
    """One execution: input, settings, outcomes, and the linear output."""

    input: tuple[int, ...]
    settings: tuple[int, ...]
    outcomes: tuple[int, ...]
    output: int


class _WeylOps(dict):
    """Weyl label (t, a, b) -> tau^t W_(a,b) as a MonomialOp, built at the
    label's first lookup, so each operator keeps its cached spectrum."""

    def __init__(self, d: int):
        self.d = d

    def __missing__(self, label: tuple[int, int, int]) -> MonomialOp:
        t, a, b = label
        op = self[label] = MonomialOp.from_weyl(self.d, (a, b), t)
        return op


class MbqcPlan:
    """Immutable description of one computation instance."""

    def __init__(self, d, n, N, resource, parties, Q, T=None, *, z, s0, q0=None):
        self.d = d = plain_dimension(d)
        self.n = n = plain_int(n, "n")
        self.N = N = plain_int(N, "N")
        self.s0 = plain_int(s0, "s0") % d
        if isinstance(resource, SparseState):
            if resource.d != d or resource.N != N:
                raise QuditMbqcError("resource state shape does not match the plan")
        elif isinstance(resource, TableResource):
            if resource.N != N:
                raise QuditMbqcError("table resource party count does not match")
        else:
            raise QuditMbqcError(f"unsupported resource {type(resource).__name__}")
        self.resource = resource
        if not isinstance(parties, (list, tuple)):
            raise QuditMbqcError(f"parties must be a list of (WeylLabel, CliffordSpec) pairs, "
                                 f"got {type(parties).__name__}")
        if len(parties) != N:
            raise QuditMbqcError(f"expected {N} parties, got {len(parties)}")
        # each party's column c*d in _sites, c its kind, numbered in order of
        # first occurrence; conjugation by the control keeps the spectrum, so
        # one check per kind covers every party and setting
        kinds: dict = {}  # (fiducial, control) -> column
        # id of each party object -> its column: the compiler and from_json
        # repeat party objects, which then are not checked or hashed again
        seen: dict = {}
        columns, first = [], []
        for k, party in enumerate(parties):
            c = seen.get(id(party))
            if c is None:
                if not (isinstance(party, (tuple, list)) and len(party) == 2
                        and isinstance(party[0], WeylLabel) and isinstance(party[1], CliffordSpec)):
                    raise QuditMbqcError(f"party {k} is {party!r}, expected a (WeylLabel, CliffordSpec) pair")
                fid, ctrl = pair = tuple(party)
                c = kinds.get(pair)
                if c is None:  # a new kind
                    if fid.d != d or ctrl.d != d:
                        raise QuditMbqcError("party dimension does not match the plan")
                    if weyl_power(fid.tau_exp, fid.v, d, d) != (0, (0, 0)):
                        raise QuditMbqcError(f"party {k} fiducial spectrum is not omega powers")
                    if d % 2 == 0 and ctrl.monomial_factors() is None:  # as conjugate_weyl needs
                        raise QuditMbqcError(f"party {k} control needs an upper-triangular "
                                             "symplectic part at even d")
                    c = kinds[pair] = len(first) * d
                    first.append(k)
                seen[id(party)] = c
            columns.append(c)
        self.parties = tuple(map(tuple, parties))
        # each party's first column in _sites, and the first party of each kind
        self._site_columns, self._first = tuple(columns), tuple(first)
        self._ops = _WeylOps(d)  # every site operator and power the plan has used
        if not isinstance(Q, (list, tuple)):
            raise QuditMbqcError("Q must be a list of rows of integers")
        if len(Q) != N:
            raise QuditMbqcError(f"Q must have {N} rows, got {len(Q)}")
        self.Q = _int_rows(Q, n, d, "Q row {}".format, n)
        self.z, self.q0 = _int_rows((z, (0,) * N if q0 is None else q0), N, d,
                                    ("z", "q0").__getitem__, f"one per party ({N})")
        # (column, entry) of each row's nonzero entries: the only stored form of T
        self._t_nonzero = _sparse_rows(T, N, d)
        self.temporally_flat = not any(self._t_nonzero)
        if isinstance(resource, TableResource):
            if not self.temporally_flat:
                raise QuditMbqcError("table resources support temporally flat plans only")
            for q, dist in resource.behavior.items():  # the table does not know d
                for m, _ in dist:
                    if not all(0 <= v < d for v in m):
                        raise QuditMbqcError(f"outcome {m} for settings {q} lies outside 0..{d - 1}")
            for i in self.inputs():  # raises at the first settings without an entry
                resource.distribution(self._settings(i))

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

    def inputs(self) -> list[tuple[int, ...]]:
        return list(itertools.product(range(self.d), repeat=self.n))

    def setting(self, k: int, i: tuple[int, ...], outcomes) -> int:
        """q_k for input i, reading the outcomes of the parties measured so
        far, a list or tuple of ints."""
        k, i = plain_index(k, "party", self.N), _read_input(self, i)
        outcomes = plain_ints(outcomes, "outcomes")
        acc = self.q0[k] + sum(map(operator.mul, self.Q[k], i))
        if outcomes:
            acc += sum(v * outcomes[j] for j, v in self._t_nonzero[k] if j < len(outcomes))
        return acc % self.d

    @functools.cached_property
    def _columns(self) -> tuple[tuple[int, ...], ...]:
        """The n columns of Q."""
        return tuple(zip(*self.Q))

    @functools.cached_property
    def _reads(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """T by columns: entry l holds the (j, T[j][l]) pairs of the parties
        j whose setting reads m_l, in party order."""
        reads: list[list] = [[] for _ in range(self.N)]
        for j, row in enumerate(self._t_nonzero):
            for l, v in row:
                reads[l].append((j, v))
        return tuple(map(tuple, reads))

    @functools.cached_property
    def _trie(self) -> tuple[tuple, tuple]:
        """The quantum resource's suffix trie (states._suffix_trie), built
        at the first run or ordered walk."""
        return _suffix_trie(self.resource)

    def _settings(self, i: tuple[int, ...]) -> tuple[int, ...]:
        """The settings of every party for input i (n symbols mod d) before
        any outcome is read: q0 + Q*i mod d, one pass per nonzero symbol,
        the last of which reduces mod d; q0 itself when i is all zero."""
        acc, d = self.q0, self.d
        nonzero = [(column, v) for column, v in zip(self._columns, i) if v]
        if not nonzero:
            return acc
        for column, v in nonzero[:-1]:
            acc = [a + c * v for a, c in zip(acc, column)]
        column, v = nonzero[-1]
        return tuple([(a + c * v) % d for a, c in zip(acc, column)])

    def site_observable(self, k: int, q_k: int) -> MonomialOp:
        """M_k(q_k) = U_k^{q_k} M_k(0) U_k^{-q_k}, exact monomial form, for a
        party k in 0..N-1 and a setting q_k in 0..d-1 (a control's d-th power
        need not act as the identity, so q_k is not read mod d)."""
        k, q_k = plain_index(k, "party", self.N), plain_index(q_k, "setting", self.d)
        return self._site_ops[self._site_columns[k] + q_k]

    @functools.cached_property
    def _sites(self) -> tuple[tuple[int, int, int], ...]:
        """Every M_k(q) = tau^t W_(a,b) as (t, a, b) at entry
        _site_columns[k] + q: one orbit walk of each kind's fiducial under
        its control."""
        d, P = self.d, tau_period(self.d)
        return tuple(((fid.tau_exp + tau_exponent_of_omega(phase, d)) % P, a, b)
                     for fid, ctrl in map(self.parties.__getitem__, self._first)
                     for phase, (a, b) in _orbit(ctrl, fid.v, d))

    @functools.cached_property
    def _site_ops(self) -> tuple[MonomialOp, ...]:
        """M_k(q) as a MonomialOp at entry _site_columns[k] + q, as in
        _sites, read from _ops, so columns with one label hold one object;
        built at the first run, ordered walk or site_observable."""
        return tuple(map(self._ops.__getitem__, self._sites))

    @functools.cached_property
    def _steps(self) -> dict:
        """The step memo of _branches, empty until the first run or
        ordered walk that reaches the kernel."""
        return {}

    def _branches(self, op: MonomialOp, terms: tuple, level: tuple) -> list:
        """states._measurement_branches(d, op, terms, level) for an entry op
        of _site_ops and a level of _trie, computed once per distinct step:
        the kernel reads nothing else, and the plan holds its operators and
        levels for its lifetime, so (their ids, terms) names the step.  The
        branch list is shared read-only and its rests stay lazy; a
        SparseFormError leaves nothing stored, so it is raised again on the
        next visit.  _steps is emptied when it reaches EXACT_BRANCH_BUDGET
        entries."""
        steps, key = self._steps, (id(op), id(level), terms)
        branches = steps.get(key)
        if branches is None:
            branches = _measurement_branches(self.d, op, terms, level)
            if len(steps) >= EXACT_BRANCH_BUDGET:
                steps.clear()
            steps[key] = branches
        return branches

    @functools.cached_property
    def _digit_rows(self) -> tuple:
        """The _digit_cycles of each entry of _site_ops, for one-ket run
        steps; columns with one operator share its row."""
        return tuple([op._digit_cycles for op in self._site_ops])

    @functools.cached_property
    def _sure(self) -> np.ndarray:
        """Entry e*d + x: the one outcome of entry e of _site_ops on the
        digit x, or -1 where the cycle holding x has L >= 2 outcomes; read
        off _digit_rows, for the runs of _one_ket_run."""
        return np.array([on_cycle[0] if L == 1 else -1
                         for row in self._digit_rows for L, on_cycle in row], np.int64)

    @functools.cached_property
    def _flat(self) -> SimpleNamespace:
        """Q's columns, q0, z, _sites as a (3, kinds*d) array, the first
        column of each party's kind in it and the resource in numpy form
        for _flat_labels and _one_ket_run."""
        d, P, N, n = self.d, tau_period(self.d), self.N, self.n
        if P * P * (N + n + 1) >= 2**63:  # bounds every value of _flat_labels
            raise SizeGuardError(f"flat laws at d={d} with {N} parties and {n} inputs need int64 "
                                 f"values up to {P * P * (N + n + 1)}, over the limit {2**63}")
        rows = np.array([self._site_columns, self.z, self.q0, *self._columns],
                        np.int64).reshape(n + 3, N)
        column, z, q0, QT = rows[0], rows[1], rows[2], rows[3:]
        taus, kets = zip(*self.resource.terms)
        return SimpleNamespace(
            QT=QT, q0=q0, z=z, column=column,
            sites=np.array(self._sites, np.int64).reshape(-1, 3).T,
            taus=taus, kets=np.array(kets, np.int64).reshape(len(kets), N),
            row_of={ket: r for r, ket in enumerate(kets)})

    def output_of(self, outcomes: tuple[int, ...]) -> int:
        """o = z*m + s0 mod d for the N outcomes m, a list or tuple of ints."""
        if len(plain_ints(outcomes, "outcomes")) != self.N:
            raise QuditMbqcError(f"{len(outcomes)} outcomes for {self.N} parties")
        return self._output(outcomes)

    def _output(self, outcomes) -> int:
        """output_of for N outcomes known to be ints: those of a run or a table."""
        return (sum(map(operator.mul, self.z, outcomes)) + self.s0) % self.d

    # -- serialization ------------------------------------------------------
    def _json_fields(self):
        """The plan-file fields as (key, value) pairs, in file order, each
        value built only when its pair is reached."""
        yield "d", self.d
        yield "n", self.n
        yield "N", self.N
        yield "resource", self.resource.to_json()
        d, first = self.d, self._first
        yield "parties", [  # a repeated party is the index of its first occurrence
            j if (j := first[column // d]) < k
            else {"fiducial": fid.to_json(), "control": ctrl.to_json()}
            for k, (column, (fid, ctrl)) in enumerate(zip(self._site_columns, self.parties))
        ]
        yield "Q", [list(r) for r in self.Q]
        yield "T", [{str(j): v for j, v in row} if row else {} for row in self._t_nonzero]
        yield "z", list(self.z)
        yield "s0", self.s0
        if any(self.q0):
            yield "q0", list(self.q0)

    def to_json(self) -> dict:
        return dict(self._json_fields())

    @classmethod
    def from_json(cls, obj: dict) -> "MbqcPlan":
        try:
            d = plain_dimension(obj["d"])
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
        """The plan file: the bytes of json.dumps(self.to_json(), separators=
        (",", ":")) and a newline, encoded one field at a time, so that only
        one field's objects and tokens are alive at once."""
        encode = _ENCODER.encode
        return "{%s}\n" % ",".join([f'"{key}":{encode(value)}' for key, value in self._json_fields()])

    @classmethod
    def loads(cls, text: str) -> "MbqcPlan":
        try:
            obj = json.loads(text, parse_float=_reject_number, parse_constant=_reject_number)
        except json.JSONDecodeError as exc:
            raise PlanFormatError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
        # nesting past the recursion limit, or an integer literal past the
        # int-string digit limit
        except (RecursionError, ValueError) as exc:
            raise PlanFormatError(f"invalid JSON: {exc}") from exc
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


def _int_rows(rows, length: int, d: int, name, expected) -> tuple[tuple[int, ...], ...]:
    """rows, each a list or tuple of `length` integers, as tuples reduced
    mod d, equal rows one tuple object.  The rows are checked in bulk; only
    a failed check looks for the first bad row, to refuse it as name(k),
    its length against expected."""
    if not (set(map(type, rows)) <= {list, tuple} and set(map(len, rows)) <= {length}
            and set(map(type, itertools.chain.from_iterable(rows))) <= {int}):
        for k, row in enumerate(rows):  # a list subclass passes here, not in bulk
            plain_ints(row, name(k))
            if len(row) != length:
                raise QuditMbqcError(f"{name(k)} has {len(row)} entries, expected {expected}")
    if not length:
        return ((),) * len(rows)
    flat = [v % d for v in itertools.chain.from_iterable(rows)]
    cut = list(zip(*[iter(flat)] * length))
    one: dict = {}  # each distinct row -> its first tuple
    return tuple(map(one.setdefault, cut, cut))


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
    if set(map(type, T)) <= {dict} and not any(T):  # a flat plan's file form, checked in bulk
        return ((),) * N
    rows = []
    for k, row in enumerate(T):
        if isinstance(row, dict):
            if not row:  # the plan-file form of every flat party
                rows.append(())
                continue
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
    states._measurement_branches and forgets the measured qudit, so the
    party measured next is always at position 0 of the remaining state,
    read off the plan's suffix trie.  The draw reads the branches' weights
    alone, in the kernel's order, and only then is the drawn branch's rest
    built: one rest per step, not one per branch, for the same bits and
    the same rest as a draw over fully built branches.  The site operator
    is read straight from the plan's per-column table, _site_ops[column + q].
    The branch list comes from the plan's step memo (MbqcPlan._branches),
    which computes each distinct (operator, rest terms, trie level) step
    once and shares it with later runs and ordered walks of the plan, at
    most EXACT_BRANCH_BUDGET steps at a time; its rests stay lazy, so a
    run takes the same bits and builds the rest it draws as a run without
    the memo.  Once one ket is left (after the head, or from the start on
    an ordered plan whose resource is one ket), a step draws the outcome
    straight off the cycle of the site operator that holds the ket's
    digit: entry _site_columns[k] + q of MbqcPlan._digit_rows holds each
    digit's (cycle length, outcomes) under M_k(q), the _digit_cycles of
    that entry of _site_ops, so columns with one label share one row.
    Every draw, in the head and the tail, reads the Random's getrandbits
    by states._below, which takes the bits and gives the value that
    rng.randrange would.  The tail's draws at L = 1 choose nothing but
    still consume bits, as _below(getrandbits, 1) reads getrandbits(1)
    until it returns 0: they are owed, and paid by those reads before the
    next draw that chooses (L >= 2).  At the end they are paid only to a
    caller's Random, since no later draw and no caller reads the bits of a
    run's own.  A seed of None or an int is checked at once but seeds the
    run's own Random only at its first draw that chooses: the first head
    step, the first tail step with L >= 2, or a table resource's draw, so
    a run on one ket that never meets L >= 2 (every run of a compiled
    plan) seeds none and draws nothing.  A temporally flat plan on one ket
    takes none of these steps: _one_ket_run reads its settings, sure
    outcomes and output in one numpy pass and makes the draws of the
    parties with L >= 2 alone, in party order, each after the owed draws
    before it, so its bits, outcomes and caller's Random state are those
    of the tail loop.
    """
    i = _read_input(plan, i)
    caller = _check_seed(seed)
    if isinstance(plan.resource, TableResource):
        settings = plan._settings(i)
        m, _, _ = _draw_branch([(m, p.numerator, p.denominator)
                                for m, p in plan.resource.distribution(settings)],
                               _read_seed(seed).getrandbits)
        return RunTrace(i, settings, m, plan._output(m))
    if plan.temporally_flat and len(plan.resource.terms) == 1:
        return _one_ket_run(plan, i, seed, caller)
    settings = list(plan._settings(i))
    outcomes: list[int] = []
    terms, levels = plan._trie
    d, t_rows = plan.d, plan._t_nonzero
    columns, ops, step = plan._site_columns, plan._site_ops, plan._branches
    bits = _read_seed(seed).getrandbits if caller or len(terms) > 1 else None
    k = 0
    while len(terms) > 1:  # the head: two or more kets, through the kernel
        if t_rows[k]:
            settings[k] = (settings[k] + sum(v * outcomes[j] for j, v in t_rows[k])) % d
        m_k, _, _, rest = _draw_branch(step(ops[columns[k] + settings[k]], terms, levels[k]), bits)
        terms = rest()
        outcomes.append(m_k)
        k += 1
    # the tail: one ket, whose digit lies on one cycle of length L, whose L
    # outcomes each have probability 1/L (the plan proved L of them per
    # cycle, so no Parseval check can fire), and the rest is the child
    # class alone.  A step draws as _draw_branch would on those L branches,
    # _below(bits, L), and one at L = 1 is owed (see the docstring).
    ((_, c),) = terms
    rows, owed = plan._digit_rows, 0
    for k, level, reads, column, q in zip(range(k, plan.N), levels[k:], t_rows[k:],
                                          columns[k:], settings[k:]):
        if reads:
            q = settings[k] = (q + sum(v * outcomes[j] for j, v in reads)) % d
        digit, c = level[c]
        L, on_cycle = rows[column + q][digit]
        if L == 1:
            owed += 1
            outcomes.append(on_cycle[0])
        else:
            if bits is None:
                bits = _read_seed(seed).getrandbits
            _pay(bits, owed)
            owed = 0
            outcomes.append(on_cycle[_below(bits, L)])
    if caller:
        _pay(bits, owed)
    return RunTrace(i, tuple(settings), tuple(outcomes), plan._output(outcomes))


def _one_ket_run(plan: MbqcPlan, i: tuple[int, ...], seed, caller: bool) -> RunTrace:
    """run on a temporally flat plan whose resource is one ket, in one
    numpy pass: the settings s = q0 + Q*i mod d, each party's outcome
    taken from plan._sure at (_site_columns[k] + s_k)*d + ket[k], and the
    output z*m + s0 mod d.  Only the parties whose cycle has L >= 2
    outcomes (-1 in _sure) draw, in party order, as run's tail loop
    does: the owed one-outcome draws first, then _below(bits, L) from
    _digit_rows; so the bits, and a caller's Random, are those of that
    loop.  Every value (settings below d + n*d*d, indices below kinds*d*d,
    z*m below N*d*d) stays under plan._flat's int64 bound P*P*(N + n + 1),
    P <= 2d, which holds on every plan whose N parties and _site_ops
    (kinds*d operators of d entries each) fit in memory."""
    d, f, settings = plan.d, plan._flat, plan._flat.q0
    for v, row in zip(i, f.QT):  # new arrays only: f's stay as they are
        if v:
            settings = settings + v * row
    settings = settings % d
    entries, digits = f.column + settings, f.kets[0]
    outcomes = plan._sure.take(entries * d + digits)
    (chosen,) = (outcomes < 0).nonzero()
    if caller or chosen.size:
        bits, rows, last = _read_seed(seed).getrandbits, plan._digit_rows, -1
        for k, entry, digit in zip(chosen.tolist(), entries[chosen].tolist(), digits[chosen].tolist()):
            _pay(bits, k - last - 1)
            L, on_cycle = rows[entry][digit]
            outcomes[k], last = on_cycle[_below(bits, L)], k
        if caller:
            _pay(bits, plan.N - last - 1)
    return RunTrace(i, tuple(settings.tolist()), tuple(outcomes.tolist()),
                    (int(f.z @ outcomes) + plan.s0) % d)


def _pay(bits, owed: int) -> None:
    """Read bits(1) until it has returned 0 owed times: the bits of owed
    _below(bits, 1) draws."""
    while owed:
        owed -= not bits(1)


def weighted_observable(plan: MbqcPlan, i) -> GlobalObservable:
    """Tensor product of M_k(q_k)**z_k; its eigenphase is z*m (mod d).
    Only a temporally flat plan has one such W(i): an ordered plan's
    settings read the outcomes, so it is refused."""
    if not plan.temporally_flat:
        raise QuditMbqcError("weighted_observable applies to temporally flat plans")
    d, sites = plan.d, plan._sites
    power = {}  # (site label, z_k) -> the operator of its power, once per call
    ops = []
    for c, q, e in zip(plan._site_columns, plan._settings(_read_input(plan, i)), plan.z):
        label = sites[c + q]
        op = power.get((label, e))
        if op is None:
            t, a, b = label
            t, (a, b) = weyl_power(t, (a, b), e, d)
            op = power[label, e] = plan._ops[t, a, b]
        ops.append(op)
    return GlobalObservable(d, ops)


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
    """The output per input, or None when some law is not a point mass:
    the point outcomes of _laws, read chunk by chunk up to the first chunk
    with a spread input.  It never asks a chunk for a law, so on a flat
    quantum plan no spread law is computed, and an irrational one reads as
    not a point mass.
    """
    table = {}
    for chunk, points, _ in _laws(plan, plan.inputs()):
        if None in points:
            return None
        table.update(zip(chunk, points))
    return table


def _laws(plan: MbqcPlan, inputs: list):
    """The exact output law of each input, in input order, as (chunk,
    points, law) for consecutive chunks of the inputs: points[r] is o when
    the law of chunk[r] is the point mass at o and None when it is spread,
    and law(r) is that law, {o: probability}.

    A flat quantum plan takes _FLAT_CHUNK (input, party) pairs a chunk: one
    _flat_labels and one _eigenphases call give the chunk's labels and
    point outcomes, and law(r) reads a spread law off row r of those labels
    (_spectral_law) only when it is called, raising SparseFormError there
    when that law is irrational.  Table resources and ordered plans go one
    input a chunk, their law computed at once (_law).
    """
    if plan.temporally_flat and isinstance(plan.resource, SparseState):
        step = max(1, _FLAT_CHUNK // max(plan.N, 1))
        for s in range(0, len(inputs), step):
            chunk = inputs[s:s + step]
            points = _eigenphases(plan, *(labels := _flat_labels(plan, chunk)))
            yield chunk, points, functools.partial(_spectral_law, plan, chunk, points, labels)
        return
    for i in inputs:  # a one-input chunk, whose law(0) is the law itself
        law = _law(plan, i)
        yield (i,), [next(iter(law)) if len(law) == 1 else None], [law].__getitem__


def _flat_labels(plan: MbqcPlan, inputs) -> tuple:
    """W(i) = (x)_k M_k(q_k(i))**z_k of a flat quantum plan for each input,
    as arrays with one row per input: (A1, A2, AX, beta) with

        W(i)^j |x> = tau^(j*A1 + j*j*A2 + 2j*alpha.x) |x + j*beta>

    (weyl_power and MonomialOp.from_weyl), where M_k(q_k(i)) = tau^t_k
    W_(a_k, b_k) is read from plan._sites, A1 = sum z_k t_k and A2 = sum
    z_k^2 a_k b_k mod the tau period, alpha = z*a and beta = z*b mod d, and
    AX[:, r] = alpha.x_r mod d for each resource ket x_r.
    """
    d, P, f = plan.d, tau_period(plan.d), plan._flat
    # int64 throughout, every value below P*P*(N + n + 1) (plan._flat checks
    # it): settings before reduction are below d + n*d**2, and the sums over
    # the parties below N*d*P (of z*t), N*P*P (of z*a times z*b, each
    # reduced) and N*d*d (alpha @ kets)
    keys = (np.array(inputs, np.int64).reshape(len(inputs), plan.n) @ f.QT + f.q0) % d + f.column
    t, a, b = f.sites.take(keys, axis=1) * f.z
    A1, A2 = t.sum(1) % P, (a % P * (b % P)).sum(1) % P
    return A1, A2, a % d @ f.kets.T % d, b % d


def _eigenphases(plan: MbqcPlan, A1, A2, AX, beta) -> list[int | None]:
    """o + s0 mod d for each row of _flat_labels whose W has psi as an
    eigenvector, W psi = omega^o psi; None for the others.

    W maps tau^t_r |x_r> to tau^(t_r + A1 + A2 + 2 alpha.x_r) |x_r + beta>,
    so psi is one exactly when the shift by beta keeps psi's ket set and
    every term gains the same phase, tau^(2o).
    """
    d, P, f = plan.d, tau_period(plan.d), plan._flat
    out = []
    for gain, moved, shift in zip(((A1 + A2)[:, None] + 2 * AX).tolist(), beta.any(1).tolist(), beta):
        if moved:  # term r lands on term image[r], whose phase it must make up
            image = [f.row_of.get(ket) for ket in map(tuple, ((f.kets + shift) % d).tolist())]
            gain = None if None in image else [g + t - f.taus[r] for g, t, r in zip(gain, f.taus, image)]
        out.append(None if gain is None or len({g % P for g in gain}) > 1
                   else (omega_exponent(gain[0], d) + plan.s0) % d)
    return out


def output_distribution(plan: MbqcPlan, i) -> dict[int, Fraction]:
    """Exact distribution of the output for one input: the one-input case
    of _laws.

    Flat plans are exact on every input: a table resource is read off, a
    quantum one follows P(o) = <psi|(1/d) sum_j omega^(-j(o-s0)) W^j|psi>
    with W = weighted_observable(plan, i), read off W's labels
    (_spectral_law), or raises SparseFormError when a probability is
    irrational.  Ordered plans are walked party by party (_law).
    """
    return next(_laws(plan, [_read_input(plan, i)]))[2](0)


def _law(plan: MbqcPlan, i: tuple[int, ...]) -> dict[int, Fraction]:
    """The exact output law of input i on a table resource, read off the
    table, or of an ordered plan, walked party by party, merging branches
    that agree on the rest state (global phase dropped), the outcome
    corrections to later parties' settings and the partial output; each
    step's branches come from the plan's step memo (MbqcPlan._branches),
    shared with other inputs and runs.  The walk raises SizeGuardError when
    its widest layer, the branches after one party, exceeds
    EXACT_BRANCH_BUDGET.  The walk's weights are integers over one
    denominator per layer: a branch of weight w / den from a branch of
    numerator num adds num * w * (scale // den), scale the lcm of the
    layer's branch denominators, which multiplies the denominator; the gcd
    of the numerators and the denominator is divided out after each layer,
    and Fractions are built for the returned law alone.
    """
    if isinstance(plan.resource, TableResource):
        out = {}
        for m, p in plan.resource.distribution(plan._settings(i)):
            o = plan._output(m)
            out[o] = out.get(o, Fraction(0)) + p
        return {o: p for o, p in out.items() if p}
    d, z, reads, step = plan.d, plan.z, plan._reads, plan._branches
    settings, columns, ops = plan._settings(i), plan._site_columns, plan._site_ops
    start, levels = plan._trie
    # (rest terms, the nonzero outcome corrections to later settings as
    # sorted (party, delta) pairs, partial output) -> probability times den
    layer, den = {(start, (), plan.s0): 1}, 1
    for k in range(plan.N):
        level = levels[k]
        branches = []  # (key, numerator, denominator) of each branch
        for (terms, later, part), num in layer.items():
            q = settings[k]
            if later and later[0][0] == k:
                q, later = (q + later[0][1]) % d, later[1:]
            for m_k, weight, b_den, rest in step(ops[columns[k] + q], terms, level):
                corrections = later
                if m_k and reads[k]:
                    delta = dict(later)
                    for j, v in reads[k]:
                        delta[j] = (delta.get(j, 0) + v * m_k) % d
                    corrections = tuple(sorted((j, x) for j, x in delta.items() if x))
                branches.append(((rest(), corrections, (part + z[k] * m_k) % d), num * weight, b_den))
        scale = math.lcm(*{b_den for _, _, b_den in branches})
        merged: dict[tuple, int] = {}
        for key, num, b_den in branches:
            merged[key] = merged.get(key, 0) + num * (scale // b_den)
        if len(merged) > EXACT_BRANCH_BUDGET:
            raise SizeGuardError(f"ordered walk of input {i} reached {len(merged)} branches "
                                 f"at party {k}, over the widest-layer limit "
                                 f"{EXACT_BRANCH_BUDGET}")
        den *= scale
        g = math.gcd(den, *merged.values())
        layer, den = {key: num // g for key, num in merged.items()}, den // g
    # every branch ends in the one empty state, so the outputs are distinct
    return {o: Fraction(num, den) for (_, _, o), num in layer.items()}


def _spectral_law(plan: MbqcPlan, chunk: list, points: list, labels: tuple, row: int) -> dict[int, Fraction]:
    """The law of chunk[row] on a flat quantum plan, from its chunk's point
    outcomes (_eigenphases) and that row of its labels (_flat_labels): the
    point mass at points[row], or else d*K*P(o) as exact tau-power sums over
    the kets W^j psi shares with psi: the moment terms are collected once,
    and each outcome o's sum is one integer coefficient list built by
    phases._tau_sum, reduced by phases._reduce, rational exactly when only
    its tau^0 coefficient survives (phases._as_integer)."""
    if points[row] is not None:
        return {points[row]: Fraction(1)}
    d, P, s0, f = plan.d, tau_period(plan.d), plan.s0, plan._flat
    A1, A2, AX, beta = int(labels[0][row]), int(labels[1][row]), labels[2][row].tolist(), labels[3][row]
    # (j, tau exponent at o = 0) for each ket W^j keeps in psi's support: W^0 keeps every ket
    # at exponent 0, and W^j, j >= 1, moves x_r to ket
    terms = [(0, 0)] * len(f.taus) + [
        (j, f.taus[r] - f.taus[f.row_of[ket]] + j * A1 + j * j * A2 + 2 * j * (AX[r] + s0))
        for j in range(1, d) for r, ket in enumerate(map(tuple, ((f.kets + j * beta) % d).tolist()))
        if ket in f.row_of]
    # outcome o adds tau^(e - 2*j*o) for each term
    weights = [_as_integer(_reduce(_tau_sum([e - 2 * j * o for j, e in terms], P), P)) for o in range(d)]
    if None in weights:
        raise SparseFormError(f"output law at input {chunk[row]} has an irrational probability")
    return {o: Fraction(w, d * len(f.taus)) for o, w in enumerate(weights) if w}


def is_deterministic(plan: MbqcPlan) -> bool:
    """Whether the output is input-determined, independent of outcomes.

    Every input's exact output law must be a point mass (_point_table).  A
    flat plan's irrational law reads as not deterministic; an ordered
    plan's merged walk raises SizeGuardError or SparseFormError rather
    than guess.
    """
    return _point_table(plan) is not None


def temporal_graph(plan: MbqcPlan) -> dict[int, list[int]]:
    """Dependency DAG: edge j -> k whenever party k's setting reads m_j."""
    return {j: [k for k, _ in column] for j, column in enumerate(plan._reads)}


def longest_path(adj: dict[int, list[int]]) -> int:
    """Longest directed path, counted in vertices; 1 for an edgeless graph."""
    if not isinstance(adj, dict):
        raise QuditMbqcError(f"temporal graph is {adj!r}, expected a dict of vertex -> vertices")
    indegree = {v: 0 for v in adj}
    for v, out in adj.items():
        if not isinstance(out, (list, tuple)):
            raise QuditMbqcError(f"temporal graph vertex {v} has {out!r}, expected a list of vertices")
        for w in out:
            if w not in indegree:
                raise QuditMbqcError(f"temporal graph has an edge {v} -> {w}, but {w} is not a vertex")
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

    Every input is scored from its exact output law, read from _laws chunk
    by chunk (on a flat quantum plan, the moment sum runs for its spread
    inputs alone), so the result is exact or an error, never an estimate:
    the first input, in input order, whose law is irrational is refused.
    The target is read by fields._table_values; its arity must be n.
    """
    values, per_input = iter(_table_values(target, plan.d, plan.n)[1]), []
    for _, points, law in _laws(plan, plan.inputs()):
        per_input += [law(r).get(o, Fraction(0)) for r, o in zip(range(len(points)), values)]
    return min(per_input), sum(per_input, Fraction(0)) / len(per_input)
