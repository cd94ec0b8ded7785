"""Exact N-qudit state simulation.

Two backends: a sparse superposition-of-basis-terms representation whose
amplitudes are a common positive normalization times a tau-power (exact,
covers every resource state used here), and a dense complex backend used as
a tolerance-based cross-check oracle.

States are immutable; all operations return new states.  Measurement takes
an explicit seed or Random instance, so runs are reproducible and safe to
parallelize across inputs.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

import numpy as np

from .errors import (InconsistencyError, QuditMbqcError, SizeGuardError, SparseFormError,
                     plain_dimension, plain_int, plain_ints)
from .phases import (_as_integer, _correlation, _reduce, _tau_sum, omega_exponent, tau_period, tau_power_keys,
                     tau_value)
from .weyl import CliffordSpec

DENSE_GUARD = 10**6  # maximum d**N amplitudes for the dense backend


@dataclass(frozen=True)
class MonomialOp:
    """A d x d generalized-permutation operator with tau-power entries.

    op|z> = tau^phases[z] |perm[z]>.  Closed under products and powers, so
    every Weyl operator and every control unitary used here stays exact.
    The constructor refuses anything but a permutation of 0..d-1 with d
    phases, all ints.  The cached property spectrum walks the cycles once
    per object, and the omega verdict (has_omega_spectrum) is read off that
    record.
    """

    d: int
    perm: tuple[int, ...]
    phases: tuple[int, ...]

    def __post_init__(self):
        d = plain_dimension(self.d)
        if (not isinstance(self.perm, (tuple, list)) or not isinstance(self.phases, (tuple, list))
                or {*map(type, self.perm), *map(type, self.phases)} != {int}
                or len(self.phases) != d or sorted(self.perm) != list(range(d))):
            raise QuditMbqcError(f"a d={d} operator needs a permutation of 0..{d - 1} and {d} "
                                 f"phases, all integers, got {self.perm} and {self.phases}")

    @classmethod
    def identity(cls, d: int) -> "MonomialOp":
        return cls(d, tuple(range(d)), (0,) * d)

    @classmethod
    def from_weyl(cls, d: int, v: tuple[int, int], tau_exp: int = 0) -> "MonomialOp":
        # the label is read by its canonical representative; callers tracking
        # wraparound phases must reduce_label first
        a, b = v[0] % d, v[1] % d
        period = tau_period(d)
        perm = tuple((z + b) % d for z in range(d))
        phases = tuple((tau_exp + a * b + 2 * a * z) % period for z in range(d))
        return cls(d, perm, phases)

    def compose(self, other: "MonomialOp") -> "MonomialOp":
        """self applied after other (matrix product self @ other)."""
        if other.d != self.d:
            raise QuditMbqcError(f"cannot compose a d={self.d} and a d={other.d} operator")
        period = tau_period(self.d)
        perm = tuple(self.perm[other.perm[z]] for z in range(self.d))
        phases = tuple(
            (other.phases[z] + self.phases[other.perm[z]]) % period for z in range(self.d)
        )
        return MonomialOp(self.d, perm, phases)

    def power(self, e: int) -> "MonomialOp":
        if plain_int(e, "exponent") < 0:
            raise ValueError("exponent must be non-negative")
        out = MonomialOp.identity(self.d)
        for _ in range(e):
            out = out.compose(self)
        return out

    def scaled(self, tau_exp: int) -> "MonomialOp":
        period = tau_period(self.d)
        return MonomialOp(self.d, self.perm, tuple((p + tau_exp) % period for p in self.phases))

    def has_omega_spectrum(self) -> bool:
        """Whether op**d is the identity, read off spectrum: exactly when
        every cycle of length L carries L outcomes, since the L eigenvalues
        on a cycle are distinct."""
        return all(len(outcomes) == L for L, outcomes in self.spectrum[1])

    @functools.cached_property
    def spectrum(self) -> tuple[tuple, tuple]:
        """The cycle decomposition, walked once per operator object.

        (place, cycles): place[z] = (C, s, phi_s) when z is step s of cycle C
        from its first element z0, op^s|z0> = tau^phi_s |z>; cycles[C] =
        (L, the outcomes m with 2mL = Phi_C), Phi_C the phase around C: the
        eigenvalues omega^m on C, all L of them when has_omega_spectrum().
        """
        d, period = self.d, tau_period(self.d)
        place: list[tuple[int, int, int] | None] = [None] * d
        cycles = []
        for start in range(d):
            if place[start] is not None:
                continue
            z, s, phi = start, 0, 0
            while place[z] is None:
                place[z] = (len(cycles), s, phi)
                phi += self.phases[z]
                s += 1
                z = self.perm[z]
            cycles.append((s, _outcomes(2 * s, phi, period, d)))
        return tuple(place), tuple(cycles)

    @functools.cached_property
    def _digit_cycles(self) -> tuple:
        """Entry z is the (L, outcomes) of the cycle holding digit z, read
        once from spectrum."""
        place, cycles = self.spectrum
        return tuple([cycles[c] for c, _, _ in place])

    def to_dense(self) -> np.ndarray:
        tau = tau_value(self.d)
        out = np.zeros((self.d, self.d), dtype=complex)
        for z in range(self.d):
            out[self.perm[z], z] = tau ** self.phases[z]
        return out


def _outcomes(a: int, phi: int, period: int, d: int) -> tuple[int, ...]:
    """The m in 0..d-1 with a*m = phi (mod period), ascending: none unless
    g = gcd(a, period) divides phi, else every m0 + j*period/g below d,
    m0 the solution of (a/g)*m = phi/g modulo period/g."""
    g = math.gcd(a, period)
    if phi % g:
        return ()
    step = period // g
    return tuple(range(phi // g * pow(a // g, -1, step) % step, d, step))


def clifford_unitary(spec: CliffordSpec) -> MonomialOp:
    """Exact monomial materialization of a Clifford control V = U W_x.

    Only monomial-class (upper-triangular symplectic) controls are
    materializable; that covers S, M_u, displacements and their products.
    """
    d = spec.d
    factors = spec.monomial_factors()
    if factors is None:
        raise QuditMbqcError("control is not in the monomial class")
    s, m = factors
    period = tau_period(d)
    s_gate = MonomialOp(d, tuple(range(d)), tuple((z * z) % period for z in range(d)))
    m_gate = MonomialOp(d, tuple((s * z) % d for z in range(d)), (0,) * d)
    u_gate = m_gate.compose(s_gate.power(m)) if m else m_gate
    w_gate = MonomialOp.from_weyl(d, spec.x)
    return u_gate.compose(w_gate).scaled(spec.tau_exp)


class GlobalObservable:
    """Tensor product of per-site monomial measurements.

    Each site operator must have an omega-power spectrum (site_op**d is the
    identity), so measurement outcomes live in Z_d.
    """

    def __init__(self, d: int, sites: list[MonomialOp]):
        self.d = d = plain_dimension(d)
        self.sites = sites = tuple(sites)
        # sites share operators: each distinct object is checked once, at
        # its first site, in site order, so a refusal names the first bad site
        first = dict(zip(map(id, reversed(sites)), range(len(sites) - 1, -1, -1)))
        for k in sorted(first.values()):
            op = sites[k]
            if not isinstance(op, MonomialOp):
                raise QuditMbqcError(f"site {k} is {op!r}, expected a MonomialOp")
            if op.d != d:
                raise QuditMbqcError(f"site {k} has dimension {op.d}, expected {d}")
            if not op.has_omega_spectrum():
                raise QuditMbqcError(f"site {k} operator spectrum is not omega powers")

    @property
    def N(self) -> int:
        return len(self.sites)


@dataclass(frozen=True)
class SparseState:
    """Uniform-amplitude state sum(tau^t_i |ket_i>)/sqrt(#terms).

    Kets are pairwise distinct and sorted.  The form is closed under every
    monomial observable, and under projective measurement up to one global
    phase per branch, which measurement drops as unobservable.
    """

    d: int
    N: int
    terms: tuple[tuple[int, tuple[int, ...]], ...]

    def __post_init__(self):
        period = tau_period(plain_dimension(self.d))
        plain_int(self.N, "N")
        seen = [(plain_int(t, f"term {j} tau exponent") % period, plain_ints(k, f"term {j} ket"))
                for j, (t, k) in enumerate(self.terms)]
        seen.sort(key=lambda item: item[1])
        kets = [k for _, k in seen]
        if not kets:
            raise QuditMbqcError("a sparse state needs at least one term")
        if len(set(kets)) != len(kets):
            raise QuditMbqcError("sparse terms must have pairwise distinct kets")
        if set(map(len, kets)) != {self.N} or self.N and not (
                0 <= min(map(min, kets)) and max(map(max, kets)) < self.d):
            # checked in bulk; then the first offender
            k = next(k for k in kets if len(k) != self.N or any(not 0 <= z < self.d for z in k))
            raise QuditMbqcError(f"ket {k} out of range for d={self.d}, N={self.N}")
        object.__setattr__(self, "terms", tuple(seen))

    @classmethod
    def _trusted(cls, d: int, N: int, terms: tuple) -> "SparseState":
        """A state from terms already reduced, with distinct kets of length
        N, sorted by ket; skips the validation of __post_init__."""
        state = object.__new__(cls)
        object.__setattr__(state, "d", d)
        object.__setattr__(state, "N", N)
        object.__setattr__(state, "terms", terms)
        return state

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "N": self.N,
            "terms": [{"tau_exp": t, "ket": list(k)} for t, k in self.terms],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SparseState":
        return cls(plain_int(obj["d"], "resource d"), plain_int(obj["N"], "resource N"),
                   tuple((plain_int(t["tau_exp"], "resource tau_exp"),
                          plain_ints(t["ket"], "resource ket")) for t in obj["terms"]))

    def to_dense(self) -> np.ndarray:
        if self.d**self.N > DENSE_GUARD:
            raise SizeGuardError(f"dense state has {self.d}**{self.N} = {self.d**self.N} "
                                 f"amplitudes, over the limit {DENSE_GUARD}")
        tau = tau_value(self.d)
        vec = np.zeros(self.d**self.N, dtype=complex)
        for t, ket in self.terms:
            idx = 0
            for z in ket:
                idx = idx * self.d + z
            vec[idx] = tau**t
        return vec / np.sqrt(len(self.terms))


def basis_state(d: int, ket: tuple[int, ...]) -> SparseState:
    return SparseState(d, len(ket), ((0, tuple(ket)),))


def make_ghz(d: int, N: int, phases: list[int] | None = None) -> SparseState:
    """Generalized GHZ state sum_z |z>^N / sqrt(d).

    Optional phases gives per-z tau exponents, d of them.
    """
    d, N = plain_dimension(d), plain_int(N, "N")
    if N < 1:
        raise QuditMbqcError(f"a GHZ state needs N >= 1 qudits, got {N}")
    phases = [0] * d if phases is None else phases
    if len(phases) != d:
        raise QuditMbqcError(f"a d={d} GHZ state needs {d} phases, got {len(phases)}")
    return SparseState(d, N, tuple((phases[z], (z,) * N) for z in range(d)))


def make_example2_state(d: int) -> SparseState:
    """The 2d-qudit state sum_z |z>^2 |z+1>^2 ... |z+d-1>^2 / sqrt(d)."""
    if plain_dimension(d) < 3 or d % 2 == 0:
        raise QuditMbqcError("this resource state needs odd d >= 3")
    return SparseState(d, 2 * d, tuple((0, tuple((z + t) % d for t in range(d) for _ in range(2)))
                                       for z in range(d)))


def _check_shapes(M: GlobalObservable, psi: SparseState) -> None:
    if M.N != psi.N or M.d != psi.d:
        raise QuditMbqcError("observable and state shapes differ")


def apply_observable(M: GlobalObservable, psi: SparseState) -> SparseState:
    """Exact application; monomial sites keep term count and distinctness."""
    _check_shapes(M, psi)
    period = tau_period(psi.d)
    new_terms = [((t + sum([op.phases[z] for z, op in zip(ket, M.sites)])) % period,
                  tuple([op.perm[z] for z, op in zip(ket, M.sites)]))
                 for t, ket in psi.terms]
    # every site of an observable is a permutation of 0..d-1 (MonomialOp
    # refuses any other perm), so the kets stay distinct and in range
    new_terms.sort(key=itemgetter(1))
    return SparseState._trusted(psi.d, psi.N, tuple(new_terms))


def eigenphase_of(M: GlobalObservable, psi: SparseState) -> int | None:
    """o with M|psi> = omega^o |psi>, or None when psi is not an eigenstate.

    Raises PhaseDomainError when the eigenvalue is a tau-power that is not
    an omega-power (possible for even d only).
    """
    phi = apply_observable(M, psi)
    period = tau_period(psi.d)
    diffs = set()
    for (t1, k1), (t2, k2) in zip(psi.terms, phi.terms):
        if k1 != k2:
            return None
        diffs.add((t2 - t1) % period)
        if len(diffs) > 1:
            return None
    return omega_exponent(diffs.pop(), psi.d)


def dense_apply(M: GlobalObservable, vec: np.ndarray) -> np.ndarray:
    d, N = M.d, M.N
    tensor = vec.reshape((d,) * N)
    for site, op in enumerate(M.sites):
        tensor = np.moveaxis(np.tensordot(op.to_dense(), tensor, axes=([1], [site])), 0, site)
    return tensor.reshape(-1)


def dense_oracle(M: GlobalObservable, psi: SparseState) -> int | None:
    """Brute-force eigenphase via dense complex arithmetic.

    Residual <= 1e-9 counts as an eigenstate and the phase is snapped to
    the nearest d-th root of unity; residuals between 1e-9 and 1e-6 raise
    an inconsistency alarm instead of silently rounding.
    """
    _check_shapes(M, psi)
    vec = psi.to_dense()
    out = dense_apply(M, vec)
    lam = np.vdot(vec, out)
    residual = np.max(np.abs(out - lam * vec))
    if residual > 1e-6:
        return None
    if residual > 1e-9:
        raise InconsistencyError(f"ambiguous eigenstate residual {residual:.3e}")
    k = int(round(psi.d * np.angle(lam) / (2 * np.pi))) % psi.d
    snap = abs(lam - np.exp(2j * np.pi * k / psi.d))
    if snap > 1e-6:
        raise InconsistencyError(f"eigenvalue {lam} is {snap:.3e} from any d-th root of unity")
    return k


def measurement_distribution(psi: SparseState, site: int,
                             op: MonomialOp) -> list[tuple[int, Fraction, SparseState]]:
    """All (outcome, probability, rest) branches with prob > 0 of measuring
    op on one site and forgetting that site.

    A monomial op's eigenvectors have a closed form.  Take a cycle C of
    op.perm with first element z0 and length L, write op^s|z0> =
    tau^phi_s |z_s>, and let Phi_C be the phase around C: outcome m lives on
    C exactly when 2mL = Phi_C (mod the tau period), and then
    <e_(m,C)|z_s> = tau^(2ms - phi_s) / sqrt(L).  Eigenvectors on distinct
    cycles are orthogonal and the site is never touched again, so there is
    one branch per (m, C), sorted by m and then by C.  rest is psi projected
    on e_(m,C) with the site removed (N-1 qudits, the other sites in their
    order); its weight is |rest|^2 / (K*L) for the K terms of psi.  Each
    rest must stay a tau-power superposition up to one common unit (the
    physically irrelevant global phase, which is dropped); otherwise
    SparseFormError is raised, as it is when a cycle's branch weights break
    Parseval (they must sum to L times the number of terms on C, which
    makes the probabilities sum to 1).  A psi that is not a SparseState, a
    site outside 0..N-1, or an op that is not a MonomialOp, of another d or
    without an omega spectrum, raises QuditMbqcError.  The
    branches come from _measurement_branches, on a level that holds each
    term's digit and sliced ket, and every rest is built.
    """
    if not isinstance(psi, SparseState):
        raise QuditMbqcError(f"state is {psi!r}, expected a SparseState")
    if not isinstance(op, MonomialOp):
        raise QuditMbqcError(f"site operator is {op!r}, expected a MonomialOp")
    d = psi.d
    if op.d != d:
        raise QuditMbqcError(f"site operator has dimension {op.d}, the state {d}")
    if not 0 <= plain_int(site, "site") < psi.N:
        raise QuditMbqcError(f"site {site} is out of range for a state of {psi.N} qudits")
    if not op.has_omega_spectrum():
        raise QuditMbqcError("site operator spectrum is not omega powers")
    level = [(ket[site], ket[:site] + ket[site + 1:]) for _, ket in psi.terms]
    terms = [(t, j) for j, (t, _) in enumerate(psi.terms)]
    return [(m, Fraction(weight, den), SparseState._trusted(d, psi.N - 1, rest()))
            for m, weight, den, rest in _measurement_branches(d, op, terms, level)]


def _measurement_branches(d: int, op: MonomialOp, terms,
                          level) -> list[tuple[int, int, int, Callable[[], tuple]]]:
    """The (m, weight, denominator, rest) branches of measuring op on K
    terms given as (tau exponent, class) pairs, level[class] being the
    term's (digit, rest key): the shared step of measurement_distribution
    (one class per term, keyed by its sliced ket), runs and ordered walks
    (a level of _suffix_trie, as it is).

    Rest keys must sort like the rests they stand for.  A branch's
    probability is weight / denominator, zero-weight branches are left
    out, and rest() returns its rest terms: (tau exponent, rest key) pairs
    sorted by key.  Every weight and every check comes first; a rest is
    built only when rest() is called, except on a cycle where rests are
    shared, whose weights need them (_merged_rest).  So a run draws over
    the weights and builds the one rest it keeps.  op must have an omega
    spectrum, which the caller has checked (or its plan has proved).  All
    of op's data is read from op.spectrum, cached on the operator, so a
    call only groups the K terms by cycle and visits the cycles they meet.
    """
    place, cycles = op.spectrum
    period = tau_period(d)
    groups: dict[int, list[tuple]] = {}  # C -> its (rest, exponent, step) entries
    for t, key in terms:
        z, rest = level[key]
        c, s, phi = place[z]
        groups.setdefault(c, []).append((rest, t - phi, s))
    K = len(terms)
    out = []
    for c in sorted(groups):
        L, outcomes = cycles[c]
        group = sorted(groups[c])
        distinct = len({rest for rest, _, _ in group}) == len(group)
        weight = 0
        for m in outcomes:
            if distinct:  # every amplitude is one tau power
                w, rest = len(group), functools.partial(_phased_rest, period, group, m)
            else:
                merged, norm_sq = _merged_rest(d, group, m)
                if not merged:
                    continue
                w, rest = len(merged) * norm_sq, functools.partial(tuple, merged)  # built already
            weight += w
            out.append((m, w, K * L, rest))
        if weight != len(group) * L:
            raise SparseFormError(f"branch weights on cycle {c} sum to {weight}, not {len(group) * L}")
    out.sort(key=itemgetter(0))  # stable: cycles stay in order
    return out


def _phased_rest(period: int, group, m: int) -> tuple:
    """The rest terms of branch m over a sorted group whose rests are
    distinct: each amplitude is one tau power, taken relative to the
    first's."""
    e0 = group[0][1] + 2 * m * group[0][2]
    return tuple([((e + 2 * m * s - e0) % period, rest) for rest, e, s in group])


def _suffix_trie(psi: SparseState) -> tuple[tuple, tuple]:
    """psi's kets as a trie of their suffixes, for measuring position 0
    again and again without slicing: (start, levels).

    The distinct suffixes ket[k:] get class ids 0, 1, ... in suffix order;
    levels[k][c] = (ket[k], class of ket[k+1:]) for class c at position k
    (the empty suffix at position N is class 0), and start is psi's terms
    as (tau exponent, class at position 0).  Built right to left, since a
    suffix sorts as its (digit, child class) pair; equal levels are one
    object, so a resource whose positions repeat costs O(K) memory.
    """
    kets = [ket for _, ket in psi.terms]
    ids = [0] * len(kets)
    levels: list = [()] * psi.N
    seen: dict = {}
    for k in reversed(range(psi.N)):
        pairs = list(zip([ket[k] for ket in kets], ids))
        level = tuple(sorted(set(pairs)))
        rank = {pair: c for c, pair in enumerate(level)}
        ids = [rank[pair] for pair in pairs]
        levels[k] = seen.setdefault(level, level)
    return tuple(zip([t for t, _ in psi.terms], ids)), tuple(levels)


def _merged_rest(d: int, group, m: int) -> tuple[tuple, int]:
    """The (tau exponent, rest) terms of branch m over a sorted group in
    which some rests are shared, and their common |amplitude|^2; no terms
    when every amplitude cancels.

    Each rest's amplitude is the sum of its entries' tau powers, an
    unreduced integer coefficient list over tau^0 .. tau^(P-1) (P the tau
    period) built by phases._tau_sum, zero when its reduction
    (phases._reduce) is.  With b the first survivor, a = tau^r*b exactly
    when a*conj(b) = tau^r*|b|^2 (phases._correlation gives both), so each
    survivor's r is looked up among the reduced tau powers
    (phases.tau_power_keys) scaled by |b|^2.  A lone survivor needs no
    lookup."""
    period = tau_period(d)
    amps = [(rest, _tau_sum([e + 2 * m * s for _, e, s in terms], period))
            for rest, terms in itertools.groupby(group, itemgetter(0))]
    survivors = [(rest, a) for rest, a in amps if any(_reduce(a, period))]
    if not survivors:
        return (), 0
    b = survivors[0][1]
    norm_sq = _as_integer(_correlation(b, b, period))
    if norm_sq is None or norm_sq <= 0:
        raise SparseFormError(
            "projection produced an amplitude with non-integral norm; "
            "state left the sparse form"
        )
    if len(survivors) == 1:
        return ((0, survivors[0][0]),), norm_sq
    power_of = {tuple([norm_sq * c for c in key]): r for r, key in enumerate(tau_power_keys(d))}
    terms = []
    for rest, a in survivors:
        r = power_of.get(tuple(_correlation(a, b, period)))
        if r is None:
            raise SparseFormError(
                "projection produced non-uniform amplitudes; state left the sparse form"
            )
        terms.append((r, rest))
    return tuple(terms), norm_sq


def measure_local(psi: SparseState, site: int, op: MonomialOp,
                  rng: random.Random | int | None) -> tuple[int, SparseState]:
    """Projective measurement of a monomial site operator.

    Samples a branch of measurement_distribution with exact integer
    weights and returns its outcome and the state without the measured
    qudit; deterministic under a fixed seed, and zero-probability branches
    are never returned.  rng takes engine.run's seed forms: None, an int
    (not a bool), or a Random, which is used as it is; the draw reads its
    getrandbits, taking the bits randrange would (see _below).
    """
    m, _, _, rest = _draw_branch([(m, p.numerator, p.denominator, rest) for m, p, rest
                                  in measurement_distribution(psi, site, op)],
                                 _read_seed(rng).getrandbits)
    return m, rest


def _read_seed(seed) -> random.Random:
    """A Random as it is; None or an int (not a bool) seeds a new one, and
    anything else is refused (_check_seed)."""
    return seed if _check_seed(seed) else random.Random(seed)


def _check_seed(seed) -> bool:
    """Whether seed is a caller's Random, used as it is; None and an int
    (not a bool) are seeds of a new one, and anything else is refused.
    Draws read only a Random's getrandbits (see _below); a subclass that
    overrides random() alone makes its own randrange read random(), so
    there the two can differ."""
    if isinstance(seed, random.Random):
        return True
    if seed is not None and type(seed) is not int:
        raise QuditMbqcError(f"seed is {seed!r}, expected None, an integer or a random.Random")
    return False


def _below(getrandbits, n: int) -> int:
    """A uniform integer in [0, n), n >= 1: getrandbits(n.bit_length())
    until it falls below n.  These are the bits random.Random.randrange(n)
    consumes, in CPython 3.10 to 3.13, so the value and the Random's state
    after it are the same; n = 1 still consumes its bits."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _draw_branch(branches, getrandbits):
    """A branch drawn with its exact probability branch[1] / branch[2]
    (integers); never a zero-weight one.  One _below draw over the least
    common denominator of the reduced probabilities."""
    den = math.lcm(*(b[2] // math.gcd(b[1], b[2]) for b in branches))
    draw = _below(getrandbits, den)
    acc = 0
    for branch in branches:
        acc += branch[1] * den // branch[2]
        if draw < acc:
            return branch
    raise AssertionError("sampling fell through")  # unreachable
