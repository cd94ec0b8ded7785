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
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

import numpy as np

from .errors import (InconsistencyError, QuditMbqcError, SizeGuardError, SparseFormError,
                     plain_int, plain_ints)
from .phases import PhaseSum, omega_exponent, tau_period, tau_power_keys, tau_value
from .weyl import CliffordSpec

DENSE_GUARD = 10**6  # maximum d**N amplitudes for the dense backend


@dataclass(frozen=True)
class MonomialOp:
    """A d x d generalized-permutation operator with tau-power entries.

    op|z> = tau^phases[z] |perm[z]>.  Closed under products and powers, so
    every Weyl operator and every control unitary used here stays exact.
    The constructor checks nothing; compose, power and to_dense refuse a
    map of the wrong shape, and spectrum one that is not a permutation.
    The cached property spectrum walks the cycles once per object, and the
    omega verdict (has_omega_spectrum) is read off that record.
    """

    d: int
    perm: tuple[int, ...]
    phases: tuple[int, ...]

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
        self._check_shape()
        other._check_shape()
        if other.d != self.d:
            raise QuditMbqcError(f"cannot compose a d={self.d} and a d={other.d} operator")
        period = tau_period(self.d)
        perm = tuple(self.perm[other.perm[z]] for z in range(self.d))
        phases = tuple(
            (other.phases[z] + self.phases[other.perm[z]]) % period for z in range(self.d)
        )
        return MonomialOp(self.d, perm, phases)

    def power(self, e: int) -> "MonomialOp":
        self._check_shape()
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
        on a cycle are distinct.  False for a map that spectrum refuses."""
        try:
            return all(len(outcomes) == L for L, outcomes in self.spectrum[1])
        except QuditMbqcError:
            return False

    @functools.cached_property
    def spectrum(self) -> tuple[tuple, tuple]:
        """The cycle decomposition, walked once per operator object.

        (place, cycles): place[z] = (C, s, phi_s) when z is step s of cycle C
        from its first element z0, op^s|z0> = tau^phi_s |z>; cycles[C] =
        (L, the outcomes m with 2mL = Phi_C), Phi_C the phase around C: the
        eigenvalues omega^m on C, all L of them when has_omega_spectrum().
        Raises QuditMbqcError unless perm is a permutation of 0..d-1 with d phases.
        """
        d, period = self.d, tau_period(self.d)
        if len(self.phases) != d or sorted(self.perm) != list(range(d)):
            raise QuditMbqcError(f"a d={d} operator needs a permutation of 0..{d - 1} and {d} "
                                 f"phases, got {self.perm} and {len(self.phases)} phases")
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
            cycles.append((s, tuple(m for m in range(d) if (2 * m * s - phi) % period == 0)))
        return tuple(place), tuple(cycles)

    def _check_shape(self) -> None:
        """Raises QuditMbqcError unless perm has d entries in 0..d-1 and there are d phases."""
        d = self.d
        if len(self.perm) != d or len(self.phases) != d or not all(0 <= z < d for z in self.perm):
            raise QuditMbqcError(f"a d={d} operator needs {d} images in 0..{d - 1} and {d} "
                                 f"phases, got {self.perm} and {len(self.phases)} phases")

    def to_dense(self) -> np.ndarray:
        self._check_shape()
        tau = tau_value(self.d)
        out = np.zeros((self.d, self.d), dtype=complex)
        for z in range(self.d):
            out[self.perm[z], z] = tau ** self.phases[z]
        return out


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
        self.d = d
        self.sites = tuple(sites)
        for k, op in enumerate(self.sites):
            if op.d != d:
                raise QuditMbqcError(f"site {k} has dimension {op.d}, expected {d}")
            if not op.has_omega_spectrum():  # cached on each operator object
                raise QuditMbqcError(f"site {k} operator spectrum is not omega powers")

    @classmethod
    def _trusted(cls, d: int, sites: list[MonomialOp]) -> "GlobalObservable":
        """An observable from d-dimensional sites already known to have an
        omega spectrum; skips the checks of __init__."""
        obs = object.__new__(cls)
        obs.d = d
        obs.sites = tuple(sites)
        return obs

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
        period = tau_period(self.d)
        seen = [(plain_int(t, f"term {j} tau exponent") % period, plain_ints(k, f"term {j} ket"))
                for j, (t, k) in enumerate(self.terms)]
        seen.sort(key=lambda item: item[1])
        kets = [k for _, k in seen]
        if not kets:
            raise QuditMbqcError("a sparse state needs at least one term")
        if len(set(kets)) != len(kets):
            raise QuditMbqcError("sparse terms must have pairwise distinct kets")
        for k in kets:
            if len(k) != self.N or any(not 0 <= z < self.d for z in k):
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
    phases = [0] * d if phases is None else phases
    if len(phases) != d:
        raise QuditMbqcError(f"a d={d} GHZ state needs {d} phases, got {len(phases)}")
    return SparseState(d, N, tuple((phases[z], (z,) * N) for z in range(d)))


def make_example2_state(d: int) -> SparseState:
    """The 2d-qudit state sum_z |z>^2 |z+1>^2 ... |z+d-1>^2 / sqrt(d)."""
    if d < 3 or d % 2 == 0:
        raise QuditMbqcError("this resource state needs odd d >= 3")
    terms = []
    for z in range(d):
        ket = tuple((z + t) % d for t in range(d) for _ in range(2))
        terms.append((0, ket))
    return SparseState(d, 2 * d, tuple(terms))


def apply_observable(M: GlobalObservable, psi: SparseState) -> SparseState:
    """Exact application; monomial sites keep term count and distinctness."""
    if M.N != psi.N or M.d != psi.d:
        raise QuditMbqcError("observable and state shapes differ")
    period = tau_period(psi.d)
    new_terms = [((t + sum([op.phases[z] for z, op in zip(ket, M.sites)])) % period,
                  tuple([op.perm[z] for z, op in zip(ket, M.sites)]))
                 for t, ket in psi.terms]
    # every site of an observable is a permutation of 0..d-1 (has_omega_spectrum
    # is False for any other perm), so the kets stay distinct and in range
    new_terms.sort(key=itemgetter(1))
    return SparseState._trusted(psi.d, psi.N, tuple(new_terms))


def eigenphase_of(M: GlobalObservable, psi: SparseState) -> int | None:
    """o with M|psi> = omega^o |psi>, or None when psi is not an eigenstate.

    Raises PhaseDomainError when the eigenvalue is a tau-power that is not
    an omega-power (possible for even d only).
    """
    period = tau_period(psi.d)
    phi = apply_observable(M, psi)
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
    if psi.d**psi.N > DENSE_GUARD:
        raise SizeGuardError(f"dense oracle needs {psi.d}**{psi.N} = {psi.d**psi.N} "
                             f"amplitudes, over the limit {DENSE_GUARD}")
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
    makes the probabilities sum to 1).  A site outside 0..N-1, or an op of
    another d or without an omega spectrum, raises QuditMbqcError.  All of
    op's data is read from op.spectrum, cached on the operator, so a call
    only groups the K terms by cycle and visits the cycles they meet.
    """
    d = psi.d
    if op.d != d:
        raise QuditMbqcError(f"site operator has dimension {op.d}, the state {d}")
    if not 0 <= site < psi.N:
        raise QuditMbqcError(f"site {site} is out of range for a state of {psi.N} qudits")
    place, cycles = op.spectrum  # refuses a map that is not a permutation
    if not op.has_omega_spectrum():
        raise QuditMbqcError("site operator spectrum is not omega powers")
    period = tau_period(d)
    groups: dict[int, list[tuple[tuple[int, ...], int, int]]] = {}  # C -> its terms
    for t, ket in psi.terms:
        c, s, phi = place[ket[site]]
        groups.setdefault(c, []).append((ket[:site] + ket[site + 1:], t - phi, s))
    K = len(psi.terms)
    out = []
    for c in sorted(groups):
        L, outcomes = cycles[c]
        group = sorted(groups[c])
        distinct = all(a[0] != b[0] for a, b in zip(group, group[1:]))
        weight = 0
        for m in outcomes:
            if distinct:  # every amplitude is one tau power
                e0 = group[0][1] + 2 * m * group[0][2]
                terms = tuple(((e + 2 * m * s - e0) % period, rest) for rest, e, s in group)
                norm_sq = 1
            else:
                terms, norm_sq = _merged_rest(d, group, m)
                if not terms:
                    continue
            weight += len(terms) * norm_sq
            out.append((m, Fraction(len(terms) * norm_sq, K * L),
                        SparseState._trusted(d, psi.N - 1, terms)))
        if weight != len(group) * L:
            raise SparseFormError(f"branch weights on cycle {c} sum to {weight}, not {len(group) * L}")
    out.sort(key=lambda branch: branch[0])  # stable: cycles stay in order
    return out


def _merged_rest(d: int, group, m: int) -> tuple[tuple, int]:
    """The (tau exponent, rest) terms of branch m over a sorted group in
    which some rests are shared, and their common |amplitude|^2; no terms
    when every amplitude cancels.  Each surviving amplitude a is read
    against the first one, b, by one product: a*conj(b) = tau^r |b|^2."""
    amps: list[tuple] = []  # (rest, its amplitude as a PhaseSum)
    for rest, e, s in group:
        if not amps or amps[-1][0] != rest:
            amps.append((rest, PhaseSum(d)))
        amps[-1][1].add_tau_power(e + 2 * m * s)
    survivors = [(rest, a) for rest, a in amps if not a.is_zero()]
    if not survivors:
        return (), 0
    conj = survivors[0][1].conjugate()
    norm_sq = survivors[0][1].mul(conj).as_rational_integer()
    if norm_sq is None or norm_sq <= 0:
        raise SparseFormError(
            "projection produced an amplitude with non-integral norm; "
            "state left the sparse form"
        )
    ratio_of = {tuple(norm_sq * c for c in key): r for r, key in enumerate(tau_power_keys(d))}
    terms = []
    for rest, a in survivors:
        r = ratio_of.get(a.mul(conj).key())
        if r is None:
            raise SparseFormError(
                "projection produced non-uniform amplitudes; state left the sparse form"
            )
        terms.append((r, rest))
    return tuple(terms), norm_sq


def measure_local(psi: SparseState, site: int, op: MonomialOp,
                  rng: random.Random | int) -> tuple[int, SparseState]:
    """Projective measurement of a monomial site operator.

    Samples a branch of measurement_distribution with exact integer
    weights and returns its outcome and the state without the measured
    qudit; deterministic under a fixed seed, and zero-probability branches
    are never returned.
    """
    if isinstance(rng, int):
        rng = random.Random(rng)
    m, _, rest = _draw_branch(measurement_distribution(psi, site, op), rng)
    return m, rest


def _draw_branch(branches, rng: random.Random):
    """A branch drawn with its exact weight branch[1]; never a zero-weight one."""
    den = math.lcm(*(branch[1].denominator for branch in branches))
    draw = rng.randrange(den)
    acc = 0
    for branch in branches:
        acc += branch[1].numerator * (den // branch[1].denominator)
        if draw < acc:
            return branch
    raise AssertionError("sampling fell through")  # unreachable
