"""Seeded input generators and independent reference answers.

Everything here is computed by the benchmark itself, so an op's result can
be checked without trusting the code path it is timing: dense complex
projectors for output distributions, direct evaluation for polynomials and
assignments, closed forms for the worked computations.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from quditmbqc.engine import MbqcPlan
from quditmbqc.states import make_ghz
from quditmbqc.weyl import CliffordSpec, WeylLabel

TOL = 1e-9


# -- generators --------------------------------------------------------------

def random_table(rng, d: int) -> list[int]:
    return [rng.randrange(d) for _ in range(d)]


def random_ghz_plan(rng, d: int, N: int, n: int, ordered: bool) -> MbqcPlan:
    """GHZ resource, random Weyl fiducials and monomial-class controls.

    Ordered plans get a strictly lower-triangular T with one random nonzero
    entry in each row after the first.
    """
    units = [u for u in range(1, d) if math.gcd(u, d) == 1]
    parties = []
    for _ in range(N):
        v = (0, 0)
        while v == (0, 0):
            v = (rng.randrange(d), rng.randrange(d))
        s = rng.choice(units)
        C = ((pow(s, -1, d), rng.randrange(d)), (0, s))
        x = (rng.randrange(d), rng.randrange(d))
        parties.append((WeylLabel(d, v), CliffordSpec(d, C, x)))
    # quadratic phase profile: keeps the resource a stabilizer state
    a, b = rng.randrange(d), rng.randrange(d)
    phases = [2 * ((a * z * z + b * z) % d) for z in range(d)]
    T = [[0] * N for _ in range(N)]
    if ordered:
        for k in range(1, N):
            T[k][rng.randrange(k)] = rng.randrange(1, d)
    return MbqcPlan(
        d=d, n=n, N=N,
        resource=make_ghz(d, N, phases=phases),
        parties=parties,
        Q=[[rng.randrange(d) for _ in range(n)] for _ in range(N)],
        T=T,
        z=[rng.randrange(1, d) for _ in range(N)],
        s0=rng.randrange(d),
        q0=[rng.randrange(d) for _ in range(N)],
    )


# -- closed-form tables ------------------------------------------------------

def nand_table() -> dict:
    return {(a, b): 1 - a * b for a in range(2) for b in range(2)}


def quadratic_table(d: int) -> dict:
    return {(x,): (x * (x - 1) // 2) % d for x in range(d)}


# -- dense output distributions ----------------------------------------------

def _dense_state(plan: MbqcPlan) -> np.ndarray:
    d, N = plan.d, plan.N
    tau = np.exp(1j * np.pi * (d + 1) / d) if d % 2 else np.exp(1j * np.pi / d)
    vec = np.zeros(d**N, dtype=complex)
    for t, ket in plan.resource.terms:
        vec[_index(ket, d)] = tau**t
    return vec.reshape((d,) * N) / math.sqrt(len(plan.resource.terms))


def _index(ket, d):
    idx = 0
    for z in ket:
        idx = idx * d + z
    return idx


def _apply(op: np.ndarray, psi: np.ndarray, site: int) -> np.ndarray:
    return np.moveaxis(np.tensordot(op, psi, axes=([1], [site])), 0, site)


def _projectors(M: np.ndarray, d: int) -> list[np.ndarray]:
    omega = np.exp(2j * np.pi / d)
    powers = [np.eye(d, dtype=complex)]
    for _ in range(d - 1):
        powers.append(M @ powers[-1])
    return [sum(omega ** (-j * m) * powers[j] for j in range(d)) / d for m in range(d)]


def dense_output_distribution(plan: MbqcPlan, i) -> dict[int, float]:
    """Output distribution by dense projective measurement, site by site."""
    d = plan.d
    cache: dict = {}

    def projectors(k, q):
        if (k, q) not in cache:
            cache[(k, q)] = _projectors(plan.site_observable(k, q).to_dense(), d)
        return cache[(k, q)]

    out: dict[int, float] = {}

    def walk(k, psi, outcomes):
        if k == plan.N:
            o = plan.output_of(tuple(outcomes))
            out[o] = out.get(o, 0.0) + float(np.vdot(psi, psi).real)
            return
        q = plan.setting(k, i, tuple(outcomes))
        for m, P in enumerate(projectors(k, q)):
            post = _apply(P, psi, k)
            if np.vdot(post, post).real > TOL:
                walk(k + 1, post, outcomes + [m])

    walk(0, _dense_state(plan), [])
    return {o: p for o, p in out.items() if p > TOL}


def spectral_output_distribution(plan: MbqcPlan, i) -> dict[int, float]:
    """Flat plans only: P(o) = (1/d) sum_j omega^(-j(o-s0)) <psi|W^j|psi>,
    with W the tensor product of the site observables raised to z_k."""
    d = plan.d
    sites = [np.linalg.matrix_power(plan.site_observable(k, plan.setting(k, i, ())).to_dense(),
                                    plan.z[k]) for k in range(plan.N)]
    psi = _dense_state(plan)
    omega = np.exp(2j * np.pi / d)
    moments = []
    phi = psi
    for _ in range(d):
        moments.append(np.vdot(psi, phi))
        for k, M in enumerate(sites):
            phi = _apply(M, phi, k)
    out = {}
    for o in range(d):
        p = sum(omega ** (-j * (o - plan.s0)) * moments[j] for j in range(d)).real / d
        if p > TOL:
            out[o] = p
    return out


def exact_output_distribution(plan: MbqcPlan, i) -> dict[int, float]:
    if plan.temporally_flat:
        return spectral_output_distribution(plan, i)
    return dense_output_distribution(plan, i)


def same_distribution(exact: dict, dense: dict) -> bool:
    keys = set(exact) | set(dense)
    return all(abs(float(exact.get(o, 0)) - dense.get(o, 0.0)) < 1e-7 for o in keys)


# -- polynomial and witness references ---------------------------------------

def eval_poly(coeffs: dict, x: tuple, d: int) -> int:
    total = 0
    for exps, c in coeffs.items():
        term = c
        for xi, a in zip(x, exps):
            term *= pow(xi, a, d)
        total += term
    return total % d


def cycle_distance(table: dict, coeffs: dict, d: int) -> int:
    dist = 0
    for x, want in table.items():
        diff = (want - eval_poly(coeffs, x, d)) % d
        dist += min(diff, d - diff)
    return dist


def assignment_matches(plan: MbqcPlan, table: dict, assignment) -> bool:
    """Whether per-party outcome tables reproduce the output table."""
    for i, want in table.items():
        got = plan.s0
        for k in range(plan.N):
            got += plan.z[k] * assignment[k][plan.setting(k, i, ())]
        if got % plan.d != want % plan.d:
            return False
    return True


def longest_temporal_path(plan: MbqcPlan) -> int:
    depth = [1] * plan.N
    for k in range(plan.N):
        for j in range(k):
            if plan.T[k][j]:
                depth[k] = max(depth[k], depth[j] + 1)
    return max(depth, default=1)


def min_cycle_distance(table: dict, d: int, n: int) -> int:
    """Brute-force distance from a table to the combined-degree <= d-1 class."""
    mons = [e for e in itertools.product(range(d), repeat=n) if sum(e) <= d - 1]
    points = sorted(table)
    evals = np.array([[math.prod(pow(x, a, d) for x, a in zip(p, e)) for p in points]
                      for e in mons], dtype=np.int64)
    coeffs = np.array(list(itertools.product(range(d), repeat=len(mons))), dtype=np.int64)
    diff = (np.array([table[p] for p in points]) - coeffs @ evals) % d
    return int(np.minimum(diff, d - diff).sum(axis=1).min())
