import functools
import itertools
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from quditmbqc import states
from quditmbqc.compiler import compile_nand
from quditmbqc.errors import InconsistencyError, QuditMbqcError, SizeGuardError, SparseFormError
from quditmbqc.phases import tau_period
from quditmbqc.states import (
    GlobalObservable,
    MonomialOp,
    SparseState,
    apply_observable,
    basis_state,
    dense_oracle,
    eigenphase_of,
    make_example2_state,
    make_ghz,
    measure_local,
    measurement_distribution,
)

X = lambda d: MonomialOp.from_weyl(d, (0, 1))
Z = lambda d: MonomialOp.from_weyl(d, (1, 0))
Y2 = MonomialOp.from_weyl(2, (1, 1))
I = MonomialOp.identity
SHAPE_3 = "a d=3 operator needs a permutation of 0..2 and 3 phases, all integers, "


class TestStates:
    def test_anders_browne_state(self):
        psi = compile_nand().plan.resource
        assert psi.terms == ((0, (0, 0, 1)), (2, (1, 1, 0)))

    def test_uniform_superposition(self):
        psi = make_ghz(3, 1)
        assert psi.terms == ((0, (0,)), (0, (1,)), (0, (2,)))

    def test_bell_type(self):
        psi = make_ghz(2, 2)
        assert psi.terms == ((0, (0, 0)), (0, (1, 1)))

    def test_example2_d3(self):
        psi = make_example2_state(3)
        kets = [k for _, k in psi.terms]
        assert sorted(kets) == sorted([
            (0, 0, 1, 1, 2, 2), (1, 1, 2, 2, 0, 0), (2, 2, 0, 0, 1, 1),
        ])
        assert len(psi.terms) == 3
        assert len(set(kets)) == 3

    def test_example2_even_d_rejected(self):
        with pytest.raises(QuditMbqcError):
            make_example2_state(4)

    def test_duplicate_kets_rejected(self):
        with pytest.raises(QuditMbqcError):
            SparseState(2, 1, ((0, (0,)), (2, (0,))))

    @pytest.mark.parametrize("terms, refused", [
        # kets are checked in ket order: the first offender after sorting is named
        (((0, (2, 5)), (0, (1, -1)), (0, (0, 1))), "ket (1, -1) out of range for d=3, N=2"),
        (((0, (2, 3)), (0, (0, 1)), (0, (1, 1, 1))), "ket (1, 1, 1) out of range for d=3, N=2"),
        (((0, (0,)), (0, (1, 1))), "ket (0,) out of range for d=3, N=2"),
        (((0, (0, 1)), (0, (1, 1.0)), (0, (True, 2))), "term 1 ket has 1.0, expected an integer"),
    ])
    def test_first_bad_ket_named(self, terms, refused):
        with pytest.raises(QuditMbqcError, match=re.escape(refused) + "$"):
            SparseState(3, 2, terms)

    def test_json_round_trip(self):
        psi = make_example2_state(3)
        assert SparseState.from_json(psi.to_json()) == psi

    def test_ghz_custom_phases(self):
        psi = make_ghz(3, 2, phases=[0, 1, 2])
        assert psi.terms == ((0, (0, 0)), (1, (1, 1)), (2, (2, 2)))


class TestApplyAndEigenphase:
    def test_identity_observable(self):
        psi = make_ghz(3, 2)
        M = GlobalObservable(3, [I(3), I(3)])
        assert apply_observable(M, psi) == psi
        assert eigenphase_of(M, psi) == 0

    def test_z_on_basis(self):
        psi = basis_state(5, (1,))
        M = GlobalObservable(5, [Z(5)])
        assert eigenphase_of(M, psi) == 1

    def test_nand_eigenvalues(self):
        psi = compile_nand().plan.resource
        cases = {
            (0, 0): ([X(2), X(2), X(2)], 1),
            (1, 0): ([Y2, X(2), Y2], 1),
            (0, 1): ([X(2), Y2, Y2], 1),
            (1, 1): ([Y2, Y2, X(2)], 0),
        }
        for _, (sites, expect) in cases.items():
            assert eigenphase_of(GlobalObservable(2, sites), psi) == expect

    def test_bell_stabilizer(self):
        psi = make_ghz(2, 2)
        assert eigenphase_of(GlobalObservable(2, [Z(2), Z(2)]), psi) == 0

    def test_non_eigenstate_returns_none(self):
        psi = basis_state(3, (0,))
        assert eigenphase_of(GlobalObservable(3, [X(3)]), psi) is None

    def test_phase_domain_error(self):
        tau_y_like = MonomialOp.from_weyl(2, (0, 1), 0)
        psi = SparseState(2, 1, ((0, (0,)), (1, (1,))))  # (|0> + i|1>)/sqrt2
        # X * psi = (|1> + i|0>)/sqrt2 = i * (|0> - i|1>)... compare term-wise:
        # ratio is tau^1 on one ket and tau^-1 on the other -> not an eigenstate
        assert eigenphase_of(GlobalObservable(2, [tau_y_like]), psi) is None
        evec = SparseState(2, 1, ((0, (0,)), (2, (1,))))  # (|0> - |1>)/sqrt2, X-eigenvalue -1
        odd_scaled = GlobalObservable(2, [MonomialOp.from_weyl(2, (0, 1), 0)])
        assert eigenphase_of(odd_scaled, evec) == 1
        with pytest.raises(QuditMbqcError):
            # tau * X has spectrum tau * (+1, -1): not omega powers for d=2
            GlobalObservable(2, [MonomialOp.from_weyl(2, (0, 1), 1)])

    def test_omega_spectrum_matches_power_definition(self):
        # the cycle test agrees with op**d == 1 on Weyl operators and
        # arbitrary permutations; a map that is not a permutation at all is
        # refused when built
        rng = random.Random(21)
        verdicts, refused = [], 0
        for d in range(2, 10):
            period = tau_period(d)
            for _ in range(200):
                kind = rng.randrange(3)
                if kind == 0:
                    v = (rng.randrange(d), rng.randrange(d))
                    op = MonomialOp.from_weyl(d, v, rng.randrange(period))
                else:
                    perm = list(range(d))
                    rng.shuffle(perm)
                    if kind == 2:
                        perm[rng.randrange(d)] = rng.randrange(d)
                    phases = [rng.choice([0, rng.randrange(period)]) for _ in range(d)]
                    if sorted(perm) != list(range(d)):  # kind 2 repeated an image
                        with pytest.raises(QuditMbqcError, match="needs a permutation"):
                            MonomialOp(d, tuple(perm), tuple(phases))
                        refused += 1
                        continue
                    op = MonomialOp(d, tuple(perm), tuple(phases))
                want = op.power(d) == I(d)
                assert op.has_omega_spectrum() == want, op
                verdicts.append(want)
        assert verdicts.count(True) > 100 and verdicts.count(False) > 100 and refused > 100

    def test_cycle_outcomes_match_the_scan(self):
        # each cycle's outcomes, solved from 2*L*m = Phi (mod period), are
        # the m in 0..d-1 a scan over all of them keeps, at odd and even d
        rng = random.Random(33)
        counts = set()
        for d in range(2, 102):
            period = tau_period(d)
            for _ in range(6):
                perm = list(range(d))
                if rng.random() < 0.8:
                    rng.shuffle(perm)
                phases = [rng.choice([0, rng.randrange(period)]) for _ in range(d)]
                op = MonomialOp(d, tuple(perm), tuple(phases))
                place, cycles = op.spectrum
                totals = [0] * len(cycles)
                for z, (c, _, _) in enumerate(place):
                    totals[c] += phases[z]
                for (L, outcomes), phi in zip(cycles, totals):
                    counts.add(min(len(outcomes), 2))
                    assert outcomes == tuple(m for m in range(d)
                                             if (2 * m * L - phi) % period == 0), (d, L, phi)
        assert counts == {0, 1, 2}  # cycles with no, one and several outcomes

    def test_term_structure_preserved(self):
        rng = random.Random(12)
        for d in (2, 3, 5):
            psi = make_ghz(d, 2)
            for _ in range(10):
                v1 = (rng.randrange(d), rng.randrange(d))
                v2 = (rng.randrange(d), rng.randrange(d))
                M = GlobalObservable(d, [MonomialOp.from_weyl(d, v1), MonomialOp.from_weyl(d, v2)])
                phi = apply_observable(M, psi)
                assert len(phi.terms) == len(psi.terms)


class TestDenseOracle:
    def test_identity(self):
        psi = make_ghz(3, 2)
        assert dense_oracle(GlobalObservable(3, [I(3), I(3)]), psi) == 0

    def test_non_eigenstate(self):
        psi = basis_state(3, (0,))
        assert dense_oracle(GlobalObservable(3, [X(3)]), psi) is None

    def test_agrees_with_sparse_on_random_weyls(self):
        rng = random.Random(13)
        for d in (2, 3, 5):
            states = [make_ghz(d, 2), basis_state(d, (1, 0))]
            if d % 2:
                states.append(make_example2_state(d) if d == 3 else make_ghz(d, 3))
            for psi in states:
                for _ in range(10):
                    sites = []
                    for _k in range(psi.N):
                        v = (rng.randrange(d), rng.randrange(d))
                        t = 2 * rng.randrange(d)
                        sites.append(MonomialOp.from_weyl(d, v, t))
                    M = GlobalObservable(d, sites)
                    assert eigenphase_of(M, psi) == dense_oracle(M, psi)

    def test_ambiguous_residual_raises(self, monkeypatch):
        # |0> is a Z eigenvector; a dense vector 1e-8 off it leaves a
        # residual near 1.7e-8, between the eigenstate and non-eigenstate
        # cuts, which raises rather than round
        real = SparseState.to_dense
        monkeypatch.setattr(SparseState, "to_dense", lambda psi: real(psi) + np.array([0, 1e-8, 0]))
        with pytest.raises(InconsistencyError, match=r"^ambiguous eigenstate residual 1\.7\d*e-08$"):
            dense_oracle(GlobalObservable(3, [Z(3)]), basis_state(3, (0,)))

    def test_eigenvalue_off_the_roots_of_unity_raises(self, monkeypatch):
        # a global phase exp(i*pi/3) on the dense Z keeps |0> an eigenvector
        # but puts its eigenvalue halfway between two cube roots of unity,
        # which raises rather than snap to either
        real = MonomialOp.to_dense
        monkeypatch.setattr(MonomialOp, "to_dense", lambda op: real(op) * np.exp(1j * np.pi / 3))
        with pytest.raises(InconsistencyError, match=r" is 1\.000e\+00 from any d-th root of unity$"):
            dense_oracle(GlobalObservable(3, [Z(3)]), basis_state(3, (0,)))

    def test_guard(self):
        psi = make_ghz(2, 3)
        big = SparseState(2, 21, ((0, (0,) * 21),))
        with pytest.raises(SizeGuardError):
            dense_oracle(GlobalObservable(2, [I(2)] * 21), big)
        del psi


class TestMeasurement:
    def test_z_on_basis_deterministic(self):
        # the measured qudit is removed; the rest keeps its order
        out, post = measure_local(basis_state(5, (1, 3, 4)), 0, Z(5), 7)
        assert out == 1
        assert post == basis_state(5, (3, 4))

    def test_x_on_plus_state(self):
        psi = SparseState(2, 2, ((0, (1, 0)), (0, (1, 1))))  # |1> (|0> + |1>)/sqrt2
        out, post = measure_local(psi, 1, X(2), 3)
        assert out == 0
        assert post == basis_state(2, (1,))

    def test_probabilities_sum_to_one(self):
        rng = random.Random(14)
        for d in (2, 3, 5):
            psi = make_ghz(d, 2)
            for _ in range(6):
                v = (rng.randrange(d), rng.randrange(d))
                dist = measurement_distribution(psi, rng.randrange(2), MonomialOp.from_weyl(d, v))
                assert sum(p for _, p, _ in dist) == 1

    def test_x_measurement_on_ghz_marginals(self):
        psi = compile_nand().plan.resource
        dist = measurement_distribution(psi, 0, X(2))
        assert [(m, p) for m, p, _ in dist] == [(0, Fraction(1, 2)), (1, Fraction(1, 2))]

    def test_seeded_determinism(self):
        psi = make_ghz(3, 2)
        runs = [measure_local(psi, 0, X(3), 42)[0] for _ in range(5)]
        assert len(set(runs)) == 1

    def test_seed_forms_are_the_ones_run_reads(self):
        # None, an int and a Random, as engine.run takes them
        psi = make_ghz(3, 2)
        branches = [(m, rest) for m, _, rest in measurement_distribution(psi, 0, X(3))]
        assert measure_local(psi, 0, X(3), None) in branches
        assert measure_local(psi, 0, X(3), 42) == measure_local(psi, 0, X(3), random.Random(42))

    def test_nand_outcome_sums(self):
        # local X/Y measurements on the signed GHZ state: outcome sums give NAND
        cases = {
            (0, 0): [X(2), X(2), X(2)],
            (1, 0): [Y2, X(2), Y2],
            (0, 1): [X(2), Y2, Y2],
            (1, 1): [Y2, Y2, X(2)],
        }
        expect = {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 0}
        signed_ghz = compile_nand().plan.resource
        for inp, sites in cases.items():
            for seed in range(25):
                psi = signed_ghz
                rng = random.Random(seed)
                total = 0
                for op in sites:  # the next party is always at position 0
                    m, psi = measure_local(psi, 0, op, rng)
                    total += m
                assert total % 2 == expect[inp]

    def test_sequential_y_measurements_drop_global_phase(self):
        # measuring Y on every site of (|000> + |111>)/sqrt2 drives branches
        # through eighth-root global phases; outcomes and probabilities must
        # still match the dense projector chain exactly
        psi = make_ghz(2, 3)
        stack = [(Fraction(1), psi, ())]
        for _ in range(3):
            nxt = []
            for p, state, ms in stack:
                for m, q, post in measurement_distribution(state, 0, Y2):
                    nxt.append((p * q, post, ms + (m,)))
            stack = nxt
        joint = {}
        for p, _, ms in stack:
            joint[ms] = joint.get(ms, Fraction(0)) + p
        assert sum(joint.values()) == 1
        # dense ground truth
        vec = psi.to_dense()
        Yd = Y2.to_dense()
        eye = np.eye(2)
        for ms, p in joint.items():
            proj = vec
            for site, m in enumerate(ms):
                ops = [Yd if k == site else eye for k in range(3)]
                A = np.kron(np.kron(ops[0], ops[1]), ops[2])
                proj = (np.eye(8) + (-1) ** m * A) @ proj / 2
            assert abs(float(p) - float(np.vdot(proj, proj).real)) < 1e-12

    def test_born_rule_against_dense(self):
        rng = random.Random(15)
        for d in (2, 3):
            psi = make_ghz(d, 2)
            for _ in range(8):
                v = (rng.randrange(d), rng.randrange(d))
                op = MonomialOp.from_weyl(d, v)
                site = rng.randrange(2)
                dist = measurement_distribution(psi, site, op)
                vec = psi.to_dense()
                A = GlobalObservable(
                    d, [op if k == site else I(d) for k in range(2)]
                )
                from quditmbqc.states import dense_apply

                omega = np.exp(2j * np.pi / d)
                probs = {}  # a degenerate op has several branches per outcome
                for m, p, _ in dist:
                    probs[m] = probs.get(m, 0) + p
                for m in range(d):
                    proj = np.zeros_like(vec)
                    power = vec
                    for j in range(d):
                        proj = proj + (omega ** (-m * j)) * power
                        power = dense_apply(A, power)
                    proj /= d
                    p_dense = float(np.vdot(proj, proj).real)
                    assert abs(p_dense - float(probs.get(m, 0))) < 1e-12


def _site_projectors(op: MonomialOp) -> list[np.ndarray]:
    """The d spectral projectors (1/d) sum_j omega^(-mj) op^j, m = 0..d-1."""
    d, M = op.d, op.to_dense()
    omega = np.exp(2j * np.pi / d)
    return [sum(omega ** (-m * j) * np.linalg.matrix_power(M, j) for j in range(d)) / d
            for m in range(d)]


def _on_site(mat: np.ndarray, vec: np.ndarray, site: int, d: int, N: int) -> np.ndarray:
    tensor = vec.reshape((d,) * N)
    return np.moveaxis(np.tensordot(mat, tensor, axes=([1], [site])), 0, site).reshape(-1)


def _eigenspace_leaves_sparse_form(psi: SparseState, site: int, op: MonomialOp) -> bool:
    """Whether projecting psi on a whole eigenspace of op at the site (every
    eigenvector cycle of one outcome at once, the site kept) leaves the
    uniform tau-power form: an amplitude of non-integral norm, or one that
    is no tau power times the first."""
    d, period = psi.d, tau_period(psi.d)
    vec = psi.to_dense()
    for P in _site_projectors(op):
        amps = _on_site(P, vec, site, d, psi.N) * d * np.sqrt(len(psi.terms))
        nonzero = amps[np.abs(amps) > 1e-9]
        if not len(nonzero):
            continue
        norm = abs(nonzero[0]) ** 2
        if abs(norm - round(norm)) > 1e-9:
            return True
        ratios = nonzero / nonzero[0]
        turns = np.angle(ratios) * period / (2 * np.pi)
        if np.any(np.abs(np.abs(ratios) - 1) > 1e-9) or np.any(np.abs(turns - np.round(turns)) > 1e-9):
            return True
    return False


def _assert_step_matches_dense(psi: SparseState, site: int, op: MonomialOp, branches) -> None:
    """Per outcome m, the branches' mixture prob * |rest><rest| is the state
    of the other qudits after projecting psi with P_m at the site."""
    d, N = psi.d, psi.N
    assert [m for m, _, _ in branches] == sorted(m for m, _, _ in branches)
    assert all(p > 0 and isinstance(p, Fraction) for _, p, _ in branches)
    assert sum(p for _, p, _ in branches) == 1
    assert all(rest.d == d and rest.N == N - 1 for _, _, rest in branches)
    vec = psi.to_dense()
    for m, P in enumerate(_site_projectors(op)):
        proj = np.moveaxis(_on_site(P, vec, site, d, N).reshape((d,) * N), site, 0).reshape(d, -1)
        want = proj.T @ proj.conj()  # the site traced out
        got = np.zeros_like(want)
        for mm, p, rest in branches:
            if mm == m:
                r = rest.to_dense()
                got += float(p) * np.outer(r, r.conj())
        assert np.allclose(got, want, atol=1e-9), (m, psi, site, op)


class TestFusedStep:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 9])
    def test_random_states_against_dense_projectors(self, d):
        # multi-term states with random tau phases under Weyl, degenerate
        # diagonal and identity ops: the step's outcome laws and rest states
        # match dense projectors; it refuses only where projecting on a
        # whole eigenspace leaves the sparse form too, and an eigenspace
        # refused that way while the step succeeds is a degenerate one
        rng = random.Random(600 + d)
        period = tau_period(d)
        refused = 0
        for trial in range(120):
            N = rng.randrange(1, 4 if d < 9 else 3)
            kets = rng.sample(list(itertools.product(range(d), repeat=N)),
                              rng.randrange(1, min(d**N, 8) + 1))
            psi = SparseState(d, N, tuple((rng.randrange(period), k) for k in kets))
            kind = trial % 3
            if kind == 0:
                op = MonomialOp.from_weyl(d, (rng.randrange(d), rng.randrange(d)),
                                          2 * rng.randrange(d))
            elif kind == 1:  # repeated eigenvalues on the diagonal
                values = [rng.randrange(d) for _ in range(rng.randrange(1, d))]
                op = MonomialOp(d, tuple(range(d)),
                                tuple(2 * rng.choice(values) % period for _ in range(d)))
            else:
                op = I(d)
            site = rng.randrange(N)
            whole = _eigenspace_leaves_sparse_form(psi, site, op)
            try:
                branches = measurement_distribution(psi, site, op)
            except SparseFormError:
                assert whole, (psi, site, op)
                refused += 1
                continue
            _assert_step_matches_dense(psi, site, op, branches)
            if whole:
                outcomes = [m for m, _, _ in branches]
                assert len(set(outcomes)) < len(outcomes), (psi, site, op)
        assert refused > 0

    def test_degenerate_eigenspace_split_by_cycles(self):
        # X^3 at d=6 has the cycles (0 3), (1 4), (2 5), each holding the
        # outcomes 0 and 3; the whole eigenspace projection of this state has
        # amplitudes of unequal norm, but each cycle's branch stays sparse
        op = MonomialOp(6, (3, 4, 5, 0, 1, 2), (0,) * 6)
        psi = SparseState(6, 2, ((7, (0, 4)), (2, (0, 5)), (2, (1, 0)), (0, (1, 3)),
                                 (4, (4, 4)), (4, (5, 2))))
        assert _eigenspace_leaves_sparse_form(psi, 1, op)
        branches = measurement_distribution(psi, 1, op)
        law = {}
        for m, p, _ in branches:
            law[m] = law.get(m, 0) + p
        assert law == {0: Fraction(7, 12), 3: Fraction(5, 12)}
        assert [m for m, _, _ in branches] == [0, 0, 0, 3, 3, 3]
        _assert_step_matches_dense(psi, 1, op, branches)

    def test_refusals_name_their_reason(self):
        # measuring X on the first qudit at d=4, outcome 0 sums the terms
        # that share a rest: 1 + tau has the irrational norm 2 + sqrt(2);
        # 2 + i and 2 - i share the norm 5, but their ratio is no tau power
        X4 = X(4)
        irrational = SparseState(4, 2, ((0, (0, 0)), (1, (1, 0))))
        with pytest.raises(SparseFormError, match="non-integral norm"):
            measurement_distribution(irrational, 0, X4)
        unequal = SparseState(4, 2, ((0, (0, 0)), (0, (1, 0)), (2, (2, 0)),
                                     (0, (0, 1)), (0, (1, 1)), (6, (2, 1))))
        with pytest.raises(SparseFormError, match="non-uniform amplitudes"):
            measurement_distribution(unequal, 0, X4)
        for psi in (irrational, unequal):
            assert _eigenspace_leaves_sparse_form(psi, 0, X4)

    def test_rest_drops_the_site_and_keeps_order(self):
        psi = SparseState(3, 3, ((0, (0, 1, 2)), (1, (1, 2, 0)), (2, (2, 0, 1))))
        branches = measurement_distribution(psi, 1, Z(3))
        assert [(m, p) for m, p, _ in branches] == [(m, Fraction(1, 3)) for m in range(3)]
        assert [rest for _, _, rest in branches] == [
            basis_state(3, (2, 1)), basis_state(3, (0, 2)), basis_state(3, (1, 0))]


class TestRefusals:
    @pytest.mark.parametrize("call", [
        lambda: measurement_distribution(make_ghz(3, 2), 5, Z(3)),
        lambda: measurement_distribution(make_ghz(3, 2), -1, Z(3)),
        lambda: measurement_distribution(make_ghz(3, 2), 0, Z(2)),
        lambda: measurement_distribution(make_ghz(2, 2), 0, I(3)),
        lambda: measurement_distribution(make_ghz(3, 1), 0, MonomialOp(3, (0, 1, 2), (0, 0))),
        lambda: measure_local(make_ghz(3, 2), 5, Z(3), 0),
        lambda: make_ghz(3, 2, [0, 1]),
        lambda: make_ghz(3, 2, [0, 1, 2, 3]),
        lambda: GlobalObservable(3, [MonomialOp(3, (0, 1, 5), (0, 0, 0))]),
        lambda: GlobalObservable(3, [MonomialOp(3, (0, 1), (0, 0, 0))]),
        lambda: GlobalObservable(3, [MonomialOp(3, (0, 1.0, 2), (0, 0, 0))]),
        lambda: GlobalObservable(3, [MonomialOp(3, (0, 1, 2), (0, 0.5, 0))]),
        lambda: measurement_distribution(make_ghz(3, 1), 0, MonomialOp(3, (0, 1.0, 2), (0, 0, 0))),
        lambda: MonomialOp(3, (0, 1.0, 2), (0, 0, 0)).compose(I(3)),
        lambda: I(3).compose(MonomialOp(3, (0, 1, 2), (0, True, 0))),
        lambda: measurement_distribution(make_ghz(3, 2), True, Z(3)),
        lambda: dense_oracle(GlobalObservable(3, [Z(3)]), make_ghz(3, 2)),
    ], ids=["site-past-end", "negative-site", "operator-d-below", "operator-d-above",
            "short-phases", "measure-local-site", "ghz-few-phases", "ghz-many-phases",
            "entry-out-of-range", "short-perm", "float-entry", "float-phase",
            "measure-float-entry", "compose-float-entry", "compose-bool-phase", "bool-site",
            "dense-oracle-shapes"])
    def test_bad_shapes_raise_the_library_error(self, call):
        with pytest.raises(QuditMbqcError):
            call()

    @pytest.mark.parametrize("call, message", [
        (lambda: make_ghz(3, 2, [0.5, 0, 0]), "term 0 tau exponent is 0.5, expected an integer"),
        (lambda: SparseState(3, 1, ((0, (0,)), (1.5, (1,)))),
         "term 1 tau exponent is 1.5, expected an integer"),
        (lambda: SparseState(3, 1, ((0, (0.5,)),)), "term 0 ket has 0.5, expected an integer"),
        (lambda: SparseState(3, 1, (("a", (0,)),)), "term 0 tau exponent is 'a', expected an integer"),
        (lambda: SparseState(2, 1, ((True, (0,)),)), "term 0 tau exponent is True, expected an integer"),
        (lambda: SparseState(2, 2, ((0, "01"),)), "term 0 ket is '01', expected a list of some integers"),
        # d and N are checked the same way; each of these once built a state
        # or ended in a bare TypeError
        (lambda: SparseState(3.0, 1, ((0, (0,)),)), "d is 3.0, expected an integer"),
        (lambda: SparseState(3, True, ((0, (0,)),)), "N is True, expected an integer"),
        (lambda: make_ghz(3.0, 2), "d is 3.0, expected an integer"),
        (lambda: make_ghz(3, 2.0), "N is 2.0, expected an integer"),
        # d = 0 ended in a ZeroDivisionError, and d = 1 built a state
        (lambda: SparseState(0, 1, ((0, (0,)),)), "d is 0, expected an integer >= 2"),
        (lambda: make_ghz(1, 2), "d is 1, expected an integer >= 2"),
        # each of these ended in a bare TypeError
        (lambda: make_example2_state(3.0), "d is 3.0, expected an integer"),
        (lambda: measurement_distribution(make_ghz(3, 2), 1.0, Z(3)),
         "site is 1.0, expected an integer"),
    ], ids=["ghz-half-phase", "tau-exponent-float", "ket-digit-float", "tau-exponent-string",
            "tau-exponent-bool", "ket-string", "state-d-float", "state-N-bool", "ghz-d-float",
            "ghz-N-float", "state-d-zero", "ghz-d-one", "example2-d-float", "site-float"])
    def test_non_integer_terms_name_the_term(self, call, message):
        with pytest.raises(QuditMbqcError, match=f"^{re.escape(message)}$"):
            call()

    @pytest.mark.parametrize("call", [
        lambda: I(3).compose(MonomialOp(3, (0, 1), (0, 0))),
        lambda: MonomialOp(3, (0, 1, 5), (0, 0, 0)).compose(I(3)),
        lambda: MonomialOp(3, (-1, 0, 1), (0, 0, 0)).power(2),
        lambda: MonomialOp(3, (0, 1, 2), (0, 0)).power(0),
        lambda: MonomialOp(3, (0, 1), (0, 0, 0)).to_dense(),
    ], ids=["compose-short-other", "compose-entry-out-of-range", "power-negative-entry",
            "power-zero-short-phases", "to-dense-short-perm"])
    def test_malformed_maps_are_refused_by_compose_power_and_to_dense(self, call):
        # the malformed map is refused when built, before the method runs
        with pytest.raises(QuditMbqcError, match="needs a permutation of 0..2 and 3 phases"):
            call()

    @pytest.mark.parametrize("d, perm, phases, message", [
        (3.0, (0, 1, 2), (0, 0, 0), "d is 3.0, expected an integer"),
        (True, (0, 1), (0, 0), "d is True, expected an integer"),
        (1, (0,), (0,), "d is 1, expected an integer >= 2"),
        (0, (), (), "d is 0, expected an integer >= 2"),
        (3, (0, 0, 1), (0, 0, 0), SHAPE_3 + "got (0, 0, 1) and (0, 0, 0)"),
        (3, (0, 1, 2), (0, 0), SHAPE_3 + "got (0, 1, 2) and (0, 0)"),
        (3, (0, 1.0, 2), (0, 0, 0), SHAPE_3 + "got (0, 1.0, 2) and (0, 0, 0)"),
        (3, (0, 1, 2), (0, True, 0), SHAPE_3 + "got (0, 1, 2) and (0, True, 0)"),
        (3, 5, (0, 0, 0), SHAPE_3 + "got 5 and (0, 0, 0)"),
    ], ids=["d-float", "d-bool", "d-one", "d-zero", "repeated-image", "short-phases",
            "float-image", "bool-phase", "perm-not-a-sequence"])
    def test_malformed_maps_are_refused_when_built(self, d, perm, phases, message):
        # a map refused later would end in a bare TypeError or
        # ZeroDivisionError at the first method that reads it
        with pytest.raises(QuditMbqcError, match=f"^{re.escape(message)}$"):
            MonomialOp(d, perm, phases)

    def test_compose_refuses_another_dimension(self):
        with pytest.raises(QuditMbqcError, match="cannot compose a d=3 and a d=5 operator"):
            I(3).compose(X(5))

    def test_non_permutations_are_refused_by_the_walk(self):
        # none of these maps can be built, so no walk ever meets one
        for perm in ((0, 1, 5), (0, 1), (0, 0, 1), (0, 1, 2, 3), (-1, 0, 1)):
            with pytest.raises(QuditMbqcError, match="needs a permutation of 0..2"):
                MonomialOp(3, perm, (0, 0, 0))

    def test_branch_weights_are_checked_by_parseval_per_cycle(self, monkeypatch):
        # |0,0> + |1,0> measured by X at d=3: both terms share the rest |0>
        # on one cycle of length L = 3, and the branch weights |1 + w^m|^2 =
        # 4, 1, 1 sum to 6 = L times the 2 terms on the cycle
        psi = SparseState(3, 2, ((0, (0, 0)), (0, (1, 0))))
        assert [p for _, p, _ in measurement_distribution(psi, 0, X(3))] == [
            Fraction(2, 3), Fraction(1, 6), Fraction(1, 6)]
        real = states._merged_rest

        def inflated(*args):
            terms, norm_sq = real(*args)
            return terms, norm_sq + 1

        monkeypatch.setattr(states, "_merged_rest", inflated)
        with pytest.raises(SparseFormError, match="cycle 0 sum to 9, not 6"):
            measurement_distribution(psi, 0, X(3))

    def test_checked_then_measured_operator_is_walked_once(self, monkeypatch):
        # the omega verdict of GlobalObservable and the measurement both read
        # the one cached cycle walk of the operator
        walked = []
        cached = MonomialOp.__dict__["spectrum"]

        def counting(op):
            walked.append(op)
            return cached.func(op)

        spy = functools.cached_property(counting)
        spy.__set_name__(MonomialOp, "spectrum")
        monkeypatch.setattr(MonomialOp, "spectrum", spy)
        op = MonomialOp.from_weyl(5, (2, 3), 0)
        assert GlobalObservable(5, [op]).sites == (op,)
        assert walked == [op]  # the verdict is read off the walk
        branches = measurement_distribution(make_ghz(5, 2), 1, op)
        assert sum(p for _, p, _ in branches) == 1
        measurement_distribution(make_ghz(5, 2), 0, op)
        assert walked == [op]
        assert [k for k in vars(op) if k not in ("d", "perm", "phases")] == ["spectrum"]

    def test_observable_checks_each_operator_once_naming_the_first_bad_site(self, monkeypatch):
        # sites share operators: each distinct object is checked once, and a
        # refusal names the first site that fails, whatever order the
        # distinct objects were met in
        checked = []
        verdict = MonomialOp.has_omega_spectrum
        monkeypatch.setattr(MonomialOp, "has_omega_spectrum", lambda op: checked.append(op) or verdict(op))
        good, bad = MonomialOp.from_weyl(2, (1, 1)), MonomialOp(2, (0, 1), (1, 0))
        assert GlobalObservable(2, [good] * 50).sites == (good,) * 50
        assert checked == [good]
        with pytest.raises(QuditMbqcError, match="^site 50 operator spectrum is not omega powers$"):
            GlobalObservable(2, [good] * 50 + [bad] * 3)
        assert checked == [good, good, bad]
        for sites, message in [
            ([good, bad, good, 7, bad], "site 1 operator spectrum is not omega powers"),
            ([good, 7, bad, 7], "site 1 is 7, expected a MonomialOp"),
            ([good, good, MonomialOp.identity(3), bad], "site 2 has dimension 3, expected 2"),
        ]:
            with pytest.raises(QuditMbqcError, match=f"^{re.escape(message)}$"):
                GlobalObservable(2, sites)
