import dataclasses
import itertools
import random

import numpy as np
import pytest

from quditmbqc.errors import QuditMbqcError
from quditmbqc.phases import omega_exponent, tau_period, tau_value
from quditmbqc.states import MonomialOp, clifford_unitary
from quditmbqc.weyl import (
    CliffordSpec,
    WeylLabel,
    check_symplectic,
    commutation_phase,
    conjugate_weyl,
    named_clifford,
    symplectic_product,
    weyl_power,
    _orbit,
)


def random_monomial_spec(d, rng):
    """Random Clifford with upper-triangular symplectic part."""
    units = [u for u in range(1, d) if __import__("math").gcd(u, d) == 1]
    s = rng.choice(units)
    m = rng.randrange(d)
    sinv = pow(s, -1, d)
    C = ((sinv, (sinv * m) % d), (0, s))
    x = (rng.randrange(d), rng.randrange(d))
    return CliffordSpec(d, C, x, rng.randrange(tau_period(d)))


def random_symplectic_spec(d, rng):
    """Random Clifford: any symplectic part at odd d, an upper-triangular
    one at even d (as conjugation needs there)."""
    if d % 2 == 0:
        return random_monomial_spec(d, rng)
    while True:
        C = ((rng.randrange(d), rng.randrange(d)), (rng.randrange(d), rng.randrange(d)))
        if check_symplectic(C, d):
            x = (rng.randrange(d), rng.randrange(d))
            return CliffordSpec(d, C, x, rng.randrange(tau_period(d)))


class TestPhases:
    def test_tau_squares_to_omega(self):
        for d in (2, 3, 4, 5, 9):
            assert abs(tau_value(d) ** 2 - np.exp(2j * np.pi / d)) < 1e-12

    def test_omega_exponent_roundtrip(self):
        for d in (2, 3, 5, 9):
            for k in range(d):
                assert omega_exponent(2 * k, d) == k

    def test_odd_d_every_tau_power_converts(self):
        for d in (3, 5, 9):
            tau = tau_value(d)
            omega = np.exp(2j * np.pi / d)
            for t in range(tau_period(d)):
                assert abs(tau**t - omega ** omega_exponent(t, d)) < 1e-12

    def test_even_d_odd_exponent_rejected(self):
        from quditmbqc.errors import PhaseDomainError

        with pytest.raises(PhaseDomainError):
            omega_exponent(1, 2)


class TestSymplectic:
    def test_zx_pairing(self):
        assert symplectic_product((1, 0), (0, 1), 5) == 1
        assert symplectic_product((0, 1), (1, 0), 5) == 4

    def test_self_pairing_vanishes(self):
        assert symplectic_product((2, 3), (2, 3), 5) == 0

    def test_worked_value(self):
        assert symplectic_product((2, 3), (1, 4), 5) == 0  # 2*4 - 3*1 = 5

    def test_antisymmetry_random(self):
        rng = random.Random(3)
        for d in (2, 3, 5, 9):
            for _ in range(30):
                v = (rng.randrange(d), rng.randrange(d))
                w = (rng.randrange(d), rng.randrange(d))
                assert symplectic_product(v, w, d) == (-symplectic_product(w, v, d)) % d

    def test_check_symplectic(self):
        assert check_symplectic(((1, 1), (0, 1)), 5)
        assert check_symplectic(((1, 0), (0, 1)), 7)
        assert not check_symplectic(((1, 0), (0, 2)), 5)

    def test_symplectic_invariance_of_product(self):
        rng = random.Random(4)
        for d in (2, 3, 5):
            for _ in range(25):
                spec = random_monomial_spec(d, rng)
                v = (rng.randrange(d), rng.randrange(d))
                w = (rng.randrange(d), rng.randrange(d))
                assert symplectic_product(spec.apply_C(v), spec.apply_C(w), d) == \
                    symplectic_product(v, w, d)


class TestCommutation:
    def test_zx(self):
        d = 5
        assert commutation_phase(WeylLabel(d, (1, 0)), WeylLabel(d, (0, 1))) == 1

    def test_self(self):
        lab = WeylLabel(3, (2, 1))
        assert commutation_phase(lab, lab) == 0

    def test_mismatched_d(self):
        with pytest.raises(QuditMbqcError):
            commutation_phase(WeylLabel(3, (1, 0)), WeylLabel(5, (0, 1)))

    def test_matrix_commutation_relation(self):
        # W_v W_w = omega^[v,w] W_w W_v entry-wise
        rng = random.Random(5)
        for d in (2, 3, 5):
            omega = np.exp(2j * np.pi / d)
            for _ in range(15):
                v = (rng.randrange(d), rng.randrange(d))
                w = (rng.randrange(d), rng.randrange(d))
                A = MonomialOp.from_weyl(d, v).to_dense()
                B = MonomialOp.from_weyl(d, w).to_dense()
                k = symplectic_product(v, w, d)
                assert np.allclose(A @ B, omega**k * (B @ A), atol=1e-12)

    def test_power_rule(self):
        rng = random.Random(6)
        for d in (2, 3, 4, 5, 9):
            for _ in range(15):
                v = (rng.randrange(d), rng.randrange(d))
                t1 = rng.randrange(tau_period(d))
                e = rng.randrange(2 * d)
                te, ve = weyl_power(t1, v, e, d)
                lhs = np.linalg.matrix_power(MonomialOp.from_weyl(d, v, t1).to_dense(), e)
                assert np.allclose(lhs, MonomialOp.from_weyl(d, ve, te).to_dense(), atol=1e-12)


class TestNamedCliffords:
    def test_s_on_x_label(self):
        spec = named_clifford(3, "S")
        phase, label = conjugate_weyl(spec, (0, 1), 1)
        assert (phase, label) == (0, (1, 1))

    def test_mu_on_z_label(self):
        spec = named_clifford(5, "Mu", u=2)
        phase, label = conjugate_weyl(spec, (1, 0), 1)
        assert (phase, label) == (0, (3, 0))  # 2^-1 = 3 mod 5

    def test_displacement_identity_part(self):
        spec = named_clifford(5, "weyl-displacement", x=(2, 3))
        assert spec.C == ((1, 0), (0, 1))

    def test_non_unit_rejected(self):
        with pytest.raises(QuditMbqcError):
            named_clifford(6, "Mu", u=2)

    def test_non_symplectic_rejected(self):
        with pytest.raises(QuditMbqcError):
            CliffordSpec(5, ((1, 0), (0, 2)))

    def test_serialization_round_trip(self):
        for spec in [
            named_clifford(3, "S"),
            named_clifford(5, "Mu", u=3),
            CliffordSpec(3, ((1, 1), (0, 1)), (0, 2), 1),
        ]:
            again = CliffordSpec.from_json(spec.d, spec.to_json())
            assert again.C == spec.C and again.x == spec.x

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 9])
    def test_every_control_round_trips(self, d):
        # every symplectic C (S, the diagonals and the identity among them),
        # each with x = 0 and tau_exp = 0 and with a drawn x and tau_exp
        rng = random.Random(d)
        spelled = set()
        for entries in itertools.product(range(d), repeat=4):
            C = (entries[:2], entries[2:])
            if not check_symplectic(C, d):
                continue
            for x, t in [((0, 0), 0), ((0, 0), rng.randrange(1, tau_period(d))),
                         ((rng.randrange(d), rng.randrange(1, d)), rng.randrange(tau_period(d)))]:
                spec = CliffordSpec(d, C, x, t)
                assert CliffordSpec.from_json(d, spec.to_json()) == spec
                spelled.add(spec.to_json().get("named"))
        assert spelled == {None, "S", "Mu"}

    @pytest.mark.parametrize("spec, saved", [
        (dataclasses.replace(named_clifford(5, "Mu", u=2), x=(0, 1)),
         {"C": [[3, 0], [0, 2]], "x": [0, 1], "tau_exp": 0}),
        (dataclasses.replace(named_clifford(5, "S"), tau_exp=3),
         {"C": [[1, 1], [0, 1]], "x": [0, 0], "tau_exp": 3}),
        (dataclasses.replace(named_clifford(5, "Mu", u=2), C=((1, 1), (0, 1))), {"named": "S"}),
    ], ids=["Mu-displaced", "S-phased", "Mu-given-S-matrix"])
    def test_a_changed_named_control_is_written_as_what_it_is(self, spec, saved):
        # the spelling is read off C, x and tau_exp, never off how the
        # control was built
        assert spec.to_json() == saved
        assert CliffordSpec.from_json(5, saved) == spec

    def test_a_control_has_no_fields_besides_its_value(self):
        assert [f.name for f in dataclasses.fields(CliffordSpec)] == ["d", "C", "x", "tau_exp"]


class TestConjugation:
    def test_quadratic_phase_accumulation(self):
        # S * W_x with x = (0,-1) accumulates sum k = f(f-1)/2 on the X label
        for d in (3, 5, 7):
            spec = CliffordSpec(d, ((1, 1), (0, 1)), (0, d - 1))
            for f in range(d):
                phase, label = conjugate_weyl(spec, (0, 1), f)
                assert phase == (f * (f - 1) // 2) % d
                assert label == (f % d, 1)

    def test_pure_displacement_linear_phase(self):
        rng = random.Random(8)
        for d in (2, 3, 5):
            for _ in range(20):
                x = (rng.randrange(d), rng.randrange(d))
                v = (rng.randrange(d), rng.randrange(d))
                spec = named_clifford(d, "weyl-displacement", x=x)
                f = rng.randrange(d)
                phase, label = conjugate_weyl(spec, v, f)
                assert label == v
                assert phase == (f * symplectic_product(x, v, d)) % d

    def test_f_zero_is_identity(self):
        spec = named_clifford(5, "S")
        assert conjugate_weyl(spec, (2, 3), 0) == (0, (2, 3))

    def test_group_law(self):
        rng = random.Random(9)
        for d in (2, 3, 5):
            for _ in range(25):
                spec = random_monomial_spec(d, rng)
                v = (rng.randrange(d), rng.randrange(d))
                f1, f2 = rng.randrange(d), rng.randrange(d)
                p1, w1 = conjugate_weyl(spec, v, f1)
                p2, w2 = conjugate_weyl(spec, w1, f2)
                pt, wt = conjugate_weyl(spec, v, f1 + f2)
                assert wt == w2
                assert pt == (p1 + p2) % d

    def test_phase_reindexing_identity(self):
        # the two equivalent phase expressions: sum_{k=1..f} [C^k x, C^f v]
        # equals sum_{k=0..f-1} [x, C^k v] by symplectic invariance
        rng = random.Random(77)
        for d in (2, 3, 4, 5, 9):
            for _ in range(25):
                spec = random_monomial_spec(d, rng)
                x = spec.x
                v = (rng.randrange(d), rng.randrange(d))
                f = rng.randrange(2 * d)
                pow_v = [v]
                pow_x = [x]
                for _k in range(f):
                    pow_v.append(spec.apply_C(pow_v[-1]))
                    pow_x.append(spec.apply_C(pow_x[-1]))
                original = sum(symplectic_product(pow_x[k], pow_v[f], d)
                               for k in range(1, f + 1)) % d
                reindexed = sum(symplectic_product(x, pow_v[k], d)
                                for k in range(f)) % d
                assert original == reindexed

    def test_formula_matches_exact_path_odd_d(self):
        # the re-indexed accumulated-product formula agrees with the exact
        # step-by-step conjugation whenever d is odd
        rng = random.Random(10)
        for d in (3, 5, 9):
            for _ in range(30):
                spec = random_monomial_spec(d, rng)
                v = (rng.randrange(d), rng.randrange(d))
                f = rng.randrange(d)
                got = conjugate_weyl(spec, v, f)
                phase, w = 0, v
                for _k in range(f):
                    phase = (phase + symplectic_product(spec.x, w, d)) % d
                    w = spec.apply_C(w)
                assert got == (phase, w)

    @pytest.mark.parametrize("d", [*range(2, 10), 12, 15])
    def test_orbit_walk_reads_every_power(self, d):
        # one walk of count steps gives conjugate_weyl at every f < count,
        # and each entry is one more conjugation of the one before it: at
        # odd d, omega^[x, w] W_(Cw) for the label w before it
        rng = random.Random(200 + d)
        for _ in range(20):
            spec = random_symplectic_spec(d, rng)
            v = (rng.randrange(d), rng.randrange(d))
            orbit = list(_orbit(spec, v, rng.randrange(1, 3 * d)))
            assert orbit == [conjugate_weyl(spec, v, f) for f in range(len(orbit))]
            for (p0, w0), (p1, w1) in zip(orbit, orbit[1:]):
                step, w = conjugate_weyl(spec, w0, 1)
                assert ((p0 + step) % d, w) == (p1, w1)
                if d % 2:
                    assert (p0 + symplectic_product(spec.x, w0, d)) % d == p1
                    assert spec.apply_C(w0) == w1

    def test_even_d_non_triangular_rejected(self):
        fourier_like = ((0, 1), (1, 0))  # det = -1 mod 2 = 1, not triangular
        spec = CliffordSpec(2, fourier_like)
        with pytest.raises(QuditMbqcError):
            conjugate_weyl(spec, (1, 0), 1)


class TestDenseOracleEquivalence:
    """Ground truth: V^f W_v V^-f == omega^phase W_label as matrices."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 8, 9])
    def test_random_triples(self, d):
        # f up to 2d-1, so even-d labels cross the 2d period of tau
        rng = random.Random(100 + d)
        omega = np.exp(2j * np.pi / d)
        for _ in range(60):
            spec = random_monomial_spec(d, rng)
            v = (rng.randrange(d), rng.randrange(d))
            f = rng.randrange(2 * d)
            phase, label = conjugate_weyl(spec, v, f)
            V = clifford_unitary(spec).to_dense()
            W = MonomialOp.from_weyl(d, v).to_dense()
            lhs = np.linalg.matrix_power(V, f) @ W @ np.linalg.matrix_power(V.conj().T, f)
            rhs = omega**phase * MonomialOp.from_weyl(d, label).to_dense()
            assert np.max(np.abs(lhs - rhs)) < 1e-9

    @pytest.mark.parametrize("d", [3, 5, 9])
    def test_non_triangular_controls_odd_d(self, d):
        # F|z> = sum_y omega^(yz)|y>/sqrt(d) maps Z -> X^-1 and X -> Z, so its
        # symplectic part [[0, 1], [-1, 0]] is not upper triangular
        omega = np.exp(2j * np.pi / d)
        F = np.array([[omega ** (y * z) for z in range(d)] for y in range(d)]) / np.sqrt(d)
        S = clifford_unitary(named_clifford(d, "S")).to_dense()
        gates = [(F, ((0, 1), (-1, 0))), (F.conj().T, ((0, -1), (1, 0))),
                 (F @ S, ((0, 1), (-1, -1))), (S @ F, ((-1, 1), (-1, 0)))]
        for U, C in gates:
            for x in ((0, 0), (1, 2)):
                spec = CliffordSpec(d, C, x)
                V = U @ MonomialOp.from_weyl(d, x).to_dense()
                for f in (1, 2):
                    Vf = np.linalg.matrix_power(V, f)
                    for v in ((a, b) for a in range(d) for b in range(d)):
                        phase, label = conjugate_weyl(spec, v, f)
                        lhs = Vf @ MonomialOp.from_weyl(d, v).to_dense() @ Vf.conj().T
                        rhs = omega**phase * MonomialOp.from_weyl(d, label).to_dense()
                        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_named_gate_matrices(self):
        # S = sum tau^{z^2} |z><z|, M_u = sum |uz><z|
        for d in (2, 3, 5):
            tau = tau_value(d)
            S = clifford_unitary(named_clifford(d, "S")).to_dense()
            assert np.allclose(S, np.diag([tau ** (z * z) for z in range(d)]), atol=1e-12)
        M2 = clifford_unitary(named_clifford(5, "Mu", u=2)).to_dense()
        expect = np.zeros((5, 5))
        for k in range(5):
            expect[(2 * k) % 5, k] = 1
        assert np.allclose(M2, expect, atol=1e-12)

    def test_anders_browne_control_action(self):
        # (X+Y)/sqrt(2) on the qubit: X -> Y -> X exactly, Z -> -Z
        spec = CliffordSpec(2, ((1, 1), (0, 1)), (0, 1))
        assert conjugate_weyl(spec, (0, 1), 1) == (0, (1, 1))  # X -> Y
        assert conjugate_weyl(spec, (1, 1), 1) == (0, (0, 1))  # Y -> X
        assert conjugate_weyl(spec, (1, 0), 1) == (1, (1, 0))  # Z -> -Z
        V = clifford_unitary(spec).to_dense()
        X = MonomialOp.from_weyl(2, (0, 1)).to_dense()
        Y = MonomialOp.from_weyl(2, (1, 1)).to_dense()
        U = (X + Y) / np.sqrt(2)
        # same unitary up to global phase
        ratio = V @ np.linalg.inv(U)
        assert np.allclose(ratio, ratio[0, 0] * np.eye(2), atol=1e-12)
        assert abs(abs(ratio[0, 0]) - 1) < 1e-12
