"""Hand-built plans shared across test modules."""

import math

from quditmbqc.engine import MbqcPlan
from quditmbqc.phases import tau_period
from quditmbqc.states import SparseState, basis_state, make_example2_state, make_ghz
from quditmbqc.weyl import CliffordSpec, WeylLabel, named_clifford


def nand_plan():
    d = 2
    control = CliffordSpec(d, ((1, 1), (0, 1)), (0, 1))
    fid = WeylLabel(d, (0, 1))
    return MbqcPlan(
        d=2, n=2, N=3,
        resource=SparseState(2, 3, ((0, (0, 0, 1)), (2, (1, 1, 0)))),  # (|001> - |110>)/sqrt(2)
        parties=[(fid, control)] * 3,
        Q=[[1, 0], [0, 1], [1, 1]],
        z=[1, 1, 1], s0=0,
    )


def quadratic_plan(d):
    fid = WeylLabel(d, (0, 1))
    s_gate = named_clifford(d, "S")
    first = CliffordSpec(d, ((1, 1), (0, 1)), (0, d - 1))
    parties = [(fid, first)] + [(fid, s_gate)] * (2 * d - 1)
    return MbqcPlan(
        d=d, n=1, N=2 * d,
        resource=make_example2_state(d),
        parties=parties,
        Q=[[1]] * (2 * d),
        z=[1] * (2 * d), s0=0,
    )


def exponential_plan(d, u, coeff=1):
    fid = WeylLabel(d, (1, 0))
    return MbqcPlan(
        d=d, n=1, N=1,
        resource=basis_state(d, (1,)),
        parties=[(fid, named_clifford(d, "Mu", u=u))],
        Q=[[coeff]],
        z=[1], s0=0,
    )


def x_chain(N, reads):
    """X measured on N qubits of |0..0>, output the sum of all outcomes;
    party j reads the outcome of party reads[j]."""
    T = [[0] * N for _ in range(N)]
    for j, l in reads.items():
        T[j][l] = 1
    return MbqcPlan(d=2, n=1, N=N, resource=basis_state(2, (0,) * N),
                    parties=[(WeylLabel(2, (0, 1)),
                              named_clifford(2, "weyl-displacement", x=(0, 0)))] * N,
                    Q=[[0]] * N, T=T, z=[1] * N, s0=0)


def wide_x_chain():
    """The X chain on 32 qubits where party j+16 reads m_j: after party
    k < 16 the pending settings alone keep 2^(k+1) branches apart, so the
    exact walk passes its budget of 20000 branches in one layer at party 14,
    with 2^15 = 32768 merged branches."""
    return x_chain(32, {j + 16: j for j in range(16)})


def ghz_chain(d, N):
    """X on a d-level GHZ state, each setting reading the previous outcome
    through the S control."""
    return MbqcPlan(d=d, n=1, N=N, resource=make_ghz(d, N),
                    parties=[(WeylLabel(d, (0, 1)), named_clifford(d, "S"))] * N,
                    Q=[[1]] * N, T=[{}] + [{k - 1: 1} for k in range(1, N)], z=[1] * N, s0=0)


def mermin_plan(d, N):
    """Mermin's GHZ game on a d-level GHZ state: party k measures X
    (fiducial (0, 1)) rotated by S to the power of input symbol k, and the
    output is the sum of all outcomes."""
    return MbqcPlan(d=d, n=N, N=N, resource=make_ghz(d, N),
                    parties=[(WeylLabel(d, (0, 1)), named_clifford(d, "S"))] * N,
                    Q=[[int(j == k) for j in range(N)] for k in range(N)], z=[1] * N, s0=0)


def random_ghz_plan(rng, d, N, n, ordered, tau_phased):
    """GHZ resource with random Weyl fiducials and monomial-class controls.

    tau_phased draws each branch's tau exponent freely; otherwise the phase
    profile is quadratic, which keeps the resource a stabilizer state.
    Ordered plans read one random earlier outcome in every row after the
    first.
    """
    units = [u for u in range(1, d) if math.gcd(u, d) == 1]
    parties = []
    for _ in range(N):
        v = (0, 0)
        while v == (0, 0):
            v = (rng.randrange(d), rng.randrange(d))
        s = rng.choice(units)
        C = ((pow(s, -1, d), rng.randrange(d)), (0, s))
        parties.append((WeylLabel(d, v), CliffordSpec(d, C, (rng.randrange(d), rng.randrange(d)))))
    if tau_phased:
        phases = [rng.randrange(tau_period(d)) for _ in range(d)]
    else:
        a, b = rng.randrange(d), rng.randrange(d)
        phases = [2 * ((a * z * z + b * z) % d) for z in range(d)]
    T = None
    if ordered:
        T = [{rng.randrange(k): rng.randrange(1, d)} if k else {} for k in range(N)]
    return MbqcPlan(
        d=d, n=n, N=N, resource=make_ghz(d, N, phases=phases), parties=parties,
        Q=[[rng.randrange(d) for _ in range(n)] for _ in range(N)], T=T,
        z=[rng.randrange(1, d) for _ in range(N)], s0=rng.randrange(d),
        q0=[rng.randrange(d) for _ in range(N)],
    )


class _Forgetful(dict):
    """A step memo that stores nothing."""

    def __setitem__(self, key, value):
        pass


def memoless(plan):
    """A copy of plan whose step memo (MbqcPlan._steps) stays empty, so
    every step of its runs and ordered walks calls the kernel."""
    copy = MbqcPlan.loads(plan.dumps())
    copy._steps = _Forgetful()
    return copy
