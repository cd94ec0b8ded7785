"""Exact simulator, analyzer and compiler for measurement-based qudit
computation with Z_d-linear classical side-processing."""

from .compiler import (
    CompileReport,
    compile_exponential,
    compile_general_prime,
    compile_nand,
    compile_odd_ring,
    compile_quadratic,
    primitive_element,
    sigma_table,
    verify,
)
from .engine import (
    MbqcPlan,
    RunTrace,
    TableResource,
    empirical_success,
    extract_output_function,
    is_deterministic,
    longest_path,
    output_distribution,
    run,
    temporal_graph,
    weighted_observable,
)
from .errors import (
    InconsistencyError,
    PhaseDomainError,
    PlanFormatError,
    QuditMbqcError,
    SizeGuardError,
    SparseFormError,
    UnsupportedModulusError,
    UnsupportedWitnessError,
    VerificationError,
)
from .fields import (
    MultiPoly,
    closure_basis,
    closure_generate,
    combined_degree,
    delta_poly,
    enumerate_subspace,
    in_subspace,
    interpolate,
    is_polynomial_over_ring,
    make_field,
)
from .states import (
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
from .weyl import (
    CliffordSpec,
    WeylLabel,
    check_symplectic,
    commutation_phase,
    conjugate_weyl,
    named_clifford,
    symplectic_product,
)
from .witnesses import (
    Analysis,
    Witness,
    analyze_plan,
    degree_witness,
    degree_witness_for_table,
    delta_distance,
    ncva_search,
    nu_distance,
    temporal_degree_bound,
    threshold_check,
)

__version__ = "0.1.0"
