"""Weighted Max Lin over F2, parameterized above the random-assignment average.

Core surfaces: exact F2 systems (`f2core`), excess-preserving reduction
rules (`reduce`), the mark-and-eliminate procedure with its certificate
verifier (`algoh`), sum-independent vector subsets (`kset`), constructive
excess bounds and the above-average decision (`excess`), the multilinear
expansion bridge (`fourier`), and the exact-r SAT reduction plus
kernelization (`reductions`).  Text formats live in `formats`, the CLI in
`cli`.
"""
from .algoh import (
    Certificate,
    HRun,
    h_step,
    reconstruct,
    run_h,
    verify_certificate,
)
from .errors import (
    DimensionMismatchError,
    EquationNotFoundError,
    MaxlinError,
    NonIntegralWeightError,
    OracleCapError,
    ParseError,
    PreconditionError,
)
from .excess import (
    DEFAULT_ORACLE_CAP,
    MAX_ORACLE_N,
    AaInstance,
    ExcessWitness,
    brute_force_max_excess,
    decide_aa,
    lower_bound_assignment,
)
from .f2core import (
    Assignment,
    Equation,
    F2Vector,
    LinearSystem,
    evaluate,
)
from .fourier import (
    FourierExpansion,
    eval_fourier,
    fourier_to_system,
    maxima_lower_bound,
    system_to_fourier,
)
from .kset import VectorSet, find_kset, verify_kset
from .reduce import (
    MergeEvent,
    ReductionTranscript,
    apply_rule1,
    apply_rule2,
    lift_assignment,
    make_irreducible,
)
from .reductions import (
    CnfFormula,
    KernelOutcome,
    decide_sat_aa,
    kernelize_rlin,
    sat_to_fourier,
    satisfied_clause_count,
)

__version__ = "0.1.0"
