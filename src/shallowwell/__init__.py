"""Bound-state energy of weak attractive 1D wells: series, oracles, resummation.

The package evaluates the weak-coupling expansion of the single
bound-state energy through sixth order from position-space kernel
integrals, and cross-validates it against exact solvers, a batched
shooting/Wronskian solver, Pade resummation, and variational bounds.
"""
from .errors import (
    BracketFailure,
    ConfigError,
    DegenerateShift,
    InvalidGridSpec,
    LengthMismatch,
    NonNormalizable,
    NonPathComponent,
    OptimizerStalled,
    PoleAtEvaluation,
    ShallowWellError,
    SingularPade,
    TailNotDecayed,
)
from .greens import (
    GreensParams,
    divergent_block,
    e4_finite_beta,
    greens_closed,
    greens_expansion,
    greens_gamma_derivative,
    greens_spectral,
)
from .oracles import (
    BoundStateResult,
    exact_poschl_teller,
    exact_square_well,
    shooting_solve,
    shooting_sweep,
)
from .perturbation import (
    ClusterTerm,
    EnergySeries,
    energy_series,
    evaluate_term,
    evaluate_terms,
    load_terms,
    moment,
    parse_terms,
)
from .potential import Potential
from .quadrature import QuadratureGrid, build_grid, contract, default_grid, integrate
from .resummation import (
    PadeApproximant,
    evaluate_pade,
    pade,
    pade_with_asymptote,
    taylor_coefficients,
)
from .variational import ExpSqrtTrial, GaussianTrial, minimize, rayleigh_quotient

__version__ = "0.1.0"
