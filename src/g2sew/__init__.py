"""Genus-two period matrices from torus sewing data.

Two pipelines produce points of the Siegel upper half-space H_2: sewing two
punctured tori (epsilon formalism) and self-sewing a twice-punctured torus
(rho formalism).  Both come with necklace-expansion cross checks, group
equivariance residuals, Newton inversion near degeneration, sphere-sewing
closed forms (Catalan series), and an exact rational series engine.
"""

from .elliptic import (
    DEFAULT_TOL,
    SeriesTolerance,
    Torus,
    bernoulli,
    c_coeff,
    d_coeff,
    dedekind_eta,
    eisenstein,
    eisenstein_q,
    eisenstein_range,
    prime_form,
    theta1,
    weierstrass_p,
    weierstrass_range,
)
from .epsilon import (
    SL2_S,
    SL2_T,
    DomainCheck,
    EpsPoint,
    GElement,
    bilinear_form_eps,
    equivariance_residual_eps,
    g_action_eps,
    in_domain_eps,
    invert_eps,
    necklace_period_eps,
    period_matrix_eps,
    sp4_action,
)
from .errors import (
    ActionSingularError,
    ConvergenceError,
    DomainError,
    InvalidArgumentError,
    NearDegenerateError,
    PoleError,
    RangeOverflowError,
    SewingError,
    ToleranceError,
    TruncationError,
    UnassignedGeneratorError,
)
from .formal import (
    GradedPoly,
    Generator,
    evaluate_series,
    series_generators,
    symbolic_period_eps,
    symbolic_period_rho,
)
from .lattice import gauss_reduce, lattice_distance, lattice_min, reduce_mod_lattice
from .moments import (
    BlockMomentMatrix,
    DetResult,
    MomentMatrix,
    MomentVector,
    a_matrix,
    beta_vector,
    det_id_minus,
    det_id_minus_product,
    neumann_id_minus,
    r_matrix,
    solve_id_minus,
    sphere_moments,
    truncated_product,
    x_blocks,
)
from .rho import (
    ChiPoint,
    LElement,
    RhoPoint,
    chi_period,
    degeneration_period,
    eps_from_rho,
    equivariance_residual_rho,
    in_domain_rho,
    invert_chi,
    l_action_rho,
    necklace_period_rho,
    period_matrix_rho,
    sp4_action_rho,
)
from .siegel import PeriodMatrix, symplectic_action
from .sphere import (
    catalan_f,
    catalan_g,
    catalan_report,
    e2_from_catalan,
    s_nk,
    sphere_attach_check,
    torus_modulus_catalan,
    torus_modulus_simple,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
