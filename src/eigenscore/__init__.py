"""Score models built from Markov-semigroup eigenfunction moments.

Fit time-indexed score approximations of a diffusion forward process purely
from eigenfunction moment estimates of the data, then sample and evaluate
exact model log-densities through the probability-flow ODE.
"""

from .basis import (
    OU,
    TRUNCATED_BM,
    EigenBasis,
    basis_from_dict,
    basis_to_dict,
    hermite_eval,
    hermite_order_expansion,
    hermite_univariate_basis,
    product_table,
    trig_basis_1d,
    trig_basis_nd,
)
from .errors import (
    CapacityError,
    ConfigError,
    DegenerateInputError,
    DomainError,
    EigenScoreError,
    IllConditionedError,
    InvalidInputError,
    NonConvergenceError,
    UnsupportedTargetError,
)
from .generate import (
    flow_rate,
    log_density,
    sample_pf_ode,
    sample_reverse_sde,
)
from .odeint import IntegratorConfig, integrate_batch
from .moments import (
    MomentVector,
    analytic_moments,
    modulation_shrink,
    sample_moments,
)
from .process import (
    VE,
    VP,
    Schedule,
    internal_time,
    sample_forward,
    time_rate,
    transition,
    wrap_torus,
)
from .solver import (
    QuadraticSystem,
    QuadratureSpec,
    ScoreModel,
    SystemAssembler,
    alpha_at,
    load_model,
    model_from_dict,
    model_to_dict,
    presolve_grid,
    save_model,
    sm_loss,
)
from .targets import (
    AnalyticReference,
    Dataset,
    DomainMap,
    GaussianMixture,
    bart_simpson,
    mixture_logpdf,
    mixture_marginal,
    mixture_score,
    rescale_to_torus,
    sample_gaussian_mixture,
    toy2d,
    wrapped_mixture_pdf,
    wrapped_mixture_pdf_and_score,
)

__version__ = "0.1.0"
