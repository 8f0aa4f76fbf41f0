"""Constrained p-Dirichlet energy minimization on 2D point clouds.

Tools for extending a handful of labeled points to a full labeling: discrete
graph energies with a certified Newton minimizer, their local
and nonlocal continuum counterparts discretized by Chebyshev spectral
elements on patched domains, density estimation (KDE and spline-smoothed
KDE) feeding the continuum weights, and reproducible error/timing studies
comparing the routes.
"""

from .chebyshev import chebyshev_diff_matrix, chebyshev_nodes
from .continuum import (
    ContinuumProblem,
    PatchedField,
    local_energy,
    minimize_continuum,
    nonlocal_energy,
)
from .density import (
    DensityField,
    KdeDensityField,
    ReferenceDensity,
    SplineConfig,
    SplineDensityField,
    SplineFit,
    kde_evaluate,
    reference_density,
    sample_density,
    sigma_eta,
    skde_fit,
    uniform_mesh,
)
from .graph import (
    ConstraintSet,
    WeightedGraph,
    build_epsilon_graph,
    build_knn_graph,
    default_epsilon,
    discrete_energy,
    discrete_energy_gradient,
    minimize_discrete,
    solve_p2_direct,
)
from .patches import PatchedDomain, build_patches
from .solver import MinimizerResult
from .csvio import Table, read_csv, write_csv
from .config import RunConfig, config_hash, config_text, parse_config
from .experiments import (
    ErrorReport,
    PointConstraints,
    StudyConfig,
    StudyResult,
    constraint_labels,
    density_error_study,
    error_metrics,
    label_value,
    minimizer_comparison,
)
from .errors import (
    ConfigError,
    ConstraintError,
    PDirichletError,
    SingularSystemError,
    ValidationError,
)

__version__ = "0.1.0"
