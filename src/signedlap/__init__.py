"""Spectral robustness analysis for Laplacians of directed signed graphs."""

from .errors import GraphFormatError, NumericsError, PremiseError
from .graph import (
    EdgePerturbation,
    SignedDigraph,
    laplacian,
    matrix_scale,
    parse_edge_list,
    superpose,
)
from .perturb import (
    sensitive_pairs,
    verify_sensitive_pairs,
)
from .reach import (
    Condensation,
    ReachDecomposition,
    condensation,
    reach_decomposition,
)
from .robustness import (
    DeltaStarResult,
    EffectiveResistance,
    delta_star,
    effective_resistance_directed,
    effective_resistance_undirected,
    nyquist_sweep,
    solve_lyapunov,
)
from .simulate import Simulation
from .spectral import (
    NullBasis,
    block_spectrum,
    helmert_basis,
    null_basis,
    reduced_laplacian,
    spectrum_condition,
    zero_multiplicity,
)

__version__ = "0.1.0"
