"""Delayed feedback control of periodic orbits in one-dimensional maps.

The toolkit covers the full loop: define a scalar map, compiled once into
straight-line code for f and for f' (exact to rounding), detect its T-cycles
and multipliers, build the controlled system's Jacobian and closed-form
characteristic polynomial, test Schur stability (root moduli and the Jury
table), generate gain schemes, and simulate the controlled dynamics.

Symbol note: throughout this package the cycle multipliers f'(x_j) are
called mu_j and the control weights a_1..a_N are called gains; the two play
entirely different roles and are never interchangeable.
"""

from .cycles import Cycle, find_cycles, multiplier_of
from .maps import (
    MapError,
    MapEvalError,
    MapOverflowError,
    MapSpec,
    MapSyntaxError,
    eval_map,
    eval_map_array,
    eval_map_deriv,
    eval_map_deriv_array,
    parse_map,
)
from .polynomials import (
    Polynomial,
    has_repeated_roots,
    poly_roots,
    poly_roots_stack,
    resultant,
    sylvester_matrix,
)
from .simulation import Trajectory, basin_fraction, simulate
from .spectrum import (
    GainVector,
    build_jacobian,
    char_poly_closed,
    char_poly_faddeev,
    jacobian_via_chain,
    morgul_char_poly,
    morgul_jacobian_product,
    step_jacobian,
)
from .stability import (
    MuInterval,
    StabilityReport,
    analyze,
    gains_dk2013,
    gains_uniform,
    gamma_t1,
    jury_stable,
    make_gains,
    min_N_to_stabilize,
    spectral_radii,
    spectral_radius,
    stable_mu_interval,
)

__version__ = "0.1.0"

__all__ = [
    "Cycle",
    "GainVector",
    "MapError",
    "MapEvalError",
    "MapOverflowError",
    "MapSpec",
    "MapSyntaxError",
    "MuInterval",
    "Polynomial",
    "StabilityReport",
    "Trajectory",
    "analyze",
    "basin_fraction",
    "build_jacobian",
    "char_poly_closed",
    "char_poly_faddeev",
    "eval_map",
    "eval_map_array",
    "eval_map_deriv",
    "eval_map_deriv_array",
    "find_cycles",
    "gains_dk2013",
    "gains_uniform",
    "gamma_t1",
    "has_repeated_roots",
    "jacobian_via_chain",
    "jury_stable",
    "make_gains",
    "min_N_to_stabilize",
    "morgul_char_poly",
    "morgul_jacobian_product",
    "multiplier_of",
    "parse_map",
    "poly_roots",
    "poly_roots_stack",
    "resultant",
    "simulate",
    "spectral_radii",
    "spectral_radius",
    "stable_mu_interval",
    "step_jacobian",
    "sylvester_matrix",
]
