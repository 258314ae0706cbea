"""First p-Laplacian eigenvalues on discretized circles and spheres under
conformal weights, with closed-form upper-bound checks and experiment
commands."""

from .mesh import (DiscreteManifold, MeshError, build_circle, build_icosphere,
                   build_interval, colatitude, extract_hemisphere, integrate,
                   load_mesh_csv, load_off, save_mesh_csv, save_off)
from .conformal import (band_plateau_factor, cap_density,
                        energy_density_weight, load_factor_csv,
                        measure_density, normalize_unit_volume,
                        random_smooth_factor, save_factor_csv,
                        smooth_band_plateau_factor, volume)
from .psolve import (ConvergenceError, DegenerateFieldError, RadialProfile,
                     SolveOptions, SpectralResult, mirror_index, p_shift,
                     radial_average, rayleigh_quotient, reflect_even,
                     shooting_eigenvalue_1d, solve_closed, solve_dirichlet,
                     solve_neumann, split_band_plateau, weighted_problem)
from .mobius import (BalanceResult, MobiusMap, balance, balanced_energy_bound,
                     moment_vector)
from .bounds import (BoundReport, canonical_conformal_volume,
                     conformal_volume_bound, genus_surface_bound,
                     verify_bound)

__version__ = "0.1.0"
