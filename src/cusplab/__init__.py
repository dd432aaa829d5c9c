"""cusplab: a numerics laboratory for rod potentials, the cusp geometry of
their level sets, and the Dirichlet problem on the enclosed domain."""

__version__ = "0.1.0"

from .density import (DensityProfile, DiniReport, dini_report,
                      lebesgue_profile, power_profile, tabulated_profile)
from .potential import PotentialField, lebesgue_closed_form, sector_bound_check
from .contour import (ContourCurve, CuspRateReport, axis_crossings,
                      cusp_rate_bounds, log_radius_at, radius_at,
                      trace_contour, trace_contours)
from .mesh import (CrossSection, Mesh, build_cross_section, mesh_quality,
                   rectangle_mesh, triangulate)
from .boundary import (BoundaryData, BumpData, ConstantData, TabulatedData,
                       two_constant_oracle)
from .fem import SolutionField, assemble, solve_dirichlet
from .wos import WosEstimate, distance_to_boundary, estimate
from .probe import (ProbePath, limit_set_estimate, nonlocality_experiment,
                    sample_path)
from .wiener import WienerReport, classify, log_series, named_profile
from . import errors
