"""Equilibrium configurations of a planar three-spring compliant platform
mechanism pressed against a rigid surface.

The library re-derives the equilibrium conditions from the mechanism
geometry and solves them by elimination in z = exp(i beta). Both
supported cases share one engine: exact tensors of the unsquared pair
A s = B, C s = D (s the signed first-spring length), Newton's method on
the 3x3 system in (L, z, s), and one ledger of candidate rows. With all
spring free lengths zero, B = D = 0 and the eliminant is a quartic; when
only the first free length is nonzero it is the 6x6 Sylvester eliminant
left after s is eliminated. Roots are verified by their residuals. The
paper's degree-48 dialytic eliminant in the tan-half variable has the
same finite roots plus the pole and O2 = O1 rows; the solve reports all
48 of them.
"""

from .analysis import AnalysisReport, run_analysis
from .config import (RunConfig, UnsupportedFreeLengthPattern,
                     config_from_dict, load_config)
from .errors import (AnalysisError, DegenerateQuartic, MechanismError,
                     NotAssemblable, NonZeroFreeLength, ParallelLines,
                     ParseError, ValidationError, WrongFreeLengthPattern,
                     ZeroLengthSpring)
from .free_pose import dialytic_residual, solve_a2, solve_o2
from .geometry import (Line2, PlaneSpec, Point2, intersect_lines, line_through,
                       make_plane)
from .mechanism import (ContactPose, MechanismParams, SpringState, point_e,
                        pose_from, pose_from_trig, residual_pair, spring_state)
from .one_nonzero import solve_one_nonzero_free_length
from .output import emit_tables, render_svg, report_to_dict
from .solutions import EquilibriumSolution, residual_margin
from .zero_free_lengths import solve_zero_free_lengths

__version__ = "0.1.0"
