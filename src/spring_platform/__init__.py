"""Equilibrium configurations of a planar three-spring compliant platform
mechanism pressed against a rigid surface.

The library re-derives the equilibrium conditions from the mechanism
geometry and solves them by elimination in z = exp(i beta). One solve,
solve_equilibria, serves both supported cases on one engine: exact
tensors of the unsquared pair A s = B, C s = D (s the signed
first-spring length), Newton's method on the 3x3 system in (L, z, s),
and one ledger of candidate rows. The free lengths pick the eliminant:
with all of them zero, B = D = 0 and it is a quartic; when only the
first is nonzero it is the 6x6 Sylvester eliminant left after s is
eliminated. Roots are verified by their residuals. The
paper's degree-48 dialytic eliminant in the tan-half variable has the
same finite roots plus the pole and O2 = O1 rows; the solve reports all
48 of them.
"""

from .analysis import AnalysisReport, run_analysis
from .config import (RunConfig, UnsupportedFreeLengthPattern,
                     config_from_dict, load_config)
from .errors import (DegenerateQuartic, MechanismError, ParseError,
                     ValidationError, ZeroLengthSpring)
from .geometry import Point2
from .mechanism import (ContactPose, MechanismParams, SpringState, point_e,
                        pose_from, residual_pair, spring_state)
from .output import emit_tables, render_svg, report_to_dict
from .solutions import EquilibriumSolution, residual_margin
from .solver import solve_equilibria

__version__ = "0.1.0"
