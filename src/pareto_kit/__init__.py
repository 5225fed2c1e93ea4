"""pareto-kit: exact dominance-structure analysis for multi-objective optimization.

Everything is computed over exact rationals: dominance classification of
finite sets, convex-hull frontier membership, external-stability
certificates, subproblem reducibility, and recession-cone analysis of
polyhedral image sets, all backed by a deterministic exact LP kernel.
"""

from .cones import (
    OrderRelation,
    PolyhedralCone,
    cone,
    cone_contains,
    is_pointed,
    is_proper,
    natural_cone,
    order_relation,
    strictly_positive_direction,
)
from .dominance import (
    DominanceReport,
    PointSet,
    cone_nondominated_set,
    geoffrion_bound,
    nondominated_set,
    point_set,
    properly_nondominated_set,
    weakly_nondominated_set,
)
from .errors import ParetoKitError
from .hulls import (
    HullSet,
    ProperVerdict,
    hull,
    hull_contains,
    hull_is_nondominated,
    hull_is_properly_nondominated,
    hull_is_weakly_nondominated,
)
from .numerics import (
    LinearProgram,
    LpOutcome,
    Rational,
    active_backend,
    linprog,
    lp_solve,
    rational_format,
    rational_parse,
)
from .polyhedra import (
    ConnectivityReport,
    EquivalenceReport,
    Polyhedron,
    RecessionCone,
    RedundancyReport,
    frontier_sample_connected,
    lower_section_bounded,
    negative_recession_direction,
    polyhedron,
    recession_cone,
    redundancy_demonstration,
    theorem_full_report,
)
from .reducibility import (
    MopInstance,
    ReducibilityReport,
    efficient_solutions,
    hull_reducibility_check,
    mop_instance,
    properly_efficient_solutions,
    reducibility_report,
    weakly_efficient_solutions,
    weighted_sum_argmin,
)
from .stability import (
    DominatorCertificate,
    external_stability_certificate,
    find_dominator,
    find_dominator_cone,
    verify_certificate,
)

__version__ = "0.1.0"
