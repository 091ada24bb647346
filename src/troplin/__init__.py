"""troplin — exact tropical linear algebra on small ground sets.

Min-plus conventions throughout: tropical sum is ``min``, tropical product
is ``+``, and the tropical zero is ``INF``.  All finite values are exact
rationals, passed in and out as ``fractions.Fraction``s; floats are
rejected at the boundary so that tie-breaking (which drives all the
combinatorics here) is never left to rounding.
The point reads run on an internal integer lattice, scaled by D, the lcm of
the entry denominators, and by the point's own denominators: the argmax of
``PlueckerVector.matroid_at``, circuit membership
(``contains_via_circuits``, ``failing_circuit``) and the chart minima of
``LocalContext`` compare integers and give the same exact answers;
``tau`` and ``PlueckerVector.all_circuits`` build their entries there too.
Circuit membership weighs each support row at most once per point, from the
tables of subset sums that ``matroid_at`` uses, and takes no maximal-basis
walk, so it stays an independent check on ``contains``.
Ground-set elements are 1-based everywhere, in the library and in every
file format.
"""

from .cells import (
    Cell,
    EnumerationLimit,
    FVector,
    bound_bounded,
    bound_total,
    check_facet_bound,
    enumerate_cells,
    enumerate_local_cells,
    f_vector,
)
from .chart import LocalContext, LoopyMatroidError, project_any
from .conical import (
    HeightMatrix,
    Tree,
    build_tree,
    is_caterpillar,
    is_conical,
    local_complex_is_fine,
    random_height_matrix,
    tau,
)
from .matroid import ExchangeError, Matroid
from .plucker import NotValidatedError, PlueckerVector, ValuatedCircuit
from .semiring import INF, as_scalar, format_scalar, parse_scalar, tdet

__version__ = "0.1.0"

__all__ = [
    "Cell",
    "EnumerationLimit",
    "ExchangeError",
    "FVector",
    "HeightMatrix",
    "INF",
    "LocalContext",
    "LoopyMatroidError",
    "Matroid",
    "NotValidatedError",
    "PlueckerVector",
    "Tree",
    "ValuatedCircuit",
    "as_scalar",
    "bound_bounded",
    "bound_total",
    "build_tree",
    "check_facet_bound",
    "enumerate_cells",
    "enumerate_local_cells",
    "f_vector",
    "format_scalar",
    "is_caterpillar",
    "is_conical",
    "local_complex_is_fine",
    "parse_scalar",
    "project_any",
    "random_height_matrix",
    "tau",
    "tdet",
    "__version__",
]
