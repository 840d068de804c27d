"""Exact arithmetic and certified constructions for sums of two cubes.

The package ties together five layers: exact point arithmetic on the cubic
x^3 + y^3 = m0 z^3 (one group law, cubic_add), canonical heights of its
points with rigorous interval radii, a construction that manufactures
integers with prescribed numbers of coprime cube-sum representations,
machine-checkable JSON certificates for those runs, and an independent
exhaustive census oracle.
"""

from .certificate import (
    CertificateFormatError,
    certificate_to_json,
    parse_certificate,
    verify_certificate,
    write_certificate,
)
from .construct import (
    Certificate,
    GeneratorDependenceError,
    build_certificate,
    density_constant,
    generate_lattice_points,
    minimal_box_size,
    z_size_constant,
)
from .curves import (
    CUBIC_IDENTITY,
    CubicPoint,
    CurveConfig,
    cubic_add,
    on_cubic,
    weierstrass_image,
)
from .heights import (
    PrecisionBudgetError,
    canonical_height,
    independence,
)
from .numeric import ApproxReal, icbrt, log_abs
from .oracle import RepCensus, count_reps, search_points

__version__ = "0.1.0"
