"""Arithmetic dynamics on the projective line over imaginary quadratic
fields: exact field arithmetic, rational maps, canonical heights with
certified error bounds, a catalog of commuting map families attached to
CM elliptic curves, and the complex-analytic measure machinery.
"""

from .errors import (
    ConvergenceError,
    DomainError,
    FieldMismatchError,
    IterationBudgetError,
    MapSpecError,
)
from .heights import (
    HeightValue,
    canonical_height,
    height_constants,
    naive_height,
    naive_height_by_places,
    neron_tate,
    tate_limit_raw,
)
from .lattes import (
    CatalogEntry,
    EllipticCurveCM,
    RamificationProfile,
    catalog,
    catalog_entry,
    catalog_names,
    curve_E1,
    curve_E2,
    curve_for_name,
    lattes_double,
    lattes_triple,
    map_for_multiplier,
    predict_profile,
    ramification_profile,
    two_torsion_targets,
)
from .measures import (
    ComplexSampleSet,
    DensityGrid,
    GreenField,
    Lift,
    compare_l1,
    green,
    green_field,
    julia_raster,
    ks_uniform_statistic,
    lattes_density,
    map_samples,
    measure_from_green,
    periodic_points,
    poly_roots,
    preimage_sample,
    sample_histogram,
    write_csv,
    write_pgm,
    write_ppm,
)
from .quadfield import (
    QuadFieldElement,
    format_element,
    integral_gcd,
    parse_element,
    sqrt_in_field,
)
from .ratmaps import (
    Poly,
    ProjPoint,
    RationalMap,
    distinct_preimages,
    homogeneous_resultant,
    poly_from_strings,
    preimage_multiplicities,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
