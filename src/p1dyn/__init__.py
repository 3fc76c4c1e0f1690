"""Arithmetic dynamics on the projective line over imaginary quadratic
fields: exact field arithmetic, rational maps, canonical heights with
certified error bounds, a catalog of commuting map families attached to
CM elliptic curves, and the complex-analytic measure machinery.

The exact layers (quadfield, ratmaps, lattes, heights) are pure Python,
and so are torus, which holds a curve's 2-torsion, the ramification over
it and its period lattice, periodic, whose closed forms serve the
catalog's maps, and greenpoint, which holds a map's complex lift (Lift)
and its Green value at one point (green).  The complex-analytic layer,
measures, needs numpy, and so does roots, the Aberth solver (poly_roots)
that measures' preimage trees and periodic's generic route run.
heights, measures, periodic, roots, greenpoint and torus, and their
names below, are imported on first access (PEP 562), each name from the
one module that defines it, so importing p1dyn compiles none of them,
and exact work, p1dyn.Lift and p1dyn.green never load numpy.  __all__
holds the public names, not the submodules, which dir(p1dyn) lists too.
`from p1dyn import *` binds every name of __all__, the lazy ones among
them, and so loads every lazy module, numpy included.
quadfield builds its rationals on ints, and the exact value types are
slotted classes, not dataclasses, so importing p1dyn loads neither
fractions (nor decimal and numbers) nor dataclasses and inspect: in a
fresh Python 3.11 interpreter on two shared vCPUs it takes about 16 ms
without a bytecode cache and 3 ms with one.
"""

from types import ModuleType as _ModuleType

from .errors import (
    ConvergenceError,
    DomainError,
    FieldMismatchError,
    IterationBudgetError,
    MapSpecError,
)
from .lattes import (
    CatalogEntry,
    EllipticCurveCM,
    catalog,
    catalog_entry,
    catalog_names,
    curve_E1,
    curve_E2,
    curve_for_name,
    lattes_double,
    lattes_triple,
    map_for_multiplier,
)
from .quadfield import (
    QuadFieldElement,
    format_element,
    integral_gcd,
    parse_element,
)
from .ratmaps import (
    Poly,
    ProjPoint,
    RationalMap,
    poly_from_strings,
)

__version__ = "0.1.0"

# public names of the lazily imported modules, served by __getattr__;
# each name is listed under its one module
_HEIGHTS_NAMES = (
    "HeightValue",
    "canonical_height",
    "height_constants",
    "neron_tate",
)
_MEASURES_NAMES = (
    "ComplexSampleSet",
    "DensityGrid",
    "GreenField",
    "compare_l1",
    "green_field",
    "julia_raster",
    "lattes_density",
    "measure_from_green",
    "preimage_sample",
    "sample_histogram",
    "write_csv",
    "write_pgm",
)
_PERIODIC_NAMES = ("periodic_points",)
_TORUS_NAMES = (
    "RamificationProfile",
    "distinct_preimages",
    "predict_profile",
    "preimage_multiplicities",
    "ramification_profile",
    "two_torsion_targets",
)
_LAZY = {
    "greenpoint": ("Lift", "green"),
    "heights": _HEIGHTS_NAMES,
    "measures": _MEASURES_NAMES,
    "periodic": _PERIODIC_NAMES,
    "roots": ("poly_roots",),
    "torus": _TORUS_NAMES,
}


def __getattr__(name):
    for module, names in _LAZY.items():
        if name == module or name in names:
            break
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # import_module, not `from . import`: the latter probes this
    # module's attributes first and would recurse into __getattr__
    from importlib import import_module

    mod = import_module("." + module, __name__)
    # later lookups become plain attribute hits
    globals().update({n: getattr(mod, n) for n in names})
    return globals()[name]


def __dir__():
    return sorted({*globals(), *_LAZY, *(n for ns in _LAZY.values() for n in ns)})


# the public names, not the submodules that dir(p1dyn) also lists
__all__ = [name for name in __dir__() if not name.startswith("_")
           and name not in _LAZY
           and not isinstance(globals().get(name), _ModuleType)]
