"""braidcomb: combing normal forms and boundary calculus for braid towers.

The word problem in P_n and G_n (words, presentations, combing) loads with
the package.  The boundary calculus that abelianizes those groups, the
layers abelian and fibration, loads on first use: `comb` and the group
suites read neither, and compiling them took about a tenth of a cold
`comb`.  Each lazy layer sits in sys.modules from the start, registered
through importlib.util.LazyLoader, and its source runs on the module's
first attribute read.  That load binds the layer's exported names into
this package, as an eager `from .abelian import (...)` would; until then
the package's __getattr__ resolves them, and __dir__ and __all__ list
them.  The layers are in sys.modules, not behind __getattr__ alone, so
that code walking the loaded braidcomb modules (a tracer that patches
every namespace holding a function, say) reads their namespaces, which
loads them before it patches anything.

Before CPython 3.12.3 (gh-114763), LazyLoader does not guard a layer's
first load against a concurrent first read from another thread, which
can then see the layer half run.  On those versions, read any attribute
of a layer before sharing it between threads.
"""

from .errors import (
    BraidCombError,
    InvalidArgumentError,
    MissingImageError,
    NoUnitCoordinateError,
    WordSizeExceededError,
)
from .words import (
    DEFAULT_WORD_CAP,
    GenFamily,
    GeneratorSymbol,
    Letter,
    Word,
    IDENTITY,
    orbit_gen,
    band_gen,
    reduce,
    concat,
    invert,
    exponent_sum,
    word_power,
    apply_homomorphism,
    parse_word,
    format_word,
)
from .presentations import (
    MAX_TOWER_GENERATORS,
    MAX_RELATORS,
    Presentation,
    TowerSpec,
    orbit_presentation,
    artin_presentation,
    quotient_by,
    element_D,
    element_C,
    element_E,
    element_Theta,
    element_full_twist,
    action_conjugator,
    export_presentation,
    parse_presentation,
)
from .combing import (
    NormalForm,
    CenterReport,
    conjugation_action,
    comb,
    words_equal,
    is_identity,
    project_qn,
    section_sprime,
    theta_decompose,
    center_check,
)
# The names each lazy layer exports through the package, as an eager
# `from .<layer> import (...)` would bind them.
_LAZY_EXPORTS = {
    "abelian": (
        "MAX_MATRIX_CELLS",
        "IntMatrix",
        "SmithForm",
        "FGAbelianGroup",
        "has_torsion",
        "smith_normal_form",
        "relation_matrix",
        "cokernel",
        "h1",
    ),
    "fibration": (
        "Surface",
        "FibreElement",
        "ExactnessReport",
        "QuotientReport",
        "SplitReport",
        "NonSplitReport",
        "BoundarySumReport",
        "fibre_presentation",
        "fibre_elements_equal",
        "pi2_basis",
        "delta_generator",
        "tau_hat",
        "boundary_image",
        "strict_corollary_image",
        "strict_corollary_discrepancy",
        "boundary_matrix_ab",
        "exactness_report",
        "quotient_check",
        "iota_sharp_vector",
        "split_ses_check",
        "nonsplit_witness_s2",
        "boundary_sum_identity",
    ),
}
_LAZY_NAMES = {name: layer for layer, names in _LAZY_EXPORTS.items() for name in names}


class _BindingLoader:
    """A layer's own loader that, once the layer's source has run, binds
    the layer's exported names into the package."""

    def __init__(self, loader, names: tuple[str, ...]) -> None:
        self.loader = loader
        self.names = names

    # The loaded layer's __loader__ is this object, so get_source and the
    # loader's other readers must still answer.
    def __getattr__(self, attr: str):
        return getattr(self.loader, attr)

    def exec_module(self, module) -> None:
        self.loader.exec_module(module)
        namespace = module.__dict__
        globals().update({name: namespace[name] for name in self.names})


def _lazy_layer(layer: str):
    """Register braidcomb.<layer> in sys.modules, its source to run on the
    module's first attribute read."""
    import importlib.util
    import sys

    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    spec.loader = importlib.util.LazyLoader(_BindingLoader(spec.loader, _LAZY_EXPORTS[layer]))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


abelian = _lazy_layer("abelian")
fibration = _lazy_layer("fibration")


def __getattr__(name: str):
    # Reached only before the name's layer has loaded: the load binds it.
    layer = _LAZY_NAMES.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[layer], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY_NAMES})


# A star import binds what it bound when every layer loaded eagerly.
__all__ = [*(name for name in globals() if not name.startswith("_")), *_LAZY_NAMES]

__version__ = "0.1.0"
