"""braidcomb: combing normal forms and boundary calculus for braid towers.

Each module's __all__ is the one list of its public names; the package
exports those names and its six modules, and lists none itself.

The word problem in P_n and G_n (errors, words, presentations, combing)
loads with the package.  The boundary calculus, the layers abelian and
fibration, loads on first use: `comb` and the group suites read neither,
and compiling them took about a tenth of a cold `comb`.
Each layer sits in sys.modules from the start, through LazyLoader, so code
walking the braidcomb modules (a tracer, say) loads it before patching it.
Its source runs on the first attribute read or vars() of it, and binds its
__all__ into the package.  Until then the package's __getattr__ reads the
layers' __all__ in turn, which loads them: an abelian name loads abelian
alone, while a star import, dir() or a name the package lacks loads both.
Once both have loaded, the package binds __all__ and deletes __getattr__,
which, while present, keeps CPython from specializing a read of any
braidcomb.<name>.

Before CPython 3.12.3 (gh-114763), LazyLoader does not guard a layer's
first load against a concurrent first read from another thread, which
can then see the layer half run.  On those versions, read any attribute
of a layer before sharing it between threads.
"""

from .errors import *
from .words import *
from .presentations import *
from .combing import *


# The layers whose source has not run yet.
_unloaded: set[str] = set()


class _BindingLoader:
    """A layer's own loader that, once the layer's source has run, binds
    the layer's __all__ into the package."""

    def __init__(self, loader) -> None:
        self.loader = loader

    # The loaded layer's __loader__ is this object, so get_source and the
    # loader's other readers must still answer.
    def __getattr__(self, attr: str):
        return getattr(self.loader, attr)

    def exec_module(self, module) -> None:
        self.loader.exec_module(module)
        namespace = module.__dict__
        globals().update({name: namespace[name] for name in namespace["__all__"]})
        _unloaded.discard(module.__name__)
        if not _unloaded:
            globals()["__all__"] = _public_names()
            globals().pop("__getattr__", None)


def _lazy_layer(layer: str):
    """Register braidcomb.<layer> in sys.modules, its source to run on the
    module's first attribute read."""
    import importlib.util
    import sys

    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    spec.loader = importlib.util.LazyLoader(_BindingLoader(spec.loader))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    _unloaded.add(spec.name)
    return module


abelian = _lazy_layer("abelian")
fibration = _lazy_layer("fibration")

# The eager modules' names and the six modules, read before any layer loads.
_EAGER_NAMES = [name for name in globals() if not name.startswith("_")]


def _public_names() -> list[str]:
    return _EAGER_NAMES + abelian.__all__ + fibration.__all__


def __getattr__(name: str):
    # Reached only for a name the package does not hold while a layer is
    # unloaded: a layer's load binds its names, and the second binds __all__.
    if name == "__all__":
        return _public_names()
    for layer in (abelian, fibration):
        if name in layer.__all__:
            return getattr(layer, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_public_names()})


__version__ = "0.1.0"
