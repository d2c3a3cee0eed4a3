"""fanocount: exact enumerative counts for hypersurfaces and complete
intersections containing linear subspaces or conics, and numerical invariants
of the Fano schemes of complete intersections.

Everything is computed over exact rationals; results are integers produced by
coefficient extraction from sparse symmetric polynomials or by torus
fixed-point sums, and the two routes cross-validate each other.

The package re-exports every name in its modules' ``__all__``, loading a
module only when one of its names (or ``__all__``) is first asked for.
"""

from importlib import import_module

__version__ = "0.1.0"

# the order of loading; a name is looked up in each module's __all__ in turn, and
# the symbolic reference layer comes last, so no runtime name loads it
_MODULES = ("errors", "planes", "invariants", "conics", "polycore")


def __getattr__(name: str):
    if name == "__all__":
        value = [n for m in _MODULES for n in import_module(f".{m}", __name__).__all__]
    elif name.startswith("_"):
        # no module's __all__ holds a _-prefixed name, so a probe such as
        # hasattr(fanocount, "__wrapped__") loads nothing
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    else:
        # a module is loaded by its name alone: ``from . import extraction`` loads nothing else
        # (never __main__, which would run the CLI)
        try:
            return import_module(f".{name}", __name__)
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
        for m in _MODULES:
            module = import_module(f".{m}", __name__)
            if name in module.__all__:
                value = getattr(module, name)
                break
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
