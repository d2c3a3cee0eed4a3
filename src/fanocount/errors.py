"""Exception taxonomy shared by all modules.

Two families matter to callers:

* ``RegimeError`` and its subclasses mark *inputs outside a formula's range
  of validity* (wrong codimension sign, excluded degenerate families, bad
  torus weights).  The CLI maps these to exit code 2 so scripted sweeps can
  tell "not applicable" apart from "broken".
* ``InconsistencyError`` marks an *internal contradiction*: an exact
  computation produced something the mathematics forbids (a fixed-point sum
  that is not an integer, an Euler characteristic not divisible as required).
  These always indicate a bug and map to exit code 1.
"""

from __future__ import annotations

__all__ = ["DimensionError", "InconsistencyError", "NotInvertibleError", "RegimeError",
           "SingularWeightsError"]


class DimensionError(ValueError):
    """Exponent vector or evaluation point has the wrong number of entries."""


class NotInvertibleError(ValueError):
    """Series inversion requested for a series whose constant term is not 1."""


class RegimeError(ValueError):
    """Input is outside the validity regime of the requested formula.

    ``code`` is a short stable identifier (e.g. ``"gamma-not-positive"``)
    so callers can branch without parsing the message.
    """

    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(f"{code}: {message}")


class SingularWeightsError(RegimeError):
    """Torus weights make a fixed-point denominator vanish."""

    def __init__(self, message: str):
        super().__init__("singular-weights", message)


class InconsistencyError(RuntimeError):
    """An exact computation violated a mathematically guaranteed property."""
