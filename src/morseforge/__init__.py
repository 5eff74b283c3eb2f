"""morseforge: exact synthesis of polynomials with a prescribed set of
minima, the associated descent fields, and independent verification.

The exact construction is imported with the package; the float verifier's
names (BoxSpec, CertReport, FlowConfig, certify, integrate_batch,
newton_search) import morseforge.verify, and with it numpy, on first
access.
"""

from ._rat import Rat, rat, rat_str
from .coord_change import (
    CoordChange,
    PointSet,
    PointSetError,
    build_coord_change,
    build_interpolants,
    build_linear,
    choose_direction,
)
from .morse_scalar import (
    AlphaSpec,
    MorsePair,
    build_alpha,
    build_f,
    build_pair,
)
from .poly import DimensionMismatch, MultiPoly, PolyMap
from .synth import (
    SaddleField,
    SynthesisResult,
    build_saddle_field,
    hessian_at,
    synthesize,
)

__version__ = "0.1.0"

_VERIFY_NAMES = (
    "BoxSpec",
    "CertReport",
    "FlowConfig",
    "certify",
    "integrate_batch",
    "newton_search",
)


def __getattr__(name):
    if name in _VERIFY_NAMES:
        from . import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_VERIFY_NAMES})
