"""morseforge: exact synthesis of polynomials with a prescribed set of
minima, the associated descent fields, and independent verification."""

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
from .verify import (
    BoxSpec,
    CertReport,
    FlowConfig,
    certify,
    integrate_batch,
    newton_search,
)

__version__ = "0.1.0"
