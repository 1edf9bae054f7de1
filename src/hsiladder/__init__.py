"""Semi-supervised ladder network engine for hyperspectral image classification."""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DataError,
    DivergenceError,
    GraphError,
    LadderError,
    ShapeError,
)
from .ladder import LadderNetwork, LadderSpec, LayerSpec
from .rng import Rng
from .tensor import GradTape, Tensor

__all__ = [
    "ConfigError",
    "DataError",
    "DivergenceError",
    "GradTape",
    "GraphError",
    "LadderError",
    "LadderNetwork",
    "LadderSpec",
    "LayerSpec",
    "Rng",
    "ShapeError",
    "Tensor",
    "__version__",
]
