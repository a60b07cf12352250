"""Algebraic computation and uniqueness certification of third-order tensor
decompositions into multilinear rank-(1, L_r, L_r) block terms."""

from .linalg import DimensionError, SolverDiagnostic
from .tensor import (
    BlockTermDecomposition,
    NoiseSpec,
    Tensor3,
    add_noise,
    compose,
    compress_third_mode,
    match_decompositions,
    random_btd,
    unfold,
)
from .solver import SolveReport, SolverOptions, decompose

__all__ = [
    "BlockTermDecomposition",
    "DimensionError",
    "NoiseSpec",
    "SolveReport",
    "SolverDiagnostic",
    "SolverOptions",
    "Tensor3",
    "add_noise",
    "compose",
    "compress_third_mode",
    "decompose",
    "match_decompositions",
    "random_btd",
    "unfold",
]

__version__ = "0.1.0"
