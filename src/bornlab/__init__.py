"""bornlab: output-distribution statistics of quantum generative models.

Generators for product, pseudo-independent (Dirichlet/Pareto), peaked, IQP
and MPS distribution families; exact and estimated loss metrics (squared
distance, MMD^2, 1-norm); and the Monte Carlo machinery for tail curves,
pairwise-loss moments and anticoncentration statistics.
"""

__version__ = "0.3.0"

from .bitmath import (
    BitString,
    ProbVector,
    RandomStream,
    SampleSet,
    SubsetMask,
    derive_stream,
    fourier_character,
    fwht,
    hamming_distance,
    validate_prob_vector,
    walsh_hadamard,
    walsh_hadamard_inverse,
)

__all__ = [
    "BitString",
    "ProbVector",
    "RandomStream",
    "SampleSet",
    "SubsetMask",
    "derive_stream",
    "fourier_character",
    "fwht",
    "hamming_distance",
    "validate_prob_vector",
    "walsh_hadamard",
    "walsh_hadamard_inverse",
    "__version__",
]
