"""Conformal-data-like quantities of binary tree tensor-network vacua.

Spectral data of the ascending channel of a 3-box isometry, fusion
coefficients and the fusion ring, exact n-point correlation functions of
renormalised field insertions, and the action of Thompson's groups F and T
on those correlators, with a brute-force contraction oracle throughout.
"""

from .dyadic import (CirclePoint, DyadicPartition, StdInterval,
                     coarse_grain_distance, common_refinement, is_refinement,
                     minimal_supporting_partition, tree_metric,
                     tree_metric_formula, xor_sub)
from .spectral import (AscendingChannel, Isometry3Box, SpectralData,
                       build_channel, eigendecompose, scaling_dimension,
                       spectral_radius_check)
from .fusion import (FusionRing, FusionTensor, build_ring, fuse,
                     fusion_coefficients, star_product)
from .treestate import LabelledTree, oracle_expectation, vacuum_expectation
from .thompson import (ThompsonElement, compose, find_good, generator,
                       good_partition, parse_word, reduce, schwarzian_measure,
                       slope_right, vacuum_invariance_check)
from .models import (ModelSpec, check_perfect, check_rotation, check_swap,
                     load_model, preset)
from .correlator import (CorrelatorRequest, FieldInsertion, n_point, ope_terms,
                         regular_two_point, smeared_expectation,
                         staircase_samples, transformed_correlator,
                         two_point_closed)

__version__ = "0.1.0"
