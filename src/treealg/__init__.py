"""Exact symbolic computation with rooted trees and their word-algebra action."""

from .trees import (
    EMPTY_FOREST,
    Forest,
    ForestSyntaxError,
    LEAF,
    Tree,
    bplus,
    count_forests,
    count_trees,
    enumerate_forests,
    enumerate_trees,
    forest_product,
    ladder,
    parse_forest,
)
from .hopf import (
    HElem,
    TensorElem,
    coproduct,
    parse_helem,
    print_helem,
    print_tensor,
)
from .words import (
    Poly,
    PolySyntaxError,
    op_R,
    parse_poly,
    print_poly,
    words_ending_in_y,
)
from .diamond import diamond, sigma, sigma_forest
from .rtm import rho_is_zero_on_x, rtm_apply
from .relations import RelationReport, build_fmn, verify_fmn, verify_r_identity
from .linalg import (
    BitMatrix,
    RationalMatrix,
    basis_forests,
    basis_matrix,
    check_mod2_invertible,
    decompose,
    sigma_kernel,
)

__all__ = [
    "EMPTY_FOREST",
    "Forest",
    "ForestSyntaxError",
    "LEAF",
    "Tree",
    "bplus",
    "count_forests",
    "count_trees",
    "enumerate_forests",
    "enumerate_trees",
    "forest_product",
    "ladder",
    "parse_forest",
    "HElem",
    "TensorElem",
    "coproduct",
    "parse_helem",
    "print_helem",
    "print_tensor",
    "Poly",
    "PolySyntaxError",
    "op_R",
    "parse_poly",
    "print_poly",
    "diamond",
    "sigma",
    "sigma_forest",
    "rho_is_zero_on_x",
    "rtm_apply",
    "RelationReport",
    "build_fmn",
    "verify_fmn",
    "verify_r_identity",
    "BitMatrix",
    "RationalMatrix",
    "basis_forests",
    "basis_matrix",
    "check_mod2_invertible",
    "decompose",
    "sigma_kernel",
    "words_ending_in_y",
]

__version__ = "0.1.0"
