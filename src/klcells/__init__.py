"""Exact Kazhdan-Lusztig cells for finite Coxeter groups with unequal
parameters, rank-1 Calogero-Moser cell data, and cross-checks between
the two."""

from .cells import (CellCharacter, CellPartition, PreorderGraph, cells,
                    cells_report, check_refinement, left_cell_character,
                    left_preorder)
from .characters import (CharacterTable, CyclicGroup, character_table,
                         decompose, inner_product, verify_orthogonality)
from .cherednik_rank1 import (AlgebraElt, CMCellData, Rank1Params, c_to_kappa,
                              cm_multiplicities, cm_report, euler_element,
                              inertia_and_cells, is_central, kappa_to_c,
                              normal_form, verify_presentation)
from .conjecture import (b2_regime_report, check_rank1_vs_a1, emit_report,
                         run_conjecture_suite)
from .coxeter import (ConjugacyViolation, CoxeterGroup, CoxeterMatrix,
                      InfiniteOrTooLarge, WeightFunction, build_group,
                      named_coxeter_matrix, validate_weights)
from .cyclotomic import Cyclotomic, CyclotomicField
from .hecke import HeckeAlgebra, KLTable, kl_basis
from .ordered_coeffs import (LEX, RATIONAL, LaurentElt, ModeMismatchError,
                             OrderedExponent)
from .specfile import ParsedSpec, SpecParseError, parse_spec, render_spec

__version__ = "0.1.0"
