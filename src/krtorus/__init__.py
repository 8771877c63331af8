"""Scalar-field topology on the triangulated torus.

From a generic piecewise-linear field whose level-set graph is a tree:
the special vertex, the cell partition it induces, the free abelian
symmetry of that partition, and the orbit group as a wreath-style
expression over the index grid.
"""
from .errors import InputRejected, InternalInvariantError, KrTorusError
from .fields import (PRESET_NAMES, grid_field, preset_field,
                     pullback_cosine_field, random_field)
from .homology import (CokernelInvariants, HomologySummary, IntMatrix, SnfResult,
                       chain_homology, cokernel_invariants, h1_action,
                       smith_normal_form, unimodular_inverse)
from .partition import (CellPartition, OneCell, TwoCell, branch_signature,
                        build_partition)
from .pipeline import (AnalysisReport, DiskField, VerificationRecord, analyze,
                       canonical_json, extract_disk_field, group_expr,
                       verify_extension)
from .reeb import (Branch, ReebEdge, ReebGraph, ReebNode, compute_reeb,
                   find_special_vertex, is_tree, reeb_to_dot)
from .surface import (SurfaceField, VertexClass, dump_surface, load_surface,
                      validate_closed_orientable, vertex_classes)
from .symmetry import (CellAutomorphism, SymmetryGroup, enumerate_symmetries,
                       group_structure, index_orbits)
from .wreath import (CyclicGroup, DirectProductGroup, WreathElement, WreathGroup,
                     check_exact_sequence, check_group_axioms, parse_atoms)

__version__ = "0.1.0"
