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
                       cellular_homology, chain_homology, cokernel_invariants,
                       h1_action, smith_normal_form, unimodular_inverse)
from .partition import (CellPartition, OneCell, TwoCell, branch_signature,
                        build_partition)
from .pipeline import (AnalysisReport, Atom, DirectProduct, DiskField, FreeAbelian,
                       TrivialGroup, VerificationRecord, WreathOver, analyze,
                       build_group_expr, canonical_json, extract_disk_field,
                       render_expr, report_group_expr, verify_extension)
from .reeb import (Branch, ReebEdge, ReebGraph, ReebNode, branch_euler,
                   compute_reeb, find_special_vertex, is_tree, reeb_to_dot)
from .surface import (SurfaceField, VertexClass, classify_vertex, dump_surface,
                      load_surface, total_index, validate_closed_orientable,
                      vertex_classes)
from .symmetry import (CellAutomorphism, SymmetryGroup, compose,
                       enumerate_symmetries, group_structure,
                       identity_automorphism, index_orbits)
from .wreath import (BaseGroup, CyclicGroup, DirectProductGroup, WreathElement,
                     WreathGroup, check_exact_sequence, check_group_axioms,
                     corrupted_wreath, parse_atoms, tau_reindex)

__version__ = "0.1.0"
