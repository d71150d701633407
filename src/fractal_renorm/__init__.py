"""Resistance-form renormalization workbench for glued circle-cell structures."""

__version__ = "0.1.0"

from .angles import (Angle, AngleContext, ValidityReport, circle_distance,
                     critical_angles, cell_index, kappa, make_context,
                     parse_angle, phi_n, post_critical_set, rotate,
                     symmetrized_set, validate_ms)
from .errors import (CapExceededError, CriticalAngleError, DepthCapError,
                     DisconnectedError, InvalidMsError, KappaUndefinedError,
                     KernelMismatchError, NonConvergenceError,
                     NotAPermutationError, NotInvariantError, WorkbenchError)
from .networks import (ConductanceForm, effective_resistance, energy, flows,
                       harmonic_extension, resistance_matrix, trace)
from .structure import (GluedVertexSet, MsStructure, build_structure,
                        level_size, level_vertices, levels_to_json,
                        rotation_action,
                        structure_from_json, structure_to_json)
from .renorm import (HarmonicStructure, renorm_T, replicate,
                     restrict_to_subset, solve_eigenform, symmetrize,
                     verify_harmonic_structure)
from .relations import (CertificateReport, FlowReport, Partition,
                        RelationWitness, RhoReport, VerdictReport,
                        block_cycle_form, block_star_form, build_J_plus_minus,
                        closure_at_level, d_sub_j, enumerate_preserved,
                        is_preserved, j1_closure, partition_from_json,
                        per_cell_flows, quotient_form, rho_search,
                        rotation_invariant, sabot_verdict, stationary_ratios,
                        t_quotient, t_relation, uniqueness_certificate)
from .gd import (GdCellGraph, GdHarmonicStructure, GdRhoEntry, GdRhoTable,
                 GdStructure, RELATION_PQ, RELATION_SIDES, build_gd_structure,
                 cell_graph, existence_verdict, gd_closure, gd_is_preserved,
                 gd_relation_rhos, gd_renorm_T, gd_solve, gd_solve_all_cells,
                 gd_structure_to_json, gd_t_quotient)
from .reports import (claim, form_to_json, render_report, validate_report,
                      validate_report_details, write_report)
from .cli import main, run
