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
from .networks import ConductanceForm, resistance_matrix
from .structure import (GluedVertexSet, GluingScheme, MsStructure,
                        build_structure, level_size, level_vertices,
                        levels_to_json, structure_from_json,
                        structure_to_json)
from .renorm import (HarmonicStructure, solve_eigenform,
                     verify_harmonic_structure)
from .relations import (CertificateReport, FlowReport, Partition,
                        RelationWitness, RhoReport, VerdictReport,
                        build_J_plus_minus, enumerate_preserved, is_preserved,
                        per_cell_flows, rho_search, rotation_invariant,
                        sabot_verdict, uniqueness_certificate)
from .gd import (GdCellGraph, GdHarmonicStructure, GdRhoEntry, GdRhoTable,
                 GdStructure, RELATION_PQ, RELATION_SIDES, build_gd_structure,
                 cell_graph, existence_verdict, gd_relation_rhos, gd_solve,
                 gd_structure_to_json)
from .reports import (claim, form_to_json, render_report, validate_report,
                      validate_report_details, write_report)
from .cli import main, run
