"""Resistance-form renormalization workbench for glued circle-cell structures."""

__version__ = "0.1.0"

from .angles import Angle, AngleContext, ValidityReport, kappa, make_context
from .errors import (CapExceededError, DepthCapError, DisconnectedError,
                     InvalidMsError, KappaUndefinedError, KernelMismatchError,
                     NonConvergenceError, NotInvariantError, WorkbenchError)
from .networks import ConductanceForm, resistance_matrix
from .structure import (GluingScheme, MsStructure, build_structure,
                        glue_copies, level_size, level_vertices,
                        levels_to_json, structure_from_json,
                        structure_to_json)
from .renorm import HarmonicStructure, solve_eigenform
from .relations import (CertificateReport, FlowReport, Partition,
                        RelationWitness, RhoReport, VerdictReport,
                        build_J_plus_minus, enumerate_preserved, is_preserved,
                        per_cell_flows, rho_search, rotation_invariant,
                        sabot_verdict, uniqueness_certificate)
from .gd import (GdCellGraph, GdHarmonicStructure, RELATION_PQ,
                 RELATION_SIDES, build_gd_structure, cell_graph,
                 existence_verdict, gd_solve)
from .reports import claim, form_to_json, render_report
from .cli import main, validate_report_details
