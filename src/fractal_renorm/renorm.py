"""Replication, trace renormalization, and the eigenform fixed point.

The renormalization map T sends a form D on the boundary to the trace of
its level-1 replication back onto the (included) boundary. An eigenform is
a fixed point of the normalized iteration D -> T(D)/mass(T(D)); the
renormalization constant eta is the inverse of the mass ratio at the fixed
point, so that D = eta * T(D).

Normalization convention: total conductance mass equal to 1, one term per
unordered pair.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .angles import Angle
from .errors import NonConvergenceError, NotInvariantError
from .networks import (ConductanceForm, _laplacian, _trace_matrix,
                       harmonic_extension, trace)
from .structure import GluedVertexSet, MsStructure, level_vertices, rotation_action

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 100_000
ETA_AGREEMENT_TOL = 1e-9


def _boundary_matrix(structure: MsStructure, form: ConductanceForm) -> np.ndarray:
    """Weight matrix of a boundary form, reindexed into boundary order."""
    if set(form.vertices) != set(structure.boundary):
        raise ValueError("form vertices do not match the structure boundary")
    mat = form.matrix()
    order = [form.index[a] for a in structure.boundary]
    return mat[np.ix_(order, order)]


def _form_from_boundary_matrix(structure: MsStructure,
                               mat: np.ndarray) -> ConductanceForm:
    return ConductanceForm.from_matrix(structure.boundary, mat)


def _replicate_matrix(lv1: GluedVertexSet, w0: np.ndarray) -> np.ndarray:
    w1 = np.zeros((lv1.num_vertices, lv1.num_vertices))
    for row in lv1.copy_map:
        idx = np.asarray(row)
        w1[np.ix_(idx, idx)] += w0
    return w1


def replicate(structure: MsStructure, form: ConductanceForm) -> ConductanceForm:
    """One copy of the form per cell, on the glued level-1 vertex ids.

    Weights of pairs that get identified by the gluing add up.
    """
    lv1 = level_vertices(structure, 1)
    w1 = _replicate_matrix(lv1, _boundary_matrix(structure, form))
    return ConductanceForm.from_matrix(tuple(range(lv1.num_vertices)), w1)


def renorm_T(structure: MsStructure, form: ConductanceForm) -> ConductanceForm:
    """Trace of the replicated form back onto the included boundary."""
    lv1 = level_vertices(structure, 1)
    w1 = _replicate_matrix(lv1, _boundary_matrix(structure, form))
    traced = _trace_matrix(w1, list(lv1.boundary_ids))
    return _form_from_boundary_matrix(structure, traced)


def symmetrize(structure: MsStructure, form: ConductanceForm) -> ConductanceForm:
    """Average of the form over all rotation pullbacks.

    Requires a rotation-closed boundary; the result is rotation-invariant
    and has the same mass as the input.
    """
    if not structure.rotation_closed:
        raise NotInvariantError("boundary is not rotation-closed; "
                                "build the structure with symmetrize=True")
    w0 = _boundary_matrix(structure, form)
    ring = structure.ctx.ring_size
    acc = np.zeros_like(w0)
    for l in range(ring):
        perm = np.asarray(rotation_action(structure, l))
        mat = np.zeros_like(w0)
        mat[np.ix_(perm, perm)] = w0
        acc += mat
    return _form_from_boundary_matrix(structure, acc / ring)


@dataclass(frozen=True)
class HarmonicStructure:
    """Converged eigenform with its renormalization constant.

    eta comes from the mass ratio at the fixed point; eta_rayleigh is the
    independent Rayleigh-quotient estimate at a probe function. The two
    must agree to ETA_AGREEMENT_TOL, which the solver enforces. residual is
    the relative sup-norm defect of eta*T(form) against form.
    """

    form: ConductanceForm
    eta: float
    eta_rayleigh: float
    residual: float
    iterations: int
    normalization: str = "mass"


def _rayleigh_eta(w_now: np.ndarray, w_traced: np.ndarray) -> float:
    # probe: indicator of the first boundary vertex; generic for our forms
    probe = np.zeros(w_now.shape[0])
    probe[0] = 1.0
    num = probe @ _laplacian(w_now) @ probe
    den = probe @ _laplacian(w_traced) @ probe
    return float(num / den)


def solve_eigenform(structure: MsStructure, *, tol: float = DEFAULT_TOL,
                    max_iter: int = DEFAULT_MAX_ITER,
                    symmetrize_each_step: bool = False,
                    init: Optional[ConductanceForm] = None) -> HarmonicStructure:
    """Run the normalized fixed-point iteration to an eigenform.

    Default initial guess: complete graph with unit weights (invariant
    under every vertex permutation, hence under the rotation action).
    Stops at the first iterate whose relative residual
    |eta*T(w) - w|max / |w|max is at most tol, so the returned residual is
    the one report validation recomputes. Raises NonConvergence with that
    residual and oscillation diagnostics if max_iter steps do not get
    there.
    """
    lv1 = level_vertices(structure, 1)
    bidx = list(lv1.boundary_ids)
    nb = len(structure.boundary)
    if init is not None:
        w = _boundary_matrix(structure, init)
        if w.sum() <= 0:
            raise ValueError("initial form has no positive weights")
    else:
        w = np.ones((nb, nb)) - np.eye(nb)
    if symmetrize_each_step and not structure.rotation_closed:
        raise NotInvariantError("cannot symmetrize: boundary is not "
                                "rotation-closed")
    w = w / (w.sum() / 2.0)

    def traced_of(mat: np.ndarray, iteration: int) -> tuple[np.ndarray, float]:
        traced = _trace_matrix(_replicate_matrix(lv1, mat), bidx)
        tmass = traced.sum() / 2.0
        if tmass <= 0:
            raise NonConvergenceError("iteration collapsed to the zero form",
                                      iterations=iteration)
        return traced, tmass

    history: list[np.ndarray] = []
    delta = residual = np.inf
    traced, tmass = traced_of(w, 0)
    for iteration in range(1, max_iter + 1):
        w_next = traced / tmass
        if symmetrize_each_step:
            form = _form_from_boundary_matrix(structure, w_next)
            w_next = _boundary_matrix(structure, symmetrize(structure, form))
        delta = float(np.abs(w_next - w).max())
        w = w_next
        history.append(w)
        if len(history) > 16:
            history.pop(0)
        traced, tmass = traced_of(w, iteration)
        eta = 1.0 / tmass
        # the same residual that report validation rederives from the form
        residual = float(np.abs(eta * traced - w).max() / np.abs(w).max())
        if residual <= tol:
            eta_rayleigh = _rayleigh_eta(w, traced)
            if abs(eta - eta_rayleigh) > ETA_AGREEMENT_TOL * max(abs(eta), 1.0):
                raise NonConvergenceError(
                    f"eta estimates disagree: mass ratio {eta!r} vs "
                    f"Rayleigh {eta_rayleigh!r}",
                    iterations=iteration, residual=residual)
            return HarmonicStructure(
                form=_form_from_boundary_matrix(structure, w),
                eta=eta, eta_rayleigh=eta_rayleigh,
                residual=residual, iterations=iteration)

    period = None
    for p in range(1, min(8, len(history) - 1) + 1):
        if float(np.abs(history[-1] - history[-1 - p]).max()) <= 1e-9:
            period = p
            break
    last = [_form_from_boundary_matrix(structure, h) for h in history[-3:]]
    raise NonConvergenceError(
        f"no convergence after {max_iter} iterations (residual "
        f"{residual:.3e}, last step {delta:.3e}, tol {tol:.3e})",
        iterations=max_iter, residual=residual, period=period,
        last_iterates=last)


def verify_harmonic_structure(structure: MsStructure, form: ConductanceForm,
                              eta: float, seed: int = 0) -> dict:
    """Independent residual report for a claimed eigenform.

    Checks the eigen equation, the mass normalization, and the locality of
    harmonic extension across levels: extending level-1 data to level 2 and
    restricting to one copy must equal that copy's own extension of the
    same data. The locality check exercises the gluing combinatorics, not
    the particular form.
    """
    w0 = _boundary_matrix(structure, form)
    lv1 = level_vertices(structure, 1)
    bidx = list(lv1.boundary_ids)
    traced = _trace_matrix(_replicate_matrix(lv1, w0), bidx)
    eigen_residual = float(np.abs(eta * traced - w0).max() / np.abs(w0).max())
    mass_defect = abs(w0.sum() / 2.0 - 1.0)

    lv2 = level_vertices(structure, 2)
    w1 = _replicate_matrix(lv1, w0)
    form1 = ConductanceForm.from_matrix(tuple(range(lv1.num_vertices)), w1)
    w2 = _replicate_matrix(lv2, w1)
    form2 = ConductanceForm.from_matrix(tuple(range(lv2.num_vertices)), w2)
    rng = np.random.default_rng(seed)
    probe = rng.standard_normal(lv1.num_vertices)
    global_values = {lv2.inclusion[x]: float(probe[x])
                     for x in range(lv1.num_vertices)}
    ext = harmonic_extension(form2, tuple(global_values), global_values)
    nesting = 0.0
    incl1 = list(lv1.inclusion)
    for j, row in enumerate(lv2.copy_map):
        local_values = {incl1[v]: float(probe[lv1.copy_map[j][v]])
                        for v in range(len(incl1))}
        local = harmonic_extension(form1, tuple(local_values), local_values)
        for u in range(lv1.num_vertices):
            dev = abs(local.values[u] - ext.values[row[u]])
            nesting = max(nesting, dev)
    return {
        "eigen_residual": eigen_residual,
        "mass_defect": mass_defect,
        "copy_consistency": nesting,
        "ok": bool(eigen_residual <= 1e-9 and nesting <= 1e-9),
    }


def restrict_to_subset(structure: MsStructure, hs: HarmonicStructure,
                       subset: Sequence[Angle]) -> ConductanceForm:
    """Trace of the eigenform onto a subset of boundary angles."""
    bad = [a for a in subset if a not in structure.index]
    if bad or len(subset) < 2 or len(set(subset)) != len(tuple(subset)):
        raise ValueError(f"subset invalid: must be >= 2 distinct boundary "
                         f"angles, offending entries {bad!r}")
    return trace(hs.form, tuple(subset))
