"""Replication, trace renormalization, and the eigenform fixed point.

The renormalization map T sends a form D on the boundary to the trace of
its glued copies back onto the marked copy of the boundary. An eigenform
is a fixed point of the normalized iteration D -> T(D)/mass(T(D)); the
renormalization constant eta is the inverse of the mass ratio at the fixed
point, so that D = eta * T(D).

Everything here reads only a structure's boundary, index and gluing
scheme, so the same functions serve an MsStructure (its level-1 set) and
a graph-directed cell from gd.cell_graph (its subdivided cell).

Normalization convention: total conductance mass equal to 1, one term per
unordered pair.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .angles import Angle
from .errors import NonConvergenceError, NotInvariantError
from .networks import (ConductanceForm, _extension_matrix, _laplacian,
                       trace)
from .structure import (GluingScheme, MsStructure, level_vertices,
                        rotation_action)

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 100_000
ETA_AGREEMENT_TOL = 1e-9


def _boundary_matrix(structure, form: ConductanceForm) -> np.ndarray:
    """Weight matrix of a boundary form, reindexed into boundary order."""
    if set(form.vertices) != set(structure.boundary):
        raise ValueError("form vertices do not match the structure boundary")
    mat = form.matrix()
    order = [form.index[a] for a in structure.boundary]
    return mat[np.ix_(order, order)]


def _form_from_boundary_matrix(structure, mat: np.ndarray) -> ConductanceForm:
    return ConductanceForm.from_matrix(structure.boundary, mat)


def replicate(structure, form: ConductanceForm) -> ConductanceForm:
    """One copy of the form per cell, on the glued level-1 vertex ids.

    Weights of pairs that get identified by the gluing add up.
    """
    scheme = structure.scheme
    return ConductanceForm.from_matrix(
        tuple(range(scheme.num_ids)),
        scheme.assemble(_boundary_matrix(structure, form)))


def renorm_T(structure, form: ConductanceForm) -> ConductanceForm:
    """Trace of the replicated form back onto the included boundary."""
    return _form_from_boundary_matrix(
        structure, structure.scheme.T(_boundary_matrix(structure, form)))


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


@dataclass(frozen=True)
class _Run:
    # the last iterate, its trace and eta, the last step, and the last few
    # (iterate, eta) pairs, oldest first
    form: np.ndarray
    traced: np.ndarray
    eta: float
    residual: float
    step: float
    iterations: int
    converged: bool
    history: tuple[tuple[np.ndarray, float], ...]


def _normalized_iteration(structure, tol: float, max_iter: int,
                          init: Optional[ConductanceForm] = None) -> _Run:
    """The iteration both solvers share: D -> T(D)/mass(T(D)), one trace
    per step, until the relative residual is at most tol or max_iter steps
    are spent."""
    scheme = structure.scheme
    nb = len(structure.boundary)
    if init is not None:
        w = _boundary_matrix(structure, init)
        if w.sum() <= 0:
            raise ValueError("initial form has no positive weights")
    else:
        w = np.ones((nb, nb)) - np.eye(nb)
    w = w / (w.sum() / 2.0)

    def traced_of(mat: np.ndarray, iteration: int) -> tuple[np.ndarray, float]:
        traced = scheme.T(mat)
        tmass = traced.sum() / 2.0
        if tmass <= 0:
            raise NonConvergenceError("iteration collapsed to the zero form",
                                      iterations=iteration)
        return traced, tmass

    history: deque = deque(maxlen=16)
    traced, tmass = traced_of(w, 0)
    eta, delta, residual, iteration = 1.0 / tmass, np.inf, np.inf, 0
    for iteration in range(1, max_iter + 1):
        w_next = traced / tmass
        delta = float(np.abs(w_next - w).max())
        w = w_next
        traced, tmass = traced_of(w, iteration)
        eta = 1.0 / tmass
        residual = scheme.residual(w, eta, traced)
        history.append((w, eta))
        if residual <= tol:
            break
    return _Run(form=w, traced=traced, eta=eta, residual=residual,
                step=delta, iterations=iteration, converged=residual <= tol,
                history=tuple(history))


def solve_eigenform(structure, *, tol: float = DEFAULT_TOL,
                    max_iter: int = DEFAULT_MAX_ITER,
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
    run = _normalized_iteration(structure, tol, max_iter, init)
    if run.converged:
        eta_rayleigh = _rayleigh_eta(run.form, run.traced)
        if abs(run.eta - eta_rayleigh) > \
                ETA_AGREEMENT_TOL * max(abs(run.eta), 1.0):
            raise NonConvergenceError(
                f"eta estimates disagree: mass ratio {run.eta!r} vs "
                f"Rayleigh {eta_rayleigh!r}",
                iterations=run.iterations, residual=run.residual)
        return HarmonicStructure(
            form=_form_from_boundary_matrix(structure, run.form),
            eta=run.eta, eta_rayleigh=eta_rayleigh,
            residual=run.residual, iterations=run.iterations)

    history = [w for w, _ in run.history]
    period = None
    for p in range(1, min(8, len(history) - 1) + 1):
        if float(np.abs(history[-1] - history[-1 - p]).max()) <= 1e-9:
            period = p
            break
    last = [_form_from_boundary_matrix(structure, h) for h in history[-3:]]
    raise NonConvergenceError(
        f"no convergence after {max_iter} iterations (residual "
        f"{run.residual:.3e}, last step {run.step:.3e}, tol {tol:.3e})",
        iterations=max_iter, residual=run.residual, period=period,
        last_iterates=last)


def verify_harmonic_structure(structure: MsStructure, form: ConductanceForm,
                              eta: float, seed: int = 0) -> dict:
    """Independent residual report for a claimed eigenform.

    Checks the eigen equation, the mass normalization, and the locality of
    harmonic extension across levels: extending random level-1 data to
    level 2 and restricting to one copy must equal that copy's own
    extension of the same data, for every copy (copy_consistency is the
    largest deviation). Both extensions solve with the interior blocks of
    the assembled weight matrices, as traces do. The locality check
    exercises the gluing combinatorics, not the particular form.
    """
    scheme = structure.scheme
    w0 = _boundary_matrix(structure, form)
    eigen_residual = scheme.residual(w0, eta)
    mass_defect = abs(w0.sum() / 2.0 - 1.0)

    scheme2 = GluingScheme.of_level(level_vertices(structure, 2))
    w1 = scheme.assemble(w0)
    probe = np.random.default_rng(seed).standard_normal(scheme.num_ids)
    # level 2 from the probe on its included level-1 ids; each level-1
    # copy from the probe at that copy's images of the marked vertices
    ext2 = _extension_matrix(scheme2.assemble(w1), scheme2.split, probe)
    local = _extension_matrix(w1, scheme.split,
                              probe[np.asarray(scheme.rows)].T)
    nesting = float(np.abs(local - ext2[np.asarray(scheme2.rows)].T).max())
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
