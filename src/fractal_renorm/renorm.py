"""Trace renormalization and the eigenform fixed point.

The renormalization map T sends a form D on the boundary to the trace of
its glued copies back onto the marked copy of the boundary. An eigenform
is a fixed point of the normalized iteration D -> T(D)/mass(T(D)); the
renormalization constant eta is the inverse of the mass ratio at the fixed
point, so that D = eta * T(D). cone_iteration runs that loop for any
operator on weight matrices, as the relation sides of relations.py do.

Everything here reads only a structure's boundary, index and gluing
scheme, so the same functions serve an MsStructure (its level-1 set) and
a graph-directed cell from gd.cell_graph (its subdivided cell).

Normalization convention: total conductance mass equal to 1, one term per
unordered pair.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .errors import NonConvergenceError
from .networks import ConductanceForm, _extension_matrix, _laplacian
from .structure import GluingScheme, MsStructure, level_vertices

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 100_000
ETA_AGREEMENT_TOL = 1e-9


def _boundary_matrix(structure, form: ConductanceForm) -> np.ndarray:
    """Weight matrix of a boundary form, reindexed into boundary order."""
    if set(form.vertices) != set(structure.boundary):
        raise ValueError("form vertices do not match the structure boundary")
    order = [form.index[a] for a in structure.boundary]
    return form.matrix()[np.ix_(order, order)]


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


def cone_iteration(op: Callable[[np.ndarray], np.ndarray], w: np.ndarray
                   ) -> Iterator[tuple[np.ndarray, np.ndarray, float]]:
    """Yield (w_k, op(w_k), mass_k) along w_{k+1} = op(w_k)/mass_k from
    w_0 = w, where mass_k is the total weight of op(w_k). w_{k+1} is formed
    only when asked for, so a consumer can stop on a zero mass."""
    while True:
        image = op(w)
        mass = image.sum() / 2.0
        yield w, image, mass
        w = image / mass


def _normalized_iteration(structure, tol: float, max_iter: int,
                          init: Optional[ConductanceForm] = None) -> _Run:
    """The iteration both solvers share: D -> T(D)/mass(T(D)), one trace
    per step, until the relative residual is at most tol or max_iter steps
    are spent. The start (step 0) is traced but not tested."""
    if max_iter < 0:
        raise ValueError(f"max_iter must be nonnegative, got {max_iter}")
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    scheme = structure.scheme
    nb = len(structure.boundary)
    if init is not None:
        w = _boundary_matrix(structure, init)
        if w.sum() <= 0:
            raise ValueError("initial form has no positive weights")
    else:
        w = np.ones((nb, nb)) - np.eye(nb)
    w = w / (w.sum() / 2.0)

    history: deque = deque(maxlen=16)
    delta, residual, previous = np.inf, np.inf, w
    for iteration, (w, traced, tmass) in zip(range(max_iter + 1),
                                             cone_iteration(scheme.T, w)):
        if tmass <= 0:
            raise NonConvergenceError("iteration collapsed to the zero form",
                                      iterations=iteration)
        eta = 1.0 / tmass
        if iteration:
            delta = float(np.abs(w - previous).max())
            residual = scheme.residual(w, eta, traced)
            history.append((w, eta))
            if residual <= tol:
                break
        previous = w
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
            form=ConductanceForm.from_matrix(structure.boundary, run.form),
            eta=run.eta, eta_rayleigh=eta_rayleigh,
            residual=run.residual, iterations=run.iterations)

    history = [w for w, _ in run.history]
    period = None
    for p in range(1, min(8, len(history) - 1) + 1):
        if float(np.abs(history[-1] - history[-1 - p]).max()) <= 1e-9:
            period = p
            break
    last = [ConductanceForm.from_matrix(structure.boundary, h)
            for h in history[-3:]]
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
