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
from .networks import ConductanceForm, _laplacian
from .structure import GluingScheme, MsStructure, level_vertices

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 100_000
ETA_AGREEMENT_TOL = 1e-9
STALL_STEPS = 16  # steps without a new lowest residual that stop a solve
NEWTON_MAX_PAIRS = 2048  # largest pair count with a Newton system (32 MiB)


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
    must agree to ETA_AGREEMENT_TOL, or to the wider disagreement that the
    met residual allows, which the solver enforces. residual is
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


def _eta_slack(w: np.ndarray, residual: float) -> float:
    """Largest |eta_rayleigh - eta|/eta that the residual allows. The
    residual bounds each |eta*T(w)_0j - w_0j| by r*max|w|, so the row-0
    sums S of w and eta*T(w) differ by at most e = (nb-1)*r*max|w|, and
    eta_rayleigh/eta = S/(eta*S_T) lies within e/(S - e) of 1."""
    e = (len(w) - 1) * residual * float(np.abs(w).max())
    row = float(w[0].sum())
    return e / (row - e) if row > e else np.inf


@dataclass(frozen=True)
class _Run:
    # the last iterate, its trace and eta, the lowest residual reached, the
    # last step, and the last few (iterate, eta) pairs, oldest first
    form: np.ndarray
    traced: np.ndarray
    eta: float
    residual: float
    lowest: float
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


def _pair_jacobian(scheme: GluingScheme, ext: np.ndarray,
                   out: np.ndarray) -> np.ndarray:
    """Add dT_q/dw_p at w into out[q, p], over scheme.pairs, and return
    out. T is a Schur complement, so with X = scheme.harmonic(w)[1] = ext
    and X_c its rows at copy c, dT_ij/dw_(a,b) = -sum_c D[i]*D[j] where
    D = X_c[a] - X_c[b]."""
    ia, ib = scheme.pairs
    for row in scheme.rows:
        xt = ext[list(row)].T
        diff = xt[:, ia] - xt[:, ib]  # diff[i, p] = D_c[p, i]
        term = np.take(diff, ia, axis=0)
        term *= np.take(diff, ib, axis=0)
        out -= term
    return out


def _newton_step(scheme: GluingScheme, w: np.ndarray, traced: np.ndarray,
                 ext: np.ndarray, eta: float) -> Optional[np.ndarray]:
    """The Newton iterate of F(w, eta) = (eta*T(w) - w on the pairs,
    sum of the pair weights - 1) from (w, eta), where (traced, ext) =
    scheme.harmonic(w), by one solve of the bordered matrix [[eta*J - I,
    T(w)], [1, 0]]; None when it is singular or a weight comes out <= 0."""
    ia, ib = scheme.pairs
    npairs = len(ia)
    system = np.zeros((npairs + 1, npairs + 1))
    jac = _pair_jacobian(scheme, ext, system[:npairs, :npairs])
    jac *= eta
    jac[np.diag_indices(npairs)] -= 1.0
    system[:npairs, npairs] = traced[ia, ib]
    system[npairs, :npairs] = 1.0
    x = w[ia, ib]
    try:
        x = x + np.linalg.solve(system, np.append(x - eta * traced[ia, ib],
                                                  1.0 - x.sum()))[:npairs]
    except np.linalg.LinAlgError:
        return None
    out = np.zeros_like(w)
    out[ia, ib] = x
    return out + out.T if (x > 0).all() else None


def _normalized_iteration(structure, tol: float, max_iter: int,
                          init: Optional[ConductanceForm] = None,
                          newton: bool = True) -> _Run:
    """The loop both solvers share, on iterates w of mass 1 with
    eta = 1/mass(T(w)), until the relative residual of w (the start's too)
    is at most tol or max_iter steps are spent. With newton, a step is the
    _newton_step iterate when there is one and it lowers the residual, and
    one cone_iteration step T(w)/mass(T(w)) otherwise; the loop also stops
    when STALL_STEPS steps in a row bring no new lowest residual. Above
    NEWTON_MAX_PAIRS pairs the loop runs as without newton: no Newton
    system is formed, and the stall stop is off, since cone steps may
    raise the residual for longer than STALL_STEPS.
    """
    if max_iter < 0:
        raise ValueError(f"max_iter must be nonnegative, got {max_iter}")
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    scheme = structure.scheme
    if init is not None:
        w = _boundary_matrix(structure, init)
        if w.sum() <= 0:
            raise ValueError("initial form has no positive weights")
    else:
        w = 1.0 - np.eye(len(structure.boundary))

    def measured(w):
        # w, scheme.harmonic(w), eta and the residual; inf at mass 0
        traced, ext = scheme.harmonic(w)
        mass = traced.sum() / 2.0
        if not mass > 0:
            return w, traced, ext, np.inf, np.inf
        return (w, traced, ext, 1.0 / mass,
                scheme.residual(w, 1.0 / mass, traced))

    w, traced, ext, eta, residual = measured(w / (w.sum() / 2.0))
    newton = newton and len(scheme.pairs[0]) <= NEWTON_MAX_PAIRS
    history: deque = deque(maxlen=16)
    lowest, stalled, delta, iteration = residual, 0, 0.0, 0
    while eta < np.inf and residual > tol and iteration < max_iter \
            and stalled < STALL_STEPS:
        iteration += 1
        cand = _newton_step(scheme, w, traced, ext, eta) if newton else None
        step = None if cand is None else measured(cand)
        if step is None or not step[4] < residual:
            step = measured(traced / (traced.sum() / 2.0))
        delta = float(np.abs(step[0] - w).max())
        w, traced, ext, eta, residual = step
        history.append((w, eta))
        if residual < lowest:
            lowest, stalled = residual, 0
        elif newton:
            stalled += 1
    if eta == np.inf:
        raise NonConvergenceError("iteration collapsed to the zero form",
                                  iterations=iteration)
    return _Run(form=w, traced=traced, eta=eta, residual=residual,
                lowest=lowest, step=delta, iterations=iteration,
                converged=residual <= tol, history=tuple(history))


def _no_convergence(structure, run: _Run, max_iter: int,
                    tol: float) -> NonConvergenceError:
    """The error of a run that did not converge: it names the lowest
    residual reached and carries the last three iterates. A cycle of
    iterates brings no new lowest residual, so the stall stop ends it."""
    why = (f"budget of {max_iter} spent" if run.iterations == max_iter
           else f"{STALL_STEPS} steps without a new lowest residual")
    return NonConvergenceError(
        f"no convergence after {run.iterations} iterations ({why}; "
        f"lowest residual {run.lowest:.3e}, last step {run.step:.3e}, "
        f"tol {tol:.3e})",
        iterations=run.iterations, residual=run.lowest,
        last_iterates=[ConductanceForm.from_matrix(structure.boundary, h)
                       for h, _ in run.history[-3:]])


def solve_eigenform(structure, *, tol: float = DEFAULT_TOL,
                    max_iter: int = DEFAULT_MAX_ITER,
                    init: Optional[ConductanceForm] = None) -> HarmonicStructure:
    """Solve eta*T(w) = w with mass(w) = 1 by Newton on (w, eta).

    Default initial guess: complete graph with unit weights (invariant
    under every vertex permutation, hence under the rotation action).
    The returned residual, |eta*T(w) - w|max / |w|max with
    eta = 1/mass(T(w)), is the one report validation recomputes. Raises
    NonConvergenceError when max_iter steps or a stall end the solve.
    """
    run = _normalized_iteration(structure, tol, max_iter, init)
    if not run.converged:
        raise _no_convergence(structure, run, max_iter, tol)
    eta_rayleigh = _rayleigh_eta(run.form, run.traced)
    if abs(run.eta - eta_rayleigh) > max(
            ETA_AGREEMENT_TOL * max(run.eta, 1.0),
            _eta_slack(run.form, run.residual) * run.eta):
        raise NonConvergenceError(
            f"eta estimates disagree: mass ratio {float(run.eta)!r} vs "
            f"Rayleigh {float(eta_rayleigh)!r}",
            iterations=run.iterations, residual=run.residual)
    return HarmonicStructure(
        form=ConductanceForm.from_matrix(structure.boundary, run.form),
        eta=run.eta, eta_rayleigh=eta_rayleigh,
        residual=run.residual, iterations=run.iterations)


def verify_harmonic_structure(structure: MsStructure, form: ConductanceForm,
                              eta: float) -> dict:
    """Independent residual report for a claimed eigenform.

    Checks the eigen equation, the mass normalization, and the locality of
    harmonic extension across levels: extending random level-1 data to
    level 2 and restricting to one copy must equal that copy's own
    extension of the same data, for every copy (copy_consistency is the
    largest deviation). Both extensions are the X of the gluing schemes'
    harmonic kernel, the one traces come from. The locality check
    exercises the gluing combinatorics, not the particular form.
    """
    scheme = structure.scheme
    w0 = _boundary_matrix(structure, form)
    eigen_residual = scheme.residual(w0, eta)
    mass_defect = abs(w0.sum() / 2.0 - 1.0)

    scheme2 = level_vertices(structure, 2)
    probe = np.random.default_rng(0).standard_normal(scheme.num_ids)
    # level 2 from the probe on its included level-1 ids; each level-1
    # copy from the probe at that copy's images of the marked vertices
    ext2 = scheme2.harmonic(scheme.assemble(w0))[1] @ probe
    local = scheme.harmonic(w0)[1] @ probe[np.asarray(scheme.rows)].T
    nesting = float(np.abs(local - ext2[np.asarray(scheme2.rows)].T).max())
    return {
        "eigen_residual": eigen_residual,
        "mass_defect": mass_defect,
        "copy_consistency": nesting,
        "ok": bool(eigen_residual <= 1e-9 and nesting <= 1e-9),
    }
