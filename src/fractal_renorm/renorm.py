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
from typing import Callable, ClassVar, Iterator, Optional, Sequence

import numpy as np

from .errors import NonConvergenceError
from .networks import ConductanceForm
from .structure import GluingScheme, MsStructure, level_vertices

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 100_000
# rounding allowance of a traced pair ratio, relative: the ends of the eta
# enclosure were off by <= 7.2 eps against 40-digit arithmetic (nb 3-18)
TRACE_ROUNDING = 64 * float(np.finfo(float).eps)
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

    eta comes from the mass ratio at the fixed point, and eta_bounds is
    the form's enclosure of it (_eta_bounds). residual is
    the relative sup-norm defect of eta*T(form) against form. On a
    rotation-closed boundary the solver works on the rotation orbits of
    the pairs, so a form that a Newton step made is exactly
    rotation-invariant. verify_harmonic_structure checks a form
    independently of how it was solved.
    """

    form: ConductanceForm
    eta: float
    eta_bounds: Optional[tuple[float, float]]
    residual: float
    iterations: int
    normalization: ClassVar[str] = "mass"


def _eta_bounds(scheme: GluingScheme, w: np.ndarray, traced: np.ndarray
                ) -> Optional[tuple[float, float]]:
    """(1/max r, 1/min r) over the ratios r_p = T(w)_p/w_p of traced = T(w)
    to any w, moved out by TRACE_ROUNDING: an enclosure of eta. T is
    monotone in the order of forms and homogeneous, so the extremes of
    E_T(w)(f)/E_w(f), which are means of the r_p, bracket 1/eta (the
    Collatz-Wielandt numbers; Lemmens and Nussbaum, 2012), where a
    positive eigenform exists. None unless every r_p is finite and
    positive."""
    ia, ib = scheme.pairs
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = traced[ia, ib] / w[ia, ib]
    low, high = float(ratios.min()), float(ratios.max())
    if not 0 < low <= high < np.inf:
        return None
    return (1.0 / (high * (1.0 + TRACE_ROUNDING)),
            1.0 / (low * (1.0 - TRACE_ROUNDING)))


@dataclass(frozen=True)
class _Run:
    # the last iterate, its trace and eta, the lowest residual reached, the
    # last step, and the last five (iterate, eta) pairs, oldest first: the
    # error keeps three iterates and gd_solve five etas
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


@dataclass(frozen=True)
class _PairOrbits:
    """The boundary pairs ordered by rotation orbit: ia[k], ib[k] is the
    k-th pair in that order, and orbit o holds the sizes[o] positions
    from starts[o] on. Its first pair (ra[o], rb[o]) stands for it.
    Orbits come in order of their least row-major pair index, and so do
    the pairs within an orbit."""

    ia: np.ndarray
    ib: np.ndarray
    ra: np.ndarray
    rb: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray

    @classmethod
    def build(cls, pairs: tuple[np.ndarray, np.ndarray],
              rotation: Optional[Sequence[int]]) -> "_PairOrbits":
        """Orbits of pairs under the boundary permutation rotation;
        singletons when rotation is None."""
        ia, ib = pairs
        ids = least = np.arange(len(ia))
        if rotation is not None:
            nb = len(rotation)
            pair_id = np.zeros((nb, nb), dtype=np.intp)
            pair_id[ia, ib] = pair_id[ib, ia] = ids
            rot = np.asarray(rotation)
            image = power = pair_id[rot[ia], rot[ib]]
            while (power != ids).any():
                least = np.minimum(least, power)
                power = image[power]
        order = np.argsort(least, kind="stable")
        # a pair opens its orbit when it is the orbit's least pair
        starts = np.flatnonzero(least[order] == order)
        reps = order[starts]
        return cls(ia[order], ib[order], ia[reps], ib[reps], starts,
                   np.bincount(least)[reps])

    def matrix(self, x: np.ndarray, nb: int) -> np.ndarray:
        """The weight matrix with value x[o] on every pair of orbit o."""
        out = np.zeros((nb, nb))
        out[self.ia, self.ib] = np.repeat(x, self.sizes)
        return out + out.T


def _pair_jacobian(scheme: GluingScheme, orbits: _PairOrbits,
                   ext: np.ndarray) -> np.ndarray:
    """dT_q/dx_o at w: the derivative of T at each orbit representative q
    along orbit o's value x_o, which every pair of the orbit carries.
    T is a Schur complement, so with X = scheme.harmonic(w)[1] = ext and
    X_c its rows at copy c, dT_ij/dw_(a,b) = -sum_c D[i]*D[j] where
    D = X_c[a] - X_c[b]; the columns of the pairs of orbit o add up."""
    ia, ib, ra, rb = orbits.ia, orbits.ib, orbits.ra, orbits.rb
    out = np.zeros((len(ra), len(ia)))
    for row in scheme.rows:
        xt = ext[list(row)].T
        diff = xt[:, ia] - xt[:, ib]  # diff[i, p] = D_c[p, i]
        term = np.take(diff, ra, axis=0)
        term *= np.take(diff, rb, axis=0)
        out -= term
    return np.add.reduceat(out, orbits.starts, axis=1)


def _newton_step(scheme: GluingScheme, orbits: _PairOrbits, w: np.ndarray,
                 traced: np.ndarray, ext: np.ndarray,
                 eta: float) -> Optional[np.ndarray]:
    """The Newton iterate of F(x, eta) = (eta*T(w) - w at the orbit
    representatives, sum of the pair weights - 1) from (w, eta), where
    x holds w's orbit values and (traced, ext) = scheme.harmonic(w), by one
    solve of the bordered matrix [[eta*J - I, T(w)], [sizes, 0]]; None
    when it is singular or a weight comes out <= 0."""
    ra, rb = orbits.ra, orbits.rb
    k = len(ra)
    system = np.zeros((k + 1, k + 1))
    system[:k, :k] = eta * _pair_jacobian(scheme, orbits, ext)
    system[np.diag_indices(k)] -= 1.0
    system[:k, k] = traced[ra, rb]
    system[k, :k] = orbits.sizes
    x = w[ra, rb]
    try:
        x = x + np.linalg.solve(system, np.append(
            x - eta * traced[ra, rb], 1.0 - orbits.sizes @ x))[:k]
    except np.linalg.LinAlgError:
        return None
    return orbits.matrix(x, len(w)) if (x > 0).all() else None


def _normalized_iteration(structure, tol: float, max_iter: int,
                          init: Optional[ConductanceForm] = None,
                          newton: bool = True) -> _Run:
    """The loop both solvers share, on iterates w of mass 1 with
    eta = 1/mass(T(w)), until the relative residual of w (the start's too)
    is at most tol or max_iter steps are spent. With newton, a step is the
    _newton_step iterate when there is one and it lowers the residual, and
    one cone_iteration step T(w)/mass(T(w)) otherwise; the loop also stops
    when STALL_STEPS steps in a row bring no new lowest residual. The
    Newton unknowns are the values on the rotation orbits of the pairs,
    or one per pair when the start is not rotation-invariant or the
    structure has no rotation: T commutes with the rotation, so from a
    rotation-invariant start every Newton iterate is exactly invariant.
    Above NEWTON_MAX_PAIRS pairs the loop runs as without newton: no
    Newton system is formed, and the stall stop is off, since cone steps
    may raise the residual for longer than STALL_STEPS. A collapse to the
    zero form, or a trace that rounding spoils (GluingScheme.harmonic's
    LinAlgError), raises NonConvergence at the step it happens.
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
        try:
            traced, ext = scheme.harmonic(w)
        except np.linalg.LinAlgError as exc:
            raise NonConvergenceError(f"step {iteration}: {exc}",
                                      iterations=iteration) from None
        mass = traced.sum() / 2.0
        if not mass > 0:
            return w, traced, ext, np.inf, np.inf
        return (w, traced, ext, 1.0 / mass,
                scheme.residual(w, 1.0 / mass, traced))

    iteration = 0
    w, traced, ext, eta, residual = measured(w / (w.sum() / 2.0))
    newton = newton and len(scheme.pairs[0]) <= NEWTON_MAX_PAIRS
    rotation = structure.rotation
    if rotation is not None and not (w[np.ix_(rotation, rotation)] == w).all():
        rotation = None
    orbits = _PairOrbits.build(scheme.pairs, rotation) if newton else None
    history: deque = deque(maxlen=5)
    lowest, stalled, delta = residual, 0, 0.0
    while eta < np.inf and residual > tol and iteration < max_iter \
            and stalled < STALL_STEPS:
        iteration += 1
        cand = (_newton_step(scheme, orbits, w, traced, ext, eta) if newton
                else None)
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
    under every vertex permutation, hence under the rotation action), so
    Newton runs on one unknown per rotation orbit of the boundary pairs.
    The returned residual, |eta*T(w) - w|max / |w|max with
    eta = 1/mass(T(w)), and eta_bounds are what report validation
    recomputes from the form. Raises
    NonConvergenceError when max_iter steps or a stall end the solve.
    """
    run = _normalized_iteration(structure, tol, max_iter, init)
    if not run.converged:
        raise _no_convergence(structure, run, max_iter, tol)
    return HarmonicStructure(
        form=ConductanceForm.from_matrix(structure.boundary, run.form),
        eta=run.eta,
        eta_bounds=_eta_bounds(structure.scheme, run.form, run.traced),
        residual=run.residual, iterations=run.iterations)


def _copy_defects(scheme: GluingScheme, scheme2: GluingScheme) -> int:
    """Violations of the two identities that make level 2 (scheme2) the
    gluing of copies of level 1 (scheme): the level-2 ids outside
    scheme2.marked that do not lie in exactly one copy, and the (c, v)
    with scheme2.rows[c][scheme.marked[v]] != scheme2.marked[
    scheme.rows[c][v]]. The first makes the interior of level 2 the
    disjoint union of the copies' interiors, the second puts each copy's
    boundary where level 1 includes it."""
    rows2 = np.asarray(scheme2.rows)
    marked2 = np.asarray(scheme2.marked)
    member = np.zeros((len(rows2), scheme2.num_ids), dtype=bool)
    member[np.arange(len(rows2))[:, None], rows2] = True
    copies = member.sum(axis=0)
    interior = np.ones(scheme2.num_ids, dtype=bool)
    interior[marked2] = False
    misplaced = rows2[:, scheme.marked] != marked2[np.asarray(scheme.rows)]
    return int((copies[interior] != 1).sum() + misplaced.sum())


def verify_harmonic_structure(structure: MsStructure, form: ConductanceForm,
                              eta: float, tol: float = DEFAULT_TOL
                              ) -> dict:
    """Independent residual report for a claimed eigenform.

    Checks the eigen equation (to tol), the mass normalization, and the
    locality of harmonic extension across levels: extending level-1 data
    to level 2 and restricting to one copy equals that copy's own
    extension of the same data, for every copy and every form, exactly
    when the level-2 scheme glues the level-1 copies as _copy_defects
    states. copy_consistency is the number of violations of those two
    identities, checked exactly in O(N2) without building level 2's
    network; it is 0.0 when both hold, and ok needs that.
    """
    scheme = structure.scheme
    w0 = _boundary_matrix(structure, form)
    eigen_residual = scheme.residual(w0, eta)
    mass_defect = abs(w0.sum() / 2.0 - 1.0)
    defects = _copy_defects(scheme, level_vertices(structure, 2))
    return {
        "eigen_residual": eigen_residual,
        "mass_defect": mass_defect,
        "copy_consistency": float(defects),
        "ok": bool(eigen_residual <= tol and defects == 0),
    }
