"""Conley-Zehnder index of symplectic paths by crossing counting.

The index of a path Gamma: [0,1] -> Sp(2n) with Gamma(0) = I is counted
from its crossings, the times with det(Gamma(t) - I) = 0.  At a crossing,
Q_t is the crossing form Q_t(v) = omega(v, Gamma'(t) v) restricted to
ker(Gamma(t) - I), and sign() is its signature.  The sign is calibrated
so that t -> exp(2 pi J t) in Sp(2) has index +1.

A singular endpoint gets the largest lower semicontinuous extension, the
limit eps -> 0+ of the index of the path times the backward rotation ramp
exp(-eps t J).  When every crossing form is non-degenerate (the crossings
are regular), this is the Robbin-Salamon index minus
dim ker(Gamma(1) - I) / 2:

    ind = sign(Q_0)/2  +  sum over interior crossings of sign(Q_t)  -  n_-(Q_1),

where n_-(Q_1) is the negative inertia of the form on ker(Gamma(1) - I),
0 on a non-singular endpoint (Robbin-Salamon, The Maslov index for paths,
Topology 32 (1993); Long, Index Theory for Symplectic Paths (2002)).
`cz_index` counts every path so.  The eps ladder, which scans the rotated
paths at eps = 3e-3, 1e-3, 1e-4, 1e-5 and accepts two consecutive equal
values, is the fallback for a degenerate form (at t = 0, inside or at the
endpoint) and for an unstable endpoint kernel.

Crossings are found on a uniform grid of DEFAULT_GRID cells.  Array masks
over the grid bracket the sign changes of det(Gamma - I) and the local
minima, below DIP_LEVEL, of the smallest singular value of Gamma - I
(touching zeros, where det does not change sign).  All brackets of a grid
are then refined together: a batched Illinois regula falsi on det for the
sign changes, and a batched bracket zoom plus a parabola polish on the
squared singular value for the dips, so each step is one evaluation of the
path at many times.  A neighborhood the grid cannot resolve is rescanned on
a finer local grid.  On a singular endpoint the endpoint's own dip can
mask a crossing a few cells before t = 1: while Gamma(1) - I has a singular
value above the kernel tolerance but below |Gamma'(1)| * 4 cells, the last
3 cells are rescanned on a finer grid.

Each refined candidate's kernel ker(Gamma(t) - I) is decided once and kept
as (t, dim, basis); inside (1e-9, 1] time alone never merges or drops one.
Two candidates are one crossing only when they lie within 1e-8 and one
kernel contains the other (the larger is kept), so two blocks that cross
1e-9 apart count twice.  Within 1e-8 of t = 1 a candidate is the endpoint
crossing, the n_-(Q_1) term, only when its kernel lies in ker(Gamma(1) - I).

Each path is evaluated once on the grid, whose size DEFAULT_GRID is read
when the path's grid is first built.  Gamma and the singular values of
Gamma - I on the grid are kept on the path (one `_Scan`) with the scan's
crossings, and `cz_index`, `crossing_records` and `morse_index_from_path`
share them; the Morse index checks that the path is not singular on a
positive fraction of the grid before it scans.  A path that moves
MAX_GRID_STEP or more per cell (largest column norm of Gamma(t_{i+1}) -
Gamma(t_i)) could pass a crossing between grid points and is refused with
UnresolvedCrossingError.  The kernel of Gamma(1) - I is decided once per
path, from Gamma(1) alone, for the candidate filter, the endpoint term and
`cz_nullity` alike; an unstable kernel sends `cz_index` to the eps ladder,
and `cz_nullity` counts it at TOL_KER with a warning.  An eps-ladder rung
is the product path R(-eps t) Gamma(t), scanned on its own grid like any
other.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .symplectic import SymplecticPath, path_product, rotation_path, standard_J

DEFAULT_GRID = 2048
TOL_KER = 1e-8
# crossing accepted when the refined smallest singular value drops below this
TOL_CROSS = 1e-7
EPS_SEQUENCE = (3e-3, 1e-3, 1e-4, 1e-5)
MAX_REFINE_DEPTH = 5
# sign-change zeros are bracketed to this width (brentq's xtol)
XTOL_ROOT = 1e-14
# dip zoom: samples per bracket and level, and the bracket width it stops at
ZOOM_POINTS = 15
ZOOM_TOL = 1e-9
# a grid value of s_min(Gamma - I) below this brackets a dip
DIP_LEVEL = 0.2
# largest column norm of Gamma(t_{i+1}) - Gamma(t_i) a grid can resolve
MAX_GRID_STEP = 2.0 * DIP_LEVEL
# one kernel contains another when the sine of every principal angle is below
# this; kernels of one crossing found twice agree to 3e-11 on the test paths,
# and crossings of different blocks have orthogonal kernels
TOL_SPAN = 1e-3
# a crossing form is degenerate when an eigenvalue is below this times the
# largest in modulus
TOL_FORM = 1e-4
# eigenvalues within this (relative) of the real axis or of 1, for `parity`
TOL_EIG = 1e-8


class UnresolvedCrossingError(RuntimeError):
    """Crossing structure could not be resolved at the requested refinement."""

    def __init__(self, message: str, interval: tuple[float, float] | None = None):
        super().__init__(message)
        self.interval = interval


class DegenerateCrossingError(RuntimeError):
    """A crossing form is singular on the kernel; path needs perturbation."""


@dataclass(frozen=True)
class CrossingRecord:
    time: float
    kernel_dim: int
    signature: int


@dataclass
class _Scan:
    """What the crossing counter has decided on one path, each part once.

    mats holds Gamma(t_i) on the top-level grid t_i = i / DEFAULT_GRID and
    svals the singular values of Gamma(t_i) - I, in descending order; both
    are filled by `_grid`.  candidates, the crossings (t, dim, basis), is
    filled by `_candidate_times`, and endpoint, the `_kernel_split` of
    Gamma(1), by `_endpoint_split`, which needs no grid.
    """

    mats: np.ndarray | None = None
    svals: np.ndarray | None = None
    candidates: tuple | None = None
    endpoint: tuple | None = None


def _scan(path: SymplecticPath) -> _Scan:
    if path._scan is None:
        object.__setattr__(path, "_scan", _Scan())  # a cache on the frozen path
    return path._scan


def _grid_values(path: SymplecticPath, ts: np.ndarray):
    """Gamma and the singular values of Gamma - I at the times ts."""
    mats = path.evaluate_batch(ts)
    return mats, np.linalg.svd(mats - np.eye(path.dim), compute_uv=False)


def _smallest_svals(path: SymplecticPath, ts: np.ndarray) -> np.ndarray:
    if not len(ts):
        return np.empty(0)
    return _grid_values(path, ts)[1][:, -1]


def _grid(path: SymplecticPath) -> _Scan:
    """The path's scan with its top-level grid, evaluated once.

    Refuses a path that moves MAX_GRID_STEP or more per cell: a crossing is
    seen only where some grid value of s_min(Gamma - I) falls below
    DIP_LEVEL, and a rotation that turns a chord of 2 * DIP_LEVEL per cell
    can pass a crossing between two grid points.  The step is the largest
    column norm of Gamma(t_{i+1}) - Gamma(t_i): at most the spectral norm,
    and equal to it on rotation blocks.
    """
    g = _scan(path)
    if g.mats is None:
        mats, svals = _grid_values(path, np.linspace(0.0, 1.0, DEFAULT_GRID + 1))
        d = mats[1:] - mats[:-1]
        step = float(np.sqrt(np.einsum("tij,tij->tj", d, d).max()))
        if step >= MAX_GRID_STEP:
            raise UnresolvedCrossingError(
                f"path moves {step:.3g} per grid cell (limit {MAX_GRID_STEP}); "
                f"a grid of {DEFAULT_GRID} cells cannot resolve its crossings",
                interval=(0.0, 1.0),
            )
        g.mats, g.svals = mats, svals
    return g


def _refine_sign_changes(path, lo, hi, f_lo, f_hi):
    """Zeros of det(Gamma - I) in sign-change brackets, all brackets at once.

    Illinois regula falsi: an end kept twice in a row has its value halved,
    and a step that fails to halve its bracket is followed by a bisection,
    so every bracket shrinks at least geometrically to XTOL_ROOT.
    """
    eye = np.eye(path.dim)
    lo, hi, f_lo, f_hi = (np.array(v, dtype=float) for v in (lo, hi, f_lo, f_hi))
    kept = np.zeros(len(lo))  # end kept by the last step: -1 lo, +1 hi
    bisect = np.zeros(len(lo), dtype=bool)
    while True:
        k = np.flatnonzero(hi - lo > XTOL_ROOT)
        if not len(k):
            return 0.5 * (lo + hi)
        a, b, fa, fb = lo[k], hi[k], f_lo[k], f_hi[k]
        x = np.where(bisect[k], 0.5 * (a + b), np.clip((a * fb - b * fa) / (fb - fa), a, b))
        fx = np.linalg.det(path.evaluate_batch(x) - eye)
        right = np.sign(fx) == np.sign(fa)  # the zero lies in [x, b]
        fb = np.where(right & (kept[k] > 0), 0.5 * fb, fb)
        fa = np.where(~right & (kept[k] < 0), 0.5 * fa, fa)
        lo[k], f_lo[k] = np.where(right, x, a), np.where(right, fx, fa)
        hi[k], f_hi[k] = np.where(right, b, x), np.where(right, fb, fx)
        kept[k] = np.where(right, 1.0, -1.0)
        exact = fx == 0.0
        lo[k[exact]] = hi[k[exact]] = x[exact]
        bisect[k] = hi[k] - lo[k] > 0.5 * (b - a)


def _refine_dips(path, lo, hi, s_lo, s_hi):
    """Minima of the smallest singular value s(t) on brackets [lo, hi].

    All brackets zoom at once: each level samples ZOOM_POINTS interior
    points and keeps the two cells around the smallest sample, until the
    bracket is narrower than ZOOM_TOL.  s(t) is V-shaped or parabolic at a
    touching zero, so the vertex is then polished on s(t)^2, shrinking the
    sampling step until all three samples sit on one smooth branch (a
    nearby second crossing bends the profile).
    """
    a0, b0 = np.array(lo, dtype=float), np.array(hi, dtype=float)
    lo, hi = a0.copy(), b0.copy()
    s_lo, s_hi = np.array(s_lo, dtype=float), np.array(s_hi, dtype=float)
    t_star = np.where(s_lo <= s_hi, lo, hi)
    s_star = np.minimum(s_lo, s_hi)
    frac = np.arange(1, ZOOM_POINTS + 1) / (ZOOM_POINTS + 1)
    while True:
        k = np.flatnonzero(hi - lo > ZOOM_TOL)
        if not len(k):
            break
        inner = lo[k, None] + (hi[k] - lo[k])[:, None] * frac
        ts = np.column_stack([lo[k], inner, hi[k]])
        s_inner = _smallest_svals(path, inner.ravel()).reshape(inner.shape)
        ss = np.column_stack([s_lo[k], s_inner, s_hi[k]])
        j = np.argmin(ss, axis=1)
        r = np.arange(len(k))
        jl, jh = np.maximum(j - 1, 0), np.minimum(j + 1, ZOOM_POINTS + 1)
        lo[k], hi[k], s_lo[k], s_hi[k] = ts[r, jl], ts[r, jh], ss[r, jl], ss[r, jh]
        t_star[k], s_star[k] = ts[r, j], ss[r, j]

    h = np.minimum(1e-6, 0.25 * (b0 - a0))
    margin = b0 - a0  # a crossing may sit one bracket-width outside
    for _ in range(8):
        lo, hi = t_star - h, t_star + h
        k = np.flatnonzero((h >= 1e-13) & (lo > a0 - margin) & (hi < b0 + margin))
        s2 = _smallest_svals(path, np.concatenate([lo[k], hi[k]])) ** 2
        s_m, s_p, s_0 = s2[: len(k)], s2[len(k) :], s_star[k] ** 2
        denom = s_p - 2.0 * s_0 + s_m
        with np.errstate(divide="ignore", invalid="ignore"):
            t_new = t_star[k] - 0.5 * h[k] * (s_p - s_m) / denom
        # reject vertex estimates that leave the bracket neighborhood
        # (branch mixing can corrupt the fit)
        fit = (denom > 0) & (a0[k] - margin[k] < t_new) & (t_new < b0[k] + margin[k])
        k, t_new = k[fit], t_new[fit]
        s_new = _smallest_svals(path, t_new)
        better = s_new < s_star[k]
        t_star[k[better]], s_star[k[better]] = t_new[better], s_new[better]
        h = h * 0.1
    return t_star, s_star


def _masks_companion(svals, s_resid, speed, cell) -> bool:
    """Whether a crossing may hide a companion the grid has not separated.

    A companion crossing masked by this one's dip (the backward-rotation
    perturbation splits coincident block crossings by O(eps)) leaves a
    singular value of size |Gamma'| * distance; anything above the kernel
    tolerance but below |Gamma'| * 4 cells therefore flags a neighborhood
    that the current resolution cannot have separated.  svals are the
    singular values of Gamma(t) - I at the crossing and speed is |Gamma'(t)|.
    """
    tol_k = max(TOL_KER * max(1.0, svals[0]), 3.0 * s_resid)
    return bool(np.any((svals > tol_k) & (svals < speed * 4.0 * cell)))


def _push_candidate(path, t, s_resid, svals, speed, a, b, points, depth, out):
    """Accept a refined crossing, or split its neighborhood further.

    A crossing that may mask a companion (`_masks_companion`) has its
    neighborhood rescanned on a finer local grid.
    """
    cell = (b - a) / points
    banded = _masks_companion(svals, s_resid, speed, cell)
    # a masked companion sits within ~3 parent cells; the child window is
    # clamped to [0, 1] only, since a polished crossing may sit just outside
    # its parent interval
    w = 3.0 * cell
    lo, hi = max(0.0, t - w), min(1.0, t + w)
    if banded and depth < MAX_REFINE_DEPTH and w > 1e-9 and hi - lo > 1e-11:
        n_before = len(out)
        ts = np.linspace(lo, hi, 257)
        mats, svals = _grid_values(path, ts)
        _scan_interval(path, ts, mats, svals[:, -1], depth + 1, out)
        found_self = any(abs(tc - t) <= w for tc, _ in out[n_before:])
        if not found_self:
            out.append((t, s_resid))  # child scan lost it; keep the parent
    else:
        out.append((t, s_resid))


def _scan_interval(path, ts, mats, smin, depth, out):
    """Find crossings of det(Gamma - I) on the grid ts at its resolution.

    mats holds Gamma(ts) and smin the smallest singular values of
    Gamma(ts) - I.  Brackets come from array masks over the grid.  Sign
    changes of det are refined together by `_refine_sign_changes`; touching
    zeros (the det of a rotation block is >= 0) are caught as local minima
    of the smallest singular value and refined together by `_refine_dips`.
    Dips hiding inside the first/last cell are checked explicitly.
    """
    points = len(ts) - 1
    dets = np.linalg.det(mats - np.eye(path.dim))

    sign = np.sign(dets)
    i = np.flatnonzero((sign[:-1] != 0.0) & (sign[:-1] * sign[1:] < 0))
    roots = _refine_sign_changes(path, ts[i], ts[i + 1], dets[i], dets[i + 1])

    mid = smin[1:-1]
    j = 1 + np.flatnonzero((mid <= smin[:-2]) & (mid <= smin[2:]) & (mid < DIP_LEVEL))
    # dips inside the edge cells (monotone samples hide them from the
    # local-minimum detector)
    edges = np.array(
        [c for c in (0, points - 1) if min(smin[c], smin[c + 1]) < DIP_LEVEL], dtype=int
    )
    lo = np.concatenate([j - 1, edges])
    hi = np.concatenate([j + 1, edges + 1])
    t_dip, s_dip = _refine_dips(path, ts[lo], ts[hi], smin[lo], smin[hi])
    accept = s_dip < TOL_CROSS
    accept[len(j) :] &= s_dip[len(j) :] < 0.5 * np.minimum(smin[edges], smin[edges + 1])

    cand_t = np.concatenate([roots, t_dip[accept]])
    cand_s = np.concatenate([np.zeros(len(roots)), s_dip[accept]])
    if len(cand_t):
        svals = _grid_values(path, cand_t)[1]
        speeds = np.linalg.norm(_path_derivative(path, cand_t), 2, axis=(1, 2))
        for t, s, sv, v in zip(cand_t, cand_s, svals, speeds):
            _push_candidate(path, float(t), float(s), sv, v, ts[0], ts[-1], points, depth, out)


def _resolve_endpoint(path, svals, out):
    """Rescan the last cells while the endpoint crossing may mask a companion.

    The endpoint's own dip hides a crossing a few cells before t = 1 from
    the grid.  While `_masks_companion` fires at t = 1 (svals are the
    singular values of Gamma(1) - I), [1 - 3 cells, 1] is scanned on 257
    points, each level with a finer cell, up to MAX_REFINE_DEPTH levels.
    """
    speed = float(np.linalg.norm(_path_derivative(path, np.array([1.0]))[0], 2))
    cell = 1.0 / DEFAULT_GRID
    for depth in range(1, MAX_REFINE_DEPTH + 1):
        if not _masks_companion(svals, 0.0, speed, cell):
            return
        ts = np.linspace(1.0 - 3.0 * cell, 1.0, 257)
        mats, sv = _grid_values(path, ts)
        _scan_interval(path, ts, mats, sv[:, -1], depth, out)
        cell *= 3.0 / 256


def _candidate_times(path: SymplecticPath):
    """Interior crossings (t, dim, basis) for t in (1e-9, 1], one per crossing.

    The scan runs once per path and is kept with the grid.  Each
    candidate's kernel is decided here, at a tolerance keyed to how closely
    the scan localized it; the merge and endpoint rules are those of the
    module docstring.
    """
    g = _grid(path)
    if g.candidates is not None:
        return g.candidates
    out: list[tuple[float, float]] = []
    _scan_interval(path, np.linspace(0.0, 1.0, DEFAULT_GRID + 1), g.mats, g.svals[:, -1], 0, out)
    k_end, end_basis = _endpoint_kernel(path)
    if k_end:
        _resolve_endpoint(path, g.svals[-1], out)

    crossings: list[tuple[float, int, np.ndarray]] = []
    for t, s in sorted(out):
        if not 1e-9 < t <= 1.0:
            continue
        k, basis = _checked(_kernel_split(path(t), tol=max(TOL_KER, 3.0 * s)))
        if k == 0 or (1.0 - t < 1e-8 and _contains(end_basis, basis)):
            continue  # no crossing, or the endpoint crossing
        same = (i for i, (tc, _, bc) in enumerate(crossings)
                if t - tc < 1e-8 and (_contains(bc, basis) or _contains(basis, bc)))
        i = next(same, None)
        if i is None:
            crossings.append((t, k, basis))
        elif k > crossings[i][1]:
            crossings[i] = (t, k, basis)
    g.candidates = tuple(crossings)
    return g.candidates


def _kernel_split(M: np.ndarray, tol: float = TOL_KER):
    """dim ker(M - I) counted at tol * max(1, s_max), a basis of that kernel,
    the singular values of M - I, and whether the split is stable."""
    _, svals, vt = np.linalg.svd(M - np.eye(M.shape[0]))
    scale = max(1.0, svals[0])
    k = int(np.count_nonzero(svals < tol * scale))
    stable = True
    if 0 < k < len(svals):
        nxt, kmax = svals[-k - 1], svals[-k]
        # stable splits show either a wide ratio gap over the kernel block
        # or clear air above the threshold itself
        stable = not (nxt < 100.0 * kmax and nxt < 10.0 * tol * scale)
    return k, vt[len(svals) - k :].T, svals, stable


def _checked(split) -> tuple[int, np.ndarray]:
    """dim and basis of a `_kernel_split`; UnresolvedCrossingError if unstable."""
    k, basis, svals, stable = split
    if not stable:
        raise UnresolvedCrossingError(f"kernel dimension unstable: singular values {svals}", None)
    return k, basis


def _contains(outer: np.ndarray, inner: np.ndarray) -> bool:
    """Whether span(inner) lies in span(outer), both with orthonormal columns:
    the sine of every principal angle is below TOL_SPAN."""
    return bool(np.linalg.norm(inner - outer @ (outer.T @ inner), 2) < TOL_SPAN)


def _path_derivative(path: SymplecticPath, ts: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central differences of Gamma at the times ts, one-sided at 0 and 1."""
    lo, hi = np.maximum(0.0, ts - h), np.minimum(1.0, ts + h)
    mats = path.evaluate_batch(np.concatenate([lo, hi]))
    return (mats[len(ts) :] - mats[: len(ts)]) / (hi - lo)[:, None, None]


def _crossing_form(path: SymplecticPath, t: float, kernel: np.ndarray) -> np.ndarray:
    J = standard_J(path.dim // 2)
    dG = _path_derivative(path, np.array([t]))[0]
    W = J @ dG @ kernel  # omega(v, dG w) = <J v, dG w> = v^T J^T dG w
    Q = -kernel.T @ W  # J^T = -J
    return 0.5 * (Q + Q.T)


def _form_signature(path: SymplecticPath, t: float, kernel: np.ndarray) -> int:
    """Signature of the crossing form at t on span(kernel).

    Raises DegenerateCrossingError when an eigenvalue is below TOL_FORM
    times the largest in modulus: the form is singular there.
    """
    eigs = np.linalg.eigvalsh(_crossing_form(path, t, kernel))
    scale = max(np.abs(eigs).max(), 1e-12)
    pos = int(np.count_nonzero(eigs > TOL_FORM * scale))
    neg = int(np.count_nonzero(eigs < -TOL_FORM * scale))
    if pos + neg < len(eigs):
        raise DegenerateCrossingError(f"singular crossing form at t = {t:.12g}")
    return pos - neg


def crossing_records(path: SymplecticPath) -> list[CrossingRecord]:
    """Interior crossings of the path with the Maslov cycle, in time order."""
    return [CrossingRecord(time=t, kernel_dim=k, signature=_form_signature(path, t, basis))
            for t, k, basis in _candidate_times(path)]


def _endpoint_split(path: SymplecticPath):
    """The `_kernel_split` of Gamma(1), decided once per path, without the grid.

    The candidate filter, the endpoint term of the index and `cz_nullity`
    read this one decision.  An empty kernel whose smallest singular value
    is within 10x above the tolerance gets a warning, once.
    """
    g = _scan(path)
    if g.endpoint is None:
        g.endpoint = k, _, s, _ = _kernel_split(path(1.0))
        if not k and s[-1] < 10 * TOL_KER * max(1.0, s[0]):
            warnings.warn(
                f"ker(Gamma(1) - I) is empty, but its smallest singular value {s[-1]:.3g} "
                "is within 10x of the kernel tolerance; kernel dimension may not be converged"
            )
    return g.endpoint


def _endpoint_kernel(path: SymplecticPath):
    """dim ker(Gamma(1) - I) and a basis; UnresolvedCrossingError if unstable."""
    return _checked(_endpoint_split(path))


def _index_regular(path: SymplecticPath) -> int:
    """sign(Q_0)/2 + sum of interior sign(Q_t) - n_-(Q_1), for regular crossings.

    Q_0 is the crossing form on all of R^{2n}, so a non-degenerate Q_0 has
    even signature; Q_1 is the form on ker(Gamma(1) - I) and n_- its
    negative inertia (0 on an empty kernel).  Raises DegenerateCrossingError
    when a form is singular.
    """
    half = _form_signature(path, 0.0, np.eye(path.dim)) // 2
    k, basis = _endpoint_kernel(path)
    n_minus = (k - _form_signature(path, 1.0, basis)) // 2 if k else 0
    return half + sum(r.signature for r in crossing_records(path)) - n_minus


def _perturbed(path: SymplecticPath, eps: float) -> SymplecticPath:
    """The eps-ladder rung, the product path R(-eps t) Gamma(t)."""
    return path_product(rotation_path([-eps / (2.0 * np.pi)] * (path.dim // 2)), path)


def _ladder_index(path: SymplecticPath) -> int:
    """The lower semicontinuous index as the limit over the eps ladder.

    Each rung R(-eps t) Gamma(t) with a non-singular endpoint is counted by
    `_index_regular`; the value is accepted when two consecutive rungs agree.
    """
    values = []
    for eps in EPS_SEQUENCE:
        pert = _perturbed(path, eps)
        try:
            if _endpoint_kernel(pert)[0]:
                continue
            values.append(_index_regular(pert))
        except DegenerateCrossingError:
            continue
        if len(values) >= 2 and values[-1] == values[-2]:
            return values[-1]
    if len(values) == 1:
        # single clean perturbed value: accept but warn
        warnings.warn("cz_index: only one perturbation resolved; accepting its value")
        return values[0]
    raise UnresolvedCrossingError(
        f"perturbed indices did not stabilize: {values}", interval=(0.0, 1.0)
    )


def cz_index(path: SymplecticPath) -> int:
    """Conley-Zehnder index of an identity-based symplectic path.

    Paths whose crossing forms are non-degenerate, at t = 0, inside and at a
    singular endpoint, are counted directly (`_index_regular`); the others,
    and paths with an unstable endpoint kernel, fall back to the eps ladder
    (`_ladder_index`).

    Raises UnresolvedCrossingError when the crossing structure cannot be
    resolved, with the offending interval when known.
    """
    _grid(path)  # a path the grid cannot resolve is refused, not laddered
    try:
        return _index_regular(path)
    except (DegenerateCrossingError, UnresolvedCrossingError):
        pass
    return _ladder_index(path)


def morse_index_from_path(path: SymplecticPath) -> int:
    """Sum of dim ker(Gamma(t) - I) over interior crossing times t in (0,1)."""
    smin = _grid(path).svals[:, -1]
    if np.count_nonzero(smin < TOL_CROSS) > 0.2 * len(smin):
        raise UnresolvedCrossingError(
            "path is singular on a positive fraction of the grid; "
            "crossings are not isolated"
        )
    return sum(k for _, k, _ in _candidate_times(path))


def cz_nullity(path: SymplecticPath) -> int:
    """dim ker(Gamma(1) - I): the endpoint kernel `cz_index` decides for its
    n_-(Q_1) term (`_endpoint_split`), read from the path's scan.

    Needs no grid, so a path the grid refuses still has a nullity.  An
    unstable kernel, for which `cz_index` takes the eps ladder, is counted
    at TOL_KER with a warning.
    """
    k, _, svals, stable = _endpoint_split(path)
    if not stable:
        warnings.warn(
            f"ker(Gamma(1) - I) is unstable at the kernel tolerance (singular values "
            f"{svals}); counted {k}, kernel dimension may not be converged"
        )
    return k


def parity(M: np.ndarray) -> int:
    """Parity (mod 2) of the CZ index of any identity-based path ending at M.

    Eigenvalue computation: each positive real hyperbolic pair (lambda > 1)
    flips the sign of det(M - I); elliptic pairs, negative hyperbolic pairs,
    complex quadruples and eigenvalue-1 blocks do not.  Hence
    parity = (n + #positive hyperbolic pairs) mod 2.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0] // 2
    eigs = np.linalg.eigvals(M)
    scale = max(1.0, np.abs(eigs).max())
    real = np.abs(eigs.imag) < TOL_EIG * scale
    near_one = np.abs(eigs - 1.0) < TOL_EIG * scale
    ambiguous = real & ~near_one & (np.abs(eigs - 1.0) < 10 * TOL_EIG * scale)
    if np.any(ambiguous):
        raise ValueError(
            f"eigenvalue classification ambiguous near 1 at tol {TOL_EIG}: "
            f"{eigs[ambiguous]}"
        )
    pos_hyperbolic = int(np.count_nonzero(real & (eigs.real > 1.0 + TOL_EIG * scale)))
    return (n + pos_hyperbolic) % 2
