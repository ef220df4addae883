"""Reeb flow integration, closed-orbit shooting, monodromy and indices.

The Reeb flow on Sigma = G^{-1}(1) is z' = J grad G(z), with G the degree-2
homogenization of the body.  The degree-alpha Hamiltonian H = G^{alpha/2}
has X_H = theta X_G with theta = (alpha/2) G^{alpha/2 - 1}, a function of G
and so constant along both flows: phi_H^s(z) = phi_G^{theta(z) s}(z), and
on Sigma the Reeb state is phi_R^t = phi_H^{2t/alpha}.  Differentiating in
z at a start on Sigma, where grad theta = (alpha/2)(alpha/2 - 1) grad G,
relates the two linearized flows over one period tau (span 2 tau/alpha):

    M_2 = M_alpha - tau (alpha/2 - 1) X_G(z_end) grad G(z)^T.

So the orbit search integrates only the body's own degree-alpha flow with
its linearization, all through one right-hand side (`_variational_rhs`).
The seed scan is one dense solve of it from all seeds at once: its z rows
screen the seeds' returns, and its state at a near-return is the Newton
polish's first residual and Jacobian.  Each closed orbit is then solved by
its polish alone, dense (`PeriodFlow`): that last solve gives the
minimal-period screen and the deduplication their Reeb trajectory, the
index count its SymplecticPath, and the Reeb monodromy by the identity
above.

The sampling Besse test needs no solve.  G depends on z only through the
plane radii s_h = |z_h|^2, so grad G on plane h is 2 g_h(s) z_h and the Reeb
field there is 2 g_h(s) J z_h: every plane radius is conserved, with it g_s,
and phi_R^t turns plane h at the fixed rate 2 g_h(s) (`integrate_reeb`).
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import conley_zehnder as cz
from .bodies import ConvexBody
from .symplectic import SymplecticPath, standard_J, symplectic_defect

log = logging.getLogger(__name__)

RTOL = 1e-11
ATOL = 1e-13
TOL_ORBIT = 1e-9
TOL_DEDUP = 1e-6
TOL_SUBPERIOD = 1e-5
# time samples of the seed scan over (0, t_max]
SCAN_POINTS = 4000
# scan times per evaluation of the seed scan's interpolant
SCAN_BLOCK = 500
BESSE_TOL_FACTOR = 1e-6  # scaled by the surface diameter
# the seed scan's dense solve of all seeds together
TRAJECTORY_TOLS = {"rtol": 1e-10, "atol": 1e-11}
# a closed orbit's solves: the Newton polish and the index path
ORBIT_TOLS = {"rtol": 1e-12, "atol": 1e-13}


def solve_ivp(fun, t_span, y0, **kwargs):
    """scipy.integrate.solve_ivp, imported on first use so that importing the
    package loads no scipy; every integration in this module goes through it."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(fun, t_span, y0, **kwargs)


@dataclass(frozen=True)
class PeriodFlow:
    """One solve of the degree-alpha flow and its linearization from a point
    on Sigma over one Reeb period tau, i.e. over s in [0, 2 tau/alpha].

    `end` and `monodromy` are z and Gamma_alpha at the end of the span.  A
    dense solve also keeps `path`, Gamma_alpha on [0, 1] with its sampled
    speed, and `states`, the solver's interpolant s -> flattened (z, Y).
    """

    alpha: float
    end: np.ndarray
    monodromy: np.ndarray
    path: SymplecticPath | None = None
    states: Callable | None = None

    def reeb(self, t):
        """phi_R^t of the start for Reeb times t in [0, tau], read off the
        dense solve at s = 2t/alpha: shape (2n,) for a scalar t, (2n, T)
        for T times."""
        return self.states(np.asarray(t) * (2.0 / self.alpha))[: self.path.dim]


@dataclass
class ClosedOrbit:
    """A (numerically) closed Reeb orbit with its linearized-flow data.

    `flow` is the dense degree-alpha solve over one period that the search
    (or `monodromy_and_index`) last made on it, None on an orbit built by
    hand or by the Clarke reconstruction.
    """

    initial_point: np.ndarray
    period: float
    residual: float
    monodromy: np.ndarray | None = None
    return_block: np.ndarray | None = None
    cz_index: int | None = None
    morse_index: int | None = None
    nullity: int | None = None
    meta: dict = field(default_factory=dict)
    flow: PeriodFlow | None = field(default=None, repr=False, compare=False)

    def as_dict(self) -> dict:
        out = {
            "period": self.period,
            "initial_point": np.asarray(self.initial_point).tolist(),
            "residual": self.residual,
            "cz": self.cz_index,
            "morse": self.morse_index,
            "nullity": self.nullity,
        }
        if self.monodromy is not None:
            out["monodromy_eigenvalues"] = [
                [float(ev.real), float(ev.imag)] for ev in np.linalg.eigvals(self.monodromy)
            ]
        out.update({k: v for k, v in self.meta.items() if _jsonable(v)})
        return out


def _jsonable(v):
    return isinstance(v, (int, float, str, bool, list, dict, type(None)))


def integrate_reeb(body: ConvexBody, z: np.ndarray, t: float, dense: bool = False):
    """phi_R^t of a point (2n,) or a batch (N, 2n), in closed form.

    The Reeb field on plane h is z_h' = 2 g_h(s) J z_h, so d|z_h|^2/dt = 0:
    the plane radii s, and with them the rates g_s, stay fixed along the
    orbit, and phi_R^t turns plane h counter-clockwise (J v = (-v_2, v_1))
    by the angle 2 g_h(s) t, reduced as 2 pi frac(g_h t / pi) so that a
    large t stays accurate.  Every accepted body has this conservation law
    (`bodies` module docstring).

    Returns the endpoints in the shape of z or, with dense=True, the flow
    s -> flattened states: shape (N*2n,) for a scalar s and (N*2n, T) for T
    times, as a solver's interpolant would give.  Every start must lie on
    Sigma to 1e-10.
    """
    z = np.asarray(z, dtype=float)
    if not body.on_surface(z):
        raise ValueError("starting point is off the surface beyond 1e-10")
    planes = z.reshape(-1, body.n, 2)
    # g_s is the unbroadcast c on a quadric
    rates = np.broadcast_to(body._plane_gradient(z)[1], planes.shape[:-1])

    def states(ts):
        ts = np.asarray(ts, dtype=float)
        turns = rates * ts[..., None, None] / np.pi
        angle = 2.0 * np.pi * (turns - np.floor(turns))
        cos, sin = np.cos(angle), np.sin(angle)
        x, y = planes[..., 0], planes[..., 1]
        out = np.stack([cos * x - sin * y, sin * x + cos * y], axis=-1)
        return out.reshape(ts.shape + (-1,)).T

    return states if dense else states(t).reshape(z.shape)


def flow_with_monodromy(
    body: ConvexBody,
    z0: np.ndarray,
    tau: float,
    alpha: float = 2.0,
    rtol: float = RTOL,
    atol: float = ATOL,
    dense: bool = False,
):
    """Flow and linearized flow over one period.

    alpha = 2 integrates the Reeb (degree-2) flow over [0, tau]; alpha in
    (1, 2) integrates the degree-alpha Hamiltonian flow over [0, 2 tau/alpha].
    Returns (endpoint, monodromy, path) where path is a SymplecticPath on
    [0, 1] (None unless dense=True).  The path's speed is span times the
    largest |J hess H Y|_F = |Y'|_F >= |Y'|_2 over the right-hand side's own
    evaluations: sampled at the solver's stages, not proved, so the index
    count's cell bounds stay the guard against an understatement.  The
    orbit search needs no alpha = 2 solve: `_period_flow` solves its orbits
    at the body's alpha, and `_reeb_monodromy` gives M_2 from that.
    """
    flow = _period_flow(body, z0, tau, alpha, rtol=rtol, atol=atol, dense=dense)
    return flow.end, flow.monodromy, flow.path


def _variational_rhs(body: ConvexBody, alpha: float, starts: int, peak: list | None = None):
    """Right-hand side of the degree-alpha flow and its linearization from
    `starts` points side by side: the state is (starts, d + d^2) flattened,
    each row (z, Y) with derivative (J grad H(z), J hess H(z) Y).  `peak`, if
    given, keeps the largest |hess H Y|_F^2 (summed over the starts)."""
    d = body.dim

    def rhs(_, y):
        y = y.reshape(starts, d + d * d)
        grad, hess = body._homogeneous_derivatives(y[:, :d], alpha)
        HY = hess @ y[:, d:].reshape(starts, d, d)
        if peak is not None:
            peak[0] = max(peak[0], np.vdot(HY, HY))
        # both blocks written into one output; J v = (-v_2, v_1) per plane
        out = np.empty_like(y)
        JHY = out[:, d:].reshape(starts, d, d)
        out[:, :d:2], out[:, 1:d:2] = -grad[:, 1::2], grad[:, 0::2]
        JHY[:, 0::2], JHY[:, 1::2] = -HY[:, 1::2], HY[:, 0::2]
        return out.reshape(-1)

    return rhs


def _variational_start(z0: np.ndarray) -> np.ndarray:
    """The flattened initial state (z0, I) of `_variational_rhs` for starts
    z0 of shape (2n,) or (N, 2n)."""
    z0 = np.atleast_2d(np.asarray(z0, dtype=float))
    eye = np.broadcast_to(np.eye(z0.shape[1]).reshape(-1), (len(z0), z0.shape[1] ** 2))
    return np.hstack([z0, eye]).reshape(-1)


def _flow_at(states: Callable, alpha: float, t: float, d: int, start: int = 0) -> PeriodFlow:
    """The (end, monodromy) of one start over Reeb time t, read off a dense
    solve of `_variational_rhs` at s = 2t/alpha."""
    y = states(2.0 * t / alpha).reshape(-1, d + d * d)[start]
    return PeriodFlow(alpha=alpha, end=y[:d], monodromy=y[d:].reshape(d, d))


def _period_flow(body: ConvexBody, z0: np.ndarray, tau: float, alpha: float,
                 rtol: float, atol: float, dense: bool) -> PeriodFlow:
    """The solve behind `flow_with_monodromy`, as a PeriodFlow."""
    d = body.dim
    span = 2.0 * tau / alpha
    peak = [0.0] if dense else None
    sol = solve_ivp(_variational_rhs(body, alpha, 1, peak), (0.0, span), _variational_start(z0),
                    method="DOP853", rtol=rtol, atol=atol, dense_output=dense)
    if not sol.success:
        raise RuntimeError(f"variational integration failed: {sol.message}")
    z_end = sol.y[:d, -1]
    M = sol.y[d:, -1].reshape(d, d)
    if not dense:
        return PeriodFlow(alpha=alpha, end=z_end, monodromy=M)

    def _eval(ts):
        return sol.sol(np.asarray(ts) * span)[d:].T.reshape(len(ts), d, d)

    path = SymplecticPath(dim=d, eval_batch=_eval, speed=span * np.sqrt(peak[0]))
    return PeriodFlow(alpha=alpha, end=z_end, monodromy=M, path=path, states=sol.sol)


def _reeb_monodromy(body: ConvexBody, z0: np.ndarray, tau: float, flow: PeriodFlow):
    """M_2 = M_alpha - tau (alpha/2 - 1) X_G(z_end) grad G(z0)^T (module
    docstring) from a solve started at z0 on Sigma."""
    shift = tau * (flow.alpha / 2.0 - 1.0)
    return flow.monodromy - shift * np.outer(body.reeb_field(flow.end), body.grad_gauge2(z0))


# -- closed-orbit shooting ---------------------------------------------------


def _default_seeds(body: ConvexBody, extra: int, seed: int) -> list[np.ndarray]:
    pts = []
    for h in range(body.n):
        z = np.zeros(body.dim)
        z[2 * h] = 1.0
        pts.append(body.project_to_surface(z))
    if extra > 0:
        pts.extend(body.surface_samples(extra, seed=seed))
    return pts


def _newton_polish(body: ConvexBody, z_seed: np.ndarray, tau_guess: float, t_max: float,
                   start: PeriodFlow | None = None):
    """Damped least-squares Newton on (z, tau) for phi_R^tau(z) = z on Sigma,
    with a phase condition along the Reeb field at the seed; the closed orbit
    or None.

    The residual is solved as the body's degree-alpha flow: on Sigma it is
    phi_H^{2 tau/alpha}(z) - z, with z-Jacobian M_alpha - I and tau-column
    X_G(z_end).  `start`, the seed's (end, monodromy) over tau_guess read off
    a dense solve that was made anyway (the seed scan, or the orbit's own
    flow), gives the first residual and Jacobian; without it (a direct
    call) the seed is solved once, without the interpolant.  Any alpha serves there: the
    M_alpha agree on the tangent space of Sigma (module docstring), and the
    row grad G(z) fixes the normal part of the step.  Every trial solve is
    dense at ORBIT_TOLS, so the accepted one becomes the orbit's `flow`; a
    seed that already closes is solved once more, dense, and that solve
    decides.
    """
    d = body.dim
    z = np.asarray(z_seed, float).copy()
    tau = float(tau_guess)
    phase_dir = body.reeb_field(z_seed)

    def residual(z, flow):
        r = np.empty(d + 2)
        r[:d] = flow.end - z
        r[d] = body.gauge2(z) - 1.0
        r[d + 1] = phase_dir @ (z - z_seed)
        return r

    def solved(z, tau, dense=True):
        flow = _period_flow(body, z, tau, body.alpha, dense=dense, **ORBIT_TOLS)
        return residual(z, flow), flow

    if start is None:
        r, flow = solved(z, tau, dense=False)
    else:
        r, flow = residual(z, start), start
    rnorm = np.linalg.norm(r)
    for _ in range(30):
        if rnorm < TOL_ORBIT:
            if flow.path is not None:
                break
            r, flow = solved(z, tau)  # the seed closes: solve it dense
            rnorm = np.linalg.norm(r)
            continue
        jac = np.zeros((d + 2, d + 1))
        jac[:d, :d] = flow.monodromy - np.eye(d)
        jac[:d, d] = body.reeb_field(flow.end)
        jac[d, :d] = body.grad_gauge2(z)
        jac[d + 1, :d] = phase_dir
        step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        lam = 1.0
        for _ in range(10):
            z_try = body.project_to_surface(z + lam * step[:d])
            tau_try = tau + lam * step[d]
            if not (0.0 < tau_try <= 1.5 * t_max):
                lam *= 0.5
                continue
            r_try, flow_try = solved(z_try, tau_try)
            if np.linalg.norm(r_try) < rnorm:
                z, tau, r, flow = z_try, tau_try, r_try, flow_try
                rnorm = np.linalg.norm(r)
                break
            lam *= 0.5
        else:
            return None
    if rnorm >= TOL_ORBIT:
        return None
    return ClosedOrbit(initial_point=z, period=tau, residual=float(rnorm),
                       monodromy=_reeb_monodromy(body, z, tau, flow), flow=flow)


def _minimal_period(body: ConvexBody, orbit: ClosedOrbit) -> ClosedOrbit:
    """The orbit at its minimal period.

    Every closed orbit of a convex body containing B(r) has action at least
    pi r^2 (its action is at least the systole c_EHZ, which is monotone, and
    c_EHZ(B(r)) = pi r^2), so an orbit polished at tau covers a primitive one
    at most K = floor(tau / (pi r^2)) times, r the inradius from
    `pinching_radii`.  The orbit's own Reeb trajectory (`orbit.flow`) screens
    the returns at tau/k for k = K..2, largest first, so the first k that
    closes is the cover's whole multiple.  An orbit polished at k times its
    period closes to TOL_ORBIT only over the whole multiple (the double
    cover on perturbed E(1, 2) returns within 3e-7 at half its period), so
    the return is a loose pre-screen at TOL_SUBPERIOD and the Newton polish
    at tau/k decides, started from the same trajectory's state there; the
    polish brings its own trajectory.
    """
    r, _ = body.pinching_radii()
    # pi r^2 is the action of a plane orbit of perturbed E(1, 2) to 1e-13,
    # so a cover's tau / (pi r^2) may fall just short of its multiple
    top = int(orbit.period / (np.pi * r * r) * (1.0 + 1e-6))
    for k in range(top, 1, -1):
        start = _flow_at(orbit.flow.states, orbit.flow.alpha, orbit.period / k, body.dim)
        if np.linalg.norm(start.end - orbit.initial_point) < TOL_SUBPERIOD:
            polished = _newton_polish(body, orbit.initial_point, orbit.period / k,
                                      t_max=orbit.period, start=start)
            if polished is not None:
                return polished
    return orbit


def _orbit_distance(body: ConvexBody, z: np.ndarray, other: ClosedOrbit, interp) -> float:
    """min over time shift of |phi^t(other) - z|, refined continuously."""
    from scipy.optimize import minimize_scalar

    ts = np.linspace(0.0, other.period, 257)
    d = np.linalg.norm(interp(ts).T - z, axis=1)
    i = int(np.argmin(d))
    lo = ts[max(i - 1, 0)]
    hi = ts[min(i + 1, len(ts) - 1)]
    res = minimize_scalar(
        lambda t: float(np.linalg.norm(interp(t) - z)),
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return float(res.fun)


def find_closed_orbits(
    body: ConvexBody,
    t_max: float,
    n_seeds: int = 16,
    seed: int = 0,
) -> list[ClosedOrbit]:
    """Shooting + Newton search for closed Reeb orbits with period in (0, t_max].

    Seeds are the coordinate-plane circles plus low-discrepancy surface
    samples.  All seeds are flowed together in one dense solve of the
    body's degree-alpha flow and its linearization, over s in
    [0, 2 t_max/alpha].  Its z rows give each seed's displacement at
    SCAN_POINTS Reeb times; each near-return (a local minimum of the
    displacement below half the circumradius) is polished by a damped
    least-squares Newton on (z, tau) with a phase condition killing the
    time-shift, started from the scan's state there.  A seed that lies on
    the orbit its polish found (within TOL_SUBPERIOD of its initial point)
    closes at its period p, and its near-returns within two scan steps of
    k p, k >= 2, are covers of that orbit and are not polished; a polish
    that moved away from the seed skips nothing.  Each candidate is reduced
    to its minimal period, and its Reeb trajectory over that period, read
    off the polish's dense solve, is used to deduplicate the candidates
    after it by trajectory distance.
    Integer multiples within the window are listed in meta["multiples"].
    """
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    _, R = body.pinching_radii()
    seeds = np.array(_default_seeds(body, n_seeds - body.n, seed))
    N, d = seeds.shape
    alpha = body.alpha
    sol = solve_ivp(_variational_rhs(body, alpha, N), (0.0, 2.0 * t_max / alpha),
                    _variational_start(seeds), method="DOP853", dense_output=True,
                    **TRAJECTORY_TOLS)
    if not sol.success:
        raise RuntimeError(f"seed scan failed: {sol.message}")
    z_rows = (np.arange(N)[:, None] * (d + d * d) + np.arange(d)).ravel()
    ts, step = np.linspace(0.0, t_max, SCAN_POINTS + 1, retstep=True)
    disp = np.concatenate([
        np.linalg.norm(sol.sol(block * (2.0 / alpha))[z_rows].T.reshape(len(block), N, d) - seeds,
                       axis=-1)
        for block in np.split(ts, range(SCAN_BLOCK, len(ts), SCAN_BLOCK))])
    inner = disp[1:-1]
    near = (inner <= disp[:-2]) & (inner <= disp[2:]) & (inner < 0.5 * R)

    candidates: list[ClosedOrbit] = []
    closed: dict[int, list[float]] = {}  # seed -> periods it closed at
    for j, i in zip(*np.nonzero(near.T)):
        t = ts[i + 1]
        if any(round(t / p) >= 2 and abs(t - round(t / p) * p) <= 2 * step
               for p in closed.get(j, ())):
            continue
        orb = _newton_polish(body, seeds[j], t, t_max, start=_flow_at(sol.sol, alpha, t, d, j))
        if orb is None:
            log.debug("Newton diverged from seed near t = %.6f (displacement %.3e)",
                      t, disp[i + 1, j])
            continue
        if np.linalg.norm(orb.initial_point - seeds[j]) < TOL_SUBPERIOD:  # on the orbit
            closed.setdefault(j, []).append(orb.period)
        if orb.period <= t_max * (1 + 1e-9):
            candidates.append(orb)

    unique: list[ClosedOrbit] = []
    for orb in sorted(candidates, key=lambda o: o.period):
        orb = _minimal_period(body, orb)
        dup = False
        for prev in unique:
            if abs(prev.period - orb.period) < 1e-6 * max(1.0, prev.period):
                if _orbit_distance(body, orb.initial_point, prev, prev.flow.reeb) < TOL_DEDUP:
                    dup = True
                    break
        if not dup:
            orb.meta["multiples"] = [
                float(k * orb.period) for k in range(1, int(t_max / orb.period) + 1)
            ]
            unique.append(orb)
    return unique


# -- monodromy, block decomposition and indices ------------------------------


def _symplectic_complement_basis(body: ConvexBody, z0: np.ndarray) -> np.ndarray:
    """Symplectic basis S of E^omega for E = span{R(z0), z0}, as columns.

    E^omega is the orthogonal complement of J E; let Q be an orthonormal
    basis of it.  A = Q^T J Q is real skew and non-degenerate, so iA is
    Hermitian with eigenvalues +-lambda.  Each unit eigenvector x + iy with
    lambda > 0 has x, y orthogonal of norm 1/sqrt(2) and A x = lambda y, and
    the vectors of distinct eigenvectors are mutually orthogonal (the normal
    form of a real skew matrix, Horn-Johnson, Matrix Analysis, Sec. 2.5).
    The pairs sqrt(2/lambda) (x, y) are therefore the columns of a T with
    T^T A T = J_{2n-2}, and S = Q T satisfies S^T J S = J_{2n-2}.
    """
    d = body.dim
    J = standard_J(d // 2)
    Q = np.linalg.svd(J @ np.column_stack([body.reeb_field(z0), z0]))[0][:, 2:]
    lam, W = np.linalg.eigh(1j * (Q.T @ J @ Q))  # ascending: the lambda > 0 half last
    W = W[:, d // 2 - 1 :] * np.sqrt(2.0 / lam[d // 2 - 1 :])
    T = np.empty((d - 2, d - 2))
    T[:, 0::2], T[:, 1::2] = W.real, W.imag
    return Q @ T


def return_block(body: ConvexBody, z0: np.ndarray, M: np.ndarray):
    """Restriction N of the monodromy to E^omega, in symplectic coordinates."""
    d = body.dim
    S = _symplectic_complement_basis(body, z0)
    Jred = standard_J((d - 2) // 2)
    Jfull = standard_J(d // 2)
    # coordinates: v = S c  =>  c = Jred^{-1} S^T J v
    proj = np.linalg.solve(Jred, S.T @ Jfull)
    N = proj @ M @ S
    resid = float(np.abs(M @ S - S @ N).max())
    return N, S, resid


def monodromy_and_index(
    body: ConvexBody,
    orbit: ClosedOrbit,
    alpha: float = 1.5,
) -> ClosedOrbit:
    """Fill monodromy, return block and (cz, morse, nullity) on a found orbit.

    The CZ index is computed on the full linearized degree-alpha flow path
    (alpha in (1,2); the value is alpha-independent).  The nullity is
    dim ker(Gamma_alpha(1) - I), the endpoint kernel `cz_index` decides
    (`cz.cz_nullity`).  Over E + E^omega the endpoint is blockdiag(shear, N),
    with N the alpha-independent restriction of the Reeb monodromy to
    E^omega, and the shear block adds exactly one kernel direction, so the
    nullity is 1 + dim ker(N - I).  A residual of that reconstruction of the
    endpoint is recorded; above 1e-6 the raw monodromy is kept and flagged.
    One dense degree-alpha solve gives the path, Gamma_alpha(1) and the
    Reeb monodromy M_2 (module docstring).  It is the orbit's own `flow`
    when that was solved at this alpha, as the search's orbits are at the
    body's; otherwise it is solved at ORBIT_TOLS and kept as the orbit's
    flow.
    """
    if not (1.0 < alpha < 2.0):
        raise ValueError("alpha must lie in (1, 2)")
    z0 = np.asarray(orbit.initial_point, float)
    tau = float(orbit.period)
    d = body.dim
    n = d // 2

    flow = orbit.flow
    if flow is None or flow.alpha != alpha:
        flow = _period_flow(body, z0, tau, alpha, dense=True, **ORBIT_TOLS)
    M2 = _reeb_monodromy(body, z0, tau, flow)
    sdef = symplectic_defect(M2)
    if sdef > 1e-7:
        warnings.warn(f"monodromy symplecticity defect {sdef:.2e} above 1e-7")

    N, S, resid_inv = return_block(body, z0, M2)
    M_alpha_full, path_alpha = flow.monodromy, flow.path

    # assemble Gamma_alpha(1) from the closed-form shear and N, then compare
    u1 = body.reeb_field(z0)
    B = np.column_stack([u1, z0, S])
    shear = np.array([[1.0, (alpha - 2.0) * tau], [0.0, 1.0]])
    assembled = np.zeros((d, d))
    assembled[:2, :2] = shear
    assembled[2:, 2:] = N
    M_assembled = B @ assembled @ np.linalg.inv(B)
    block_resid = float(np.abs(M_assembled - M_alpha_full).max())

    index = cz.cz_index(path_alpha)
    orbit.flow = flow
    orbit.monodromy = M2
    orbit.return_block = N
    orbit.cz_index = int(index)
    orbit.morse_index = int(index) - n
    orbit.nullity = cz.cz_nullity(path_alpha)
    orbit.meta.update(
        {
            "alpha": alpha,
            "symplectic_defect": sdef,
            "block_residual": block_resid,
            "invariance_residual": resid_inv,
            "block_decomposition_ok": block_resid <= 1e-6,
        }
    )
    if block_resid > 1e-6:
        warnings.warn(
            f"block decomposition residual {block_resid:.2e} above 1e-6; "
            "raw monodromy reported"
        )
    return orbit


# -- sampling Besse test -------------------------------------------------------


@dataclass(frozen=True)
class BesseTestResult:
    tau: float
    samples: int
    max_displacement: float
    tol: float
    worst_point: np.ndarray
    verdict: bool
    label: str


def numerical_besse_test(
    body: ConvexBody,
    tau: float,
    samples: int = 10000,
    seed: int = 0,
) -> BesseTestResult:
    """Sample Sigma, flow to time tau, report the worst displacement.

    The verdict is numerical evidence at the stated tolerance and sample
    density, never a proof: Besse at tau requires fix(phi_R^tau) = Sigma.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    Z = body.surface_samples(samples, seed=seed)
    Z_end = integrate_reeb(body, Z, tau)
    disp = np.linalg.norm(Z_end - Z, axis=1)
    worst = int(np.argmax(disp))
    _, R = body.pinching_radii()
    tol = BESSE_TOL_FACTOR * 2.0 * R
    ok = bool(disp[worst] < tol)
    label = (
        f"besse-at-{tau:g} (numerical evidence, {samples} samples)"
        if ok
        else f"not-besse-at-{tau:g} (witness displacement {disp[worst]:.3e})"
    )
    return BesseTestResult(
        tau=float(tau),
        samples=samples,
        max_displacement=float(disp[worst]),
        tol=tol,
        worst_point=Z[worst],
        verdict=ok,
        label=label,
    )
