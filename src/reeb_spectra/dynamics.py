"""Reeb flow, closed-orbit shooting, monodromy and indices, in closed form.

The Reeb flow on Sigma = G^{-1}(1) is z' = J grad G(z), with G the degree-2
homogenization of the body.  The degree-alpha Hamiltonian H = G^{alpha/2}
has X_H = theta X_G with theta = (alpha/2) G^{alpha/2 - 1}, a function of G
and so constant along both flows: on Sigma the Reeb state is
phi_R^t = phi_H^{2t/alpha}.

H depends on z only through the plane radii s_h = |z_h|^2 (`bodies`), so
grad H on plane h is 2 f_h(s) z_h with f = G^{alpha/2}: every plane radius
is conserved, and phi_H^sigma turns plane h counter-clockwise at the fixed
rate omega_h = 2 f_h(s).  Differentiating z(sigma) = Rot(sigma omega(z0)) z0
in z0 gives the linearized flow

    Y(sigma) = Rot(sigma omega) (I + sigma K),   K = sum_h (J z0_h) grad omega_h^T,

where z0_h is z0 on plane h, grad omega_h = 2 sum_k W_hk z0_k and
W = d omega/ds = 2 f_ss.  Since grad omega_h^T J z0_k = 2 W_hk z0_k^T J z0_k
= 0, K^2 = 0, and J K = -sum_h z0_h grad omega_h^T is symmetric, so Y is
exactly symplectic.
Its derivative is Rot(sigma omega)(A + sigma B) with A = Omega J + K and
B = Omega J K, Omega the rates lifted to R^{2n}.

`_alpha_flow` builds this flow from one jet of G per start, and every
caller reads it: `integrate_reeb` (the sampling Besse test's flow) is its z
part at alpha = 2; the seed scan is its z part from all seeds at once;
each Newton trial, the minimal-period screen, the deduplication's Reeb
trajectory and the index path read its (z, Y) at the body's alpha
(`PeriodFlow`); and the Reeb monodromy M_2 is the same closed form at
alpha = 2.  No ODE is solved.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import conley_zehnder as cz
from .bodies import ConvexBody
from .symplectic import SymplecticPath, apply_J, standard_J, symplectic_defect

log = logging.getLogger(__name__)

TOL_ORBIT = 1e-9
TOL_DEDUP = 1e-6
TOL_SUBPERIOD = 1e-5
# time samples of the seed scan over (0, t_max]
SCAN_POINTS = 4000
BESSE_TOL_FACTOR = 1e-6  # scaled by the surface diameter


def solve_ivp(fun, t_span, y0, **kwargs):
    """scipy.integrate.solve_ivp, imported on first use.  This module solves
    no ODE; the name stays because the benchmark's tracer patches it to count
    right-hand-side evaluations."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(fun, t_span, y0, **kwargs)


def _turn(cos, sin, x):
    """Each plane of x, shape (..., n, 2, m), turned counter-clockwise by the
    angles whose cosines and sines are cos and sin, shape (..., n)."""
    c, s = cos[..., None], sin[..., None]
    x0, x1 = x[..., 0, :], x[..., 1, :]
    return np.stack([c * x0 - s * x1, s * x0 + c * x1], axis=-2)


@dataclass(frozen=True)
class AlphaFlow:
    """sigma -> (z, Y), the degree-alpha flow and its linearization from
    starts z0 of shape (2n,) or (N, 2n), in closed form (module docstring).
    `rates` is omega, shape (..., n), and `curvature` is W = d omega/ds,
    shape (..., n, n).  Times sigma may have any shape S; z has shape
    S + z0.shape and Y shape S + K.shape.
    """

    alpha: float
    z0: np.ndarray
    rates: np.ndarray
    curvature: np.ndarray

    @cached_property
    def K(self) -> np.ndarray:
        """sum_h (J z0_h) grad omega_h^T, with grad omega_h = 2 sum_k W_hk z0_k."""
        planes = self.z0.reshape(self.rates.shape + (2,))
        Jz = apply_J(self.z0).reshape(planes.shape)
        K = (2.0 * self.curvature[..., :, None, :, None] * Jz[..., :, :, None, None]
             * planes[..., None, None, :, :])
        return K.reshape(self.z0.shape + self.z0.shape[-1:])

    def _rotations(self, sigma):
        """(cos, sin) of the plane angles sigma omega, each reduced as
        2 pi frac(sigma omega / 2 pi) so that a long span stays accurate."""
        turns = np.multiply.outer(np.asarray(sigma, dtype=float), self.rates) / (2.0 * np.pi)
        angle = 2.0 * np.pi * (turns - np.floor(turns))
        return np.cos(angle), np.sin(angle)

    def z(self, sigma) -> np.ndarray:
        cos, sin = self._rotations(sigma)
        planes = self.z0.reshape(self.rates.shape + (2, 1))
        return _turn(cos, sin, planes).reshape(cos.shape[:-1] + self.z0.shape[-1:])

    def Y(self, sigma) -> np.ndarray:
        cos, sin = self._rotations(sigma)
        d = self.z0.shape[-1]
        rows = np.eye(d) + np.multiply.outer(np.asarray(sigma, dtype=float), self.K)
        return _turn(cos, sin, rows.reshape(cos.shape + (2, d))).reshape(rows.shape)

    def start(self, j: int) -> "AlphaFlow":
        """The flow from the j-th start alone."""
        return AlphaFlow(self.alpha, self.z0[j], self.rates[j], self.curvature[j])

    def peak_speed(self, span: float) -> float:
        """max |Y'(sigma)|_2 over [0, span] from one start: Y' is
        Rot(sigma omega)(A + sigma B), and |A + sigma B|_2 is convex in
        sigma, so the maximum sits at an end of the span."""
        OJ = np.repeat(self.rates, 2)[:, None] * standard_J(len(self.rates))
        A = self.K + OJ
        return float(max(np.linalg.norm(A, 2), np.linalg.norm(A + span * (OJ @ self.K), 2)))


def _alpha_flow(body: ConvexBody, z0: np.ndarray, alpha: float) -> AlphaFlow:
    """The closed-form degree-alpha flow from starts z0, shape (2n,) or
    (N, 2n), built from one jet of G: omega = 2 f_s and W = 2 f_ss."""
    z0 = np.asarray(z0, dtype=float)
    f_s, f_ss = body._homogeneous_jet(z0, alpha)
    shape = z0.shape[:-1] + (body.n,)
    # g_s and g_ss are unbroadcast on a quadric
    return AlphaFlow(alpha, z0, np.broadcast_to(2.0 * f_s, shape),
                     np.broadcast_to(2.0 * f_ss, shape + (body.n,)))


@dataclass(frozen=True)
class PeriodFlow:
    """The closed-form flow from one point on Sigma over one Reeb period
    tau, i.e. over sigma in [0, 2 tau/alpha].

    `end` and `monodromy` are z and Gamma_alpha at the end of the span,
    `path` is Gamma_alpha on [0, 1] with its exact speed, and `reeb` the
    Reeb trajectory.
    """

    flow: AlphaFlow
    tau: float

    @property
    def alpha(self) -> float:
        return self.flow.alpha

    @property
    def span(self) -> float:
        return 2.0 * self.tau / self.flow.alpha

    @cached_property
    def end(self) -> np.ndarray:
        return self.flow.z(self.span)

    @cached_property
    def monodromy(self) -> np.ndarray:
        return self.flow.Y(self.span)

    @cached_property
    def path(self) -> SymplecticPath:
        """t -> Y(t span), of speed span max(|A|_2, |A + span B|_2)."""
        flow, span = self.flow, self.span
        return SymplecticPath(dim=flow.z0.shape[-1], eval_batch=lambda ts: flow.Y(ts * span),
                              speed=span * flow.peak_speed(span))

    def reeb(self, t):
        """phi_R^t of the start for Reeb times t, z at sigma = 2t/alpha:
        shape (2n,) for a scalar t, (2n, T) for T times."""
        return self.flow.z(np.asarray(t, dtype=float) * (2.0 / self.alpha)).T


@dataclass
class ClosedOrbit:
    """A (numerically) closed Reeb orbit with its linearized-flow data.

    `flow` is the degree-alpha flow over one period that the search (or
    `monodromy_and_index`) last read on it, None on an orbit built by hand
    or by the Clarke reconstruction.
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
    """phi_R^t of a point (2n,) or a batch (N, 2n): the z part of the
    closed-form flow at alpha = 2.

    Plane h turns counter-clockwise (J v = (-v_2, v_1)) by the angle
    2 g_h(s) t, with the plane radii s and the rates g_s fixed along the
    orbit (module docstring), reduced as 2 pi frac(g_h t / pi) so that a
    large t stays accurate.

    Returns the endpoints in the shape of z or, with dense=True, the flow
    s -> flattened states: shape (N*2n,) for a scalar s and (N*2n, T) for T
    times.  Every start must lie on Sigma to 1e-10.
    """
    z = np.asarray(z, dtype=float)
    if not body.on_surface(z):
        raise ValueError("starting point is off the surface beyond 1e-10")
    flow = _alpha_flow(body, z, 2.0)

    def states(ts):
        ts = np.asarray(ts, dtype=float)
        return flow.z(ts).reshape(ts.shape + (-1,)).T

    return states if dense else states(t).reshape(z.shape)


def flow_with_monodromy(
    body: ConvexBody,
    z0: np.ndarray,
    tau: float,
    alpha: float = 2.0,
    dense: bool = False,
):
    """Flow and linearized flow over one period, in closed form.

    alpha = 2 gives the Reeb (degree-2) flow over [0, tau]; alpha in (1, 2)
    the degree-alpha Hamiltonian flow over [0, 2 tau/alpha].  Returns
    (endpoint, monodromy, path) where path is a SymplecticPath on [0, 1]
    (None unless dense=True) whose speed is exact: span times the larger of
    |A|_2 and |A + span B|_2 (module docstring).
    """
    flow = _period_flow(body, z0, tau, alpha)
    return flow.end, flow.monodromy, flow.path if dense else None


def _period_flow(body: ConvexBody, z0: np.ndarray, tau: float, alpha: float) -> PeriodFlow:
    """The flow behind `flow_with_monodromy`, as a PeriodFlow."""
    return PeriodFlow(_alpha_flow(body, z0, alpha), float(tau))


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

    The residual is read off the body's degree-alpha flow: on Sigma it is
    phi_H^{2 tau/alpha}(z) - z, with z-Jacobian M_alpha - I and tau-column
    X_G(z_end).  `start`, the seed's flow over tau_guess that the caller
    built anyway (the seed scan's, or the orbit's own), gives the first
    residual and Jacobian; without it the seed's flow is built here.  Any
    alpha serves there: the M_alpha agree on the tangent space of Sigma
    (module docstring), and the row grad G(z) fixes the normal part of the
    step.  The accepted trial's flow becomes the orbit's `flow`, and its
    monodromy is the Reeb M_2, the closed form at alpha = 2.
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

    flow = start if start is not None else _period_flow(body, z, tau, body.alpha)
    r = residual(z, flow)
    rnorm = np.linalg.norm(r)
    for _ in range(30):
        if rnorm < TOL_ORBIT:
            break
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
            flow_try = _period_flow(body, z_try, tau_try, body.alpha)
            r_try = residual(z_try, flow_try)
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
                       monodromy=_period_flow(body, z, tau, 2.0).monodromy, flow=flow)


def _minimal_period(body: ConvexBody, orbit: ClosedOrbit) -> ClosedOrbit:
    """The orbit at its minimal period.

    Every closed orbit of a convex body containing B(r) has action at least
    pi r^2 (its action is at least the systole c_EHZ, which is monotone, and
    c_EHZ(B(r)) = pi r^2), so an orbit polished at tau covers a primitive one
    at most K = floor(tau / (pi r^2)) times, r the inradius from
    `pinching_radii`.  The orbit's own flow (`orbit.flow`) screens the
    returns at tau/k for k = K..2, largest first, so the first k that closes
    is the cover's whole multiple.  An orbit polished at k times its period
    closes to TOL_ORBIT only over the whole multiple (the double cover on
    perturbed E(1, 2) returns within 3e-7 at half its period), so the
    return is a loose pre-screen at TOL_SUBPERIOD and the Newton polish at
    tau/k decides, started from the same flow over tau/k; the polish brings
    its own flow.
    """
    r, _ = body.pinching_radii()
    # pi r^2 is the action of a plane orbit of perturbed E(1, 2) to 1e-13,
    # so a cover's tau / (pi r^2) may fall just short of its multiple
    top = int(orbit.period / (np.pi * r * r) * (1.0 + 1e-6))
    for k in range(top, 1, -1):
        start = PeriodFlow(orbit.flow.flow, orbit.period / k)
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
    samples.  The closed-form degree-alpha flow from all seeds at once gives
    each seed's displacement at SCAN_POINTS Reeb times in (0, t_max]; each
    near-return (a local minimum of the displacement below half the
    circumradius) is polished by a damped least-squares Newton on (z, tau)
    with a phase condition killing the time-shift, started from the seed's
    flow over that time.  A seed that lies on the orbit its polish found
    (within TOL_SUBPERIOD of its initial point) closes at its period p, and
    its near-returns within two scan steps of k p, k >= 2, are covers of
    that orbit and are not polished; a polish that moved away from the seed
    skips nothing.  Each candidate is reduced to its minimal period, and its
    Reeb trajectory over that period, read off its flow, is used to
    deduplicate the candidates after it by trajectory distance.
    Integer multiples within the window are listed in meta["multiples"].
    """
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    _, R = body.pinching_radii()
    seeds = np.array(_default_seeds(body, n_seeds - body.n, seed))
    flow = _alpha_flow(body, seeds, body.alpha)
    ts, step = np.linspace(0.0, t_max, SCAN_POINTS + 1, retstep=True)
    disp = np.linalg.norm(flow.z(ts * (2.0 / body.alpha)) - seeds, axis=-1)
    inner = disp[1:-1]
    near = (inner <= disp[:-2]) & (inner <= disp[2:]) & (inner < 0.5 * R)

    candidates: list[ClosedOrbit] = []
    closed: dict[int, list[float]] = {}  # seed -> periods it closed at
    for j, i in zip(*np.nonzero(near.T)):
        t = ts[i + 1]
        if any(round(t / p) >= 2 and abs(t - round(t / p) * p) <= 2 * step
               for p in closed.get(j, ())):
            continue
        orb = _newton_polish(body, seeds[j], t, t_max, start=PeriodFlow(flow.start(j), t))
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
    The path and Gamma_alpha(1) are the closed-form flow at alpha, which
    becomes the orbit's flow, and the Reeb monodromy M_2 the same closed
    form at alpha = 2.
    """
    if not (1.0 < alpha < 2.0):
        raise ValueError("alpha must lie in (1, 2)")
    z0 = np.asarray(orbit.initial_point, float)
    tau = float(orbit.period)
    d = body.dim
    n = d // 2

    flow = _period_flow(body, z0, tau, alpha)
    M2 = _period_flow(body, z0, tau, 2.0).monodromy
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
