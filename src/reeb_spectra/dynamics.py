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
B = Omega J K, Omega the rates lifted to R^{2n}.  Since plane h only turns,
by theta_h = sigma omega_h, the distance travelled needs no trajectory:
|z(sigma) - z0|^2 = 4 sum_h |z0_h|^2 sin^2(theta_h / 2).

`_alpha_flow` builds this flow from one jet of G per start.  The search and
the orbit's `flow` are the Reeb flow, alpha = 2: the seed scan reads its
displacement from all seeds at once (`AlphaFlow.displacement`), each Newton
trial its (z, M_2) over one period (`flow_with_monodromy`, a `PeriodFlow`),
and the accepted trial's flow gives the orbit's winding vector and is the
index path's Reeb flow.  The sampling Besse test reads the same displacement
at tau, and `integrate_reeb` is the flow's z part.  alpha in (1, 2) enters
only the index path, the degree-alpha path `cz_index` counts, and Clarke.
No ODE is solved.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import conley_zehnder as cz
from .bodies import DEFAULT_ALPHA, ConvexBody
from .symplectic import SymplecticPath, apply_J, standard_J, symplectic_defect

log = logging.getLogger(__name__)

TOL_ORBIT = 1e-9
TOL_SUBPERIOD = 1e-5
# time samples of the seed scan over (0, t_max]
SCAN_POINTS = 4000
N_SEEDS = 16  # seeds of the orbit search
BESSE_SAMPLES = 2000  # surface samples of the sampling Besse test
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

    def _turns(self, sigma):
        """frac(sigma omega / 2 pi), shape S + rates.shape: the plane angles
        sigma omega in turns, reduced so that a long span stays accurate."""
        turns = np.multiply.outer(np.asarray(sigma, dtype=float), self.rates) / (2.0 * np.pi)
        return turns - np.floor(turns)

    def _rotations(self, sigma):
        """(cos, sin) of the plane angles, each 2 pi `_turns`."""
        angle = 2.0 * np.pi * self._turns(sigma)
        return np.cos(angle), np.sin(angle)

    def displacement(self, sigma) -> np.ndarray:
        """|z(sigma) - z0|, shape S + z0.shape[:-1], with no trajectory built:
        plane h turns by the angle theta_h = 2 pi `_turns` and keeps its
        radius s_h = |z0_h|^2, so |z(sigma) - z0|^2 = 4 sum s_h sin^2(theta_h / 2)."""
        s = np.sum(self.z0.reshape(self.rates.shape + (2,)) ** 2, axis=-1)
        return 2.0 * np.sqrt(np.sum(s * np.sin(np.pi * self._turns(sigma)) ** 2, axis=-1))

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

    `end` and `monodromy` are z and Gamma_alpha at the end of the span, and
    `path` is Gamma_alpha on [0, 1] with its exact speed.
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


@dataclass
class ClosedOrbit:
    """A (numerically) closed Reeb orbit with its linearized-flow data.

    `flow` is the Reeb flow (alpha = 2) over one period, set by the search
    and by `monodromy_and_index`, and None on an orbit built by hand or by
    the Clarke reconstruction; `monodromy` is its M_2, None without it.
    """

    initial_point: np.ndarray
    period: float
    residual: float
    cz_index: int | None = None
    morse_index: int | None = None
    nullity: int | None = None
    meta: dict = field(default_factory=dict)
    flow: PeriodFlow | None = field(default=None, repr=False, compare=False)

    @property
    def monodromy(self) -> np.ndarray | None:
        return None if self.flow is None else self.flow.monodromy

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


def integrate_reeb(body: ConvexBody, z: np.ndarray, t: float) -> np.ndarray:
    """phi_R^t of a point (2n,) or a batch (N, 2n): the z part of the
    closed-form flow at alpha = 2, in the shape of z.

    Plane h turns counter-clockwise (J v = (-v_2, v_1)) by the angle
    2 g_h(s) t, with the plane radii s and the rates g_s fixed along the
    orbit (module docstring), reduced as 2 pi frac(g_h t / pi) so that a
    large t stays accurate.  Every start must lie on Sigma to 1e-10.
    """
    z = np.asarray(z, dtype=float)
    if not body.on_surface(z):
        raise ValueError("starting point is off the surface beyond 1e-10")
    return _alpha_flow(body, z, 2.0).z(t)


def flow_with_monodromy(body: ConvexBody, z0: np.ndarray, tau: float,
                        alpha: float = 2.0) -> PeriodFlow:
    """Flow and linearized flow from z0 over one period, in closed form.

    alpha = 2 gives the Reeb (degree-2) flow over [0, tau]; alpha in (1, 2)
    the degree-alpha Hamiltonian flow over [0, 2 tau/alpha].  The PeriodFlow
    carries the endpoint, the monodromy, the path on [0, 1] with its exact
    speed (span times the larger of |A|_2 and |A + span B|_2, module
    docstring).
    """
    return PeriodFlow(_alpha_flow(body, z0, alpha), float(tau))


# -- closed-orbit shooting ---------------------------------------------------


def _default_seeds(body: ConvexBody, extra: int, seed: int) -> list[np.ndarray]:
    """A point on each coordinate circle, then `extra` surface samples."""
    pts = list(body.project_to_surface(np.eye(body.dim)[0::2]))
    if extra > 0:
        pts.extend(body.surface_samples(extra, seed=seed))
    return pts


def _newton_polish(body: ConvexBody, z_seed: np.ndarray, tau_guess: float, t_max: float,
                   start: PeriodFlow | None = None):
    """Damped least-squares Newton on (z, tau) for phi_R^tau(z) = z on Sigma,
    with a phase condition along the Reeb field at the seed; the closed orbit
    or None.

    Each trial is the Reeb flow over tau (`flow_with_monodromy` at
    alpha = 2): the residual is phi_R^tau(z) - z, with z-Jacobian M_2 - I
    and tau-column X_G(z_end).  `start`, the seed's Reeb flow over tau_guess
    that the caller built anyway (the seed scan's, or the orbit's own), gives
    the first residual and Jacobian; without it the seed's flow is built
    here.  The accepted trial's flow becomes the orbit's `flow`, and so its
    monodromy.
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

    flow = start if start is not None else flow_with_monodromy(body, z, tau)
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
            flow_try = flow_with_monodromy(body, z_try, tau_try)
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
    return ClosedOrbit(initial_point=z, period=tau, residual=float(rnorm), flow=flow)


def _winding(orbit: ClosedOrbit) -> tuple[int, ...]:
    """The orbit's turn counts round(span omega_h / 2 pi) on the planes it
    occupies (|z_h| >= TOL_SUBPERIOD / 2; the residual below TOL_ORBIT puts
    them within 1e-4 of integers), 0 on the others.  Every accepted body is
    a convex toric domain, on which this vector fixes the face of Omega the
    orbit sits over, and so its family (Gutt-Hutchings, Algebr. Geom. Topol.
    18 (2018))."""
    flow = orbit.flow
    turns = flow.span * flow.flow.rates / (2.0 * np.pi)
    occupied = np.linalg.norm(orbit.initial_point.reshape(-1, 2), axis=1) >= 0.5 * TOL_SUBPERIOD
    return tuple(round(x) if on else 0 for x, on in zip(turns, occupied))


def _minimal_period(body: ConvexBody, orbit: ClosedOrbit) -> ClosedOrbit:
    """The orbit at its minimal period.

    The flow turns plane h at the fixed rate omega_h, so an orbit covers a
    primitive orbit k times, k the gcd of its winding vector (`_winding`).
    For k >= 2 the Newton polish at tau/k, started from the orbit's own flow
    (`orbit.flow`) over tau/k, gives the primitive orbit with its own flow;
    a polish that fails keeps the orbit.
    """
    k = math.gcd(*_winding(orbit))
    if k < 2:
        return orbit
    tau = orbit.period / k
    polished = _newton_polish(body, orbit.initial_point, tau, t_max=orbit.period,
                              start=PeriodFlow(orbit.flow.flow, tau))
    return orbit if polished is None else polished


def find_closed_orbits(
    body: ConvexBody,
    t_max: float,
    n_seeds: int = N_SEEDS,
    seed: int = 0,
) -> list[ClosedOrbit]:
    """Shooting + Newton search for closed Reeb orbits with period in (0, t_max].

    Seeds are a point on each coordinate circle plus surface samples
    (Gaussian directions projected radially).  The closed-form Reeb flow from
    all seeds at once gives each seed's displacement at SCAN_POINTS Reeb
    times in (0, t_max] with no trajectory built (`AlphaFlow.displacement`);
    each near-return (a local minimum of the displacement below half the
    circumradius) is polished by a damped least-squares Newton on (z, tau)
    with a phase condition killing the time-shift, started from the seed's
    flow over that time.  A seed that lies on the orbit its polish found
    (within TOL_SUBPERIOD of its initial point) closes at its period p, and
    its near-returns within two scan steps of k p, k >= 2, are covers of
    that orbit and are not polished; a polish that moved away from the seed
    skips nothing.  Taken by period, each candidate is reduced to its
    minimal period (`_minimal_period`), and its winding vector (`_winding`)
    names its family: the first candidate on a key represents the family,
    with the key in meta["winding"], the number of candidates on it in
    meta["copies"] and its integer multiples within the window in
    meta["multiples"].  The families are listed by period.

    Every closed orbit of a body containing B(r) has action at least pi r^2
    (`pinching_radii`), so the scan resolves the shortest ones only while
    its step t_max / SCAN_POINTS stays below pi r^2 / 4; a longer window is
    refused, as are a t_max that is not positive and finite and n_seeds < 1.
    """
    if not 0.0 < t_max < np.inf:
        raise ValueError(f"t_max must be positive and finite, got {t_max}")
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be at least 1, got {n_seeds}")
    r, R = body.pinching_radii()
    if t_max / SCAN_POINTS > np.pi * r * r / 4.0:
        raise ValueError(f"t_max {t_max:g} exceeds SCAN_POINTS pi r^2 / 4 = "
                         f"{SCAN_POINTS * np.pi * r * r / 4.0:g} (r = {r:g}, the inradius): "
                         "the seed scan's step would alias the shortest periods")
    seeds = np.array(_default_seeds(body, n_seeds - body.n, seed))
    flow = _alpha_flow(body, seeds, 2.0)
    ts, step = np.linspace(0.0, t_max, SCAN_POINTS + 1, retstep=True)
    disp = flow.displacement(ts)
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

    families: dict[tuple[int, ...], ClosedOrbit] = {}
    for orb in sorted(candidates, key=lambda o: o.period):
        orb = _minimal_period(body, orb)
        key = _winding(orb)
        if key in families:
            families[key].meta["copies"] += 1
            continue
        orb.meta.update(winding=list(key), copies=1, multiples=[
            float(k * orb.period) for k in range(1, int(t_max / orb.period) + 1)
        ])
        families[key] = orb
    return sorted(families.values(), key=lambda o: o.period)


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
    alpha: float = DEFAULT_ALPHA,
) -> ClosedOrbit:
    """Fill the Reeb flow and (cz, morse, nullity) on a found orbit.

    The CZ index is computed on the full linearized degree-alpha flow path
    (alpha in (1,2); the value is alpha-independent).  The nullity is
    dim ker(Gamma_alpha(1) - I), the endpoint kernel `cz_index` decides
    (`cz.cz_nullity`).  Over E + E^omega the endpoint is blockdiag(shear, N),
    with N the alpha-independent restriction of the Reeb monodromy to
    E^omega, and the shear block adds exactly one kernel direction, so the
    nullity is 1 + dim ker(N - I).  The residual of that reconstruction of
    the endpoint is recorded in meta and flagged with a warning above 1e-6.
    The Reeb flow over the period becomes the orbit's `flow`, and its M_2
    `orbit.monodromy`: the orbit's own `flow` when it is that flow (alpha 2,
    from `initial_point` over `period`, as the search leaves it), else one
    built here.  The degree-alpha flow is built only for the index.
    """
    if not (1.0 < alpha < 2.0):
        raise ValueError("alpha must lie in (1, 2)")
    z0 = np.asarray(orbit.initial_point, float)
    tau = float(orbit.period)
    d = body.dim
    n = d // 2

    reeb = orbit.flow
    if (reeb is None or reeb.alpha != 2.0 or reeb.tau != tau
            or not np.array_equal(reeb.flow.z0, z0)):
        reeb = flow_with_monodromy(body, z0, tau)
    sdef = symplectic_defect(reeb.monodromy)
    if sdef > 1e-7:
        warnings.warn(f"monodromy symplecticity defect {sdef:.2e} above 1e-7")

    N, S, resid_inv = return_block(body, z0, reeb.monodromy)
    alpha_flow = flow_with_monodromy(body, z0, tau, alpha)

    # assemble Gamma_alpha(1) from the closed-form shear and N, then compare
    u1 = body.reeb_field(z0)
    B = np.column_stack([u1, z0, S])
    shear = np.array([[1.0, (alpha - 2.0) * tau], [0.0, 1.0]])
    assembled = np.zeros((d, d))
    assembled[:2, :2] = shear
    assembled[2:, 2:] = N
    M_assembled = B @ assembled @ np.linalg.inv(B)
    block_resid = float(np.abs(M_assembled - alpha_flow.monodromy).max())

    index = cz.cz_index(alpha_flow.path)
    orbit.flow = reeb
    orbit.cz_index = int(index)
    orbit.morse_index = int(index) - n
    orbit.nullity = cz.cz_nullity(alpha_flow.path)
    orbit.meta.update(alpha=alpha, symplectic_defect=sdef, block_residual=block_resid,
                      invariance_residual=resid_inv, block_decomposition_ok=block_resid <= 1e-6)
    if block_resid > 1e-6:
        warnings.warn(f"block decomposition residual {block_resid:.2e} above 1e-6; "
                      "raw monodromy reported")
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
    samples: int = BESSE_SAMPLES,
    seed: int = 0,
) -> BesseTestResult:
    """Sample Sigma, report the worst displacement |phi_R^tau(z) - z|.

    The displacements are the Reeb flow's closed form
    (`AlphaFlow.displacement`), so no endpoint is built.  The verdict is
    numerical evidence at the stated tolerance and sample density, never a
    proof: Besse at tau requires fix(phi_R^tau) = Sigma.
    """
    if not 0.0 < tau < np.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    Z = body.surface_samples(samples, seed=seed)
    disp = _alpha_flow(body, Z, 2.0).displacement(tau)
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
