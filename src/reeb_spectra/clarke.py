"""Clarke dual action functional on a truncated Fourier model of zero-mean
loops, its renormalization, and the variational systole computation.

A loop u = zeta' in L^beta_0(S^1, R^{2n}) is stored through its analytic
Fourier coefficients c_k in C^{2n} for k = 1..K (negative frequencies are
conjugate, there is no k = 0 term).  The functional is

    Psi(u) = integral( -1/2 <J zeta, zeta'> + H*(-J zeta') ) dt
           = - sum_k Im(c_k^* J c_k) / (2 pi k)  +  mean_j H*(-J u(t_j)),

with the quadratic part exact per frequency and the dual term by uniform
quadrature on an oversampled grid (exact for band-limited integrands up to
the guard).  Critical points with Psi < 0 are closed Reeb orbits after the
renormalization A = (alpha/2) ((2/(alpha-2)) Psi)^{(alpha-2)/alpha}, whose
minimum is the systole.

The systole's starts descend together: a numpy L-BFGS moves the stack of
start loops in lockstep, with one batched Psi evaluation (one irfft, one
support solve over every grid point of every loop, one rfft) per step.
The module needs numpy only.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .bodies import ConvexBody
from .dynamics import ClosedOrbit
from .symplectic import apply_J

DEFAULT_MODES = 64
OVERSAMPLE = 4  # quadrature grid: M = 2 K OVERSAMPLE points
MIN_OVERSAMPLE = 2
GTOL = 1e-12  # a descent stops at max |grad Psi| <= GTOL
HISTORY = 10  # L-BFGS (s, y) pairs kept per start
ARMIJO = 1e-4  # sufficient-decrease constant of the step test
# a refused step is cut to this range of its length; the first trial, of
# length 1, can overshoot by orders of magnitude, so the floor sits far below
# the textbook 0.1 and only keeps a cubic fit to rounding from stalling a step
CUT_RANGE = (1e-6, 0.5)
ROUNDING_ULPS = 4  # an accepted step that moves Psi by no more ulps of |Psi| ends a descent
EPS = np.finfo(float).eps
DOUBLE_TOL = 1e-6  # relative systole change that triggers the doubling advisory


class MinimizationError(RuntimeError):
    def __init__(self, message, best_value=None, best_grad_norm=None):
        super().__init__(message)
        self.best_value = best_value
        self.best_grad_norm = best_grad_norm


@dataclass(frozen=True)
class FourierLoop:
    """Zero-mean real loop through coefficients of frequencies 1..K, or a
    stack of S such loops on one grid (coefficients of shape (S, K, 2n))."""

    coeffs: np.ndarray  # complex, shape (K, 2n) or (S, K, 2n)
    grid_size: int

    def __post_init__(self):
        c = np.asarray(self.coeffs)
        if c.ndim not in (2, 3) or c.shape[-1] % 2:
            raise ValueError("coeffs must have shape (K, 2n) or (S, K, 2n)")
        K = c.shape[-2]
        if self.grid_size < MIN_OVERSAMPLE * 2 * K:
            raise ValueError(
                f"grid_size {self.grid_size} under the aliasing guard "
                f"{MIN_OVERSAMPLE * 2 * K} for K = {K}"
            )

    @property
    def n_modes(self) -> int:
        return self.coeffs.shape[-2]

    @property
    def dim(self) -> int:
        return self.coeffs.shape[-1]

    def grid(self) -> np.ndarray:
        return np.arange(self.grid_size) / self.grid_size

    def values(self) -> np.ndarray:
        """u(t_j) on the quadrature grid, shape (M, 2n), or (S, M, 2n) for a stack."""
        return _synthesize(self.coeffs, self.grid_size)

    def time_shift(self, s: float) -> "FourierLoop":
        K = self.n_modes
        phase = np.exp(2j * np.pi * np.arange(1, K + 1) * s)
        return FourierLoop(coeffs=self.coeffs * phase[:, None], grid_size=self.grid_size)

    def iterate(self, k: int, alpha: float) -> "FourierLoop":
        """Loop of the k-th iterate orbit: zeta_k(t) = k^{1/(alpha-2)} zeta(k t)."""
        K = self.n_modes
        out = np.zeros((K * k, self.dim), dtype=complex)
        out[k - 1 :: k] = float(k) ** (1.0 / (alpha - 2.0)) * k * self.coeffs
        return FourierLoop(coeffs=out, grid_size=self.grid_size * k)


def _synthesize(coeffs: np.ndarray, M: int) -> np.ndarray:
    *stack, K, d = coeffs.shape
    spec = np.zeros((*stack, M // 2 + 1, d), dtype=complex)
    spec[..., 1 : K + 1, :] = coeffs
    return np.fft.irfft(spec, n=M, axis=-2, norm="forward")


def _quadratic_part(coeffs: np.ndarray):
    """The quadratic part of Psi; one value per loop of a stack."""
    k = np.arange(1, coeffs.shape[-2] + 1)
    a, b = coeffs.real, coeffs.imag
    Jb = apply_J(b)
    return -np.sum(np.sum(a * Jb, axis=-1) / (np.pi * k), axis=-1)


def _quadratic_grad(coeffs: np.ndarray) -> np.ndarray:
    k = np.arange(1, coeffs.shape[-2] + 1)[:, None]
    a, b = coeffs.real, coeffs.imag
    ga = -apply_J(b) / (np.pi * k)
    gb = apply_J(a) / (np.pi * k)
    return ga + 1j * gb


def psi(body: ConvexBody, loop: FourierLoop) -> float:
    """Clarke dual action Psi(u); Psi(0) = 0."""
    return psi_with_grad(body, loop)[0]


def psi_with_grad(body: ConvexBody, loop: FourierLoop):
    """(Psi, dPsi/dc) with the gradient as a complex (K, 2n) array
    holding d/dRe + i d/dIm.

    A stack of S loops is evaluated in one pass, one irfft, one support
    solve over all S M grid points and one rfft, and gives Psi as an (S,)
    array and the gradients as (S, K, 2n).  Each loop's values are those it
    has evaluated alone.
    """
    u = loop.values()
    M = loop.grid_size
    w = -apply_J(u)
    dual_vals, dual_grads = body._legendre_with_grad(w.reshape(-1, loop.dim))
    grad_u = apply_J(dual_grads.reshape(u.shape)) / M  # d(mean H*(-Ju_j))/du_j
    spec = np.fft.rfft(grad_u, axis=-2, norm="backward")
    grad_dual = 2.0 * spec[..., 1 : loop.n_modes + 1, :]
    value = _quadratic_part(loop.coeffs) + np.mean(dual_vals.reshape(u.shape[:-1]), axis=-1)
    grad = _quadratic_grad(loop.coeffs) + grad_dual
    return (float(value) if u.ndim == 2 else value), grad


def renormalized_action(psi_value: float, alpha: float) -> float:
    """A = (alpha/2) ((2/(alpha-2)) Psi)^{(alpha-2)/alpha}; period at critical points."""
    if psi_value >= 0:
        raise ValueError("renormalized action needs Psi < 0")
    if not (1.0 < alpha < 2.0):
        raise ValueError("alpha must lie in (1, 2)")
    base = (2.0 / (alpha - 2.0)) * psi_value
    return 0.5 * alpha * base ** ((alpha - 2.0) / alpha)


@dataclass
class MinimizeConfig:
    modes: int = DEFAULT_MODES
    starts: int = 16
    maxiter: int = 2000
    seed: int = 0
    double_check: bool = True


@dataclass
class MinimizeResult:
    systole: float
    orbit: ClosedOrbit
    loop: FourierLoop
    psi_value: float
    grad_norm: float
    diagnostics: dict = field(default_factory=dict)


def circle_loop(body: ConvexBody, plane: int, modes: int, grid_size: int,
                tau: float | None = None) -> FourierLoop:
    """Single-mode loop seeded on the coordinate-plane circle of the body.

    The amplitude is the exact critical one for the quadric part: the
    rescaled orbit zeta has radius (2 tau / alpha)^{1/(alpha-2)} r_plane.
    """
    alpha = body.alpha
    r_plane = float(np.sqrt(body.a[plane] / np.pi))
    if tau is None:
        tau = float(body.a[plane])
    rho = (2.0 * tau / alpha) ** (1.0 / (alpha - 2.0)) * r_plane
    c = np.zeros((modes, body.dim), dtype=complex)
    # zeta(t) = rho e^{2 pi J t} in the plane -> u has c_1 = pi rho (i, 1)
    c[0, 2 * plane] = np.pi * rho * 1j
    c[0, 2 * plane + 1] = np.pi * rho
    return FourierLoop(coeffs=c, grid_size=grid_size)


def random_loop(dim: int, modes: int, grid_size: int, rng: np.random.Generator,
                amplitude: float = 1.0) -> FourierLoop:
    c = rng.normal(size=(modes, dim)) + 1j * rng.normal(size=(modes, dim))
    decay = np.exp(-np.arange(modes) / 3.0)[:, None]
    c *= decay
    dominant = rng.integers(0, dim // 2)
    c[0, 2 * dominant : 2 * dominant + 2] += 3.0 * (1 + 1j)
    return FourierLoop(coeffs=amplitude * c, grid_size=grid_size)


def _pack(c: np.ndarray) -> np.ndarray:
    return np.concatenate([c.real.ravel(), c.imag.ravel()])


def _unpack(x: np.ndarray, K: int, d: int) -> np.ndarray:
    half = K * d
    return x[:half].reshape(K, d) + 1j * x[half:].reshape(K, d)


def _psi_stack(body: ConvexBody, x: np.ndarray, K: int, grid_size: int):
    """Psi (S,) and its gradient (S, N) for S loops stored as real rows, each
    the interleaved real and imaginary parts of the (K, 2n) coefficients."""
    S = len(x)
    loop = FourierLoop(coeffs=x.view(complex).reshape(S, K, -1), grid_size=grid_size)
    values, grads = psi_with_grad(body, loop)
    return values, grads.view(float).reshape(S, -1)


def _lbfgs_direction(g, hist_s, hist_y, rho, gamma, used):
    """-H g by the L-BFGS two-loop recursion (Nocedal & Wright, Alg. 7.4)
    for each row, over the newest `used` history slots; an empty slot has
    rho = 0 and leaves its row unchanged."""
    q = g.copy()
    a = np.zeros(rho.shape)
    for j in range(HISTORY - 1, HISTORY - 1 - used, -1):
        a[:, j] = rho[:, j] * np.sum(hist_s[:, j] * q, axis=-1)
        q -= a[:, j, None] * hist_y[:, j]
    r = gamma[:, None] * q
    for j in range(HISTORY - used, HISTORY):
        b = rho[:, j] * np.sum(hist_y[:, j] * r, axis=-1)
        r += (a[:, j] - b)[:, None] * hist_s[:, j]
    return -r


def _descend(body: ConvexBody, coeffs: np.ndarray, grid_size: int, maxiter: int):
    """L-BFGS descents of Psi from a stack of S loops, moved in lockstep.

    Nocedal & Wright (2006), Alg. 7.4.  Each start keeps its own history of
    at most HISTORY (s, y) pairs, each kept only when s.y > eps y.y, and its
    own step length.  A step is tried at length 1 (the first at
    1/|grad Psi|_2, as L-BFGS-B does) and accepted on sufficient decrease,
    Psi_new <= Psi + ARMIJO alpha grad.p up to rounding; a refused step is
    cut to the minimizer of the cubic through the values and slopes at both
    ends, kept within CUT_RANGE of it.  Each round evaluates the trial loops
    of the starts still descending as one stack, so a start's arithmetic is
    the same in any batch.

    A start stops on the first of: max |grad Psi| <= GTOL ("gtol"); an
    accepted step that moved Psi by at most ROUNDING_ULPS ulps of |Psi|
    ("rounding"); maxiter accepted steps ("maxiter").

    Returns per start Psi, max |grad Psi| and the coefficients (S, K, 2n)
    at its end, its number of Psi evaluations and its stop reason.
    """
    S, K, d = coeffs.shape
    x = np.array(coeffs, dtype=complex).view(float).reshape(S, -1)
    f, g = _psi_stack(body, x, K, grid_size)
    evaluations = np.ones(S, dtype=int)
    end_f, end_g, end_x = np.empty(S), np.empty(S), np.empty_like(x)
    end_reason = np.empty(S, dtype="<U8")

    live = np.arange(S)  # the start of each row of the state below
    gnorm = np.abs(g).max(axis=-1)
    steps = np.zeros(S, dtype=int)
    reason = np.full(S, "maxiter" if maxiter == 0 else "", dtype="<U8")
    reason[gnorm <= GTOL] = "gtol"
    hist_s = np.zeros((S, HISTORY, x.shape[1]))
    hist_y = np.zeros_like(hist_s)
    rho = np.zeros((S, HISTORY))
    gamma = np.ones(S)
    pairs = np.zeros(S, dtype=int)
    p = -g
    with np.errstate(divide="ignore"):
        alpha = 1.0 / np.sqrt(np.sum(g * g, axis=-1))
    while True:
        done = reason != ""
        if done.any():
            ended = live[done]
            end_f[ended], end_g[ended], end_x[ended] = f[done], gnorm[done], x[done]
            end_reason[ended] = reason[done]
            keep = ~done
            live, x, f, g, gnorm, p, alpha, steps, reason = (
                a[keep] for a in (live, x, f, g, gnorm, p, alpha, steps, reason))
            hist_s, hist_y, rho, gamma, pairs = (
                a[keep] for a in (hist_s, hist_y, rho, gamma, pairs))
            if not live.size:
                break
        xt = x + alpha[:, None] * p
        ft, gt = _psi_stack(body, xt, K, grid_size)
        evaluations[live] += 1
        slope = np.sum(g * p, axis=-1)
        rounding = ROUNDING_ULPS * EPS * np.abs(f)
        accept = ft <= f + ARMIJO * alpha * slope + rounding
        if not accept.all():
            cut_rows = ~accept
            slope_t = np.sum(gt[cut_rows] * p[cut_rows], axis=-1)
            s0, a0 = slope[cut_rows], alpha[cut_rows]
            with np.errstate(invalid="ignore", divide="ignore"):
                d1 = s0 + slope_t - 3.0 * (ft[cut_rows] - f[cut_rows]) / a0
                d2 = np.sqrt(d1 * d1 - s0 * slope_t)
                cut = 1.0 - (slope_t + d2 - d1) / (slope_t - s0 + 2.0 * d2)
            alpha[cut_rows] = a0 * np.where(np.isfinite(cut), np.clip(cut, *CUT_RANGE), 0.5)
        if not accept.any():
            continue
        rows = np.flatnonzero(accept)
        step_s = xt[rows] - x[rows]
        step_y = gt[rows] - g[rows]
        moved = np.abs(ft[rows] - f[rows])
        x[rows], f[rows], g[rows] = xt[rows], ft[rows], gt[rows]
        gnorm[rows] = np.abs(gt[rows]).max(axis=-1)
        steps[rows] += 1
        reason[rows] = np.where(
            gnorm[rows] <= GTOL, "gtol",
            np.where(moved <= rounding[rows], "rounding",
                     np.where(steps[rows] >= maxiter, "maxiter", "")))
        go = reason[rows] == ""
        rows, step_s, step_y = rows[go], step_s[go], step_y[go]
        if not rows.size:
            continue
        sy = np.sum(step_s * step_y, axis=-1)
        yy = np.sum(step_y * step_y, axis=-1)
        curved = sy > EPS * yy
        new = rows[curved]
        if new.size:
            for hist, pair in ((hist_s, step_s[curved]), (hist_y, step_y[curved])):
                hist[new, :-1] = hist[new, 1:]
                hist[new, -1] = pair
            rho[new, :-1] = rho[new, 1:]
            rho[new, -1] = 1.0 / sy[curved]
            gamma[new] = sy[curved] / yy[curved]
            pairs[new] = np.minimum(pairs[new] + 1, HISTORY)
        p[rows] = _lbfgs_direction(g[rows], hist_s[rows], hist_y[rows], rho[rows],
                                   gamma[rows], int(pairs[rows].max()))
        alpha[rows] = 1.0
    return (end_f, end_g, end_x.view(complex).reshape(S, K, d), evaluations,
            end_reason.tolist())


def minimize(body: ConvexBody, config: MinimizeConfig | None = None) -> MinimizeResult:
    """Multi-start quasi-Newton minimization of Psi; returns the systole.

    The starts (one circle per plane, then cfg.starts random loops) descend
    together by the lockstep L-BFGS of `_descend`, one batched Psi
    evaluation per step.  Of the starts that end with Psi < 0 and
    max |grad Psi| < 1e-6, those within ROUNDING_ULPS ulps of the lowest Psi
    tie, and the one of least max |grad Psi| gives the minimizer; one more
    descent at 2K modes checks it.  diagnostics["psi_evaluations"] counts loop
    evaluations (the rows of the batched ones) and diagnostics["stops"]
    how many descents ended on each rule of `_descend`.

    c_0(Sigma) = min A = sys(Sigma): the minimizer is the rescaled shortest
    closed Reeb orbit, reconstructed through zeta(t) = grad H*(-J u(t)) and
    the inverse of the critical-point rescaling.
    """
    cfg = config or MinimizeConfig()
    if cfg.modes < 8:
        raise ValueError("need at least K = 8 Fourier modes")
    if cfg.starts < 0:
        raise ValueError(f"starts must be >= 0, got {cfg.starts}")
    if cfg.maxiter < 0:
        raise ValueError(f"maxiter must be >= 0, got {cfg.maxiter}")
    K = cfg.modes
    d = body.dim
    M = 2 * K * OVERSAMPLE
    alpha = body.alpha
    rng = np.random.default_rng(cfg.seed)

    starts = [circle_loop(body, h, K, M) for h in range(body.n)]
    base_amp = np.pi * (2.0 * body.a[0] / alpha) ** (1.0 / (alpha - 2.0)) * float(
        np.sqrt(body.a[0] / np.pi)
    )
    for _ in range(cfg.starts):
        starts.append(random_loop(d, K, M, rng, amplitude=0.3 * base_amp))

    values, grads, coeffs, evaluations, stops = _descend(
        body, np.stack([loop.coeffs for loop in starts]), M, cfg.maxiter)
    psi_evaluations = int(evaluations.sum())
    ok = np.flatnonzero((values < 0) & (grads < 1e-6))
    if not ok.size:
        best = int(np.argmin(values))
        raise MinimizationError(
            "all minimization starts stalled",
            best_value=float(values[best]),
            best_grad_norm=float(grads[best]),
        )
    # at the minimum the starts' Psi differ by rounding only: of those within
    # rounding of the lowest, the one nearest critical gives the orbit
    low = float(values[ok].min())
    near = ok[values[ok] <= low + ROUNDING_ULPS * EPS * abs(low)]
    best = near[np.argmin(grads[near])]
    psi_min, grad_norm, c_min = float(values[best]), float(grads[best]), coeffs[best]
    loop_min = FourierLoop(coeffs=c_min, grid_size=M)
    systole = renormalized_action(psi_min, alpha)

    diagnostics: dict = {"psi": psi_min, "grad_norm": grad_norm, "modes": K}

    # mode-energy refinement advisory
    energy = np.sum(np.abs(c_min) ** 2, axis=1)
    tail = float(np.sum(energy[3 * K // 4 :]) / max(np.sum(energy), 1e-300))
    diagnostics["tail_energy_fraction"] = tail
    if tail > 0.01:
        warnings.warn(
            f"{tail:.1%} of the loop energy sits in the top quarter of modes; "
            "increase the mode count"
        )

    if cfg.double_check:
        c2 = np.zeros((2 * K, d), dtype=complex)
        c2[:K] = c_min
        psi2, _, _, nfev, stops2 = _descend(body, c2[None], 2 * M, cfg.maxiter)
        psi2 = float(psi2[0])
        psi_evaluations += int(nfev[0])
        stops += stops2
        sys2 = renormalized_action(psi2, alpha) if psi2 < 0 else np.inf
        diagnostics["systole_doubled_modes"] = sys2
        rel = abs(sys2 - systole) / max(abs(systole), 1e-300)
        diagnostics["doubling_rel_change"] = rel
        if rel > DOUBLE_TOL:
            warnings.warn(
                f"doubling the mode count moved the systole by {rel:.2e}; "
                "result may be under-resolved"
            )

    # loop evaluations, each M support directions of a batched solve
    diagnostics["psi_evaluations"] = psi_evaluations
    diagnostics["stops"] = {why: stops.count(why) for why in ("gtol", "rounding", "maxiter")}
    orbit = reconstruct_orbit(body, loop_min, systole)
    return MinimizeResult(
        systole=float(systole),
        orbit=orbit,
        loop=loop_min,
        psi_value=float(psi_min),
        grad_norm=grad_norm,
        diagnostics=diagnostics,
    )


def reconstruct_orbit(body: ConvexBody, loop: FourierLoop, tau: float) -> ClosedOrbit:
    """Closed Reeb orbit from a critical loop.

    At a critical point zeta + const = grad H*(-J u); the centered primitive
    is therefore zeta(t) = grad H*(-J u(t)), and the orbit is
    gamma(tau t) = (2 tau/alpha)^{1/(2-alpha)} zeta(t).
    """
    alpha = body.alpha
    u = loop.values()
    zeta = body.grad_legendre(-apply_J(u))
    # Euler-Lagrange residual: spectral derivative of zeta vs u
    M = loop.grid_size
    spec = np.fft.rfft(zeta, axis=0, norm="forward")
    kf = np.arange(M // 2 + 1)
    dzeta = np.fft.irfft(spec * (2j * np.pi * kf)[:, None], n=M, axis=0, norm="forward")
    scale_u = float(np.abs(u).max())
    residual = float(np.abs(dzeta - u).max() / max(scale_u, 1e-300))
    z0 = (2.0 * tau / alpha) ** (1.0 / (2.0 - alpha)) * zeta[0]
    z0 = body.project_to_surface(z0)
    return ClosedOrbit(
        initial_point=z0,
        period=float(tau),
        residual=residual,
        meta={"source": "clarke-dual", "el_residual": residual},
    )
