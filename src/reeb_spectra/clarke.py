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
GTOL = 1e-12  # L-BFGS-B projected-gradient tolerance
DOUBLE_TOL = 1e-6  # relative systole change that triggers the doubling advisory


class MinimizationError(RuntimeError):
    def __init__(self, message, best_value=None, best_grad_norm=None):
        super().__init__(message)
        self.best_value = best_value
        self.best_grad_norm = best_grad_norm


@dataclass(frozen=True)
class FourierLoop:
    """Zero-mean real loop through coefficients of frequencies 1..K."""

    coeffs: np.ndarray  # complex, shape (K, 2n)
    grid_size: int

    def __post_init__(self):
        c = np.asarray(self.coeffs)
        if c.ndim != 2 or c.shape[1] % 2:
            raise ValueError("coeffs must have shape (K, 2n)")
        if self.grid_size < MIN_OVERSAMPLE * 2 * c.shape[0]:
            raise ValueError(
                f"grid_size {self.grid_size} under the aliasing guard "
                f"{MIN_OVERSAMPLE * 2 * c.shape[0]} for K = {c.shape[0]}"
            )

    @property
    def n_modes(self) -> int:
        return self.coeffs.shape[0]

    @property
    def dim(self) -> int:
        return self.coeffs.shape[1]

    def grid(self) -> np.ndarray:
        return np.arange(self.grid_size) / self.grid_size

    def values(self) -> np.ndarray:
        """u(t_j) on the quadrature grid, shape (M, 2n)."""
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
    K, d = coeffs.shape
    spec = np.zeros((M // 2 + 1, d), dtype=complex)
    spec[1 : K + 1] = coeffs
    return np.fft.irfft(spec, n=M, axis=0, norm="forward")


def _quadratic_part(coeffs: np.ndarray) -> float:
    k = np.arange(1, coeffs.shape[0] + 1)
    a, b = coeffs.real, coeffs.imag
    Jb = apply_J(b)
    return float(-np.sum(np.sum(a * Jb, axis=1) / (np.pi * k)))


def _quadratic_grad(coeffs: np.ndarray) -> np.ndarray:
    k = np.arange(1, coeffs.shape[0] + 1)[:, None]
    a, b = coeffs.real, coeffs.imag
    ga = -apply_J(b) / (np.pi * k)
    gb = apply_J(a) / (np.pi * k)
    return ga + 1j * gb


def psi(body: ConvexBody, loop: FourierLoop) -> float:
    """Clarke dual action Psi(u); Psi(0) = 0."""
    return psi_with_grad(body, loop)[0]


def psi_with_grad(body: ConvexBody, loop: FourierLoop):
    """(Psi, dPsi/dc) with the gradient as a complex (K, 2n) array
    holding d/dRe + i d/dIm."""
    u = loop.values()
    M = loop.grid_size
    w = -apply_J(u)
    dual_vals, dual_grads = body._legendre_with_grad(w)
    grad_u = apply_J(dual_grads) / M  # d(mean H*(-Ju_j))/du_j
    spec = np.fft.rfft(grad_u, axis=0, norm="backward")
    grad_dual = 2.0 * spec[1 : loop.n_modes + 1]
    value = _quadratic_part(loop.coeffs) + float(np.mean(dual_vals))
    grad = _quadratic_grad(loop.coeffs) + grad_dual
    return value, grad


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


def _descend(body: ConvexBody, coeffs: np.ndarray, grid_size: int, maxiter: int):
    """One L-BFGS-B descent of Psi from the loop with these coefficients:
    (Psi, max |grad Psi|, coefficients) at its end and the number of Psi
    evaluations it made."""
    from scipy.optimize import minimize as scipy_minimize

    K, d = coeffs.shape

    def fun(x):
        v, g = psi_with_grad(body, FourierLoop(coeffs=_unpack(x, K, d), grid_size=grid_size))
        return v, _pack(g)

    res = scipy_minimize(fun, _pack(coeffs), jac=True, method="L-BFGS-B",
                         options={"maxiter": maxiter, "gtol": GTOL, "ftol": 1e-16})
    return res.fun, float(np.abs(res.jac).max()), _unpack(res.x, K, d), int(res.nfev)


def minimize(body: ConvexBody, config: MinimizeConfig | None = None) -> MinimizeResult:
    """Multi-start quasi-Newton minimization of Psi; returns the systole.

    The starts (one circle per plane, then cfg.starts random loops) descend
    one after another; the lowest converged one gives the minimizer.

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

    results = [_descend(body, loop.coeffs, M, cfg.maxiter) for loop in starts]
    psi_evaluations = sum(r[3] for r in results)
    ok = [(v, g, c) for v, g, c, _ in results if v < 0 and g < 1e-6]
    if not ok:
        best = min(results, key=lambda r: r[0])
        raise MinimizationError(
            "all minimization starts stalled",
            best_value=best[0],
            best_grad_norm=best[1],
        )
    psi_min, grad_norm, c_min = min(ok, key=lambda r: r[0])
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
        psi2, _, _, nfev = _descend(body, c2, 2 * M, cfg.maxiter)
        psi_evaluations += nfev
        sys2 = renormalized_action(psi2, alpha) if psi2 < 0 else np.inf
        diagnostics["systole_doubled_modes"] = sys2
        rel = abs(sys2 - systole) / max(abs(systole), 1e-300)
        diagnostics["doubling_rel_change"] = rel
        if rel > DOUBLE_TOL:
            warnings.warn(
                f"doubling the mode count moved the systole by {rel:.2e}; "
                "result may be under-resolved"
            )

    # one support solve each; the count moves with the rounding of the
    # descents' ulp-level stop
    diagnostics["psi_evaluations"] = psi_evaluations
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
