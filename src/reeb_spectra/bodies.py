"""Strongly convex domains C in R^{2n} with boundary Sigma = F^{-1}(1).

Two input families are supported:

  quadric             F(z) = Q(z) = pi sum |z_h|^2 / a_h           (ellipsoid)
  quadric + quartic   F(z) = Q(z) + eps sum q_h |z_h|^4

The degree-2 homogenization G = gauge^2 (so Sigma = G^{-1}(1)) depends on z
only through the plane radii s_h = |z_h|^2.  With c_h = pi/a_h, e_h = eps q_h
it solves G^2 - (c.s) G - sum e_h s_h^2 = 0, i.e.

    G = (c.s + sqrt((c.s)^2 + 4 sum e_h s_h^2)) / 2.

Gradients and Hessians come from the plane-radius chain rule: one jet
(G, G_s, G_ss) in the n plane radii, the chain rule to H = G^{alpha/2} taken
there, and one lift to R^{2n}, grad = 2 G_s[h(i)] z_i and
hess = 2 diag(G_s) + 4 G_ss o z z^T (both lifted plane-wise).  The alpha-degree
Hamiltonian is H = G^{alpha/2}; its Legendre dual is computed through the
support function,

    H*(w) = beta^{-1} alpha^{1-beta} h_C(w)^beta,   beta = alpha/(alpha-1),

closed-form for quadrics and by Newton on the tangency system otherwise.

G is convex in the plane radii, so the pinching radii are exact: max G sits
on a coordinate circle, and min G is the root of a convex function of one
variable, solved by Newton.

Strong convexity follows from the parameters: with K = max_h e_h / c_h^2
and Q* = 2 / (1 + sqrt(1 + 4K)), hess G >= m I on Sigma for the
`convexity_margin` m = 2 c_min / (2 - Q*).  G(s) is c.s plus the norm of
the linear map s -> (c.s, 2 sqrt(e_h) s_h), so g_ss >= 0 and
hess G >= 2 diag(g_s) lifted.  On Sigma, g_h = (c_h + 2 e_h s_h) / r >= c_min / r
with r = 2 - Q, Q = c.s, and G = 1 reads 1 - Q = sum e_h s_h^2 <= K Q^2, so
Q >= Q*.  Quadrics have K = 0 and m = 2 pi / a_max, the exact value.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .symplectic import apply_J

DEFAULT_ALPHA = 1.5
CONVEXITY_MIN_EIG = 1e-8
SUPPORT_MAX_ITER = 50
SUPPORT_TOL = 1e-12


class SupportSolveError(RuntimeError):
    def __init__(self, message, best_value=None, grad_norm=None):
        super().__init__(message)
        self.best_value = best_value
        self.grad_norm = grad_norm


def _water_fill(g: float, c: np.ndarray, e: np.ndarray):
    """(d, s): the minimiser s of sum_h (g c_h s_h + e_h s_h^2) on the simplex
    and the prices d_h = g (c_h - min c) relative to the cheapest plane.

    s_h = max(0, (mu - d_h) / (2 e_h)) with the level mu fixed by sum s_h = 1;
    over the planes sorted by price, mu is the least of the levels of the
    prefixes.  A plane with e_h = 0 caps mu at its price and takes the mass
    left over.  Prices relative to the cheapest plane keep mu - d_h accurate
    where the absolute level would cancel.
    """
    d = g * (c - c.min())
    priced = np.flatnonzero(e > 0.0)
    priced = priced[np.argsort(d[priced], kind="stable")]
    w = 0.5 / e[priced]
    free = np.flatnonzero(e == 0.0)
    cap = float(np.min(d[free], initial=math.inf))
    mu = min(float(np.min((1.0 + np.cumsum(w * d[priced])) / np.cumsum(w), initial=math.inf)), cap)
    s = np.zeros_like(c)
    s[priced] = w * np.maximum(mu - d[priced], 0.0)
    if mu == cap:
        s[free[np.argmin(d[free])]] = 1.0 - s.sum()
    return d, s


def _parse_number(x) -> float:
    if isinstance(x, str):
        return float(Fraction(x))
    return float(x)


class ConvexBody:
    """Gauge representation of a strongly convex body with 0 in its interior.

    Evaluators accept points of shape (2n,) or batches (..., 2n); Hessians
    are batched to (..., 2n, 2n).  All evaluators are pure; instances are
    immutable in practice and safe to share.
    """

    def __init__(self, a: Sequence, epsilon: float = 0.0, quartic: Sequence | None = None,
                 alpha: float = DEFAULT_ALPHA):
        self.a = np.array([_parse_number(x) for x in a], dtype=float)
        if not np.all(np.isfinite(self.a)):
            raise ValueError("ellipsoid parameters a must be finite")
        if np.any(self.a <= 0):
            raise ValueError("ellipsoid parameters must be positive")
        self.n = len(self.a)
        self.dim = 2 * self.n
        self.epsilon = float(epsilon)
        if not math.isfinite(self.epsilon):
            raise ValueError("epsilon must be finite")
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if quartic is None:
            quartic = np.ones(self.n)
        self.quartic = np.array([_parse_number(x) for x in quartic], dtype=float)
        if len(self.quartic) != self.n:
            raise ValueError("quartic coefficient list must have one entry per plane")
        if not np.all(np.isfinite(self.quartic)):
            raise ValueError("quartic coefficients must be finite")
        if self.epsilon and np.any(self.quartic < 0):
            raise ValueError("quartic coefficients must be non-negative")
        if not (1.0 < alpha < 2.0):
            raise ValueError(f"alpha must lie in (1, 2), got {alpha}")
        self.alpha = float(alpha)
        # G depends on z only through the plane radii s_h = |z_h|^2, with
        # coefficients c_h = pi/a_h and e_h = eps q_h (see `_gauge2_jet`)
        self._c = np.pi / self.a
        self._e = self.epsilon * self.quartic
        self._2e = 2.0 * self._e
        self._diag_2e = np.diag(self._2e)
        # 2 delta_ij as (plane, coordinate, plane, coordinate)
        self._eye2 = 2.0 * np.eye(self.dim).reshape(self.n, 2, self.n, 2)
        self.kind = "quadric" if self.epsilon == 0.0 else "perturbed"
        self._validate_convexity()

    @classmethod
    def from_spec(cls, spec: dict, alpha: float = DEFAULT_ALPHA) -> "ConvexBody":
        """Body from the JSON schema {"type": "ellipsoid"|"perturbed", ...}."""
        kind = spec.get("type")
        if kind == "ellipsoid":
            return cls(a=spec["a"], alpha=alpha)
        if kind == "perturbed":
            return cls(
                a=spec["a"],
                epsilon=_parse_number(spec.get("epsilon", 0.0)),
                quartic=spec.get("quartic"),
                alpha=alpha,
            )
        raise ValueError(f"unknown body type {kind!r}")

    # -- degree-2 homogenization -------------------------------------------

    def _plane_gradient(self, z: np.ndarray):
        """(g, g_s, r) at points (..., 2n): G as a function of the plane radii
        s, its gradient in s and r = 2g - c.s (g and r keep a trailing axis).
        Differentiating g^2 - (c.s) g - sum e_h s_h^2 = 0 gives
        g_h = (g c_h + 2 e_h s_h) / r, and g_s = c for quadrics."""
        s = z[..., 0::2] ** 2 + z[..., 1::2] ** 2
        cs = (self._c * s).sum(-1, keepdims=True)
        if self.epsilon == 0.0:
            return cs, self._c, cs
        es = self._2e * s
        r = np.sqrt(cs * cs + 2.0 * (es * s).sum(-1, keepdims=True))
        g = 0.5 * (cs + r)
        return g, (g * self._c + es) / r, r

    def _gauge2_jet(self, z: np.ndarray):
        """(g, g_s, g_ss): G at points (..., 2n) and its gradient and Hessian
        in the plane radii s.  Differentiating r g_h = g c_h + 2 e_h s_h once
        more gives g_hk = (g_h u_k + u_h g_k + 2 e_h delta_hk) / r with
        u = c - g_s; g_ss = 0 for quadrics, so G stays finite at z = 0.
        """
        g, g_s, r = self._plane_gradient(z)
        if self.epsilon == 0.0:
            return g, g_s, np.zeros((self.n, self.n))
        m = g_s[..., None] * (self._c - g_s)[..., None, :]
        return g, g_s, (m + m.swapaxes(-1, -2) + self._diag_2e) / r[..., None]

    def _lift(self, z: np.ndarray, f_s: np.ndarray, f_ss: np.ndarray | None = None):
        """Gradient (and Hessian, given f_ss) in z of a function of the plane
        radii with derivatives f_s, f_ss in s: grad_i = 2 f_s[h(i)] z_i and
        hess = 2 diag(f_s lifted) + 4 (f_ss lifted) o z z^T."""
        y = 2.0 * z.reshape(z.shape[:-1] + (self.n, 2))
        grad = (f_s[..., None] * y).reshape(z.shape)
        if f_ss is None:
            return grad
        hess = (f_ss[..., :, None, :, None] * y[..., :, :, None, None] * y[..., None, None, :, :]
                + f_s[..., :, None, None, None] * self._eye2)
        return grad, hess.reshape(z.shape + (self.dim,))

    def gauge2(self, z: np.ndarray) -> np.ndarray:
        """G(z) = gauge(z)^2; positively 2-homogeneous with G^{-1}(1) = Sigma."""
        return self._plane_gradient(np.asarray(z, dtype=float))[0][..., 0]

    def grad_gauge2(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        return self._lift(z, self._plane_gradient(z)[1])

    def hess_gauge2(self, z: np.ndarray) -> np.ndarray:
        """Hessian of G at points (..., 2n), shape (..., 2n, 2n)."""
        return self._gauge2_derivatives(z)[2]

    def _gauge2_derivatives(self, z: np.ndarray):
        """(G, grad G, hess G) at points (..., 2n) from one jet."""
        z = np.asarray(z, dtype=float)
        g, g_s, g_ss = self._gauge2_jet(z)
        return (g[..., 0], *self._lift(z, g_s, g_ss))

    def _homogeneous_jet(self, z: np.ndarray, alpha: float):
        """(f_s, f_ss): the gradient and Hessian of f = G^{alpha/2} in the
        plane radii at points (..., 2n), from one jet of G by the chain rule
        (a = alpha/2): f_s = a G^{a-1} g_s, f_ss = a G^{a-1} (g_ss + (a-1) G^{-1} g_s g_s^T).
        At alpha = 2 they are the jet's own g_s and g_ss.
        """
        g, g_s, g_ss = self._gauge2_jet(z)
        if alpha != 2.0:
            a2 = alpha / 2.0
            p = a2 * g ** (a2 - 1.0)
            g_ss = p[..., None] * (g_ss + ((a2 - 1.0) / g)[..., None]
                                   * g_s[..., :, None] * g_s[..., None, :])
            g_s = p * g_s
        return g_s, g_ss

    def _homogeneous_derivatives(self, z: np.ndarray, alpha: float):
        """(grad, hess) of G^{alpha/2} at points (..., 2n), the lift of
        `_homogeneous_jet`."""
        z = np.asarray(z, dtype=float)
        return self._lift(z, *self._homogeneous_jet(z, alpha))

    # -- alpha-degree Hamiltonian ------------------------------------------

    def H(self, z: np.ndarray) -> np.ndarray:
        return self.gauge2(z) ** (self.alpha / 2.0)

    def grad_H(self, z: np.ndarray) -> np.ndarray:
        return self._homogeneous_derivatives(z, self.alpha)[0]

    def hess_H(self, z: np.ndarray) -> np.ndarray:
        return self._homogeneous_derivatives(z, self.alpha)[1]

    def reeb_field(self, z: np.ndarray) -> np.ndarray:
        """R = J grad G on Sigma (degree-2 normalization)."""
        return apply_J(self.grad_gauge2(z))

    # -- surface utilities ---------------------------------------------------

    def project_to_surface(self, z: np.ndarray) -> np.ndarray:
        """Radial projection z -> z / gauge(z)."""
        z = np.asarray(z, dtype=float)
        G = self.gauge2(z)
        return z / np.sqrt(G)[..., None]

    def on_surface(self, z: np.ndarray, tol: float = 1e-10) -> bool:
        return bool(np.all(np.abs(self.gauge2(z) - 1.0) <= tol))

    def surface_samples(self, count: int, seed: int | None = 0) -> np.ndarray:
        """Quasi-uniform boundary points: Sobol directions projected radially."""
        from scipy.stats import qmc

        m = int(count)
        sob = qmc.Sobol(d=self.dim, scramble=True, seed=seed)
        u = sob.random(1 << (m - 1).bit_length())[:m]
        from scipy.special import ndtri

        dirs = ndtri(np.clip(u, 1e-12, 1 - 1e-12))
        norms = np.linalg.norm(dirs, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        dirs /= norms
        return self.project_to_surface(dirs)

    def _validate_convexity(self):
        """Closed-form margin m <= min eig hess G on Sigma (module docstring)."""
        K = float(np.max(self._e / (self._c * self._c)))
        q_star = 2.0 / (1.0 + math.sqrt(1.0 + 4.0 * K))
        margin = 2.0 * float(self._c.min()) / (2.0 - q_star)
        self.convexity_margin = margin
        # written as "not above" so that a NaN margin is refused
        if not margin > CONVEXITY_MIN_EIG:
            raise ValueError(f"body is not strongly convex: convexity margin {margin:.3e}")

    # -- support function and Legendre dual ---------------------------------

    @property
    def beta(self) -> float:
        """Holder conjugate of alpha; homogeneity degree of the dual."""
        return self.alpha / (self.alpha - 1.0)

    def _support_quadric(self, w: np.ndarray):
        w = np.asarray(w, dtype=float)
        c2 = np.repeat(self._c, 2)  # per coordinate
        h = np.sqrt(np.sum(w * w / c2, axis=-1))
        return h, (w / c2) / h[..., None]

    def support(self, w: np.ndarray):
        """Support function h_C(w) = max{<z, w> : z in C} and its maximizer.

        Closed form for quadrics, Newton on the tangency system
        w = lam grad G(u), G(u) = 1 for perturbed bodies (initialized at the
        quadric maximizer; max_iter 50, tol 1e-12 on the residual).  Each
        Newton step evaluates the body once: the residual that decides
        convergence also gives the next step's Jacobian.
        """
        w = np.asarray(w, dtype=float)
        single = w.ndim == 1
        W = w.reshape(-1, self.dim)
        hq, uq = self._support_quadric(W)
        if self.epsilon == 0.0:
            if single:
                return float(hq[0]), uq[0]
            return hq, uq
        U = self.project_to_surface(uq)
        lam = np.sum(W * U, axis=-1) / 2.0
        idx = np.arange(len(W))  # the directions still iterating
        res, jac = self._support_kkt(W, U, lam)
        for _ in range(SUPPORT_MAX_ITER):
            if len(idx) == 0:
                break
            step = np.linalg.solve(jac, res[..., None])[..., 0]
            U[idx] -= step[:, : self.dim]
            lam[idx] -= step[:, self.dim]
            res, jac = self._support_kkt(W[idx], U[idx], lam[idx])
            # written as "not converged" so that a NaN residual keeps iterating
            keep = ~(np.linalg.norm(res, axis=-1) < SUPPORT_TOL * np.maximum(
                1.0, np.linalg.norm(W[idx], axis=-1)
            ))
            idx, res, jac = idx[keep], res[keep], jac[keep]
        if len(idx):
            bad = idx[0]
            raise SupportSolveError(
                f"support Newton did not converge for {len(idx)} direction(s)",
                best_value=float(np.sum(W[bad] * U[bad])),
                grad_norm=float(np.linalg.norm(res[0])),
            )
        h = np.sum(W * U, axis=-1)
        if single:
            return float(h[0]), U[0]
        return h, U

    def _support_kkt(self, W, U, lam):
        m = len(W)
        G, g, hess = self._gauge2_derivatives(U)
        res = np.empty((m, self.dim + 1))
        res[:, : self.dim] = lam[:, None] * g - W
        res[:, self.dim] = G - 1.0
        jac = np.zeros((m, self.dim + 1, self.dim + 1))
        jac[:, : self.dim, : self.dim] = lam[:, None, None] * hess
        jac[:, : self.dim, self.dim] = g
        jac[:, self.dim, : self.dim] = g
        return res, jac

    def _legendre_with_grad(self, W: np.ndarray):
        """(H*(W), grad H*(W)) for a batch (m, 2n) from one support solve."""
        vals = np.zeros(len(W))
        grads = np.zeros_like(W)
        nz = np.linalg.norm(W, axis=-1) > 0
        if np.any(nz):
            h, u = self.support(W[nz])
            beta = self.beta
            scale = self.alpha ** (1.0 - beta) * h ** (beta - 1.0)
            vals[nz] = (1.0 / beta) * scale * h
            grads[nz] = scale[:, None] * u
        return vals, grads

    def legendre_dual(self, w: np.ndarray):
        """H*(w) = max_z (<z, w> - H(z)), via the support function."""
        w = np.asarray(w, dtype=float)
        vals, _ = self._legendre_with_grad(w.reshape(-1, self.dim))
        return float(vals[0]) if w.ndim == 1 else vals

    def grad_legendre(self, w: np.ndarray):
        """grad H*(w) = alpha^{1-beta} h_C(w)^{beta-1} u*(w)."""
        w = np.asarray(w, dtype=float)
        _, grads = self._legendre_with_grad(w.reshape(-1, self.dim))
        return grads[0] if w.ndim == 1 else grads

    # -- pinching -------------------------------------------------------------

    def pinching_radii(self) -> tuple[float, float]:
        """(inradius, circumradius) of Sigma about the origin, exact.

        r = 1/sqrt(max G) and R = 1/sqrt(min G) over the unit sphere.  Closed
        form for quadrics.  Otherwise the unit sphere maps onto the simplex
        {s >= 0, sum s_h = 1} of plane radii, on which G(s) (module docstring)
        is convex: the square root is a Euclidean norm of a linear map of s.
        So max G sits at a vertex, a coordinate circle, where it is
        (c_h + sqrt(c_h^2 + 4 e_h)) / 2.  min G is the root g* of
        h(g) = g^2 - psi(g), psi(g) = min_s sum_h (g c_h s_h + e_h s_h^2),
        whose minimiser `_water_fill` gives in closed form.  psi is a minimum
        of functions affine in g, so h is convex, and Newton with
        h'(g) = 2g - c.s*(g) from the smallest vertex value decreases
        monotonically to g*; it stops when a step no longer lowers g.
        """
        if self.epsilon == 0.0:
            return float(np.sqrt(self.a.min() / np.pi)), float(np.sqrt(self.a.max() / np.pi))
        c, e = self._c, self._e
        vertex = 0.5 * (c + np.sqrt(c * c + 4.0 * e))
        g = float(vertex.min())
        while True:
            d, s = _water_fill(g, c, e)
            h = g * g - g * c.min() - float(np.sum(d * s + e * s * s))
            lower = g - h / (2.0 * g - float(c @ s))
            if not lower < g:
                break
            g = lower
        return 1.0 / math.sqrt(float(vertex.max())), 1.0 / math.sqrt(g)

    def homogenize(self, alpha: float) -> "ConvexBody":
        """Same body with homogeneity degree alpha in (1, 2)."""
        return ConvexBody(a=self.a, epsilon=self.epsilon, quartic=self.quartic, alpha=alpha)

    def __repr__(self):
        if self.kind == "quadric":
            return f"ConvexBody(ellipsoid a={self.a.tolist()}, alpha={self.alpha})"
        return (
            f"ConvexBody(perturbed a={self.a.tolist()}, eps={self.epsilon}, "
            f"quartic={self.quartic.tolist()}, alpha={self.alpha})"
        )
