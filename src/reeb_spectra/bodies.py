"""Strongly convex domains C in R^{2n} with boundary Sigma = F^{-1}(1).

Two input families are supported:

  quadric             F(z) = Q(z) = pi sum |z_h|^2 / a_h           (ellipsoid)
  quadric + quartic   F(z) = Q(z) + eps sum q_h |z_h|^4

The degree-2 homogenization G = gauge^2 (so Sigma = G^{-1}(1)) has a closed
form for both families: G solves G^2 - Q G - eps P = 0, i.e.

    G = (Q + sqrt(Q^2 + 4 eps P)) / 2,

with gradients and Hessians by implicit differentiation.  The alpha-degree
Hamiltonian is H = G^{alpha/2}; its Legendre dual is computed through the
support function,

    H*(w) = beta^{-1} alpha^{1-beta} h_C(w)^beta,   beta = alpha/(alpha-1),

closed-form for quadrics and by Newton on the tangency system otherwise.

In both families G depends on z only through the plane radii |z_h|^2 and is
convex in them, so the pinching radii are exact: max G sits on a coordinate
circle, and min G is the root of a convex function of one variable, solved
by Newton.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .symplectic import apply_J

DEFAULT_ALPHA = 1.5
CONVEXITY_SAMPLES = 1000
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
                 alpha: float = DEFAULT_ALPHA, validate: bool = True):
        self.a = np.array([_parse_number(x) for x in a], dtype=float)
        if np.any(self.a <= 0):
            raise ValueError("ellipsoid parameters must be positive")
        self.n = len(self.a)
        self.dim = 2 * self.n
        self.epsilon = float(epsilon)
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if quartic is None:
            quartic = np.ones(self.n)
        self.quartic = np.array([_parse_number(x) for x in quartic], dtype=float)
        if len(self.quartic) != self.n:
            raise ValueError("quartic coefficient list must have one entry per plane")
        if self.epsilon and np.any(self.quartic < 0):
            raise ValueError("quartic coefficients must be non-negative")
        if not (1.0 < alpha < 2.0):
            raise ValueError(f"alpha must lie in (1, 2), got {alpha}")
        self.alpha = float(alpha)
        # per-coordinate quadric weights: Q(z) = sum w_i z_i^2
        self._w = np.repeat(np.pi / self.a, 2)
        self._q4 = np.repeat(self.quartic, 2)
        self._hessQ = np.diag(2.0 * self._w)
        # q_h on the 2x2 diagonal block of plane h: the pattern of the quartic Hessian
        self._q4_blocks = np.kron(np.diag(self.quartic), np.ones((2, 2)))
        self.kind = "quadric" if self.epsilon == 0.0 else "perturbed"
        self.convexity_margin = None
        if validate:
            self._validate_convexity()

    @classmethod
    def from_spec(cls, spec: dict, alpha: float = DEFAULT_ALPHA, validate: bool = True) -> "ConvexBody":
        """Body from the JSON schema {"type": "ellipsoid"|"perturbed", ...}."""
        kind = spec.get("type")
        if kind == "ellipsoid":
            return cls(a=spec["a"], alpha=alpha, validate=validate)
        if kind == "perturbed":
            return cls(
                a=spec["a"],
                epsilon=_parse_number(spec.get("epsilon", 0.0)),
                quartic=spec.get("quartic"),
                alpha=alpha,
                validate=validate,
            )
        raise ValueError(f"unknown body type {kind!r}")

    # -- degree-2 homogenization -------------------------------------------

    def quadric(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        return np.sum(self._w * z * z, axis=-1)

    def _quartic_sum(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        r2 = z[..., 0::2] ** 2 + z[..., 1::2] ** 2
        return np.sum(self.quartic * r2 * r2, axis=-1)

    def gauge2(self, z: np.ndarray) -> np.ndarray:
        """G(z) = gauge(z)^2; positively 2-homogeneous with G^{-1}(1) = Sigma."""
        Q = self.quadric(z)
        if self.epsilon == 0.0:
            return Q
        P = self._quartic_sum(z)
        return 0.5 * (Q + np.sqrt(Q * Q + 4.0 * self.epsilon * P))

    def _gauge2_jet(self, z: np.ndarray):
        """Q, G, 2G - Q, grad Q, grad G and the per-coordinate plane radii
        |z_h|^2 of a perturbed body, each computed once."""
        Q = self.quadric(z)
        r2 = z[..., 0::2] ** 2 + z[..., 1::2] ** 2
        G = 0.5 * (Q + np.sqrt(Q * Q + 4.0 * self.epsilon * np.sum(self.quartic * r2 * r2, axis=-1)))
        denom = 2.0 * G - Q
        r2 = np.repeat(r2, 2, axis=-1)
        gradQ = 2.0 * self._w * z
        gradP = 4.0 * self._q4 * r2 * z
        gradG = (G[..., None] * gradQ + self.epsilon * gradP) / denom[..., None]
        return Q, G, denom, gradQ, gradG, r2

    def grad_gauge2(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if self.epsilon == 0.0:
            return 2.0 * self._w * z
        return self._gauge2_jet(z)[4]

    def hess_gauge2(self, z: np.ndarray) -> np.ndarray:
        """Hessian of G at points (..., 2n), shape (..., 2n, 2n)."""
        return self._gauge2_derivatives(z)[2]

    def _gauge2_derivatives(self, z: np.ndarray):
        """(G, grad G, hess G) at points (..., 2n) from one jet."""
        z = np.asarray(z, dtype=float)
        if self.epsilon == 0.0:
            return (self.quadric(z), 2.0 * self._w * z,
                    self._hessQ * np.ones(z.shape[:-1] + (1, 1)))
        _, G, denom, gradQ, gradG, r2 = self._gauge2_jet(z)
        hessP = (8.0 * self._q4_blocks * (z[..., :, None] * z[..., None, :])
                 + (4.0 * self._q4 * r2)[..., None] * np.eye(self.dim))
        sym = gradG[..., :, None] * gradQ[..., None, :]
        outer_G = gradG[..., :, None] * gradG[..., None, :]
        hessG = (G[..., None, None] * self._hessQ + self.epsilon * hessP + sym
                 + np.swapaxes(sym, -1, -2) - 2.0 * outer_G) / denom[..., None, None]
        return G, gradG, hessG

    def _homogeneous_derivatives(self, z: np.ndarray, alpha: float):
        """(grad, hess) of G^{alpha/2} at points (..., 2n) from one jet of G.

        Chain rule: grad = a G^{a-1} grad G and
        hess = a ((a-1) G^{a-2} grad G grad G^T + G^{a-1} hess G), a = alpha/2;
        alpha = 2 returns the derivatives of G itself.
        """
        G, gradG, hessG = self._gauge2_derivatives(z)
        if alpha == 2.0:
            return gradG, hessG
        a2 = alpha / 2.0
        G1, G2 = G[..., None], G[..., None, None]
        outer_G = gradG[..., :, None] * gradG[..., None, :]
        grad = a2 * G1 ** (a2 - 1.0) * gradG
        hess = a2 * ((a2 - 1.0) * G2 ** (a2 - 2.0) * outer_G + G2 ** (a2 - 1.0) * hessG)
        return grad, hess

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
        if self.epsilon == 0.0:
            # the Hessian is the constant 2 diag(pi / a); its smallest
            # eigenvalue 2 pi / a_max has the whole plane of a_max as
            # eigenspace, which meets every tangent hyperplane
            min_eig, where = 2.0 * self._w.min(), "anywhere"
        else:
            pts = self.surface_samples(CONVEXITY_SAMPLES)
            _, g, hess = self._gauge2_derivatives(pts)
            # restrict to the tangent space ker(dG): the Householder reflection
            # taking g to -sign(g_0) e_0 has its other columns orthonormal in g^perp
            g /= np.linalg.norm(g, axis=-1, keepdims=True)
            v = g.copy()
            v[:, 0] += np.where(g[:, 0] >= 0.0, 1.0, -1.0)
            vv = v[:, :, None] * v[:, None, :] / np.sum(v * v, axis=-1)[:, None, None]
            basis = (np.eye(self.dim) - 2.0 * vv)[:, :, 1:]
            restricted = np.swapaxes(basis, -1, -2) @ hess @ basis
            min_eig, where = np.linalg.eigvalsh(restricted)[:, 0].min(), "at the sampled points"
        self.convexity_margin = float(min_eig)
        if min_eig <= CONVEXITY_MIN_EIG:
            raise ValueError(
                f"body is not strongly convex {where}: "
                f"smallest restricted Hessian eigenvalue {min_eig:.3e}"
            )

    # -- support function and Legendre dual ---------------------------------

    @property
    def beta(self) -> float:
        """Holder conjugate of alpha; homogeneity degree of the dual."""
        return self.alpha / (self.alpha - 1.0)

    def _support_quadric(self, w: np.ndarray):
        w = np.asarray(w, dtype=float)
        h = np.sqrt(np.sum(w * w / self._w, axis=-1))
        u = (w / self._w) / h[..., None]
        return h, u

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
        form for quadrics.  Otherwise the method needs G to depend on z only
        through the plane radii s_h = |z_h|^2, as it does for both families
        `from_spec` accepts.  The unit sphere maps onto the simplex
        {s >= 0, sum s_h = 1}, on which, with c_h = pi/a_h and e_h = eps q_h,

            G(s) = (c.s + sqrt((c.s)^2 + 4 sum e_h s_h^2)) / 2

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
            return float(np.sqrt(self.a[0] / np.pi)), float(np.sqrt(self.a[-1] / np.pi))
        c = np.pi / self.a
        e = self.epsilon * self.quartic
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
        return ConvexBody(
            a=self.a, epsilon=self.epsilon, quartic=self.quartic, alpha=alpha, validate=False
        )

    def __repr__(self):
        if self.kind == "quadric":
            return f"ConvexBody(ellipsoid a={self.a.tolist()}, alpha={self.alpha})"
        return (
            f"ConvexBody(perturbed a={self.a.tolist()}, eps={self.epsilon}, "
            f"quartic={self.quartic.tolist()}, alpha={self.alpha})"
        )
