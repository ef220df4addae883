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
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction
from typing import Sequence

import numpy as np

from .symplectic import apply_J

DEFAULT_ALPHA = 1.5
CONVEXITY_SAMPLES = 1000
CONVEXITY_MIN_EIG = 1e-8
SUPPORT_MAX_ITER = 50
SUPPORT_TOL = 1e-12
PINCH_MAX_ITER = 50
PINCH_MAX_HALVINGS = 40
PINCH_TOL = 1e-12
PINCH_EIG_FLOOR = 1e-10
PINCH_ROUNDING = 4.0 * np.finfo(float).eps


class SupportSolveError(RuntimeError):
    def __init__(self, message, best_value=None, grad_norm=None):
        super().__init__(message)
        self.best_value = best_value
        self.grad_norm = grad_norm


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
            g = self.grad_gauge2(pts)
            # restrict to the tangent space ker(dG): the Householder reflection
            # taking g to -sign(g_0) e_0 has its other columns orthonormal in g^perp
            g /= np.linalg.norm(g, axis=-1, keepdims=True)
            v = g.copy()
            v[:, 0] += np.where(g[:, 0] >= 0.0, 1.0, -1.0)
            vv = v[:, :, None] * v[:, None, :] / np.sum(v * v, axis=-1)[:, None, None]
            basis = (np.eye(self.dim) - 2.0 * vv)[:, :, 1:]
            restricted = np.swapaxes(basis, -1, -2) @ self.hess_gauge2(pts) @ basis
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
        quadric maximizer; max_iter 50, tol 1e-12 on the residual).
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
        active = np.ones(len(W), dtype=bool)
        for _ in range(SUPPORT_MAX_ITER):
            if not np.any(active):
                break
            idx = np.flatnonzero(active)
            res, jac = self._support_kkt(W[idx], U[idx], lam[idx])
            step = np.linalg.solve(jac, res[..., None])[..., 0]
            U[idx] -= step[:, : self.dim]
            lam[idx] -= step[:, self.dim]
            new_res, _ = self._support_kkt(W[idx], U[idx], lam[idx])
            ok = np.linalg.norm(new_res, axis=-1) < SUPPORT_TOL * np.maximum(

                1.0, np.linalg.norm(W[idx], axis=-1)
            )
            active[idx[ok]] = False
        if np.any(active):
            bad = np.flatnonzero(active)[0]
            res, _ = self._support_kkt(W[bad : bad + 1], U[bad : bad + 1], lam[bad : bad + 1])
            raise SupportSolveError(
                f"support Newton did not converge for {np.sum(active)} direction(s)",
                best_value=float(np.sum(W[bad] * U[bad])),
                grad_norm=float(np.linalg.norm(res)),
            )
        h = np.sum(W * U, axis=-1)
        if single:
            return float(h[0]), U[0]
        return h, U

    def _support_kkt(self, W, U, lam):
        m = len(W)
        g = self.grad_gauge2(U)
        res = np.empty((m, self.dim + 1))
        res[:, : self.dim] = lam[:, None] * g - W
        res[:, self.dim] = self.gauge2(U) - 1.0
        jac = np.zeros((m, self.dim + 1, self.dim + 1))
        jac[:, : self.dim, : self.dim] = lam[:, None, None] * self.hess_gauge2(U)
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
        """(inradius, circumradius) of Sigma about the origin.

        r = 1/sqrt(max G) and R = 1/sqrt(min G) over the unit sphere.  Closed
        form for quadrics.  Otherwise one batched Riemannian Newton solve on
        the sphere: the 2n coordinate axes and 8 fixed random directions each
        start a descent copy (min G) and an ascent copy (max G).  By Euler's
        identity <v, grad G> = 2G, the Riemannian gradient is grad G - 2G v
        and the Riemannian Hessian is P (hess G - 2G I) P with P = I - v v^T.
        Steps are saddle-free: they solve with the absolute values of the
        Hessian's eigenvalues, so every copy is a descent (ascent) method
        and cannot settle on a saddle it did not start at.  Each step is
        retracted by normalising v and halved until G does not increase
        (decrease).  A copy stops when its Riemannian gradient is below
        1e-12 max(1, G) or its line search stalls at rounding level.  Starts
        that end within 1e-4 of the extremum but more than 1e-8 from it are
        reported with a warning.
        """
        if self.epsilon == 0.0:
            return float(np.sqrt(self.a[0] / np.pi)), float(np.sqrt(self.a[-1] / np.pi))
        rng = np.random.default_rng(7)
        starts = np.vstack([np.eye(self.dim), rng.normal(size=(8, self.dim))])
        starts /= np.linalg.norm(starts, axis=-1, keepdims=True)
        m = len(starts)
        V = np.vstack([starts, starts])
        sign = np.repeat([1.0, -1.0], m)  # minimise sign * G
        G = self.gauge2(V)
        active = np.ones(2 * m, dtype=bool)
        eye = np.eye(self.dim)
        for _ in range(PINCH_MAX_ITER):
            idx = np.flatnonzero(active)
            if len(idx) == 0:
                break
            v, g0, s = V[idx], G[idx], sign[idx]
            rgrad = self.grad_gauge2(v) - 2.0 * g0[:, None] * v
            done = np.linalg.norm(rgrad, axis=-1) < PINCH_TOL * np.maximum(1.0, g0)
            active[idx[done]] = False
            idx, v, g0, s, rgrad = idx[~done], v[~done], g0[~done], s[~done], rgrad[~done]
            if len(idx) == 0:
                break
            proj = eye - v[:, :, None] * v[:, None, :]
            hess = proj @ (self.hess_gauge2(v) - 2.0 * g0[:, None, None] * eye) @ proj
            # the normal direction v is a null vector of the projected Hessian;
            # give it eigenvalue 1 so the solve stays in the tangent space
            evals, evecs = np.linalg.eigh(s[:, None, None] * hess + v[:, :, None] * v[:, None, :])
            evals = np.abs(evals)
            evals = np.maximum(evals, PINCH_EIG_FLOOR * evals.max(axis=-1, keepdims=True))
            coef = np.einsum("bji,bj->bi", evecs, s[:, None] * rgrad) / evals
            step = -np.einsum("bij,bj->bi", evecs, coef)
            t = np.ones(len(idx))
            pending = np.ones(len(idx), dtype=bool)
            for _ in range(PINCH_MAX_HALVINGS):
                trial = v[pending] + t[pending, None] * step[pending]
                trial /= np.linalg.norm(trial, axis=-1, keepdims=True)
                g_trial = self.gauge2(trial)
                # G changes below its own rounding near the extremum, so a
                # rise of a few ulp counts as no increase
                ok = s[pending] * (g_trial - g0[pending]) <= PINCH_ROUNDING * g0[pending]
                accepted = np.flatnonzero(pending)[ok]
                V[idx[accepted]] = trial[ok]
                G[idx[accepted]] = g_trial[ok]
                pending[accepted] = False
                if not np.any(pending):
                    break
                t[pending] *= 0.5
            active[idx[pending]] = False  # stalled: no step keeps G monotone
        mins, maxs = G[:m], G[m:]
        gmin, gmax = float(mins.min()), float(maxs.max())
        near_min = mins[np.abs(mins - gmin) < 1e-4]
        near_max = maxs[np.abs(maxs - gmax) < 1e-4]
        spread = max(float(np.max(near_min - gmin)), float(np.max(gmax - near_max)))
        if spread > 1e-8:
            warnings.warn(
                f"pinching_radii: optimizer starts disagree by "
                f"{spread:.2e} at the extremum"
            )
        return 1.0 / math.sqrt(gmax), 1.0 / math.sqrt(gmin)

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
