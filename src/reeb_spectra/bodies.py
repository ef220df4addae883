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
    of G are batched to (..., 2n, 2n), those of H are per-point.  All
    evaluators are pure; instances are immutable in practice and safe to
    share.
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

    def grad_gauge2(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        gradQ = 2.0 * self._w * z
        if self.epsilon == 0.0:
            return gradQ
        Q = self.quadric(z)
        G = self.gauge2(z)
        r2 = z[..., 0::2] ** 2 + z[..., 1::2] ** 2
        gradP = 4.0 * self._q4 * np.repeat(r2, 2, axis=-1) * z
        denom = 2.0 * G - Q
        return (G[..., None] * gradQ + self.epsilon * gradP) / denom[..., None]

    def hess_gauge2(self, z: np.ndarray) -> np.ndarray:
        """Hessian of G at points (..., 2n), shape (..., 2n, 2n)."""
        z = np.asarray(z, dtype=float)
        if self.epsilon == 0.0:
            return self._hessQ * np.ones(z.shape[:-1] + (1, 1))
        Q = self.quadric(z)[..., None, None]
        G = self.gauge2(z)[..., None, None]
        gradQ = 2.0 * self._w * z
        gradG = self.grad_gauge2(z)
        r2 = np.repeat(z[..., 0::2] ** 2 + z[..., 1::2] ** 2, 2, axis=-1)
        hessP = (8.0 * self._q4_blocks * (z[..., :, None] * z[..., None, :])
                 + (4.0 * self._q4 * r2)[..., None] * np.eye(self.dim))
        sym = gradG[..., :, None] * gradQ[..., None, :]
        outer_G = gradG[..., :, None] * gradG[..., None, :]
        return (G * self._hessQ + self.epsilon * hessP + sym + np.swapaxes(sym, -1, -2)
                - 2.0 * outer_G) / (2.0 * G - Q)

    # -- alpha-degree Hamiltonian ------------------------------------------

    def H(self, z: np.ndarray) -> np.ndarray:
        return self.gauge2(z) ** (self.alpha / 2.0)

    def grad_H(self, z: np.ndarray) -> np.ndarray:
        G = self.gauge2(z)
        return 0.5 * self.alpha * G[..., None] ** (self.alpha / 2.0 - 1.0) * self.grad_gauge2(z)

    def hess_H(self, z: np.ndarray) -> np.ndarray:
        G = float(self.gauge2(z))
        gradG = self.grad_gauge2(z)
        hessG = self.hess_gauge2(z)
        a2 = self.alpha / 2.0
        return a2 * ((a2 - 1.0) * G ** (a2 - 2.0) * np.outer(gradG, gradG) + G ** (a2 - 1.0) * hessG)

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
        min_eig = np.linalg.eigvalsh(restricted)[:, 0].min()
        self.convexity_margin = float(min_eig)
        if min_eig <= CONVEXITY_MIN_EIG:
            raise ValueError(
                f"body is not strongly convex at the sampled points: "
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

    def legendre_dual(self, w: np.ndarray):
        """H*(w) = max_z (<z, w> - H(z)), via the support function."""
        w = np.asarray(w, dtype=float)
        single = w.ndim == 1
        W = w.reshape(-1, self.dim)
        zero = np.linalg.norm(W, axis=-1) == 0.0
        out = np.zeros(len(W))
        if np.any(~zero):
            h, _ = self.support(W[~zero])
            beta = self.beta
            out[~zero] = (1.0 / beta) * self.alpha ** (1.0 - beta) * h**beta
        return float(out[0]) if single else out

    def grad_legendre(self, w: np.ndarray):
        """grad H*(w) = alpha^{1-beta} h_C(w)^{beta-1} u*(w)."""
        w = np.asarray(w, dtype=float)
        single = w.ndim == 1
        W = w.reshape(-1, self.dim)
        out = np.zeros_like(W)
        norms = np.linalg.norm(W, axis=-1)
        nz = norms > 0
        if np.any(nz):
            h, u = self.support(W[nz])
            beta = self.beta
            out[nz] = self.alpha ** (1.0 - beta) * (h ** (beta - 1.0))[:, None] * u
        return out[0] if single else out

    # -- pinching -------------------------------------------------------------

    def pinching_radii(self) -> tuple[float, float]:
        """(inradius, circumradius) of Sigma about the origin.

        Closed form for quadrics; multi-start extremization of G over the
        unit sphere otherwise (r = 1/sqrt(max G), R = 1/sqrt(min G)).
        """
        if self.epsilon == 0.0:
            return float(np.sqrt(self.a[0] / np.pi)), float(np.sqrt(self.a[-1] / np.pi))
        from scipy.optimize import minimize

        def g(v):
            nv = np.linalg.norm(v)
            return float(self.gauge2(v / nv))

        starts = [np.eye(self.dim)[i] for i in range(self.dim)]
        rng = np.random.default_rng(7)
        starts += [rng.normal(size=self.dim) for _ in range(8)]
        mins, maxs = [], []
        for s in starts:
            s = s / np.linalg.norm(s)
            r1 = minimize(g, s, method="BFGS", options={"gtol": 1e-12})
            r2 = minimize(lambda v: -g(v), s, method="BFGS", options={"gtol": 1e-12})
            mins.append(r1.fun)
            maxs.append(-r2.fun)
        gmin, gmax = min(mins), max(maxs)
        spread_min = max(abs(v - gmin) for v in mins if abs(v - gmin) < 1e-4)
        spread_max = max(abs(v - gmax) for v in maxs if abs(v - gmax) < 1e-4)
        if spread_min > 1e-8 or spread_max > 1e-8:
            warnings.warn(
                f"pinching_radii: optimizer starts disagree by "
                f"{max(spread_min, spread_max):.2e} at the extremum"
            )
        r = 1.0 / math.sqrt(gmax)
        R = 1.0 / math.sqrt(gmin)
        return r, R

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
