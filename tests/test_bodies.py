import warnings

import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize

from reeb_spectra.bodies import ConvexBody, SupportSolveError


def fd_grad(f, z, h=1e-6):
    g = np.zeros_like(z)
    for i in range(len(z)):
        zp, zm = z.copy(), z.copy()
        zp[i] += h
        zm[i] -= h
        g[i] = (f(zp) - f(zm)) / (2 * h)
    return g


@pytest.fixture
def ball():
    return ConvexBody(a=[np.pi, np.pi], alpha=1.5, validate=False)


@pytest.fixture
def e12():
    return ConvexBody(a=[1.0, 2.0], alpha=1.5, validate=False)


@pytest.fixture
def perturbed():
    return ConvexBody(a=[1.0, 2.0], epsilon=1e-2, quartic=[1.0, 2.0], alpha=1.5)


class TestConstruction:
    def test_alpha_range_enforced(self, e12):
        with pytest.raises(ValueError):
            ConvexBody(a=[1.0], alpha=2.0)
        with pytest.raises(ValueError):
            e12.homogenize(1.0)

    def test_homogenize_same_surface(self, e12):
        other = e12.homogenize(1.3)
        z = other.project_to_surface(np.array([0.3, 0.1, -0.2, 0.4]))
        assert abs(e12.gauge2(z) - 1.0) < 1e-12
        assert abs(other.H(z) - 1.0) < 1e-12

    def test_from_spec_fractions(self):
        b = ConvexBody.from_spec({"type": "ellipsoid", "a": ["1", "3/2"]})
        assert np.allclose(b.a, [1.0, 1.5])
        bp = ConvexBody.from_spec(
            {"type": "perturbed", "a": [1, 2], "epsilon": "1/100", "quartic": [1, 1]}
        )
        assert bp.epsilon == 0.01

    def test_unknown_type(self):
        with pytest.raises(ValueError):
            ConvexBody.from_spec({"type": "banana", "a": [1]})

    def test_convexity_margin_reported(self, perturbed):
        assert perturbed.convexity_margin > 1e-8

    def test_convexity_margin_matches_pointwise_reference(self, perturbed):
        # per-point loop with a QR tangent basis, as the batched check replaced
        worst = np.inf
        for z in perturbed.surface_samples(1000):
            g = perturbed.grad_gauge2(z) / np.linalg.norm(perturbed.grad_gauge2(z))
            q, r = np.linalg.qr(np.eye(4) - np.outer(g, g))
            basis = q[:, np.abs(np.diag(r)) > 1e-10][:, :3]
            worst = min(worst, np.linalg.eigvalsh(basis.T @ perturbed.hess_gauge2(z) @ basis)[0])
        assert abs(perturbed.convexity_margin - worst) < 1e-12

    @pytest.mark.parametrize("a", [[1.0], [1.0, 2.0], [1.0, 1.5, 7 / 3], [3.0, 1.0, 2.0]])
    def test_quadric_margin_closed_form(self, a, monkeypatch):
        # the sampled restricted-Hessian minimum, on the same Sobol points the
        # sampling check uses for perturbed bodies
        reference = ConvexBody(a, validate=False)
        worst = np.inf
        for z in reference.surface_samples(1000):
            g = reference.grad_gauge2(z) / np.linalg.norm(reference.grad_gauge2(z))
            q, r = np.linalg.qr(np.eye(reference.dim) - np.outer(g, g))
            basis = q[:, np.abs(np.diag(r)) > 1e-10][:, : reference.dim - 1]
            worst = min(worst, np.linalg.eigvalsh(basis.T @ reference.hess_gauge2(z) @ basis)[0])

        def no_sampling(*args, **kwargs):
            raise AssertionError("quadric construction sampled the surface")

        monkeypatch.setattr(ConvexBody, "surface_samples", no_sampling)
        body = ConvexBody(a)
        assert body.convexity_margin == pytest.approx(2 * np.pi / max(a), rel=1e-15)
        assert abs(body.convexity_margin - worst) < 1e-12


class TestHomogenization:
    def test_ellipsoid_closed_form(self, e12):
        z = np.array([0.2, -0.1, 0.4, 0.3])
        q = np.pi * ((z[0] ** 2 + z[1] ** 2) / 1.0 + (z[2] ** 2 + z[3] ** 2) / 2.0)
        assert abs(e12.H(z) - q**0.75) < 1e-14

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
    def test_homogeneity(self, alpha):
        body = ConvexBody(a=[1.0, 2.0, 3.0], alpha=alpha, validate=False)
        rng = np.random.default_rng(0)
        for _ in range(10):
            z = rng.normal(size=6)
            s = float(rng.uniform(0.2, 3.0))
            assert abs(body.H(s * z) - s**alpha * body.H(z)) < 1e-10 * max(1, body.H(s * z))

    def test_euler_identity(self, perturbed):
        rng = np.random.default_rng(1)
        for _ in range(20):
            z = rng.normal(size=4)
            lhs = np.dot(perturbed.grad_H(z), z)
            assert abs(lhs - perturbed.alpha * perturbed.H(z)) < 1e-9 * max(1, abs(lhs))

    def test_gradients_match_fd(self, perturbed):
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(100):
            z = rng.normal(size=4)
            err = np.abs(perturbed.grad_H(z) - fd_grad(perturbed.H, z)).max()
            worst = max(worst, err / max(1.0, np.abs(perturbed.grad_H(z)).max()))
        assert worst < 1e-6

    def test_hessians_match_fd(self, perturbed):
        rng = np.random.default_rng(3)
        for _ in range(10):
            z = rng.normal(size=4)
            H_fd = np.array([fd_grad(lambda y: perturbed.grad_H(y)[i], z) for i in range(4)]).T
            assert np.abs(perturbed.hess_H(z) - H_fd).max() < 1e-5

    @pytest.mark.parametrize("name", ["e12", "perturbed"])
    def test_batched_hess_gauge2_matches_points(self, name, request):
        body = request.getfixturevalue(name)
        Z = np.random.default_rng(4).normal(size=(3, 5, 4))
        H = body.hess_gauge2(Z)
        assert H.shape == (3, 5, 4, 4)
        assert np.array_equal(H, [[body.hess_gauge2(z) for z in row] for row in Z])
        assert body.hess_gauge2(Z[0, 0]).shape == (4, 4)

    @pytest.mark.parametrize("name", ["e12", "perturbed"])
    def test_gauge2_derivatives_match_evaluators(self, name, request):
        body = request.getfixturevalue(name)
        Z = np.random.default_rng(10).normal(size=(3, 5, 4))
        for z in (Z, Z[1, 2]):
            G, grad, hess = body._gauge2_derivatives(z)
            assert np.array_equal(G, body.gauge2(z))
            assert np.array_equal(grad, body.grad_gauge2(z))
            assert np.array_equal(hess, body.hess_gauge2(z))

    @pytest.mark.parametrize("name", ["e12", "perturbed"])
    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
    def test_H_derivatives_match_pointwise_chain_rule(self, name, alpha, request):
        body = request.getfixturevalue(name).homogenize(alpha)
        Z = np.random.default_rng(11).normal(size=(6, 4))
        a2 = alpha / 2.0
        grads, hesses = body.grad_H(Z), body.hess_H(Z)
        for z, grad, hess in zip(Z, grads, hesses):
            G, gradG, hessG = float(body.gauge2(z)), body.grad_gauge2(z), body.hess_gauge2(z)
            ref_grad = a2 * G ** (a2 - 1.0) * gradG
            ref_hess = a2 * ((a2 - 1.0) * G ** (a2 - 2.0) * np.outer(gradG, gradG)
                             + G ** (a2 - 1.0) * hessG)
            assert np.abs(grad - ref_grad).max() <= 1e-14 * np.abs(ref_grad).max()
            assert np.abs(hess - ref_hess).max() <= 1e-14 * np.abs(ref_hess).max()
            assert np.array_equal(body.grad_H(z), grad)
            assert np.array_equal(body.hess_H(z), hess)


class TestSupportAndDual:
    def test_support_quadric_closed_form(self, e12):
        rng = np.random.default_rng(4)
        for _ in range(10):
            w = rng.normal(size=4)
            h, u = e12.support(w)
            h_cf = np.sqrt(
                (1.0 * (w[0] ** 2 + w[1] ** 2) + 2.0 * (w[2] ** 2 + w[3] ** 2)) / np.pi
            )
            assert abs(h - h_cf) < 1e-12
            assert abs(e12.gauge2(u) - 1.0) < 1e-12

    def test_dual_round_closed_form(self):
        # H* of the ball of radius r: beta^{-1} (r^alpha/alpha)^{beta-1} |w|^beta
        r = 1.3
        body = ConvexBody(a=[np.pi * r**2] * 2, alpha=1.5, validate=False)
        beta = 3.0
        w = np.array([0.4, -0.2, 0.7, 0.1])
        expected = (1 / beta) * (r**1.5 / 1.5) ** (beta - 1) * np.linalg.norm(w) ** beta
        assert abs(body.legendre_dual(w) - expected) < 1e-12

    def test_dual_at_zero(self, e12):
        assert e12.legendre_dual(np.zeros(4)) == 0.0

    def test_dual_homogeneous_of_degree_beta(self, perturbed):
        assert abs(perturbed.beta - perturbed.alpha / (perturbed.alpha - 1)) < 1e-15
        rng = np.random.default_rng(9)
        w = rng.normal(size=4)
        for s in (0.5, 2.0):
            lhs = perturbed.legendre_dual(s * w)
            assert abs(lhs - s**perturbed.beta * perturbed.legendre_dual(w)) < 1e-10 * max(1, lhs)

    def test_dual_vs_brute_maximization(self, perturbed):
        rng = np.random.default_rng(5)
        for _ in range(5):
            w = rng.normal(size=4)
            got = perturbed.legendre_dual(w)
            _, u0 = perturbed.support(w)
            res = scipy_minimize(
                lambda z: -(np.dot(z, w) - perturbed.H(z)),
                u0,
                method="Nelder-Mead",
                options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 40000},
            )
            assert abs(got + res.fun) < 1e-8 * max(1.0, abs(got))

    def test_fenchel_young(self, perturbed):
        rng = np.random.default_rng(6)
        for _ in range(30):
            z = rng.normal(size=4)
            w = rng.normal(size=4)
            assert perturbed.H(z) + perturbed.legendre_dual(w) >= np.dot(z, w) - 1e-10
        for _ in range(10):
            z = rng.normal(size=4)
            w = perturbed.grad_H(z)
            gap = perturbed.H(z) + perturbed.legendre_dual(w) - np.dot(z, w)
            assert abs(gap) < 1e-7

    def test_grad_dual_matches_fd(self, perturbed):
        rng = np.random.default_rng(7)
        for _ in range(5):
            w = rng.normal(size=4)
            fd = fd_grad(lambda v: perturbed.legendre_dual(v), w)
            assert np.abs(perturbed.grad_legendre(w) - fd).max() < 1e-6

    def test_sandwich_bounds(self, perturbed):
        # body between balls of radii (r, R) squeezes H* between the round duals
        r, R = perturbed.pinching_radii()
        alpha, beta = perturbed.alpha, perturbed.alpha / (perturbed.alpha - 1.0)
        rng = np.random.default_rng(8)
        for _ in range(30):
            w = rng.normal(size=4)
            nw = np.linalg.norm(w) ** beta
            lo = (1 / beta) * (r**alpha / alpha) ** (beta - 1) * nw
            hi = (1 / beta) * (R**alpha / alpha) ** (beta - 1) * nw
            val = perturbed.legendre_dual(w)
            assert lo - 1e-12 <= val <= hi + 1e-12

    def test_newton_failure_reported(self):
        body = ConvexBody(a=[1.0, 2.0], epsilon=1e-2, quartic=[1.0, 1.0])
        import reeb_spectra.bodies as bodies_mod

        old = bodies_mod.SUPPORT_MAX_ITER
        bodies_mod.SUPPORT_MAX_ITER = 0
        try:
            with pytest.raises(SupportSolveError) as exc:
                body.support(np.array([1.0, 0.3, -0.2, 0.5]))
            assert exc.value.grad_norm is not None
        finally:
            bodies_mod.SUPPORT_MAX_ITER = old


class TestPinchingRadii:
    def test_ball(self):
        rho = 0.9
        body = ConvexBody(a=[np.pi * rho**2] * 3, alpha=1.5, validate=False)
        r, R = body.pinching_radii()
        assert abs(r - rho) < 1e-12 and abs(R - rho) < 1e-12

    def test_ellipsoid_closed_form(self, e12):
        r, R = e12.pinching_radii()
        assert abs(r - np.sqrt(1.0 / np.pi)) < 1e-12
        assert abs(R - np.sqrt(2.0 / np.pi)) < 1e-12

    def test_perturbed_ball_small_eps(self):
        eps = 1e-3
        body = ConvexBody(a=[np.pi, np.pi], epsilon=eps, quartic=[1.0, 1.0])
        r, R = body.pinching_radii()
        assert r <= R
        assert abs(r - 1.0) < 0.05 and abs(R - 1.0) < 0.05

    def test_zero_quartic_matches_ellipsoid(self):
        # epsilon > 0 takes the Newton path; with q = 0 the body is E(1, 2)
        body = ConvexBody([1.0, 2.0], epsilon=1e-3, quartic=[0.0, 0.0])
        r, R = body.pinching_radii()
        assert abs(r - np.sqrt(1.0 / np.pi)) < 1e-12
        assert abs(R - np.sqrt(2.0 / np.pi)) < 1e-12

    @pytest.mark.parametrize("a, eps, quartic", [
        ([1.0, 2.0], 1e-3, [1.0, 1.0]),
        ([1.0, 1.2], 1e-3, [1.0, 0.8]),
        ([1.0, 1.0], 0.5, [1.0, 0.3]),
        ([1.0, 2.0, 3.0], 0.1, [0.5, 2.0, 1.0]),
    ])
    def test_bounds_sampled_gauge(self, a, eps, quartic):
        body = ConvexBody(a, epsilon=eps, quartic=quartic)
        r, R = body.pinching_radii()
        gmin, gmax = 1.0 / R**2, 1.0 / r**2
        dirs = body.surface_samples(1 << 14, seed=3)  # Sobol directions
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        G = body.gauge2(dirs)
        assert G.min() >= gmin - 1e-12
        assert G.max() <= gmax + 1e-12

    def test_starts_agree_without_warning(self):
        body = ConvexBody([1.0, 2.0], epsilon=1e-3, quartic=[1.0, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r, R = body.pinching_radii()
        assert r < R

    def test_strong_convexity_validation(self):
        # gauge2 stays convex for huge eps on this family, so margins shrink
        # but never go negative; validation must pass
        body = ConvexBody(a=[1.0, 1.0], epsilon=10.0, quartic=[1.0, 1.0])
        assert body.convexity_margin > 0
