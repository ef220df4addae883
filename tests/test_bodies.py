import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize as scipy_minimize

from reeb_spectra import dynamics
from reeb_spectra.bodies import ConvexBody, SupportSolveError
from reeb_spectra.symplectic import apply_J, standard_J


def fd_grad(f, z, h=1e-6):
    g = np.zeros_like(z)
    for i in range(len(z)):
        zp, zm = z.copy(), z.copy()
        zp[i] += h
        zm[i] -= h
        g[i] = (f(zp) - f(zm)) / (2 * h)
    return g


class ImplicitJetOracle:
    """Independent oracle: the body jet by implicit differentiation in the 2n
    coordinates, through Q, P, their gradients and a 2n x 2n quartic Hessian;
    the plane-radius jet of `ConvexBody`, and the flow linearization that
    `dynamics` builds from it, must agree with it."""

    def __init__(self, body: ConvexBody):
        self.epsilon, self.quartic, self.dim = body.epsilon, body.quartic, body.dim
        # per-coordinate quadric weights: Q(z) = sum w_i z_i^2
        self._w = np.repeat(np.pi / body.a, 2)
        self._q4 = np.repeat(self.quartic, 2)
        self._hessQ = np.diag(2.0 * self._w)
        # q_h on the 2x2 diagonal block of plane h: the pattern of the quartic Hessian
        self._q4_blocks = np.kron(np.diag(self.quartic), np.ones((2, 2)))

    def quadric(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        return np.sum(self._w * z * z, axis=-1)

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


def sampled_restricted_min(body: ConvexBody) -> float:
    """Smallest eigenvalue of the oracle's hess G restricted to the tangent
    space, over 1000 surface points from Gaussian directions, by a per-point
    loop with a QR tangent basis."""
    oracle = ImplicitJetOracle(body)
    worst = np.inf
    for z in body.surface_samples(1000):
        _, grad, hess = oracle._gauge2_derivatives(z)
        g = grad / np.linalg.norm(grad)
        q, r = np.linalg.qr(np.eye(body.dim) - np.outer(g, g))
        basis = q[:, np.abs(np.diag(r)) > 1e-10][:, : body.dim - 1]
        worst = min(worst, np.linalg.eigvalsh(basis.T @ hess @ basis)[0])
    return worst


def _plane_point(s: np.ndarray) -> np.ndarray:
    """A point z with plane radii |z_h|^2 = s_h."""
    z = np.zeros(2 * len(s))
    z[0::2] = np.sqrt(s)
    return z


@pytest.fixture
def ball():
    return ConvexBody(a=[np.pi, np.pi], alpha=1.5)


@pytest.fixture
def e12():
    return ConvexBody(a=[1.0, 2.0], alpha=1.5)


@pytest.fixture
def perturbed():
    return ConvexBody(a=[1.0, 2.0], epsilon=1e-2, quartic=[1.0, 2.0], alpha=1.5)


class TestConstruction:
    def test_alpha_range_enforced(self, e12):
        with pytest.raises(ValueError):
            ConvexBody(a=[1.0], alpha=2.0)
        with pytest.raises(ValueError):
            ConvexBody(e12.a, e12.epsilon, e12.quartic, 1.0)

    def test_homogenize_same_surface(self, e12):
        other = ConvexBody(e12.a, e12.epsilon, e12.quartic, 1.3)
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
        # the margin is a lower bound on the restricted Hessian minimum at
        # every point, and close to the sampled minimum for near-round bodies
        bodies = [perturbed, ConvexBody([1.0, 2.0]), ConvexBody([1.0, 1.2], 1e-3, [1.0, 0.8]),
                  ConvexBody([1.0, 2.0], 1e-2, [1.0, 1.0]), ConvexBody([1.0, 1.5, 2.0], 5e-3, [2.0, 0.0, 1.0])]
        for body in bodies:
            worst = sampled_restricted_min(body)
            assert body.convexity_margin <= worst + 1e-12, body
            if body.epsilon * body.quartic.max() <= 1e-2:
                assert body.convexity_margin >= 0.99 * worst, body

    def test_convexity_margin_bounds_hessian_on_seeded_sweep(self):
        # 400 seeded bodies (n 1-4, eps 1e-5..1e2, some q_h = 0, so some
        # quadrics): the smallest eigenvalue of the full Hessian of G at 4000
        # surface points never drops below the margin
        rng = np.random.default_rng(19)
        for _ in range(400):
            n = int(rng.integers(1, 5))
            a = rng.uniform(0.5, 5.0, n)
            eps = 10.0 ** rng.uniform(-5.0, 2.0)
            quartic = rng.uniform(0.0, 2.0, n) * (rng.random(n) > 0.3)
            body = ConvexBody(a, epsilon=eps, quartic=quartic)
            z = body.project_to_surface(rng.normal(size=(4000, 2 * n)))
            hess = ImplicitJetOracle(body)._gauge2_derivatives(z)[2]
            lowest = np.linalg.eigvalsh(hess)[:, 0].min()
            assert lowest >= body.convexity_margin * (1.0 - 1e-12), body

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["a", "epsilon", "quartic"])
    def test_non_finite_parameters_refused_by_name(self, name, value):
        kwargs = {"a": [1.0, 2.0], "epsilon": 1e-3, "quartic": [1.0, 0.8]}
        kwargs[name] = value if name == "epsilon" else [1.0, value]
        with pytest.raises(ValueError, match=rf"\b{name}\b.*must be finite"):
            ConvexBody(**kwargs)

    @pytest.mark.parametrize("a", [[1.0], [1.0, 2.0], [1.0, 1.5, 7 / 3], [3.0, 1.0, 2.0]])
    def test_quadric_margin_closed_form(self, a, monkeypatch):
        worst = sampled_restricted_min(ConvexBody(a))

        def no_sampling(*args, **kwargs):
            raise AssertionError("construction sampled the surface")

        monkeypatch.setattr(ConvexBody, "surface_samples", no_sampling)
        body = ConvexBody(a)
        assert body.convexity_margin == pytest.approx(2 * np.pi / max(a), rel=1e-15)
        assert abs(body.convexity_margin - worst) < 1e-12
        # a quartic term lowers the margin below the quadric's, still unsampled
        perturbed = ConvexBody(a, epsilon=1e-2, quartic=np.linspace(1.0, 2.0, len(a)))
        assert 0 < perturbed.convexity_margin < body.convexity_margin


class TestHomogenization:
    def test_ellipsoid_closed_form(self, e12):
        z = np.array([0.2, -0.1, 0.4, 0.3])
        q = np.pi * ((z[0] ** 2 + z[1] ** 2) / 1.0 + (z[2] ** 2 + z[3] ** 2) / 2.0)
        assert abs(e12.H(z) - q**0.75) < 1e-14

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
    def test_homogeneity(self, alpha):
        body = ConvexBody(a=[1.0, 2.0, 3.0], alpha=alpha)
        rng = np.random.default_rng(0)
        for _ in range(10):
            z = rng.normal(size=6)
            s = float(rng.uniform(0.2, 3.0))
            assert abs(body.H(s * z) - s**alpha * body.H(z)) < 1e-10 * max(1, body.H(s * z))

    # f = H as a function of the plane radii s, with f_s and f_ss from
    # `_homogeneous_jet`, the jet that `dynamics` builds the flow from

    def test_euler_identity(self, perturbed):
        # f is alpha/2-homogeneous in s: s.f_s = (alpha/2) f and
        # f_ss s = (alpha/2 - 1) f_s
        rng = np.random.default_rng(1)
        a2 = perturbed.alpha / 2.0
        for _ in range(20):
            z = rng.normal(size=4)
            s = z[0::2] ** 2 + z[1::2] ** 2
            f_s, f_ss = perturbed._homogeneous_jet(z, perturbed.alpha)
            lhs = np.dot(s, f_s)
            assert abs(lhs - a2 * perturbed.H(z)) < 1e-9 * max(1, abs(lhs))
            assert np.abs(f_ss @ s - (a2 - 1.0) * f_s).max() < 1e-9 * max(1, np.abs(f_s).max())

    def test_gradients_match_fd(self, perturbed):
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(100):
            s = rng.uniform(0.1, 2.0, size=2)
            f_s = perturbed._homogeneous_jet(_plane_point(s), perturbed.alpha)[0]
            err = np.abs(f_s - fd_grad(lambda x: perturbed.H(_plane_point(x)), s)).max()
            worst = max(worst, err / max(1.0, np.abs(f_s).max()))
        assert worst < 1e-6

    def test_hessians_match_fd(self, perturbed):
        rng = np.random.default_rng(3)

        def f_s(x):
            return perturbed._homogeneous_jet(_plane_point(x), perturbed.alpha)[0]

        for _ in range(10):
            s = rng.uniform(0.1, 2.0, size=2)
            f_ss_fd = np.array([fd_grad(lambda x: f_s(x)[i], s) for i in range(2)]).T
            f_ss = perturbed._homogeneous_jet(_plane_point(s), perturbed.alpha)[1]
            assert np.abs(f_ss - f_ss_fd).max() < 1e-5

    @pytest.mark.parametrize("name", ["e12", "perturbed"])
    def test_batched_hess_gauge2_matches_points(self, name, request):
        # both jets, G's and H's, batched over (3, 5) points equal the
        # pointwise jets (a quadric's g_s and g_ss are unbroadcast)
        body = request.getfixturevalue(name)
        Z = np.random.default_rng(4).normal(size=(3, 5, 4))
        for jet in (body._gauge2_jet, lambda z: body._homogeneous_jet(z, body.alpha)):
            pointwise = [[jet(z) for z in row] for row in Z]
            for k, part in enumerate(jet(Z)):
                want = np.array([[p[k] for p in row] for row in pointwise])
                assert np.array_equal(np.broadcast_to(part, want.shape), want)
        assert body._homogeneous_jet(Z, body.alpha)[1].shape == (3, 5, 2, 2)
        assert body._homogeneous_jet(Z[0, 0], body.alpha)[1].shape == (2, 2)

    @pytest.mark.parametrize("name", ["e12", "perturbed"])
    def test_gauge2_derivatives_match_evaluators(self, name, request):
        body = request.getfixturevalue(name)
        Z = np.random.default_rng(10).normal(size=(3, 5, 4))
        for z in (Z, Z[1, 2]):
            g, g_s, _ = body._gauge2_jet(z)
            assert np.array_equal(g[..., 0], body.gauge2(z))
            assert np.array_equal(body._lift(z, g_s), body.grad_gauge2(z))

    @pytest.mark.parametrize("name", ["e12", "perturbed"])
    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
    def test_H_derivatives_match_pointwise_chain_rule(self, name, alpha, request):
        body = request.getfixturevalue(name)
        Z = np.random.default_rng(11).normal(size=(6, 4))
        a2 = alpha / 2.0
        f_s, f_ss = body._homogeneous_jet(Z, alpha)
        for z, fs, fss in zip(Z, f_s, f_ss):
            g, g_s, g_ss = body._gauge2_jet(z)
            G = float(g[0])
            ref_s = a2 * G ** (a2 - 1.0) * g_s
            ref_ss = a2 * ((a2 - 1.0) * G ** (a2 - 2.0) * np.outer(g_s, g_s)
                           + G ** (a2 - 1.0) * g_ss)
            assert np.abs(fs - ref_s).max() <= 1e-14 * np.abs(ref_s).max()
            assert np.abs(fss - ref_ss).max() <= 1e-14 * np.abs(ref_ss).max()
            point_s, point_ss = body._homogeneous_jet(z, alpha)
            assert np.array_equal(point_s, fs) and np.array_equal(point_ss, fss)


def _rel_err(got, want):
    """Max-norm error of each point's array relative to its max-norm."""
    axes = tuple(range(1, np.ndim(want)))
    return np.abs(got - want).max(axis=axes) / np.abs(want).max(axis=axes)


def _flow_matrix(flow) -> np.ndarray:
    """Y'(0) = Omega J + K of an `AlphaFlow`, Omega the rates lifted per
    coordinate: the linearization of the flow at its starts."""
    n = flow.rates.shape[-1]
    return np.repeat(flow.rates, 2, axis=-1)[..., :, None] * standard_J(n) + flow.K


class TestPlaneRadiusJet:
    """The flow that `dynamics` builds from the plane-radius jet against the
    oracle: its rates give z' = J grad H(z) and its linearization
    Omega J + K is J hess H(z)."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 4), eps=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
           zero_planes=st.integers(0, 4), seed=st.integers(0, 2**32 - 1),
           alpha=st.sampled_from([1.2, 1.5, 1.8, 2.0]))
    def test_matches_implicit_jet(self, n, eps, zero_planes, seed, alpha):
        rng = np.random.default_rng(seed)
        a = rng.uniform(0.3, 5.0, size=n)
        # some or all quartic coefficients vanish
        quartic = rng.uniform(0.0, 2.0, size=n) * (rng.permutation(n) >= min(zero_planes, n))
        body = ConvexBody(a, epsilon=eps, quartic=quartic)
        oracle = ImplicitJetOracle(body)
        Z = rng.normal(size=(7, 2 * n)) * rng.uniform(0.1, 3.0, size=(7, 1))
        # points on which some planes vanish: s_h = 0
        Z[:3] *= np.repeat(rng.integers(0, 2, size=(3, n)), 2, axis=-1)
        Z = Z[np.linalg.norm(Z, axis=-1) > 0]
        G_o, grad_o, _ = oracle._gauge2_derivatives(Z)
        assert np.all(np.abs(body.gauge2(Z) - G_o) <= 1e-14 * np.abs(G_o))
        assert np.all(_rel_err(body.grad_gauge2(Z), grad_o) <= 1e-14)
        flow = dynamics._alpha_flow(body, Z, alpha)
        grad_Ho, hess_Ho = oracle._homogeneous_derivatives(Z, alpha)
        velocity = np.repeat(flow.rates, 2, axis=-1) * apply_J(Z)
        assert np.all(_rel_err(velocity, apply_J(grad_Ho)) <= 1e-14)
        assert np.all(_rel_err(_flow_matrix(flow), standard_J(n) @ hess_Ho) <= 1e-14)

    @pytest.mark.parametrize("a", [[1.0], [1.0, 2.0], [3.0, 1.0, 2.0]])
    def test_quadric_at_origin(self, a):
        # G's jet stays finite at z = 0 on a quadric: the flow of G there is
        # linear, J hess G = J diag(2 pi / a_h)
        body = ConvexBody(a)
        want = standard_J(body.n) @ np.diag(np.repeat(2.0 * np.pi / np.array(a), 2))
        for z in (np.zeros(body.dim), np.zeros((3, body.dim))):
            assert np.array_equal(body.gauge2(z), np.zeros(z.shape[:-1]))
            assert np.array_equal(body.grad_gauge2(z), np.zeros(z.shape))
            A = _flow_matrix(dynamics._alpha_flow(body, z, 2.0))
            assert np.array_equal(A, np.broadcast_to(want, z.shape + (body.dim,)))


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
        body = ConvexBody(a=[np.pi * r**2] * 2, alpha=1.5)
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
        oracle = ImplicitJetOracle(perturbed)
        for _ in range(10):
            z = rng.normal(size=4)
            w = oracle._homogeneous_derivatives(z, perturbed.alpha)[0]  # grad H(z)
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


def _sweep_body(rng):
    """A seeded body: n 1-4, eps 0 or log-uniform in [1e-5, 1e2], a in
    [0.5, 4], and about one plane in four with q_h = 0."""
    n = int(rng.integers(1, 5))
    eps = 0.0 if rng.random() < 0.2 else float(10.0 ** rng.uniform(-5.0, 2.0))
    quartic = rng.uniform(0.0, 2.0, n) * (rng.random(n) > 0.25)
    return ConvexBody(rng.uniform(0.5, 4.0, n), epsilon=eps, quartic=quartic)


def _sweep_directions(rng, dim, count=8):
    """Gaussian directions, the later half with one or more zero planes (never all)."""
    W = rng.normal(size=(count, dim))
    for w in W[count // 2:]:
        planes = np.flatnonzero(rng.random(dim // 2) < 0.5)[: dim // 2 - 1]
        w.reshape(-1, 2)[planes] = 0.0
    return W


class TestSupportSweep:
    """Seeded property sweep of `support`, checked through the G form of the
    body (`gauge2`, `grad_gauge2`), independently of the scalar solve."""

    def test_tangency_maximality_steps_and_scaling(self, monkeypatch):
        import reeb_spectra.bodies as bodies_mod

        monkeypatch.setattr(bodies_mod, "SUPPORT_MAX_ITER", 6)
        rng = np.random.default_rng(2025)
        for _ in range(300):
            body = _sweep_body(rng)
            W = _sweep_directions(rng, body.dim)
            h, u = body.support(W)  # SupportSolveError past 6 Newton steps
            G, grad = body.gauge2(u), body.grad_gauge2(u)
            assert np.abs(G - 1.0).max() <= 1e-12, body
            kkt = np.linalg.norm(W - 0.5 * h[:, None] * grad, axis=-1)
            assert np.all(kkt <= 1e-11 * np.linalg.norm(W, axis=-1)), body
            Z = body.project_to_surface(rng.normal(size=(256, body.dim)))
            assert np.all(h[:, None] >= W @ Z.T - 1e-13 * h[:, None]), body
            for s in (1e-200, 1e-8, 1e8, 1e200):
                hs, us = body.support(s * W)
                assert np.allclose(hs, s * h, rtol=1e-14, atol=0.0), (body, s)
                assert np.abs(us - u).max() <= 1e-14, (body, s)

    @pytest.mark.parametrize("name", ["e12", "perturbed"])
    def test_bad_directions_refused_by_name(self, name, request):
        body = request.getfixturevalue(name)
        for w in ([0.0, 0.0, 0.0, 0.0], [np.nan, 0.0, 1.0, 0.0], [np.inf, 0.0, 1.0, 0.0]):
            with pytest.raises(ValueError, match="support direction 0 must be finite and non-zero"):
                body.support(np.array(w))
        with pytest.raises(ValueError, match="support direction 1 "):
            body.support(np.array([[1.0, 0.0, 0.0, 0.0], [0.0, np.nan, 0.0, 0.0]]))
        with pytest.raises(ValueError, match="finite and non-zero"):
            body.legendre_dual(np.array([np.nan, 0.0, 1.0, 0.0]))
        with pytest.raises(ValueError, match="finite and non-zero"):
            body.grad_legendre(np.array([[1.0, 0.0, 0.0, 0.0], [np.inf, 0.0, 0.0, 0.0]]))
        assert body.legendre_dual(np.zeros((2, 4))).tolist() == [0.0, 0.0]
        assert np.array_equal(body.grad_legendre(np.zeros(4)), np.zeros(4))

    def test_tiny_direction_on_a_quadric(self, e12):
        h, u = e12.support(np.array([1e-200, 0.0, 0.0, 0.0]))
        assert abs(h - 1e-200 / np.sqrt(np.pi)) <= 1e-15 * h
        assert np.allclose(u, [1.0 / np.sqrt(np.pi), 0.0, 0.0, 0.0], rtol=1e-15, atol=0.0)


class TestPinchingRadii:
    def test_ball(self):
        rho = 0.9
        body = ConvexBody(a=[np.pi * rho**2] * 3, alpha=1.5)
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
        dirs = body.surface_samples(1 << 14, seed=3)  # Gaussian directions
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

    @pytest.mark.parametrize("a, eps, quartic", [
        ([1.0, 2.0], 1e-3, [1.0, 1.0]),
        ([1.0, 1.2], 1e-3, [1.0, 0.8]),
        ([1.0, 1.0], 0.5, [1.0, 0.3]),
        ([1.0, 3.0], 1.0, [0.5, 2.0]),
        ([1.0, 1.5], 0.3, [0.0, 1.0]),  # min G on an edge shared with q_1 = 0
        ([1.0, 2.0], 2.0, [1.0, 0.0]),
        ([1.0, 2.0], 0.1, [0.0, 0.0]),
        ([1.0, 2.0, 3.0], 0.1, [0.5, 2.0, 1.0]),
        ([1.0, 1.5, 5.0], 1.0, [1.0, 1.0, 1.0]),  # the plane-3 circle is a saddle of G
        ([1.0, 1.2, 1.4], 0.5, [1.0, 0.0, 2.0]),
        ([1.0, 1.1, 1.3], 3.0, [0.0, 1.0, 0.0]),
        ([1.0, 1.5, 2.0], 0.2, [0.0, 0.0, 0.0]),
    ])
    def test_radii_match_dense_simplex_grid(self, a, eps, quartic):
        body = ConvexBody(a, epsilon=eps, quartic=quartic)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r, R = body.pinching_radii()
        gmin, gmax = _simplex_grid_extrema(body)
        assert abs(1.0 / R**2 - gmin) <= 1e-12 * gmin
        assert abs(1.0 / r**2 - gmax) <= 1e-12 * gmax


def _simplex_grid_extrema(body, zooms=4, per_axis=201):
    """(min G, max G) over the unit sphere by brute force on the plane radii.

    G is evaluated at the sphere points (sqrt(s_1), 0, ..., sqrt(s_n), 0) for
    s on a dense grid of the simplex {s >= 0, sum s = 1}: 10^5 + 1 points for
    n = 2, a triangle grid of spacing 1/400 for n = 3, both holding the
    vertices.  Each zoom regrids a box of four spacings about the grid
    minimiser, per_axis points a side, which takes the spacing below 1e-9.
    """
    n = body.n

    def G(s):
        z = np.zeros(s.shape[:-1] + (2 * n,))
        z[..., 0::2] = np.sqrt(np.maximum(s, 0.0))
        return body.gauge2(z)

    def complete(t):  # affine coordinates (s_1, ..., s_{n-1}) -> s
        return np.concatenate([t, 1.0 - t.sum(axis=-1, keepdims=True)], axis=-1)

    if n == 2:
        t, h = np.linspace(0.0, 1.0, 10**5 + 1)[:, None], 1e-5
    else:
        N, h = 400, 1.0 / 400
        i, j = np.meshgrid(np.arange(N + 1), np.arange(N + 1), indexing="ij")
        keep = i + j <= N
        t = np.stack([i[keep], j[keep]], axis=-1) / N
    vals = G(complete(t))
    gmax = vals.max()
    best = t[np.argmin(vals)]
    gmin = vals.min()
    for _ in range(zooms):
        axes = [np.linspace(c - 2 * h, c + 2 * h, per_axis) for c in best]
        t = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n - 1)
        # points outside the simplex move onto its faces, which keeps the
        # faces in the grid whatever the rounding of linspace
        t = np.maximum(t, 0.0)
        t /= np.maximum(t.sum(axis=-1, keepdims=True), 1.0)
        vals = G(complete(t))
        if vals.min() < gmin:
            gmin, best = vals.min(), t[np.argmin(vals)]
        h = 4 * h / (per_axis - 1)
    return float(gmin), float(gmax)


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestWorkCounts:
    """The support solve is one scalar Newton per direction in the plane radii."""

    @pytest.mark.parametrize("name", ["e12", "perturbed"])
    def test_support_solves_no_linear_system(self, name, request, monkeypatch):
        body = request.getfixturevalue(name)
        W = np.random.default_rng(0).normal(size=(64, 4))
        jets = _count_calls(monkeypatch, ConvexBody, "_gauge2_jet")
        solves = _count_calls(monkeypatch, np.linalg, "solve")
        body.support(W)
        assert (len(jets), len(solves)) == (0, 0)
