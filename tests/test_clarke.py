import threading

import numpy as np
import pytest

from reeb_spectra.bodies import ConvexBody
from reeb_spectra.clarke import (
    FourierLoop,
    MinimizationError,
    MinimizeConfig,
    circle_loop,
    minimize,
    psi,
    psi_with_grad,
    random_loop,
    reconstruct_orbit,
    renormalized_action,
    _pack,
    _unpack,
)
from reeb_spectra.symplectic import apply_J


def planar_period_oracle(a_h: float, eps: float, q_h: float) -> float:
    """Exact period of the coordinate-plane orbit of a perturbed body.

    In an invariant plane G = I [w + sqrt(w^2 + 16 eps q)]/2 with w = 2 pi/a,
    linear in the action I, so the orbit is harmonic with period 4 pi /
    (w + sqrt(w^2 + 16 eps q)).
    """
    w = 2 * np.pi / a_h
    return 4 * np.pi / (w + np.sqrt(w * w + 16 * eps * q_h))


class TestFourierLoop:
    def test_aliasing_guard(self):
        with pytest.raises(ValueError, match="aliasing"):
            FourierLoop(coeffs=np.zeros((16, 4), dtype=complex), grid_size=32)

    def test_values_real(self):
        rng = np.random.default_rng(0)
        lp = random_loop(4, 8, 64, rng)
        u = lp.values()
        assert u.shape == (64, 4)
        assert np.isrealobj(u)

    def test_zero_mean_enforced_by_representation(self):
        rng = np.random.default_rng(2)
        lp = random_loop(4, 8, 64, rng)
        assert np.abs(lp.values().mean(axis=0)).max() < 1e-12


class TestPsi:
    def test_zero_loop(self):
        body = ConvexBody(a=[1.0, 2.0], alpha=1.5)
        lp = FourierLoop(coeffs=np.zeros((8, 4), dtype=complex), grid_size=64)
        assert psi(body, lp) == 0.0

    @pytest.mark.parametrize("alpha", [1.3, 1.5, 1.7])
    @pytest.mark.parametrize("r", [0.8, 1.0, 1.6])
    def test_ball_circle_critical_value(self, alpha, r):
        # Psi(gamma_1') = -(1 - alpha/2) (2 tau/alpha)^{-alpha/(2-alpha)}, tau = pi r^2
        body = ConvexBody(a=[np.pi * r**2] * 2, alpha=alpha)
        lp = circle_loop(body, 0, 16, 128)
        tau = np.pi * r**2
        expected = -(1 - alpha / 2) * (2 * tau / alpha) ** (-alpha / (2 - alpha))
        assert abs(psi(body, lp) - expected) < 1e-14

    def test_quadratic_scaling(self):
        from reeb_spectra.clarke import _quadratic_part

        rng = np.random.default_rng(3)
        lp = random_loop(4, 8, 64, rng)
        for s in (0.5, 2.0, 3.7):
            assert abs(_quadratic_part(s * lp.coeffs) - s**2 * _quadratic_part(lp.coeffs)) < 1e-12

    def test_s1_invariance(self):
        body = ConvexBody(a=[1.0, 2.0], alpha=1.5)
        rng = np.random.default_rng(4)
        lp = random_loop(4, 16, 128, rng, amplitude=0.05)
        v0 = psi(body, lp)
        for s in rng.uniform(0, 1, size=5):
            assert abs(psi(body, lp.time_shift(s)) - v0) < 1e-10 * max(1, abs(v0))

    def test_gradient_matches_fd(self):
        body = ConvexBody(a=[1.0, 2.0], alpha=1.5)
        rng = np.random.default_rng(5)
        K, d = 8, 4
        for _ in range(10):
            lp = random_loop(d, K, 64, rng, amplitude=0.05)
            _, g = psi_with_grad(body, lp)
            x, gx = _pack(lp.coeffs), _pack(g)
            for i in rng.integers(0, len(x), size=8):
                h = 1e-6
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                fd = (
                    psi(body, FourierLoop(_unpack(xp, K, d), 64))
                    - psi(body, FourierLoop(_unpack(xm, K, d), 64))
                ) / (2 * h)
                assert abs(fd - gx[i]) < 1e-5 * max(1.0, abs(fd))


class TestRenormalizedAction:
    def test_ball_systole(self):
        alpha, r = 1.5, 1.0
        tau = np.pi * r**2
        psi_val = -(1 - alpha / 2) * (2 * tau / alpha) ** (-alpha / (2 - alpha))
        assert abs(renormalized_action(psi_val, alpha) - np.pi) < 1e-12

    def test_monotone_decreasing_in_psi(self):
        vals = [renormalized_action(p, 1.5) for p in (-2.0, -1.0, -0.5, -0.1)]
        assert vals == sorted(vals)

    def test_rejects_nonnegative(self):
        with pytest.raises(ValueError):
            renormalized_action(0.0, 1.5)
        with pytest.raises(ValueError):
            renormalized_action(0.3, 1.5)


class TestMinimize:
    def test_ball(self):
        body = ConvexBody(a=[np.pi, np.pi], alpha=1.5)
        res = minimize(body, MinimizeConfig(modes=16, starts=4, seed=0))
        assert abs(res.systole - np.pi) / np.pi < 1e-6

    def test_e12(self):
        body = ConvexBody(a=[1.0, 2.0], alpha=1.5)
        res = minimize(body, MinimizeConfig(modes=16, starts=4, seed=1))
        assert abs(res.systole - 1.0) < 1e-6
        z0 = res.orbit.initial_point
        assert np.abs(z0[2:]).max() < 1e-6  # orbit sits in the z1 plane

    def test_perturbed_matches_plane_oracle(self):
        eps = 1e-3
        body = ConvexBody(a=[1.0, 2.0], epsilon=eps, quartic=[1.0, 1.0], alpha=1.5)
        res = minimize(body, MinimizeConfig(modes=16, starts=2, seed=2, double_check=False))
        expected = planar_period_oracle(1.0, eps, 1.0)
        assert abs(res.systole - expected) < 1e-8
        assert abs(res.systole - 1.0) < 10 * eps
        assert res.grad_norm < 1e-8

    def test_hamiltonian_equation_at_minimizer(self):
        body = ConvexBody(a=[1.0, 2.0], alpha=1.5)
        res = minimize(body, MinimizeConfig(modes=16, starts=4, seed=3))
        zeta = body.grad_legendre(-apply_J(res.loop.values()))
        rhs = apply_J(body.grad_H(zeta))
        M = res.loop.grid_size
        spec = np.fft.rfft(zeta, axis=0, norm="forward")
        k = np.arange(M // 2 + 1)
        dzeta = np.fft.irfft(spec * (2j * np.pi * k)[:, None], n=M, axis=0, norm="forward")
        assert np.abs(dzeta - rhs).max() < 1e-6 * max(1.0, np.abs(rhs).max())

    def test_iterate_scaling(self):
        body = ConvexBody(a=[1.0, 2.0], alpha=1.5)
        res = minimize(body, MinimizeConfig(modes=8, starts=2, seed=4, double_check=False))
        for k in (2, 3):
            lp_k = res.loop.iterate(k, body.alpha)
            val = renormalized_action(psi(body, lp_k), body.alpha)
            assert abs(val - k * res.systole) < 1e-8 * k

    def test_min_modes_enforced(self):
        body = ConvexBody(a=[1.0], alpha=1.5)
        with pytest.raises(ValueError):
            minimize(body, MinimizeConfig(modes=4))

    def test_all_starts_stall_raises(self):
        # on a perturbed body the circle starts are not critical, so zero
        # iterations leaves every start with a noticeable gradient
        body = ConvexBody(a=[1.0, 2.0], epsilon=1e-2, quartic=[1.0, 1.0], alpha=1.5)
        with pytest.raises(MinimizationError) as exc:
            minimize(body, MinimizeConfig(modes=8, starts=0, maxiter=0, double_check=False))
        assert exc.value.best_value is not None

    def test_reconstructed_orbit_on_surface(self):
        body = ConvexBody(a=[1.0, 2.0], alpha=1.5)
        res = minimize(body, MinimizeConfig(modes=16, starts=2, seed=5, double_check=False))
        assert abs(body.gauge2(res.orbit.initial_point) - 1.0) < 1e-9
        assert res.orbit.residual < 1e-7
        assert res.grad_norm < 1e-8

    def test_starts_run_without_threads(self, monkeypatch):
        monkeypatch.setenv("REEB_SPECTRA_THREADS", "2")

        def refuse(thread):
            raise AssertionError("minimize started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        body = ConvexBody(a=[1.0, 2.0], alpha=1.5)
        res = minimize(body, MinimizeConfig(modes=8, starts=2, seed=4, double_check=False))
        assert abs(res.systole - 1.0) < 1e-6

    @pytest.mark.parametrize("double_check", [True, False])
    def test_psi_evaluations_counted(self, double_check, monkeypatch):
        import reeb_spectra.clarke as clarke_mod

        calls = []
        original = clarke_mod.psi_with_grad

        def counted(body, loop):
            calls.append(loop.grid_size)
            return original(body, loop)

        monkeypatch.setattr(clarke_mod, "psi_with_grad", counted)
        body = ConvexBody(a=[1.0, 2.0], epsilon=1e-2, quartic=[1.0, 1.0], alpha=1.5)
        res = minimize(body, MinimizeConfig(modes=8, starts=1, seed=2, double_check=double_check))
        assert res.diagnostics["psi_evaluations"] == len(calls) > 0
        # the doubling descent runs on twice the grid
        assert (128 in calls) == double_check

    def test_reconstruct_orbit_helper(self):
        body = ConvexBody(a=[np.pi, np.pi], alpha=1.5)
        lp = circle_loop(body, 0, 16, 128)
        orb = reconstruct_orbit(body, lp, np.pi)
        assert abs(np.linalg.norm(orb.initial_point) - 1.0) < 1e-10
