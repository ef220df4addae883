import threading

import numpy as np
import pytest

from reeb_spectra.bodies import ConvexBody
from reeb_spectra.clarke import (
    FourierLoop,
    MinimizationError,
    MinimizeConfig,
    OVERSAMPLE,
    circle_loop,
    minimize,
    psi,
    psi_with_grad,
    random_loop,
    reconstruct_orbit,
    renormalized_action,
    _descend,
    _pack,
    _unpack,
)
from reeb_spectra.symplectic import apply_J

from test_bodies import ImplicitJetOracle


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
        rhs = apply_J(ImplicitJetOracle(body)._homogeneous_derivatives(zeta, body.alpha)[0])
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
            # one entry per loop of the evaluated stack
            stack = loop.coeffs.shape[0] if loop.coeffs.ndim == 3 else 1
            calls.extend([loop.grid_size] * stack)
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

    @pytest.mark.parametrize("spec", [
        {"a": [1.0, 2.0]}, {"a": [np.pi, np.pi]},
        {"a": [1.0, 2.0], "epsilon": 1e-3, "quartic": [1.0, 1.0]},
    ], ids=["e12", "ball", "perturbed-e12"])
    def test_orbit_from_the_start_nearest_critical(self, spec):
        # random starts that stop on the rounding rule sit within ulps of the
        # circle starts' Psi, some below it; the tie goes to the start of
        # least gradient, a circle start here
        body = ConvexBody(alpha=1.5, **spec)
        res = minimize(body, MinimizeConfig(modes=64, starts=16, seed=5))
        assert res.grad_norm <= 1e-12
        assert res.orbit.meta["el_residual"] < 1e-12


# three bodies and the Psi evaluations that scipy's L-BFGS-B, the descent
# this one replaced, made on each at --modes 8 --starts 0 (the starts and the
# doubling descent)
COUNTED_BODIES = [
    ({"a": [1.0, 2.0], "epsilon": 1e-3, "quartic": [1.0, 1.0]}, 12),
    ({"a": [1.0, 2.0], "epsilon": 1e-2, "quartic": [1.0, 1.0]}, 31),
    ({"a": [1.0, 1.5, 7.0 / 3.0], "epsilon": 0.3, "quartic": [1.0, 0.0, 2.0]}, 18),
]


def _stack_of_starts(body, K, count, seed):
    M = 2 * K * OVERSAMPLE
    rng = np.random.default_rng(seed)
    loops = [circle_loop(body, h, K, M) for h in range(body.n)]
    loops += [random_loop(body.dim, K, M, rng, amplitude=0.3) for _ in range(count)]
    return np.stack([lp.coeffs for lp in loops]), M


class TestLockstepDescent:
    @pytest.mark.parametrize("spec", [COUNTED_BODIES[0][0], COUNTED_BODIES[2][0]])
    def test_batch_invariance(self, spec):
        # a start's arithmetic does not see the other rows of the stack, nor
        # the starts that stopped before it
        body = ConvexBody(alpha=1.5, **spec)
        coeffs, M = _stack_of_starts(body, 8, 6, seed=3)
        values, grads, ends, evaluations, stops = _descend(body, coeffs, M, 2000)
        assert len(set(evaluations.tolist())) > 1  # starts stop at different steps
        for i in range(len(coeffs)):
            v1, g1, e1, n1, s1 = _descend(body, coeffs[i : i + 1], M, 2000)
            assert abs(v1[0] - values[i]) <= 1e-15, i
            assert (n1[0], s1[0], g1[0]) == (evaluations[i], stops[i], grads[i]), i
            assert np.array_equal(e1[0], ends[i]), i

    @pytest.mark.parametrize("spec,parent_count", COUNTED_BODIES)
    def test_evaluations_at_most_the_l_bfgs_b_count(self, spec, parent_count):
        body = ConvexBody(alpha=1.5, **spec)
        res = minimize(body, MinimizeConfig(modes=8, starts=0))
        assert res.diagnostics["psi_evaluations"] <= parent_count
        # the circle starts and the doubling descent each stop once
        assert sum(res.diagnostics["stops"].values()) == body.n + 1

    @pytest.mark.parametrize("spec", [COUNTED_BODIES[0][0], COUNTED_BODIES[2][0]])
    def test_systole_matches_the_plane_closed_form(self, spec):
        body = ConvexBody(alpha=1.5, **spec)
        res = minimize(body, MinimizeConfig(modes=8, starts=0))
        expected = min(planar_period_oracle(a, spec["epsilon"], q)
                       for a, q in zip(spec["a"], spec["quartic"]))
        assert abs(res.systole - expected) < 1e-12
        assert res.orbit.meta["el_residual"] < 1e-10

    def test_random_starts_stop_on_rounding(self):
        # at the minimizer's S^1 family the gradient of a random start stalls
        # above GTOL; the rounding rule ends the descent instead of maxiter
        body = ConvexBody(alpha=1.5, **COUNTED_BODIES[0][0])
        coeffs, M = _stack_of_starts(body, 8, 4, seed=3)
        values, grads, _, evaluations, stops = _descend(body, coeffs[body.n :], M, 2000)
        assert stops == ["rounding"] * 4
        assert evaluations.max() < 60
        assert grads.max() < 1e-6
        assert np.all(values < 0)

    def test_maxiter_counts_accepted_steps(self):
        body = ConvexBody(alpha=1.5, **COUNTED_BODIES[1][0])
        coeffs, M = _stack_of_starts(body, 8, 2, seed=3)
        coeffs = coeffs[body.n :]  # random starts, far from critical
        for maxiter in (0, 1, 3):
            _, _, _, evaluations, stops = _descend(body, coeffs, M, maxiter)
            # maxiter = 0 evaluates each start once and takes no step
            assert set(stops) == {"maxiter"}
            assert evaluations.min() >= 1 + maxiter
            if maxiter == 0:
                assert evaluations.tolist() == [1] * len(coeffs)

    def test_critical_start_stops_before_a_step(self):
        # on a plane with q_h = 0 the circle start is the critical loop itself
        body = ConvexBody(alpha=1.5, **COUNTED_BODIES[2][0])
        coeffs, M = _stack_of_starts(body, 8, 0, seed=0)
        values, grads, ends, evaluations, stops = _descend(body, coeffs[1:2], M, 2000)
        assert (evaluations.tolist(), stops) == ([1], ["gtol"])
        assert np.array_equal(ends[0], coeffs[1]) and grads[0] <= 1e-12

    def test_stack_evaluates_each_loop_as_alone(self):
        body = ConvexBody(alpha=1.5, **COUNTED_BODIES[2][0])
        coeffs, M = _stack_of_starts(body, 8, 3, seed=4)
        values, grads = psi_with_grad(body, FourierLoop(coeffs=coeffs, grid_size=M))
        assert values.shape == (len(coeffs),) and grads.shape == coeffs.shape
        for i, c in enumerate(coeffs):
            v, g = psi_with_grad(body, FourierLoop(coeffs=c, grid_size=M))
            assert v == values[i]
            assert np.array_equal(g, grads[i])
