import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from reeb_spectra import conley_zehnder as cz
from reeb_spectra import dynamics
from reeb_spectra.bodies import ConvexBody
from reeb_spectra.dynamics import (
    _minimal_period,
    _newton_polish,
    find_closed_orbits,
    flow_with_monodromy,
    integrate_reeb,
    monodromy_and_index,
    numerical_besse_test,
    return_block,
)
from reeb_spectra.ellipsoid import ellipsoid, reeb_flow
from reeb_spectra.symplectic import standard_J, symplectic_defect

E12 = ConvexBody(a=[1.0, 2.0], alpha=1.5)
E12_EXACT = ellipsoid([1, 2])
PERTURBED = ConvexBody(a=[1.0, 2.0], epsilon=1e-3, quartic=[1.0, 1.0], alpha=1.5)


def surface_point(body, raw):
    return body.project_to_surface(np.asarray(raw, dtype=float))


def variational_reference(body, alpha, z, span, dense=False):
    """The test's own DOP853 solve of the degree-alpha flow and its
    linearization, (z, Y)' = (J grad H(z), J hess H(z) Y), over
    sigma in [0, span], with H = G at alpha = 2."""
    d = body.dim
    J = standard_J(body.n)
    if alpha == 2.0:
        grad, hess = body.grad_gauge2, body.hess_gauge2
    else:
        homogenized = body.homogenize(alpha)
        grad, hess = homogenized.grad_H, homogenized.hess_H

    def rhs(_, y):
        return np.concatenate([J @ grad(y[:d]), (J @ hess(y[:d]) @ y[d:].reshape(d, d)).ravel()])

    sol = solve_ivp(rhs, (0.0, span), np.concatenate([z, np.eye(d).ravel()]), method="DOP853",
                    rtol=1e-13, atol=1e-15, dense_output=dense)
    assert sol.success
    return sol


@pytest.fixture
def ode_starts(monkeypatch):
    """Every start of a solve_ivp solver and every odeint call, whatever
    module makes it."""
    import scipy.integrate
    from scipy.integrate._ivp.base import OdeSolver

    starts = []

    def counting(fn, name):
        def counted(*args, **kwargs):
            starts.append(name)
            return fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(OdeSolver, "__init__", counting(OdeSolver.__init__, "solve_ivp"))
    monkeypatch.setattr(scipy.integrate, "odeint", counting(scipy.integrate.odeint, "odeint"))
    return starts


@pytest.fixture
def flows(monkeypatch):
    """(innermost tagged dynamics function, start shape, alpha) per closed-form
    flow built, and the number of jets of G taken."""
    built, jets, stack = [], [], []
    build, jet = dynamics._alpha_flow, ConvexBody._gauge2_jet

    def counted_build(body, z0, alpha):
        built.append((stack[-1] if stack else None, np.shape(z0), alpha))
        return build(body, z0, alpha)

    def counted_jet(self, z):
        jets.append(1)
        return jet(self, z)

    def tag(name):
        fn = getattr(dynamics, name)

        def tagged(*args, **kwargs):
            stack.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()

        monkeypatch.setattr(dynamics, name, tagged)

    monkeypatch.setattr(dynamics, "_alpha_flow", counted_build)
    monkeypatch.setattr(ConvexBody, "_gauge2_jet", counted_jet)
    for name in ("find_closed_orbits", "_newton_polish", "_minimal_period",
                 "monodromy_and_index"):
        tag(name)
    return built, jets


@pytest.fixture
def polishes(monkeypatch):
    """(seed, tau guess, start) of every Newton polish."""
    calls = []
    polish = dynamics._newton_polish

    def spy(body, z_seed, tau_guess, t_max, start=None):
        calls.append((z_seed, tau_guess, start))
        return polish(body, z_seed, tau_guess, t_max, start=start)

    monkeypatch.setattr(dynamics, "_newton_polish", spy)
    return calls


class TestIntegrateReeb:
    def test_zero_time(self):
        z = surface_point(E12, [0.3, -0.2, 0.5, 0.1])
        assert np.array_equal(integrate_reeb(E12, z, 0.0), z)

    @pytest.mark.parametrize("t", [0.7, 3.3, 10.0])
    def test_matches_closed_form(self, t):
        z = surface_point(E12, [0.3, -0.2, 0.5, 0.1])
        zt = integrate_reeb(E12, z, t)
        assert np.abs(zt - reeb_flow(E12_EXACT, z, t)).max() < 1e-9

    def test_time_reversal(self):
        z = surface_point(E12, [0.1, 0.4, -0.3, 0.2])
        back = integrate_reeb(E12, integrate_reeb(E12, z, 1.3), -1.3)
        assert np.abs(back - z).max() < 1e-9

    def test_energy_conservation(self):
        z = surface_point(E12, [0.25, 0.15, 0.35, -0.45])
        zt = integrate_reeb(E12, z, 5.0)
        assert abs(E12.gauge2(zt) - 1.0) < 1e-9

    def test_long_solve_stays_on_surface(self):
        # the closed form keeps every plane radius
        z = surface_point(PERTURBED, [0.25, 0.15, 0.35, -0.45])
        assert abs(PERTURBED.gauge2(integrate_reeb(PERTURBED, z, 50.0)) - 1.0) < 1e-9

    def test_dense_interpolant_matches_endpoints(self):
        Z = PERTURBED.surface_samples(3, seed=2)
        interp = integrate_reeb(PERTURBED, Z, 1.7, dense=True)
        ends = integrate_reeb(PERTURBED, Z, 1.7)
        assert np.abs(interp(1.7).reshape(Z.shape) - ends).max() < 1e-12
        assert np.array_equal(interp(0.0).reshape(Z.shape), Z)

    def test_off_surface_rejected(self):
        with pytest.raises(ValueError):
            integrate_reeb(E12, np.array([1.0, 0.0, 0.0, 0.0]), 1.0)
        Z = np.stack([surface_point(E12, [0.3, -0.2, 0.5, 0.1]), [1.0, 0.0, 0.0, 0.0]])
        with pytest.raises(ValueError):
            integrate_reeb(E12, Z, 1.0, dense=True)

    def test_batch_matches_single(self):
        Z = np.stack([surface_point(E12, [0.3, -0.2, 0.5, 0.1]),
                      surface_point(E12, [0.1, 0.2, 0.3, 0.4])])
        out = integrate_reeb(E12, Z, 0.8)
        for i in range(2):
            assert np.abs(out[i] - integrate_reeb(E12, Z[i], 0.8)).max() < 1e-9

    def test_dense_shapes(self):
        Z = PERTURBED.surface_samples(3, seed=2)
        states = integrate_reeb(PERTURBED, Z, 1.0, dense=True)
        ts = np.array([0.0, 0.4, 1.0])
        assert states(0.4).shape == (Z.size,)
        assert states(ts).shape == (Z.size, len(ts))
        assert np.array_equal(states(ts)[:, 1], states(0.4))
        single = integrate_reeb(PERTURBED, Z[0], 1.0, dense=True)
        assert single(ts).shape == (PERTURBED.dim, len(ts))
        assert np.array_equal(single(ts).T, states(ts).T[:, :PERTURBED.dim])


CROSS_CHECK_BODIES = {
    "perturbed-E12": PERTURBED,
    "three-planes": ConvexBody(a=[1.0, 1.5, 7 / 3], epsilon=0.3, quartic=[1.0, 0.2, 2.0]),
    "one-flat-plane": ConvexBody(a=[1.0, 2.0], epsilon=0.3, quartic=[0.0, 1.0]),
    "quadric": E12,
}


class TestReebCrossCheck:
    """The closed-form Reeb flow against an ODE solve of z' = J grad G(z)."""

    @pytest.mark.parametrize("t", [0.7, 2.0, 50.0, -1.3])
    @pytest.mark.parametrize("name", sorted(CROSS_CHECK_BODIES))
    def test_matches_an_ode_solve(self, name, t):
        body = CROSS_CHECK_BODIES[name]
        Z = body.surface_samples(6, seed=4)
        J = standard_J(body.n)

        def rhs(_, y):
            return (body.grad_gauge2(y.reshape(Z.shape)) @ J.T).reshape(-1)

        ts = np.linspace(0.0, t, 9)
        sol = solve_ivp(rhs, (0.0, t), Z.reshape(-1), method="DOP853", t_eval=ts,
                        rtol=1e-12, atol=1e-13)
        assert sol.success
        path = sol.y.T.reshape(len(ts), *Z.shape)
        # the premise of the closed form: the plane radii are conserved
        radii = path[..., 0::2] ** 2 + path[..., 1::2] ** 2
        assert np.abs(radii - radii[0]).max() < 1e-10
        assert np.abs(integrate_reeb(body, Z, t) - path[-1]).max() < 1e-9
        states = integrate_reeb(body, Z, t, dense=True)
        assert np.abs(states(ts).T.reshape(path.shape) - path).max() < 1e-9


SWEEP_BODIES = {
    "perturbed-E12": PERTURBED,
    "three-planes-one-flat": ConvexBody(a=[1.0, 1.5, 7 / 3], epsilon=0.3, quartic=[1.0, 0.0, 2.0]),
    "one-flat-plane": ConvexBody(a=[1.0, 2.0], epsilon=0.3, quartic=[0.0, 1.0]),
    "quadric": E12,
}
# every body and alpha on short spans, and one alpha per body on a long one
SWEEP_CASES = [(name, alpha, span) for name in sorted(SWEEP_BODIES)
               for alpha in (1.2, 1.5, 2.0) for span in (0.9, 7.0)] + [
    ("perturbed-E12", 1.2, 50.0), ("three-planes-one-flat", 1.5, 50.0),
    ("one-flat-plane", 2.0, 50.0), ("quadric", 1.2, 50.0)]


class TestClosedFormSweep:
    """The closed-form degree-alpha flow and its linearization against the
    test's own ODE solve of the variational system."""

    @pytest.mark.parametrize("name, alpha, span", SWEEP_CASES)
    def test_matches_the_variational_ode(self, name, alpha, span):
        body = SWEEP_BODIES[name]
        d = body.dim
        z = body.surface_samples(4, seed=7)[3]
        ref = variational_reference(body, alpha, z, span, dense=True)
        z_end, M, path = flow_with_monodromy(body, z, span * alpha / 2.0, alpha=alpha, dense=True)
        ts = np.linspace(0.0, 1.0, 11)[1:-1]
        mats = path.evaluate_batch(ts)
        scale = max(1.0, np.abs(M).max())
        # the reference's own error grows with the span and the size of Y
        tol = 2e-12 * (1.0 + span) * scale
        assert np.abs(z_end - ref.y[:d, -1]).max() < tol
        assert np.abs(M - ref.y[d:, -1].reshape(d, d)).max() < tol
        assert np.abs(mats - ref.sol(ts * span)[d:].T.reshape(-1, d, d)).max() < tol
        # Y^T J Y - J rounds at the size of Y squared
        assert max(symplectic_defect(M), path.symplectic_defect(ts)) < 1e-12 * scale ** 2


class TestFindClosedOrbits:
    def test_e12_periods(self):
        orbits = find_closed_orbits(E12, t_max=3.0, n_seeds=6, seed=0)
        periods = sorted({round(o.period, 6) for o in orbits})
        assert periods == [1.0, 2.0]
        short = [o for o in orbits if abs(o.period - 1.0) < 1e-6][0]
        assert short.meta["multiples"] == pytest.approx([1.0, 2.0, 3.0], abs=1e-8)
        assert all(o.residual < 1e-9 for o in orbits)

    def test_ball_continuum_representatives(self):
        r = 0.8
        ball = ConvexBody(a=[np.pi * r**2] * 2, alpha=1.5)
        orbits = find_closed_orbits(ball, t_max=2.5, n_seeds=6, seed=1)
        assert orbits
        for o in orbits:
            assert abs(o.period - np.pi * r**2) < 1e-8

    def test_perturbed_periods_near_unperturbed(self):
        eps = 1e-3
        body = ConvexBody(a=[1.0, 2.0], epsilon=eps, quartic=[1.0, 1.0], alpha=1.5)
        orbits = find_closed_orbits(body, t_max=3.0, n_seeds=4, seed=2)
        assert orbits
        from test_clarke import planar_period_oracle

        exact = [planar_period_oracle(a, eps, 1.0) for a in (1.0, 2.0)]
        for o in orbits:
            k = round(o.period)
            best = min(abs(o.period - k * e) for e in exact for k in (1, 2, 3))
            assert best < 1e-8 or min(abs(o.period - v) for v in (1.0, 2.0, 3.0)) < 10 * eps

    def test_double_cover_folded_into_multiples(self):
        # seeds 3, seed 0: the plane-1 seeds return again near 2 x 0.9998987,
        # where a polished double cover returns only within 3e-7 at half its
        # period; no cover may be listed beside its orbit
        body = ConvexBody(a=[1.0, 2.0], epsilon=1e-3, quartic=[1.0, 1.0], alpha=1.5)
        orbits = find_closed_orbits(body, t_max=3.0, n_seeds=3, seed=0)

        def planes(o):
            z = o.initial_point
            return tuple(z[0::2] ** 2 + z[1::2] ** 2 > 1e-6)

        for short in orbits:
            for other in orbits:
                if other is short or planes(other) != planes(short):
                    continue
                for k in range(2, int(other.period / short.period) + 2):
                    assert abs(other.period - k * short.period) > 1e-6
        plane1 = [o for o in orbits if abs(o.period - 0.9998987) < 1e-6]
        assert len(plane1) == 1
        assert plane1[0].meta["multiples"][1] == pytest.approx(2 * plane1[0].period, abs=1e-12)

    def test_minimal_period_of_a_double_cover(self):
        from test_clarke import planar_period_oracle

        T = planar_period_oracle(1.0, 1e-3, 1.0)
        z = surface_point(PERTURBED, [1.0, 0.0, 0.0, 0.0])
        cover = _newton_polish(PERTURBED, z, 2.0 * T, t_max=3.0)
        assert cover is not None and abs(cover.period - 2.0 * T) < 1e-9
        orbit = _minimal_period(PERTURBED, cover)
        assert abs(orbit.period - T) < 1e-9
        # the trajectory is the replacing orbit's own flow, from its initial
        # point over its own period, and it closes there
        assert np.array_equal(orbit.flow.flow.z0, orbit.initial_point)
        assert orbit.flow.tau == orbit.period
        assert np.linalg.norm(orbit.flow.end - orbit.initial_point) < 1e-8
        assert np.linalg.norm(orbit.flow.reeb(orbit.period) - orbit.initial_point) < 1e-8

    def test_minimal_period_of_a_cover_a_hair_short(self):
        # pi r^2 equals T here to 1e-13, so a cover's period just below 3 T
        # must still screen k = 3
        from test_clarke import planar_period_oracle

        T = planar_period_oracle(1.0, 1e-3, 1.0)
        z = surface_point(PERTURBED, [1.0, 0.0, 0.0, 0.0])
        cover = _newton_polish(PERTURBED, z, 3.0 * T, t_max=3.0 * T)
        short = dataclasses.replace(cover, period=cover.period * (1.0 - 1e-9))
        assert abs(_minimal_period(PERTURBED, short).period - T) < 1e-9

    @pytest.mark.parametrize("m", [9, 10, 11, 12])
    def test_minimal_period_of_covers_beyond_eight(self, m):
        # the screen runs k from floor(tau / (pi r^2)) down, not from 8
        from test_clarke import planar_period_oracle

        T = planar_period_oracle(1.0, 1e-3, 1.0)
        z = surface_point(PERTURBED, [1.0, 0.0, 0.0, 0.0])
        cover = _newton_polish(PERTURBED, z, m * T, t_max=m * T)
        assert cover is not None and abs(cover.period - m * T) < 1e-8
        assert abs(_minimal_period(PERTURBED, cover).period - T) < 1e-9


class TestWorkCounts:
    """Deterministic guards on the work the orbit search does per step: no
    ODE is solved, and each closed-form flow takes one jet of G."""

    @pytest.mark.parametrize("alpha", [2.0, 1.5])
    def test_one_jet_per_flow(self, alpha, flows, ode_starts):
        built, jets = flows
        z = surface_point(PERTURBED, [0.4, 0.1, 0.3, -0.2])
        _, _, path = flow_with_monodromy(PERTURBED, z, 1.3, alpha=alpha, dense=True)
        cz.cz_index(path)  # the index count reads the path and takes no jet
        assert [b[1:] for b in built] == [((4,), alpha)]
        assert len(jets) == 1
        assert ode_starts == []

    @pytest.mark.parametrize("n_seeds", [2, 5])
    def test_one_solve_for_the_seed_sweep(self, n_seeds, flows, ode_starts):
        # the scan is one flow from all seeds at once, built before any polish
        built, jets = flows
        dynamics.find_closed_orbits(E12, t_max=2.5, n_seeds=n_seeds, seed=0)
        scans = [b for b in built if b[0] == "find_closed_orbits"]
        assert scans == [("find_closed_orbits", (n_seeds, E12.dim), E12.alpha)]
        assert built[0] == scans[0]
        assert len(jets) == len(built)
        assert ode_starts == []

    def test_orbits_job_solves_only_the_scan_and_newton(self, flows, ode_starts, tmp_path,
                                                        capsys):
        # perturbed E(1,2), tmax 1.1, 2 seeds: the scan, the Newton trials
        # and the index build closed-form flows, and nothing solves an ODE
        from reeb_spectra import cli

        built, jets = flows
        spec = tmp_path / "body.json"
        spec.write_text('{"type": "perturbed", "a": [1.0, 2.0], "epsilon": 1e-3, '
                        '"quartic": [1.0, 1.0]}')
        assert cli.main(["orbits", "--body", str(spec), "--tmax", "1.1", "--seeds", "2"]) == 0
        orbits = json.loads(capsys.readouterr().out)["orbits"]
        assert [(o["cz"], o["morse"], o["nullity"]) for o in orbits] == [(2, 0, 1)]
        assert ode_starts == []
        assert len(jets) == len(built)
        assert {b[0] for b in built} == {"find_closed_orbits", "_newton_polish",
                                         "monodromy_and_index"}
        # the polish reads the seed's residual and Jacobian off the scan's
        # flow, and the index reads its path at alpha and M_2 at alpha = 2
        assert built[0] == ("find_closed_orbits", (2, 4), 1.5)
        assert [b[2] for b in built if b[0] == "monodromy_and_index"] == [1.5, 2.0]

    def test_index_at_another_alpha_solves_once(self, flows, ode_starts):
        from test_clarke import planar_period_oracle

        built, jets = flows
        T = planar_period_oracle(2.0, 1e-3, 1.0)
        z = surface_point(PERTURBED, [0.0, 0.0, 1.0, 0.0])
        orbit = _newton_polish(PERTURBED, z, T, t_max=T)
        monodromy_and_index(PERTURBED, orbit, alpha=PERTURBED.alpha)
        want = (orbit.cz_index, orbit.morse_index, orbit.nullity)
        for alpha in (1.3, 1.7):
            del built[:], jets[:]
            dynamics.monodromy_and_index(PERTURBED, orbit, alpha=alpha)
            # the path at alpha, and M_2 at alpha = 2
            assert built == [("monodromy_and_index", (4,), alpha),
                             ("monodromy_and_index", (4,), 2.0)]
            assert len(jets) == 2
            assert (orbit.cz_index, orbit.morse_index, orbit.nullity) == want
            assert orbit.flow.alpha == alpha
        assert ode_starts == []

    def test_no_polish_at_multiples(self, polishes):
        # each plane seed returns at every multiple of its period up to 10;
        # only its first return is polished, and the covers' reductions
        # need none
        orbits = find_closed_orbits(E12, t_max=10.0, n_seeds=2)
        assert [round(o.period, 9) for o in orbits] == [1.0, 2.0]
        assert [round(t, 6) for _, t, _ in polishes] == [1.0, 2.0]

    def test_return_after_a_polish_off_the_seed_is_polished(self, monkeypatch, polishes):
        # a seed near the plane-1 circle returns near t = 1, and its polish
        # moves onto the circle; the seed itself closes at t = 2 on another
        # orbit, which is no cover of the circle and must still be polished
        seed = E12.project_to_surface(np.array([0.5, 0.1, 0.05, -0.025]))
        monkeypatch.setattr(dynamics, "_default_seeds", lambda body, extra, s: [seed])
        orbits = find_closed_orbits(E12, t_max=3.0, n_seeds=1)
        assert [round(o.period, 9) for o in orbits] == [1.0, 2.0]
        assert np.linalg.norm(orbits[0].initial_point - seed) > 1e-2
        assert [round(t, 2) for _, t, _ in polishes] == [1.0, 2.0]


class TestSeedScan:
    """The seed scan's state at a near-return is the Newton polish's first
    residual and Jacobian."""

    @pytest.mark.parametrize("body, t_max, n_seeds", [
        (PERTURBED, 3.0, 3),
        (ConvexBody(a=[1.0, 1.5, 7 / 3], epsilon=1e-3, quartic=[1.0, 0.5, 1.0], alpha=1.5),
         2.5, 4),
    ], ids=["perturbed", "three-planes"])
    def test_scan_start_matches_a_fresh_solve(self, body, t_max, n_seeds, polishes):
        find_closed_orbits(body, t_max=t_max, n_seeds=n_seeds, seed=0)
        assert len(polishes) >= 3
        d = body.dim
        for z, t, start in polishes:
            fresh = variational_reference(body, body.alpha, z, 2.0 * t / body.alpha)
            assert start.alpha == body.alpha
            assert np.abs(start.end - fresh.y[:d, -1]).max() < 1e-8
            assert np.abs(start.monodromy - fresh.y[d:, -1].reshape(d, d)).max() < 1e-8


class TestMonodromy:
    @pytest.mark.parametrize("body", [E12, PERTURBED], ids=["e12", "perturbed"])
    @pytest.mark.parametrize("alpha", [1.3, 1.5, 1.7])
    def test_reeb_monodromy_from_the_alpha_solve(self, body, alpha):
        # the Reeb monodromy of an orbit polished at the body's alpha, and of
        # an orbit segment that does not close, against the test's own Reeb
        # variational solve
        body = body.homogenize(alpha)
        orbit = _newton_polish(body, surface_point(body, [1.0, 0.0, 0.0, 0.0]), 1.0, t_max=1.5)
        assert orbit is not None
        z = surface_point(body, [0.4, 0.1, 0.3, -0.2])
        for z0, tau, got in [(orbit.initial_point, orbit.period, orbit.monodromy),
                             (z, 1.3, flow_with_monodromy(body, z, 1.3, alpha=2.0)[1])]:
            want = variational_reference(body, 2.0, z0, tau).y[4:, -1].reshape(4, 4)
            assert np.abs(got - want).max() < 1e-9

    @pytest.mark.parametrize("alphas", [(1.3, 1.7), (1.2, 1.5)])
    def test_reeb_monodromy_identity(self, alphas):
        # H = G^{alpha/2} has X_H = theta X_G with theta constant on Sigma,
        # so M_2 = M_alpha - tau (alpha/2 - 1) X_G(z_end) grad G(z0)^T holds
        # at every alpha: two alphas give the same M_2 as the Reeb flow's own
        tau = 1.3
        z = surface_point(PERTURBED, [0.4, 0.1, 0.3, -0.2])
        z_end, M2, _ = flow_with_monodromy(PERTURBED, z, tau, alpha=2.0)
        shear = np.outer(PERTURBED.reeb_field(z_end), PERTURBED.grad_gauge2(z))
        for alpha in alphas:
            _, M, _ = flow_with_monodromy(PERTURBED, z, tau, alpha=alpha)
            assert np.abs(M - tau * (alpha / 2.0 - 1.0) * shear - M2).max() < 1e-12

    @pytest.mark.parametrize("alpha", [1.5, 1.2])
    def test_degree_alpha_flow_matches_reference(self, alpha):
        # reference: the variational system assembled from grad_H / hess_H
        z = surface_point(PERTURBED, [0.4, 0.1, 0.3, -0.2])
        tau = 1.3
        span = 2.0 * tau / alpha
        ref = variational_reference(PERTURBED, alpha, z, span, dense=True)
        z_end, M, path = flow_with_monodromy(PERTURBED, z, tau, alpha=alpha, dense=True)
        assert np.abs(z_end - ref.y[:4, -1]).max() < 1e-12
        assert np.abs(M - ref.y[4:, -1].reshape(4, 4)).max() < 1e-12
        ts = np.linspace(0.0, 1.0, 9)
        ref_mats = ref.sol(ts * span)[4:].T.reshape(len(ts), 4, 4)
        assert np.abs(path.evaluate_batch(ts) - ref_mats).max() < 1e-12

    def test_symplecticity(self):
        z = surface_point(E12, [1.0, 0.0, 0.0, 0.0])
        _, M, _ = flow_with_monodromy(E12, z, 1.0, alpha=2.0)
        assert symplectic_defect(M) < 1e-7

    def test_return_block_short_orbit(self):
        # E(1,2) short orbit tau=1: N = rotation by 2 pi / 2 = -I
        z = surface_point(E12, [1.0, 0.0, 0.0, 0.0])
        _, M, _ = flow_with_monodromy(E12, z, 1.0, alpha=2.0)
        N, S, resid = return_block(E12, z, M)
        assert resid < 1e-9
        assert np.abs(N + np.eye(2)).max() < 1e-9
        J2 = standard_J(1)
        assert np.abs(S.T @ standard_J(2) @ S - J2).max() < 1e-10

    def test_round_orbit_block_identity(self):
        ball = ConvexBody(a=[1.0, 1.0], alpha=1.5)
        z = surface_point(ball, [1.0, 0.0, 0.0, 0.0])
        _, M, _ = flow_with_monodromy(ball, z, 1.0, alpha=2.0)
        N, _, _ = return_block(ball, z, M)
        assert np.abs(N - np.eye(2)).max() < 1e-9

    @pytest.mark.parametrize(
        "plane,tau,cz,morse,nul",
        [(0, 1.0, 2, 0, 1), (0, 2.0, 4, 2, 3), (1, 2.0, 4, 2, 3)],
    )
    def test_indices_match_exact_engine(self, plane, tau, cz, morse, nul):
        from reeb_spectra.dynamics import ClosedOrbit

        z = np.zeros(4)
        z[2 * plane] = 1.0
        orbit = ClosedOrbit(initial_point=surface_point(E12, z), period=tau, residual=0.0)
        monodromy_and_index(E12, orbit, alpha=1.5)
        assert (orbit.cz_index, orbit.morse_index, orbit.nullity) == (cz, morse, nul)
        assert orbit.meta["block_residual"] < 1e-6

    def test_alpha_independence(self):
        from reeb_spectra.dynamics import ClosedOrbit

        for plane, tau in [(0, 1.0), (1, 2.0)]:
            z = np.zeros(4)
            z[2 * plane] = 1.0
            z = surface_point(E12, z)
            o1 = ClosedOrbit(initial_point=z, period=tau, residual=0.0)
            o2 = ClosedOrbit(initial_point=z, period=tau, residual=0.0)
            monodromy_and_index(E12, o1, alpha=1.3)
            monodromy_and_index(E12, o2, alpha=1.7)
            assert o1.cz_index == o2.cz_index

    def test_nullity_from_shear_block(self):
        # nullity = 1 + dim ker(N - I) on the degree-alpha model
        from reeb_spectra.dynamics import ClosedOrbit

        ball = ConvexBody(a=[1.0, 1.0], alpha=1.5)
        z = surface_point(ball, [1.0, 0.0, 0.0, 0.0])
        orbit = ClosedOrbit(initial_point=z, period=1.0, residual=0.0)
        monodromy_and_index(ball, orbit, alpha=1.5)
        assert orbit.nullity == 3  # m = 2 on the round sphere

    def test_indices_on_non_coordinate_ellipsoid(self):
        # E(1, 3/2): common period 3; a generic tau=3 orbit has
        # mu = 2(3 + 2) - 2 = 8, morse 6, nullity 2n - 1 = 3
        from reeb_spectra.dynamics import ClosedOrbit

        body = ConvexBody(a=[1.0, 1.5], alpha=1.5)
        z = surface_point(body, [0.4, 0.1, 0.3, -0.2])
        orbit = ClosedOrbit(initial_point=z, period=3.0, residual=0.0)
        monodromy_and_index(body, orbit, alpha=1.5)
        assert (orbit.cz_index, orbit.morse_index, orbit.nullity) == (8, 6, 3)

    def test_perturbed_orbit_indices_match_unperturbed(self):
        # eps = 1e-3 keeps the short orbit non-degenerate away from tau = 1,
        # so its index data survives the perturbation
        from reeb_spectra.dynamics import ClosedOrbit
        from test_clarke import planar_period_oracle

        eps = 1e-3
        body = ConvexBody(a=[1.0, 2.0], epsilon=eps, quartic=[1.0, 1.0], alpha=1.5)
        z = surface_point(body, [1.0, 0.0, 0.0, 0.0])
        tau = planar_period_oracle(1.0, eps, 1.0)
        orbit = ClosedOrbit(initial_point=z, period=tau, residual=0.0)
        monodromy_and_index(body, orbit, alpha=1.5)
        assert (orbit.cz_index, orbit.morse_index, orbit.nullity) == (2, 0, 1)

    def test_nullity_is_the_endpoint_kernel_of_the_index(self, monkeypatch):
        # the nullity is the endpoint kernel cz_index decided on the
        # degree-alpha path; no SVD of N - I is taken
        from reeb_spectra.dynamics import ClosedOrbit

        orbit = ClosedOrbit(initial_point=surface_point(E12, [1.0, 0.0, 0.0, 0.0]),
                            period=2.0, residual=0.0)
        paths, small = [], []
        index, svd = cz.cz_index, np.linalg.svd

        def spy_index(path):
            paths.append(path)
            return index(path)

        def spy_svd(a, *args, **kwargs):
            small.append(a.shape == (2, 2))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(cz, "cz_index", spy_index)
        monkeypatch.setattr(np.linalg, "svd", spy_svd)
        monodromy_and_index(E12, orbit, alpha=1.5)
        assert not any(small)
        assert orbit.nullity == paths[0]._scan.endpoint[0] == 3

    def test_unstable_endpoint_kernel_keeps_the_orbit(self):
        # on near-round E(1, 1 + 1e-9, 1 + 5e-9) the return block's angles
        # 3.1e-8 and 6.3e-9 split ker(Gamma_alpha(1) - I) with no clear gap:
        # the nullity is counted at TOL_KER with a warning, and the index
        # counts the same kernel.  The Reeb shear (pi here) does not scale
        # the kernel test, which counted 5 when it did
        from reeb_spectra.dynamics import ClosedOrbit

        body = ConvexBody(a=[1.0, 1 + 1e-9, 1 + 5e-9], alpha=1.5)
        orbit = ClosedOrbit(initial_point=surface_point(body, [1.0, 0, 0, 0, 0, 0]),
                            period=1.0, residual=0.0)
        with pytest.warns(UserWarning, match="unstable"):
            monodromy_and_index(body, orbit, alpha=1.5)
        assert (orbit.cz_index, orbit.morse_index, orbit.nullity) == (3, 0, 3)

    def test_reuses_the_polished_monodromy(self, ode_starts):
        from reeb_spectra.dynamics import ClosedOrbit

        z = surface_point(PERTURBED, [1.0, 0.0, 0.0, 0.0])
        polished = _newton_polish(PERTURBED, z, 1.0, t_max=1.5)
        M = polished.monodromy
        bare = ClosedOrbit(initial_point=polished.initial_point, period=polished.period,
                           residual=polished.residual)
        monodromy_and_index(PERTURBED, bare, alpha=1.5)

        monodromy_and_index(PERTURBED, polished, alpha=PERTURBED.alpha)
        assert ode_starts == []  # the index path is the closed form
        assert np.array_equal(polished.monodromy, M)
        got, want = polished.as_dict(), bare.as_dict()
        for key in ("cz", "morse", "nullity", "period"):
            assert got[key] == want[key]
        ev = np.array(got["monodromy_eigenvalues"])
        ev_ref = np.array(want["monodromy_eigenvalues"])
        assert np.abs(ev - ev_ref).max() < 1e-10

    def test_orbit_export_schema(self):
        from reeb_spectra.dynamics import ClosedOrbit

        z = surface_point(E12, [1.0, 0.0, 0.0, 0.0])
        orbit = ClosedOrbit(initial_point=z, period=1.0, residual=0.0)
        monodromy_and_index(E12, orbit, alpha=1.5)
        d = orbit.as_dict()
        for key in ("period", "initial_point", "residual", "cz", "morse", "nullity",
                    "monodromy_eigenvalues"):
            assert key in d


COMPLEMENT_BODIES = {
    "perturbed-n2": PERTURBED,
    "perturbed-n3": ConvexBody(a=[1.0, 1.5, 2.0], epsilon=2e-3, quartic=[1.0, 0.5, 2.0]),
    "perturbed-n4": ConvexBody(a=[1.0, 1.3, 1.7, 2.5], epsilon=1e-3,
                               quartic=[1.0, 2.0, 0.5, 1.0]),
    # iA has one eigenvalue of multiplicity 2
    "round-E111": ConvexBody(a=[1.0, 1.0, 1.0]),
}


class TestSymplecticComplementBasis:
    """The closed-form frame of E^omega, E = span{R(z0), z0}, is a
    symplectic basis of the omega-complement of E."""

    @pytest.mark.parametrize("name", sorted(COMPLEMENT_BODIES))
    def test_symplectic_frame_of_the_complement(self, name):
        body = COMPLEMENT_BODIES[name]
        J = standard_J(body.n)
        for z0 in body.surface_samples(6, seed=3):
            S = dynamics._symplectic_complement_basis(body, z0)
            assert S.shape == (body.dim, body.dim - 2)
            assert np.abs(S.T @ J @ S - standard_J(body.n - 1)).max() < 1e-12
            # omega(s, e) = <J s, e> for e in E
            E = np.column_stack([body.reeb_field(z0), z0])
            assert np.abs((J @ S).T @ E).max() < 1e-12


class TestBesseTest:
    def test_e12_common_period(self):
        res = numerical_besse_test(E12, 2.0, samples=3000, seed=0)
        assert res.verdict
        assert res.max_displacement < 1e-8

    def test_e12_tau1_witness(self):
        res = numerical_besse_test(E12, 1.0, samples=1000, seed=0)
        assert not res.verdict
        assert res.max_displacement > 0.1
        # the witness lives off the z1 coordinate plane
        assert np.abs(res.worst_point[2:]).max() > 0.01

    def test_irrational_never_closes(self):
        body = ConvexBody(a=[1.0, float(np.sqrt(2))], alpha=1.5)
        for tau in (1.0, float(np.sqrt(2)), 5.0, 20.0):
            res = numerical_besse_test(body, tau, samples=200, seed=1)
            assert not res.verdict

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            numerical_besse_test(E12, 0.0)

    @pytest.mark.parametrize("case", range(100))
    def test_perturbed_bodies_are_not_besse(self, case):
        # a body with eps q != 0 turns its planes at rates that vary over
        # Sigma, so no tau closes every sample: not at a period a_h of a
        # plane orbit of E(a), not at 2 a_n, and not at the common period of
        # E(a), where every point of the quadric closes
        a, eps, q = _perturbed_case(case)
        body = ConvexBody(a=[str(x) for x in a], epsilon=eps, quartic=q)
        for tau in sorted({*a, 2 * a[-1], _common_period(a)}):
            res = numerical_besse_test(body, float(tau), samples=256, seed=case)
            assert not res.verdict, (tau, res.max_displacement)


def _perturbed_case(case: int):
    """Seeded (a, eps, q) with n = 2 or 3, a_h small rationals in increasing
    order, eps in [1e-3, 1] (log-uniform) and some q_h = 0, never all."""
    rng = np.random.default_rng([22, case])
    n = 2 + case % 2
    a = sorted(Fraction(int(rng.integers(1, 7)), int(rng.integers(1, 4))) for _ in range(n))
    eps = float(10.0 ** rng.uniform(-3.0, 0.0))
    q = rng.choice([0.0, 0.0, 0.5, 1.0, 2.0], size=n)
    if not q.any():
        q[rng.integers(n)] = 1.0
    return a, eps, q.tolist()


def _common_period(a):
    """The least tau with tau / a_h an integer for every h: the period at
    which every Reeb orbit of the quadric E(a) closes."""
    return Fraction(math.lcm(*(x.numerator for x in a)), math.gcd(*(x.denominator for x in a)))
