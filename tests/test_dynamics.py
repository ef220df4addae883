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

E12 = ConvexBody(a=[1.0, 2.0], alpha=1.5, validate=False)
E12_EXACT = ellipsoid([1, 2])
PERTURBED = ConvexBody(a=[1.0, 2.0], epsilon=1e-3, quartic=[1.0, 1.0], alpha=1.5)


def surface_point(body, raw):
    return body.project_to_surface(np.asarray(raw, dtype=float))


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
        # one solve, no re-projection
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
        ball = ConvexBody(a=[np.pi * r**2] * 2, alpha=1.5, validate=False)
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
        # seeds 3, seed 0 find the 2 x 0.9998987 orbit, which returns only
        # within 3e-7 at half its period after polishing
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
        orbit, trajectory = _minimal_period(PERTURBED, cover)
        assert abs(orbit.period - T) < 1e-9
        # the trajectory is that of the replacing orbit, over its own period
        assert (trajectory.t_min, trajectory.t_max) == (0.0, orbit.period)
        assert np.linalg.norm(trajectory(orbit.period) - orbit.initial_point) < 1e-8


class TestWorkCounts:
    """Deterministic guards on the work the orbit search does per step."""

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []

        def counted(fun, t_span, y0, **kwargs):
            sol = solve_ivp(fun, t_span, y0, **kwargs)
            calls.append((tuple(t_span), len(y0), sol.nfev))
            return sol

        monkeypatch.setattr(dynamics, "solve_ivp", counted)
        return calls

    @pytest.mark.parametrize("alpha", [2.0, 1.5])
    def test_one_jet_per_variational_rhs(self, alpha, solves, monkeypatch):
        jets = []
        jet = ConvexBody._gauge2_jet

        def counted_jet(self, z):
            jets.append(1)
            return jet(self, z)

        monkeypatch.setattr(ConvexBody, "_gauge2_jet", counted_jet)
        z = surface_point(PERTURBED, [0.4, 0.1, 0.3, -0.2])
        flow_with_monodromy(PERTURBED, z, 1.3, alpha=alpha, dense=True)
        assert len(solves) == 1
        assert len(jets) == solves[0][2] > 0

    @pytest.mark.parametrize("n_seeds", [2, 5])
    def test_one_solve_for_the_seed_sweep(self, n_seeds, solves):
        t_max = 2.5
        find_closed_orbits(E12, t_max=t_max, n_seeds=n_seeds, seed=0)
        sweeps = [c for c in solves if c[0] == (0.0, t_max)]
        assert len(sweeps) == 1
        assert sweeps[0][1] == n_seeds * E12.dim


class TestMonodromy:
    @pytest.mark.parametrize("alpha", [1.5, 1.2])
    def test_degree_alpha_flow_matches_reference(self, alpha):
        # reference: the variational system assembled from grad_H / hess_H
        ref_body = PERTURBED.homogenize(alpha)
        z = surface_point(PERTURBED, [0.4, 0.1, 0.3, -0.2])
        tau = 1.3
        span = 2.0 * tau / alpha

        def rhs(t, y):
            A = standard_J(2) @ ref_body.hess_H(y[:4])
            return np.concatenate([standard_J(2) @ ref_body.grad_H(y[:4]),
                                   (A @ y[4:].reshape(4, 4)).reshape(-1)])

        ref = solve_ivp(rhs, (0.0, span), np.concatenate([z, np.eye(4).reshape(-1)]),
                        method="DOP853", rtol=dynamics.RTOL, atol=dynamics.ATOL,
                        dense_output=True)
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
        ball = ConvexBody(a=[1.0, 1.0], alpha=1.5, validate=False)
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

        ball = ConvexBody(a=[1.0, 1.0], alpha=1.5, validate=False)
        z = surface_point(ball, [1.0, 0.0, 0.0, 0.0])
        orbit = ClosedOrbit(initial_point=z, period=1.0, residual=0.0)
        monodromy_and_index(ball, orbit, alpha=1.5)
        assert orbit.nullity == 3  # m = 2 on the round sphere

    def test_indices_on_non_coordinate_ellipsoid(self):
        # E(1, 3/2): common period 3; a generic tau=3 orbit has
        # mu = 2(3 + 2) - 2 = 8, morse 6, nullity 2n - 1 = 3
        from reeb_spectra.dynamics import ClosedOrbit

        body = ConvexBody(a=[1.0, 1.5], alpha=1.5, validate=False)
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

        body = ConvexBody(a=[1.0, 1 + 1e-9, 1 + 5e-9], alpha=1.5, validate=False)
        orbit = ClosedOrbit(initial_point=surface_point(body, [1.0, 0, 0, 0, 0, 0]),
                            period=1.0, residual=0.0)
        with pytest.warns(UserWarning, match="unstable"):
            monodromy_and_index(body, orbit, alpha=1.5)
        assert (orbit.cz_index, orbit.morse_index, orbit.nullity) == (3, 0, 3)

    def test_reuses_the_polished_monodromy(self, monkeypatch):
        from reeb_spectra.dynamics import ClosedOrbit

        z = surface_point(PERTURBED, [1.0, 0.0, 0.0, 0.0])
        polished = _newton_polish(PERTURBED, z, 1.0, t_max=1.5)
        M = polished.monodromy
        bare = ClosedOrbit(initial_point=polished.initial_point, period=polished.period,
                           residual=polished.residual)
        monodromy_and_index(PERTURBED, bare, alpha=1.5)  # integrates its own monodromy

        alphas = []
        flow = dynamics.flow_with_monodromy

        def spy(*args, **kwargs):
            alphas.append(kwargs.get("alpha"))
            return flow(*args, **kwargs)

        monkeypatch.setattr(dynamics, "flow_with_monodromy", spy)
        monodromy_and_index(PERTURBED, polished, alpha=1.5)
        assert alphas == [1.5]  # only the degree-alpha path is integrated
        assert polished.monodromy is M
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
    "round-E111": ConvexBody(a=[1.0, 1.0, 1.0], validate=False),
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
        body = ConvexBody(a=[1.0, float(np.sqrt(2))], alpha=1.5, validate=False)
        for tau in (1.0, float(np.sqrt(2)), 5.0, 20.0):
            res = numerical_besse_test(body, tau, samples=200, seed=1)
            assert not res.verdict

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            numerical_besse_test(E12, 0.0)
