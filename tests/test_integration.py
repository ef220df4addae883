"""End-to-end workflows across modules on one perturbed body."""

import numpy as np
from scipy.optimize import minimize_scalar

from reeb_spectra.bodies import ConvexBody
from reeb_spectra.certify import besse_by_invariants, zoll_by_pinching
from reeb_spectra.clarke import MinimizeConfig, minimize
from reeb_spectra.dynamics import find_closed_orbits, monodromy_and_index, numerical_besse_test

from test_clarke import planar_period_oracle

EPS = 1e-3
BODY = ConvexBody(a=[1.0, 2.0], epsilon=EPS, quartic=[1.0, 1.0], alpha=1.5)


def orbit_distance(z, orbit):
    """min over t of |phi_R^t(orbit) - z|: the closest of 257 points of the
    orbit's Reeb trajectory, refined between its neighbours."""
    reeb = orbit.flow.flow.z  # the Reeb flow: sigma = t
    ts = np.linspace(0.0, orbit.period, 257)
    i = int(np.argmin(np.linalg.norm(reeb(ts) - z, axis=1)))
    res = minimize_scalar(lambda t: float(np.linalg.norm(reeb(t) - z)),
                          bounds=(ts[max(i - 1, 0)], ts[min(i + 1, 256)]),
                          method="bounded", options={"xatol": 1e-12})
    return float(res.fun)


def test_systole_shooting_and_besse_verdicts_agree():
    res = minimize(BODY, MinimizeConfig(modes=16, starts=2, seed=0, double_check=False))
    sys_clarke = res.systole

    orbits = find_closed_orbits(BODY, t_max=2.5, n_seeds=6, seed=0)
    sys_shooting = min(o.period for o in orbits)
    assert abs(sys_clarke - sys_shooting) < 1e-7

    # the Clarke minimizer's initial point lies on the short shooting orbit
    short = [o for o in orbits if abs(o.period - sys_shooting) < 1e-9][0]
    assert orbit_distance(res.orbit.initial_point, short) < 1e-6

    # indices of the shooting orbit match the unperturbed short orbit
    monodromy_and_index(BODY, short, alpha=1.5)
    assert (short.cz_index, short.morse_index, short.nullity) == (2, 0, 1)

    # the body is not Besse at the systole (the long orbit does not close)
    verdict = numerical_besse_test(BODY, sys_shooting, samples=400, seed=1)
    assert not verdict.verdict


def test_pinching_refusal_from_computed_spectrum():
    # periods collected by shooting refute the Zoll property: the second
    # primitive period sits inside (sys, delta^2 sys)
    orbits = find_closed_orbits(BODY, t_max=2.5, n_seeds=6, seed=0)
    periods = sorted({round(p, 10) for o in orbits for p in o.meta["multiples"]})
    sys_val = periods[0]
    second = planar_period_oracle(2.0, EPS, 1.0)
    assert any(abs(p - second) < 1e-7 for p in periods)

    r, R = BODY.pinching_radii()
    dsq = ((R / r) ** 2 + 2.0) / 2.0  # admissible: above the pinching ratio, <= 2
    assert (R / r) ** 2 < dsq <= 2.0
    res = zoll_by_pinching(
        BODY,
        periods,
        delta_sq=dsq,
        coverage_attested=True,
    )
    assert res.status == "refusal"
    assert any(abs(v - second) < 1e-6 for v in res.detail["blocking_values"])
    assert sys_val < second < dsq * sys_val


def test_invariant_scan_on_measured_invariants():
    # c_0 from the Clarke minimum plus the shooting periods give a partial
    # invariant list; no Besse equality fires for n = 2 on this window
    res = minimize(BODY, MinimizeConfig(modes=16, starts=2, seed=2, double_check=False))
    c = [res.systole, planar_period_oracle(2.0, EPS, 1.0)]
    assert besse_by_invariants(c, 2) == []
