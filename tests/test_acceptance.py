"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured quantities.  Tolerances are pinned here, not deferred."""

import math
import time
from fractions import Fraction as F

import numpy as np
import pytest

from reeb_spectra.bodies import ConvexBody
from reeb_spectra.bott import bott_indices, class_degrees, cohomology_rank, cross_model, quadric_betti
from reeb_spectra.certify import zoll_by_pinching
from reeb_spectra.clarke import FourierLoop, MinimizeConfig, minimize, psi, psi_with_grad, random_loop, _pack, _unpack
from reeb_spectra.conley_zehnder import cz_index, parity
from reeb_spectra.dynamics import find_closed_orbits, monodromy_and_index, numerical_besse_test
from reeb_spectra.ellipsoid import (
    action_spectrum,
    besse_cz_index,
    classify,
    ellipsoid,
    invariant_window,
    spectral_invariants,
    verify_interleaving,
)
from reeb_spectra.symplectic import block_compose, rotation_path

from test_ellipsoid import brute_force_invariants


def _random_rational_suite(count=1000, seed=2024):
    """n in 2..6, a_h = p/q with value <= 10; ~3% round ellipsoids mixed in
    so the Zoll direction of the iff criteria has positive cases."""
    rng = np.random.default_rng(seed)
    suite = []
    for j in range(count):
        n = int(rng.integers(2, 7))
        if j % 33 == 0:
            c = F(int(rng.integers(1, 41)), int(rng.integers(1, 5)))
            a = [c] * n
        else:
            a = []
            for _ in range(n):
                q = int(rng.integers(1, 5))
                p = int(rng.integers(1, 10 * q + 1))
                a.append(F(p, q))
            a.sort()
        suite.append(ellipsoid(a))
    return suite


@pytest.fixture(scope="module")
def rational_suite():
    return _random_rational_suite()


IRRATIONALS = [
    math.sqrt(2), math.sqrt(3), math.sqrt(5), math.sqrt(7), (1 + math.sqrt(5)) / 2,
    2 ** (1 / 3), 3 ** (1 / 3), math.pi / 2, math.e / 2, math.sqrt(2) + 1,
    math.sqrt(11), math.sqrt(13) / 2, math.pi - 2, math.e, 5 ** (1 / 3),
    math.sqrt(6), math.sqrt(8) / 2 + 0.5, math.log(5), math.pi**2 / 6, math.sqrt(10),
]


def test_criterion_01_invariants_vs_oracle(rational_suite):
    """Spectral invariants match the brute-force oracle exactly; < 10 s."""
    t0 = time.perf_counter()
    count = 25
    for E in rational_suite:
        assert spectral_invariants(E, count) == brute_force_invariants(E.a, count)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(
        f"\nACCEPTANCE 1: PASS - {len(rational_suite)} random rational ellipsoids, "
        f"first {count} invariants exactly equal to the enumeration oracle "
        f"({elapsed:.2f} s < 10 s)"
    )


def test_criterion_02_besse_equality_and_interleaving(rational_suite):
    """c_i = c_{i+n-1} exactly at i = (mu-n)/2 with strict interleaving;
    irrational-ratio ellipsoids are strictly increasing through c_199."""
    t0 = time.perf_counter()
    for E in rational_suite:
        tau0 = classify(E).tau0
        mu = besse_cz_index(E, tau0)
        report = verify_interleaving(E, tau0)
        assert report.i == (mu - E.n) // 2
        assert report.passed, (E.a, report)
    besse_time = time.perf_counter() - t0

    certified = 0
    for xi in IRRATIONALS:
        E = ellipsoid([1.0, 1.0 + (xi % 1.0) * 0.9 + 0.05])
        cls = classify(E)
        assert cls.kind == "NotBesse" and cls.heuristic
        certified += 1
        c = spectral_invariants(E, 200)
        assert all(c[k] < c[k + 1] for k in range(199)), E.a
    print(
        f"\nACCEPTANCE 2: PASS - equality at i=(mu-n)/2 and strict "
        f"interleaving on {len(rational_suite)} Besse ellipsoids ({besse_time:.2f} s); "
        f"{certified} continued-fraction-certified irrational ellipsoids strictly "
        f"increasing through c_199"
    )


def test_criterion_03_zoll_iff_equal_parameters(rational_suite):
    """c_0 = c_{n-1} holds iff a_1 = ... = a_n, exactly, across the suite."""
    zoll_cases = 0
    for E in rational_suite:
        c = invariant_window(E, 0, E.n - 1)
        equal_invariants = c[0] == c[-1]
        round_body = all(x == E.a[0] for x in E.a)
        assert equal_invariants == round_body, E.a
        zoll_cases += round_body
    assert zoll_cases >= 10
    print(
        f"\nACCEPTANCE 3: PASS - c_0 = c_(n-1) iff all parameters equal on "
        f"{len(rational_suite)} ellipsoids ({zoll_cases} Zoll cases included)"
    )


def _rotation_closed_form(a: float) -> int:
    return 2 * a - 1 if float(a).is_integer() else 2 * math.floor(a) + 1


def test_criterion_04_cz_rotations_and_blocks():
    """Rotation paths match the closed form with integer exactness; block
    additivity and parity hold on 200 random compositions; < 30 s."""
    t0 = time.perf_counter()
    rates = [0.3, 0.5, 1.0, 1.5, 2.0, 2.5, 7 / 3]
    for a in rates:
        assert cz_index(rotation_path([a])) == _rotation_closed_form(a)
    # block sums in Sp(4) and Sp(6)
    for combo in [(0.3, 1.5), (2.0, 2.5), (7 / 3, 0.5), (0.3, 1.0, 2.5), (1.5, 2.0, 7 / 3)]:
        path = block_compose([rotation_path([a]) for a in combo])
        assert cz_index(path) == sum(_rotation_closed_form(a) for a in combo)

    rng = np.random.default_rng(7)
    checked = 0
    while checked < 200:
        k = int(rng.integers(2, 4))
        rs = rng.uniform(0.1, 3.4, size=k)
        if np.any(np.abs(rs - np.round(rs)) < 1e-3):
            continue
        blocks = [rotation_path([float(r)]) for r in rs]
        total = cz_index(block_compose(blocks))
        assert total == sum(cz_index(b) for b in blocks)  # additivity
        assert total == sum(_rotation_closed_form(float(r)) for r in rs)
        assert total % 2 == parity(block_compose(blocks)(1.0))  # parity
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(
        f"\nACCEPTANCE 4: PASS - closed form on the rate list and Sp(4)/Sp(6) "
        f"blocks, additivity + parity on {checked} random compositions "
        f"({elapsed:.2f} s < 30 s)"
    )


def _index_triangle_suite():
    suite = [ellipsoid([1, 1]), ellipsoid([1, 2]), ellipsoid([1, "3/2"]), ellipsoid([1, 2, 3])]
    rng = np.random.default_rng(11)
    while len(suite) < 12:
        n = int(rng.integers(2, 4))
        a = sorted(F(int(rng.integers(1, 9)), int(rng.integers(1, 3))) for _ in range(n))
        if a[0] >= F(1, 2):
            suite.append(ellipsoid(a))
    return suite


def test_criterion_05_index_triangle():
    """Closed form, crossing count on the rotation path, and cz - n agree
    exactly on every spectrum entry up to action 10; nullity = 2m-1 matches
    1 + dim ker(N - I)."""
    from reeb_spectra.conley_zehnder import morse_index_from_path
    from reeb_spectra.dynamics import return_block

    t0 = time.perf_counter()
    entries_checked = 0
    for E in _index_triangle_suite():
        n = E.n
        body = ConvexBody(a=[float(x) for x in E.a])
        for entry in action_spectrum(E, 10):
            rates = [float(entry.tau / ah) for ah in E.a]
            path = rotation_path(rates)
            morse_path = morse_index_from_path(path)
            cz_path = cz_index(path)
            assert entry.morse_index == morse_path == cz_path - n, (E.a, entry.tau)

            # nullity via the return block of the closed-form monodromy
            resonant = [h for h, ah in enumerate(E.a) if (entry.tau / ah).denominator == 1]
            z0 = np.zeros(2 * n)
            for h in resonant:
                z0[2 * h] = 1.0 + 0.1 * h
                z0[2 * h + 1] = 0.2
            z0 = body.project_to_surface(z0)
            M = path(1.0)
            N, _, _ = return_block(body, z0, M)
            ker = int(np.sum(np.linalg.svd(N - np.eye(2 * n - 2), compute_uv=False) < 1e-8))
            assert entry.nullity == 2 * entry.multiplicity - 1 == 1 + ker, (E.a, entry.tau)
            entries_checked += 1
    print(
        f"\nACCEPTANCE 5: PASS - index triangle (closed form / crossing count / "
        f"cz - n) and nullity = 2m-1 = 1 + dim ker(N - I) exact on "
        f"{entries_checked} spectrum entries ({time.perf_counter()-t0:.1f} s)"
    )


def test_criterion_06_clarke_systole():
    """minimize recovers a_1 (n = 2, 3) and pi r^2 (balls) within 1e-6
    relative at K = 64; gradient matches finite differences to 1e-5 at 50
    random loops; < 60 s per body."""
    bodies = [
        ("E(1,2)", ConvexBody(a=[1.0, 2.0], alpha=1.5), 1.0),
        ("E(1,3/2,2)", ConvexBody(a=[1.0, 1.5, 2.0], alpha=1.5), 1.0),
        ("ball r=1", ConvexBody(a=[np.pi, np.pi], alpha=1.5), np.pi),
        ("ball r=0.8 n=3", ConvexBody(a=[np.pi * 0.64] * 3, alpha=1.5), np.pi * 0.64),
    ]
    times = []
    for name, body, expected in bodies:
        t0 = time.perf_counter()
        res = minimize(body, MinimizeConfig(modes=64, starts=16, seed=5))
        dt = time.perf_counter() - t0
        times.append(dt)
        rel = abs(res.systole - expected) / expected
        assert rel < 1e-6, (name, res.systole, expected)
        assert dt < 60.0, (name, dt)

    body = ConvexBody(a=[1.0, 2.0], alpha=1.5)
    rng = np.random.default_rng(21)
    K, d, M = 16, 4, 128
    worst = 0.0
    for _ in range(50):
        lp = random_loop(d, K, M, rng, amplitude=10 ** rng.uniform(-2, 0))
        v, g = psi_with_grad(body, lp)
        x, gx = _pack(lp.coeffs), _pack(g)
        direction = rng.normal(size=len(x))
        direction /= np.linalg.norm(direction)
        h = 1e-6
        vp = psi(body, FourierLoop(_unpack(x + h * direction, K, d), M))
        vm = psi(body, FourierLoop(_unpack(x - h * direction, K, d), M))
        fd = (vp - vm) / (2 * h)
        an = float(gx @ direction)
        worst = max(worst, abs(fd - an) / max(1.0, abs(fd)))
    assert worst < 1e-5
    print(
        f"\nACCEPTANCE 6: PASS - systoles at K=64 within 1e-6 relative "
        f"(runtimes {', '.join(f'{t:.1f}s' for t in times)} < 60 s each); "
        f"worst directional gradient error {worst:.2e} < 1e-5 over 50 loops"
    )


def test_criterion_07_orbit_shooting():
    """Shooting on E(1,2) and its 1e-3 quartic perturbation: periods within
    1e-8 (resp. O(eps)) of the spectrum, monodromy symplectic to 1e-7, cz
    identical at alpha = 1.3 and 1.7."""
    from test_clarke import planar_period_oracle

    t0 = time.perf_counter()
    exact_spectrum = [1.0, 2.0, 3.0]
    body = ConvexBody(a=[1.0, 2.0], alpha=1.5)
    orbits = find_closed_orbits(body, t_max=3.0, n_seeds=8, seed=3)
    assert orbits
    for orb in orbits:
        for mult in orb.meta["multiples"]:
            assert min(abs(mult - v) for v in exact_spectrum) < 1e-8
    czs = {}
    for orb in orbits[:3]:
        o13 = monodromy_and_index(body, orb, alpha=1.3)
        cz13, sympl = o13.cz_index, o13.meta["symplectic_defect"]
        assert sympl < 1e-7
        cz17 = monodromy_and_index(body, orb, alpha=1.7).cz_index
        assert cz13 == cz17
        czs[round(orb.period, 6)] = cz13
    assert czs[1.0] == 2 and czs[2.0] == 4

    eps = 1e-3
    pert = ConvexBody(a=[1.0, 2.0], epsilon=eps, quartic=[1.0, 1.0], alpha=1.5)
    pert_orbits = find_closed_orbits(pert, t_max=3.0, n_seeds=6, seed=4)
    assert pert_orbits
    plane_periods = [planar_period_oracle(a, eps, 1.0) for a in (1.0, 2.0)]
    for orb in pert_orbits:
        near_unperturbed = min(
            abs(orb.period - k * v) for v in (1.0, 2.0) for k in (1, 2, 3)
        )
        assert near_unperturbed < 10 * eps
        near_plane = min(
            abs(orb.period - k * v) for v in plane_periods for k in (1, 2, 3)
        )
        orb.meta["plane_oracle_gap"] = near_plane
    planar = [o for o in pert_orbits if o.meta["plane_oracle_gap"] < 1e-8]
    assert planar, "no orbit matched the perturbed closed-form periods"
    o13 = monodromy_and_index(pert, pert_orbits[0], alpha=1.3)
    o17 = monodromy_and_index(pert, pert_orbits[0], alpha=1.7)
    assert o13.cz_index == o17.cz_index
    assert o13.meta["symplectic_defect"] < 1e-7
    print(
        f"\nACCEPTANCE 7: PASS - {len(orbits)} exact-body orbits within 1e-8 of "
        f"the spectrum, {len(pert_orbits)} perturbed orbits within 10*eps "
        f"({len(planar)} matching the planar closed form at 1e-8), monodromy "
        f"symplectic < 1e-7, cz(1.3) = cz(1.7) ({time.perf_counter()-t0:.1f} s)"
    )


def test_criterion_08_pinching_family():
    """zoll_by_pinching certifies exactly x = 1 over E(1, x), x = 1..1.95,
    with the bound chain verified for each applicable x."""
    certified = []
    for k in range(0, 20):
        x = F(1) + F(k, 20)  # 1, 1.05, ..., 1.95 exactly
        E = ellipsoid([F(1), x])
        body = ConvexBody(a=[1.0, float(x)], alpha=1.5)
        delta_sq = (x + 2) / 2  # in (x, 2], rational
        spectrum = [e.tau for e in action_spectrum(E, 2)]
        invariants = spectral_invariants(E, 2)
        res = zoll_by_pinching(
            body,
            spectrum,
            delta_sq=delta_sq,
            coverage_attested=True,
            invariants_c=invariants,
        )
        assert res.status in ("certified-zoll", "refusal")
        assert res.detail["bound_chain"]["holds"], x
        if res.status == "certified-zoll":
            certified.append(x)
    assert certified == [F(1)]
    print(
        "\nACCEPTANCE 8: PASS - over E(1, x), x in {1, 1.05, ..., 1.95}, the "
        "pinching certificate fires exactly at x = 1 and the bound chain "
        "c_{n-1} <= pi R^2 < delta^2 pi r^2 holds for every applicable x"
    )


def test_criterion_09_numerical_besse():
    """E(1,2) passes at tau = 2 (< 1e-8 over 1e4 samples), fails at tau = 1
    with a witness; E(1, sqrt 2) gets no verdict up to tau = 20."""
    t0 = time.perf_counter()
    body = ConvexBody(a=[1.0, 2.0], alpha=1.5)
    res2 = numerical_besse_test(body, 2.0, samples=10**4, seed=0)
    assert res2.verdict and res2.max_displacement < 1e-8

    res1 = numerical_besse_test(body, 1.0, samples=10**4, seed=0)
    assert not res1.verdict
    assert res1.max_displacement > 0.1
    assert np.abs(res1.worst_point[2:]).max() > 1e-3  # witness off the z1 plane

    irr = ConvexBody(a=[1.0, float(np.sqrt(2))], alpha=1.5)
    taus = sorted(
        {k * 1.0 for k in range(1, 21)} | {k * math.sqrt(2) for k in range(1, 15)}
    )
    verdicts = []
    for tau in taus:
        if tau > 20:
            continue
        verdicts.append(numerical_besse_test(irr, tau, samples=100, seed=1).verdict)
    assert not any(verdicts)
    print(
        f"\nACCEPTANCE 9: PASS - E(1,2): besse at tau=2 with max displacement "
        f"{res2.max_displacement:.1e} < 1e-8 over 1e4 samples, witness at tau=1 "
        f"(displacement {res1.max_displacement:.2f}); E(1,sqrt2): no verdict at "
        f"{len(verdicts)} candidate periods <= 20 ({time.perf_counter()-t0:.1f} s)"
    )


def test_criterion_10_geodesic_tables():
    """Bott index and class degree formulas for all five model families up
    to m = 10, plus the rank-1 bookkeeping in degree i(M) for S^2; < 1 s."""
    t0 = time.perf_counter()
    models = [
        cross_model("S^n", 2),
        cross_model("S^n", 7),
        cross_model("RP^n", 3, initial_index=0),  # round model: no interior conjugate point
        cross_model("CP^{n/2}", 6),
        cross_model("HP^{n/4}", 8),
        cross_model("CaP^2", 16),
    ]
    for m in models:
        for k in range(1, 11):
            ind, nul = bott_indices(m, k)
            assert ind == k * m.initial_index + (k - 1) * (m.n - 1)
            assert nul == 2 * m.n - 1
            da, db = class_degrees(m, k)
            assert da == ind
            assert db == ind + 2 * (m.n - 1)
    s2 = models[0]
    assert cohomology_rank(s2, s2.initial_index, quadric_betti(2)) == 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(
        f"\nACCEPTANCE 10: PASS - Bott indices, nullity 2n-1 and class degrees "
        f"exact for all five families (m <= 10); S^2 rank 1 in degree i(M) "
        f"({elapsed:.3f} s < 1 s)"
    )
