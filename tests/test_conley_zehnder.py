import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize_scalar

from reeb_spectra import conley_zehnder as cz
from reeb_spectra.cli import main
from reeb_spectra.conley_zehnder import (
    DEFAULT_GRID,
    TOL_CROSS,
    UnresolvedCrossingError,
    crossing_records,
    cz_index,
    cz_nullity,
    morse_index_from_path,
    parity,
)
from reeb_spectra.symplectic import (
    SymplecticPath,
    block_compose,
    conjugate_path,
    path_product,
    rotation_path,
    standard_J,
)


def rotation_index_oracle(a: float) -> int:
    """Brute-force crossing count for the linear rotation e^{2 pi a J t}.

    Interior crossings sit at t = k/a; each contributes sign(a) * 2, and the
    start contributes sign(a) * 1.  Integer rates get the backward-perturbed
    (lower semicontinuous) value a -> a - h, which lowers positive-integer
    rates and deepens negative ones.
    """
    if a == 0:
        raise ValueError("oracle needs a nonzero rate")
    if float(a).is_integer():
        a = a - 1e-9
    crossings = sum(1 for k in range(1, math.ceil(abs(a)) + 1) if k < abs(a))
    return int(math.copysign(1 + 2 * crossings, a))


def ellipsoid_alpha_path(a, z0, tau, alpha) -> SymplecticPath:
    """Closed-form linearized degree-alpha flow along an ellipsoid orbit.

    Independent of the dynamics module: Gamma(t) = R(t) + s(t)(alpha/2 - 1)
    w(t) (x) gradQ with R the per-plane rotations and w the radial twist
    term, derived from dphi^s of the alpha-homogeneous quadric Hamiltonian.
    """
    a = np.asarray(a, float)
    n = len(a)
    z0 = np.asarray(z0, float)
    omega_h = alpha * np.pi / a
    gradQ = np.empty(2 * n)
    for h in range(n):
        gradQ[2 * h : 2 * h + 2] = (2 * np.pi / a[h]) * z0[2 * h : 2 * h + 2]

    def _eval(ts):
        s = (2 * tau / alpha) * np.asarray(ts)
        out = np.zeros((len(ts), 2 * n, 2 * n))
        w = np.zeros((len(ts), 2 * n))
        for h in range(n):
            th = omega_h[h] * s
            c, si = np.cos(th), np.sin(th)
            out[:, 2 * h, 2 * h] = c
            out[:, 2 * h, 2 * h + 1] = -si
            out[:, 2 * h + 1, 2 * h] = si
            out[:, 2 * h + 1, 2 * h + 1] = c
            x, y = z0[2 * h], z0[2 * h + 1]
            w[:, 2 * h] = omega_h[h] * (-(si * x + c * y))
            w[:, 2 * h + 1] = omega_h[h] * (c * x - si * y)
        out += (s * (alpha / 2 - 1.0))[:, None, None] * np.einsum("ti,j->tij", w, gradQ)
        return out

    return SymplecticPath(dim=2 * n, eval_batch=_eval)


class TestRotationIndices:
    def test_full_turn_is_one(self):
        # normalization: ind(e^{2 pi J t}) = 1 in Sp(2)
        assert cz_index(rotation_path([1.0])) == 1

    def test_half_turn_is_one(self):
        assert cz_index(rotation_path([0.5])) == 1

    @pytest.mark.parametrize(
        "a,expected", [(1.5, 3), (2.0, 3), (2.5, 5)]
    )
    def test_spec_rotation_values(self, a, expected):
        path = rotation_path([a])
        assert cz_index(path) == expected
        assert cz_index(path) == rotation_index_oracle(a)

    @pytest.mark.parametrize("a", [0.3, 0.5, 1.0, 7 / 3, 4.0, 6.7, -0.4, -1.0, -3.5])
    def test_oracle_agreement(self, a):
        assert cz_index(rotation_path([a])) == rotation_index_oracle(a)

    def test_closed_form(self):
        # 2 floor(a) + 1 off integers, 2a - 1 at integers
        for a in (0.3, 1.5, 2.5, 3.99):
            assert cz_index(rotation_path([a])) == 2 * math.floor(a) + 1
        for a in (1, 2, 3):
            assert cz_index(rotation_path([float(a)])) == 2 * a - 1


class TestBlockProperties:
    @pytest.mark.parametrize("seed", range(8))
    def test_additivity(self, seed):
        rng = np.random.default_rng(seed)
        rates = rng.uniform(-3.5, 3.5, size=int(rng.integers(2, 4)))
        rates = [r if abs(r) > 0.05 else 0.3 for r in rates]
        total = cz_index(block_compose([rotation_path([r]) for r in rates]))
        assert total == sum(rotation_index_oracle(r) for r in rates)

    def test_loop_shift_by_two(self):
        base = rotation_path([0.3])
        plus = path_product(rotation_path([1.0]), base)
        minus = path_product(rotation_path([-1.0]), base)
        assert cz_index(plus) == cz_index(base) + 2
        assert cz_index(minus) == cz_index(base) - 2

    def test_loop_shift_in_one_block_of_many(self):
        base = block_compose([rotation_path([0.3]), rotation_path([1.7])])
        loop = block_compose([rotation_path([1.0]), rotation_path([0.0])])
        assert cz_index(path_product(loop, base)) == cz_index(base) + 2

    def test_conjugation_invariance(self):
        path = block_compose([rotation_path([1.5]), rotation_path([0.7])])
        P = np.array(
            [
                [1.0, 0.0, 0.5, 0.0],
                [0.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, 0.0],
                [0.0, -0.5, 0.0, 1.0],
            ]
        )
        assert np.abs(P.T @ standard_J(2) @ P - standard_J(2)).max() < 1e-12
        assert cz_index(conjugate_path(path, P)) == cz_index(path)

    def test_conjugation_invariance_twist_path(self):
        from scipy.linalg import expm

        z0 = np.array([1 / np.sqrt(np.pi), 0.0, 0.0, 0.0])
        path = ellipsoid_alpha_path([1.0, 2.0], z0, 2.0, 1.5)
        rng = np.random.default_rng(17)
        S = rng.normal(size=(4, 4)) * 0.2
        S = 0.5 * (S + S.T)
        P = expm(standard_J(2) @ S)  # exp of a Hamiltonian matrix
        assert np.abs(P.T @ standard_J(2) @ P - standard_J(2)).max() < 1e-12
        assert cz_index(conjugate_path(path, P)) == cz_index(path) == 4


class TestMorseIndexFromPath:
    def test_single_turn_no_interior(self):
        assert morse_index_from_path(rotation_path([1.0])) == 0

    def test_double_turn(self):
        assert morse_index_from_path(rotation_path([2.0])) == 2

    def test_ellipsoid_tau2(self):
        # E(1,2) at tau = 2: rates (2, 1); ind = 2 sum(ceil(tau/a_h) - 1) = 2
        assert morse_index_from_path(rotation_path([2.0, 1.0])) == 2

    def test_degenerate_ramp_raises(self, monkeypatch):
        def shear(ts):
            out = np.broadcast_to(np.eye(2), (len(ts), 2, 2)).copy()
            out[:, 0, 1] = -0.8 * np.asarray(ts)
            return out

        # the guard reads the path's grid, so no crossing is searched for
        def spy(*args):
            raise AssertionError("the scan ran before the guard")

        monkeypatch.setattr(cz, "_scan_interval", spy)
        path = SymplecticPath(dim=2, eval_batch=shear)
        with pytest.raises(UnresolvedCrossingError, match="positive fraction"):
            morse_index_from_path(path)


class TestNullity:
    def test_identity_endpoint(self):
        assert cz_nullity(rotation_path([1.0])) == 2
        assert cz_nullity(rotation_path([1.0, 2.0])) == 4

    def test_minus_identity(self):
        assert cz_nullity(rotation_path([0.5])) == 0

    def test_alpha_model_shear_nullity(self):
        # E(1,2) at tau = 2 on the degree-alpha model: 1 + dim ker(N - I) = 3
        z0 = np.array([1 / np.sqrt(np.pi), 0.0, 0.0, 0.0])
        path = ellipsoid_alpha_path([1.0, 2.0], z0, 2.0, 1.5)
        assert cz_nullity(path) == 3

    def test_borderline_warns(self):
        def near_identity(ts):
            out = np.broadcast_to(np.eye(2), (len(ts), 2, 2)).copy()
            out[:, 0, 0] += 5e-8 * np.asarray(ts)
            out[:, 1, 1] /= 1.0 + 5e-8 * np.asarray(ts)
            return out

        path = SymplecticPath(dim=2, eval_batch=near_identity)
        with pytest.warns(UserWarning, match="kernel dimension may not be converged"):
            cz_nullity(path)

    def test_unstable_kernel_is_counted(self):
        # singular values 3.1e-8 (twice) over 6.3e-9 (twice) straddle TOL_KER
        # with no clear gap: cz_index takes the eps ladder, and the nullity is
        # the count at TOL_KER, with a warning, not an error
        path = rotation_path([1 + 5e-9, 2 + 1e-9])
        with pytest.warns(UserWarning, match="unstable"):
            assert cz_nullity(path) == 2
        assert cz_index(path) == 4

    def test_needs_no_grid(self):
        # a path too fast for the grid is refused by the index, not the nullity
        path = rotation_path([1000.0])
        with pytest.raises(UnresolvedCrossingError, match="per grid cell"):
            cz_index(path)
        assert cz_nullity(path) == 2


class TestParity:
    def test_identity(self):
        assert parity(np.eye(2)) == 1

    def test_minus_identity(self):
        assert parity(-np.eye(2)) == 1

    def test_elliptic_sp2(self):
        th = 2.1
        M = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        assert parity(M) == 1

    def test_positive_hyperbolic(self):
        assert parity(np.diag([3.0, 1 / 3.0])) == 0
        assert parity(np.diag([-3.0, -1 / 3.0])) == 1

    def test_ambiguous_near_one_raises(self):
        M = np.diag([1.0 + 5e-8, 1.0 / (1.0 + 5e-8)])
        with pytest.raises(ValueError, match="ambiguous"):
            parity(M)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_index_parity_nondegenerate(self, seed):
        rng = np.random.default_rng(100 + seed)
        rates = [float(r) for r in rng.uniform(0.1, 3.0, size=2)]
        rates = [r + 0.013 if abs(r - round(r)) < 0.01 else r for r in rates]
        path = block_compose([rotation_path([r]) for r in rates])
        assert cz_index(path) % 2 == parity(path(1.0))


class TestAlphaModelPaths:
    """Linearized degree-alpha ellipsoid flows: the index is alpha-independent
    and matches the closed forms; the Morse identity ind = cz - n holds."""

    @pytest.mark.parametrize("alpha", [1.3, 1.5, 1.7])
    @pytest.mark.parametrize(
        "a,plane,tau,cz_expected",
        [
            ([1.0, 2.0], 0, 1.0, 2),
            ([1.0, 2.0], 0, 2.0, 4),
            ([1.0, 2.0], 1, 2.0, 4),
            ([1.0, 1.0], 0, 1.0, 2),
            ([1.0, 1.5, 2.0], 2, 2.0, 7),
        ],
    )
    def test_index_and_morse(self, alpha, a, plane, tau, cz_expected):
        n = len(a)
        z0 = np.zeros(2 * n)
        z0[2 * plane] = np.sqrt(a[plane] / np.pi)
        path = ellipsoid_alpha_path(a, z0, tau, alpha)
        idx = cz_index(path)
        assert idx == cz_expected
        assert idx == sum(2 * math.ceil(tau / ah) - 1 for ah in a)
        assert morse_index_from_path(path) == idx - n

    def test_high_rate_triple_resonance(self):
        # 24 full turns with an 8:2:1 resonance stack; exercises the
        # cluster splitter across every perturbation size
        z0 = np.zeros(6)
        z0[4] = np.sqrt(4.0 / np.pi)
        path = ellipsoid_alpha_path([0.5, 1.0, 4.0], z0, 12.0, 1.67)
        assert cz_index(path) == (2 * 24 - 1) + (2 * 12 - 1) + (2 * 3 - 1)

    def test_nullity_is_2m_minus_1(self):
        for a, plane, tau, m in [
            ([1.0, 2.0], 0, 1.0, 1),
            ([1.0, 2.0], 1, 2.0, 2),
            ([1.0, 1.0], 0, 1.0, 2),
        ]:
            z0 = np.zeros(2 * len(a))
            z0[2 * plane] = np.sqrt(a[plane] / np.pi)
            path = ellipsoid_alpha_path(a, z0, tau, 1.5)
            assert cz_nullity(path) == 2 * m - 1


class TestCrossingRecords:
    def test_times_increasing_and_kernel_dims(self):
        recs = crossing_records(rotation_path([2.5]))
        assert [round(r.time, 6) for r in recs] == [0.4, 0.8]
        assert all(r.kernel_dim == 2 for r in recs)
        assert all(r.signature == 2 for r in recs)

    def test_simultaneous_block_crossings(self):
        # rates 2 and 4 cross together at t = 1/2
        recs = crossing_records(block_compose([rotation_path([2.0]), rotation_path([4.0])]))
        times = sorted(round(r.time, 6) for r in recs)
        assert times == [0.25, 0.5, 0.75]
        mid = [r for r in recs if abs(r.time - 0.5) < 1e-9][0]
        assert mid.kernel_dim == 4


# rates in (-3.5, 3.5): half of them integers or half-integers, the rest
# generic and at least 1e-3 from an integer; zero is left out, since an
# identity block is singular on the whole grid and has no isolated crossings
RATES = st.one_of(
    st.integers(-6, 6).filter(bool).map(lambda k: k / 2),
    st.floats(-3.49, 3.49).filter(lambda r: abs(r) > 0.05 and abs(r - round(r)) > 1e-3),
)


def _closed_form(rates):
    """cz (2 floor(r) + 1, or 2r - 1 at integers) and Morse index
    (2 (ceil|r| - 1)) of a rotation path, summed over its rates."""
    index = sum(2 * r - 1 if float(r).is_integer() else 2 * math.floor(r) + 1 for r in rates)
    return index, 2 * sum(math.ceil(abs(r)) - 1 for r in rates)


class TestClosedForms:
    @settings(max_examples=40, deadline=None)
    @given(rates=st.lists(RATES, min_size=1, max_size=3), blocks=st.booleans())
    def test_rotation_and_block_paths(self, rates, blocks):
        path = (
            block_compose([rotation_path([r]) for r in rates])
            if blocks
            else rotation_path(rates)
        )
        # interior crossings of a block sit at t = k/|r|, k = 1 .. ceil(|r|) - 1
        assert (cz_index(path), morse_index_from_path(path)) == _closed_form(rates)
        assert cz_nullity(path) == 2 * sum(float(r).is_integer() for r in rates)


def _reference_root(path, a, b):
    """Per-bracket brentq on det(Gamma - I); where det noise on a flat zero
    defeats it, the singular-value dip locates the crossing instead."""
    eye = np.eye(path.dim)
    try:
        return brentq(lambda t: float(np.linalg.det(path(t) - eye)), a, b,
                      xtol=1e-14, rtol=8.9e-16)
    except (ValueError, RuntimeError):
        return _reference_dip(path, a, b)[0]


def _reference_dip(path, a, b):
    """Per-bracket bounded minimization of the smallest singular value,
    then the parabola polish on its square, one time at a time."""
    eye = np.eye(path.dim)

    def s(t):
        return float(np.linalg.svd(path(t) - eye, compute_uv=False)[-1])

    res = minimize_scalar(s, bounds=(a, b), method="bounded", options={"xatol": 1e-13})
    t_star, s_star = float(res.x), float(res.fun)
    h = min(1e-6, 0.25 * (b - a))
    margin = b - a
    for _ in range(8):
        if h < 1e-13:
            break
        lo, hi = t_star - h, t_star + h
        if lo > a - margin and hi < b + margin:
            s_m, s_0, s_p = s(lo) ** 2, s_star**2, s(hi) ** 2
            denom = s_p - 2.0 * s_0 + s_m
            if denom > 0:
                t_new = t_star - 0.5 * h * (s_p - s_m) / denom
                if a - margin < t_new < b + margin:
                    s_new = s(t_new)
                    if s_new < s_star:
                        t_star, s_star = t_new, s_new
        h *= 0.1
    return t_star, s_star


def _twist(tau, alpha):
    z0 = np.array([1 / np.sqrt(np.pi), 0.0, 0.0, 0.0])
    return ellipsoid_alpha_path([1.0, 2.0], z0, tau, alpha)


_P = np.array(
    [
        [1.0, 0.0, 0.5, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, -0.5, 0.0, 1.0],
    ]
)
REFERENCE_PATHS = {
    "rotation": lambda: rotation_path([2.5, 0.7]),
    "blocks": lambda: block_compose([rotation_path([1.7]), rotation_path([3.2])]),
    "conjugated": lambda: conjugate_path(
        block_compose([rotation_path([1.5]), rotation_path([0.7])]), _P
    ),
    "twist-1.7": lambda: _twist(1.7, 1.3),
    "twist-2.6": lambda: _twist(2.6, 1.5),
}


class TestBatchedRefiners:
    """The batched refiners find the crossing times that per-bracket scipy
    refinement finds, on the brackets of the top-level grid."""

    @pytest.mark.parametrize("name", sorted(REFERENCE_PATHS))
    def test_match_scalar_reference(self, name):
        path = REFERENCE_PATHS[name]()
        ts = np.linspace(0.0, 1.0, DEFAULT_GRID + 1)
        diff = path.evaluate_batch(ts) - np.eye(path.dim)
        dets = np.linalg.det(diff)
        smin = np.linalg.svd(diff, compute_uv=False)[:, -1]

        sign = np.sign(dets)
        i = np.flatnonzero((sign[:-1] != 0) & (sign[:-1] * sign[1:] < 0))
        roots = cz._refine_sign_changes(path, ts[i], ts[i + 1], dets[i], dets[i + 1])
        ref_roots = [_reference_root(path, ts[k], ts[k + 1]) for k in i]
        assert np.abs(roots - ref_roots).max(initial=0.0) <= 1e-12

        mid = smin[1:-1]
        j = 1 + np.flatnonzero((mid <= smin[:-2]) & (mid <= smin[2:]) & (mid < 0.2))
        t_dip, s_dip = cz._refine_dips(path, ts[j - 1], ts[j + 1], smin[j - 1], smin[j + 1])
        ref = np.array([_reference_dip(path, ts[k - 1], ts[k + 1]) for k in j]).reshape(-1, 2)
        accepted = s_dip < TOL_CROSS
        assert np.array_equal(accepted, ref[:, 1] < TOL_CROSS)
        assert np.abs(t_dip[accepted] - ref[accepted, 0]).max(initial=0.0) <= 1e-12

        assert len(roots) + np.count_nonzero(accepted) > 0
        if name.startswith("twist"):
            assert len(roots) > 0  # the twist exercises the sign-change refiner


class TestOneScanPerPath:
    """The cz command scans every distinct path once on the full grid."""

    @pytest.mark.parametrize("rates,scans", [("2.3,0.7", 1), ("2,4/3", 1)])
    def test_grid_evaluations(self, rates, scans, monkeypatch, capsys):
        # "2,4/3" ends on a singular endpoint whose crossing form is
        # non-degenerate: the index and the Morse index read the path's one
        # grid, and no eps-ladder rung is built
        evaluate = SymplecticPath.evaluate_batch
        calls, depth = [0], [0]

        def counting(self, ts):
            # a product path evaluates its factors inside its own call;
            # only the outermost call is one evaluation of the path
            if depth[0] == 0 and len(ts) == DEFAULT_GRID + 1:
                calls[0] += 1
            depth[0] += 1
            try:
                return evaluate(self, ts)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(SymplecticPath, "evaluate_batch", counting)
        assert main(["cz", "--rotation", rates]) == 0
        capsys.readouterr()
        assert calls[0] == scans

    def test_one_full_grid_svd(self, monkeypatch, capsys):
        # the resonant path's index and Morse index read its one grid; its
        # crossing forms are non-degenerate, so no ladder rung is built
        svd = np.linalg.svd
        full = [0]

        def counting(a, *args, **kwargs):
            full[0] += a.ndim == 3 and len(a) == DEFAULT_GRID + 1
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        assert main(["cz", "--rotation", "1,3/2,2"]) == 0
        capsys.readouterr()
        assert full[0] == 1

    @pytest.mark.parametrize("rates", ["2.3,0.7", "2,4/3", "1,3/2,2"])
    def test_one_endpoint_kernel_decision(self, rates, monkeypatch, capsys):
        # cz_index, morse_index_from_path and cz_nullity read one decision
        # of ker(Gamma(1) - I): one SVD of that matrix per cz run
        path = rotation_path([float(Fraction(r)) for r in rates.split(",")])
        end = path(1.0) - np.eye(path.dim)
        svd = np.linalg.svd
        decided = [0]

        def counting(a, *args, **kwargs):
            decided[0] += a.ndim == 2 and np.array_equal(a, end)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        assert main(["cz", "--rotation", rates]) == 0
        out = json.loads(capsys.readouterr().out)
        assert decided[0] == 1
        assert out["nullity"] == 2 * sum(Fraction(r).denominator == 1 for r in rates.split(","))


def _plane_one_alpha_path():
    """Linearized degree-1.5 flow along the plane-1 orbit of perturbed E(1,2)."""
    from test_clarke import planar_period_oracle

    from reeb_spectra.bodies import ConvexBody
    from reeb_spectra.dynamics import flow_with_monodromy

    body = ConvexBody(a=[1.0, 2.0], epsilon=1e-3, quartic=[1.0, 1.0], alpha=1.5)
    z = body.project_to_surface(np.array([1.0, 0.0, 0.0, 0.0]))
    tau = planar_period_oracle(1.0, 1e-3, 1.0)
    return flow_with_monodromy(body, z, tau, alpha=1.5, dense=True)[2]


LADDER_PATHS = {
    "resonant-2": lambda: rotation_path([2.0]),
    "resonant-1,3/2,2": lambda: rotation_path([1.0, 1.5, 2.0]),
    "resonant-2,4/3": lambda: rotation_path([2.0, 4.0 / 3.0]),
    # the slow block crosses DIP_LEVEL over many grid points, where the
    # eps term of the bound decides the window
    "resonant-slow-2,1/20": lambda: rotation_path([2.0, 0.05]),
    "negative-2,3": lambda: rotation_path([-2.0, 3.0]),
    "negative-3/2,1": lambda: rotation_path([-1.5, 1.0]),
    "blocks": lambda: block_compose([rotation_path([2.0]), rotation_path([1.0])]),
    "conjugated": lambda: conjugate_path(
        block_compose([rotation_path([2.0]), rotation_path([0.5])]), _P
    ),
    "twist-2": lambda: _twist(2.0, 1.5),
    "twist-1.7": lambda: _twist(1.7, 1.3),
    "perturbed-E12-plane-1": _plane_one_alpha_path,
}


# the rates of the rotation-built LADDER_PATHS entries
LADDER_RATES = {
    "resonant-2": [2.0],
    "resonant-1,3/2,2": [1.0, 1.5, 2.0],
    "resonant-2,4/3": [2.0, 4.0 / 3.0],
    "resonant-slow-2,1/20": [2.0, 0.05],
    "negative-2,3": [-2.0, 3.0],
    "negative-3/2,1": [-1.5, 1.0],
    "blocks": [2.0, 1.0],
    "conjugated": [2.0, 0.5],
}


class TestLadderRungs:
    """An eps-ladder rung of a rotation path turns every block back by
    eps / 2 pi: its index is the closed form at the rates r - eps / 2 pi."""

    @pytest.mark.parametrize("eps", cz.EPS_SEQUENCE)
    @pytest.mark.parametrize("name", sorted(LADDER_RATES))
    def test_rung_matches_closed_form(self, name, eps):
        rung = cz._perturbed(LADDER_PATHS[name](), eps)
        rates = [r - eps / (2.0 * np.pi) for r in LADDER_RATES[name]]
        assert cz._index_regular(rung) == _closed_form(rates)[0]


class TestGridRefusal:
    """A path that moves too far per grid cell can hide crossings between
    grid points; it is refused instead of miscounted."""

    def test_fastest_resolved_rotation(self):
        path = rotation_path([130.5])
        assert cz_index(path) == 2 * 130 + 1
        assert morse_index_from_path(path) == 2 * 130

    @pytest.mark.parametrize("rates", ["131.5", "1000.5", "1,1e6"])
    def test_unresolvable_rates_refused(self, rates, capsys):
        path = rotation_path([float(r) for r in rates.split(",")])
        with pytest.raises(UnresolvedCrossingError, match="per grid cell"):
            cz_index(path)
        with pytest.raises(UnresolvedCrossingError, match="per grid cell"):
            morse_index_from_path(path)
        assert main(["cz", "--rotation", rates]) == 1
        assert capsys.readouterr().out == ""


# a base of rates plus one rate m +- delta: for delta <= 1e-3 the extra
# block's crossing next to t = 1 sits within a few grid cells of a singular
# endpoint, or of the near-singular endpoint of a non-resonant base
SWEEP_BASES = ([1.0], [2.0], [1.0, 2.0], [-1.0], [1.0, 1.0], [0.5], [1.5, 1.0])
SWEEP_DELTAS = (1e-2, 4e-3, 1e-3, 4e-4, 1e-4, 4e-5, 1e-5, 1e-6)


def _angle_path(f):
    """The Sp(2) path t -> exp(2 pi f(t) J)."""

    def _eval(ts):
        th = 2 * np.pi * f(np.asarray(ts, dtype=float))
        c, s = np.cos(th), np.sin(th)
        return np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)

    return SymplecticPath(dim=2, eval_batch=_eval)


def _spy_rungs(monkeypatch):
    built = []
    perturbed = cz._perturbed

    def spy(path, eps):
        built.append(eps)
        return perturbed(path, eps)

    monkeypatch.setattr(cz, "_perturbed", spy)
    return built


class TestRegularCrossingRule:
    """cz = sign(Q_0)/2 + sum of interior sign(Q_t) - n_-(Q_1) on paths with
    regular crossings, the eps ladder only where a form is degenerate."""

    @pytest.mark.parametrize("base", SWEEP_BASES, ids=str)
    def test_near_endpoint_sweep(self, base):
        wrong = []
        for m in (1, -1, 2, -2, 3):
            for delta in SWEEP_DELTAS:
                for rates in (base + [m + delta], base + [m - delta]):
                    path = rotation_path(rates)
                    got = (cz_index(path), morse_index_from_path(path))
                    if got != _closed_form(rates):
                        wrong.append((rates, got, _closed_form(rates)))
        assert wrong == []

    @pytest.mark.parametrize("rates,expected", [("1,2.0001", (6, 4)), ("1,-0.9999", (0, 0)),
                                                ("1,2.001", (6, 4)), ("1,2.0004", (6, 4))])
    def test_cli_companions_of_the_endpoint(self, rates, expected, capsys):
        assert main(["cz", "--rotation", rates]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["cz_index"], out["morse_index"]) == expected

    @pytest.mark.parametrize("rates,expected", [
        ("1,1.00000001", (4, 2)), ("1.5,1.50000001", (6, 4)), ("2,2.00000001", (8, 6)),
        ("1.5,1.49999999", (6, 4)), ("1.5,3.00000001", (10, 8)),
    ])
    def test_crossings_closer_than_1e8(self, rates, expected, capsys):
        # two blocks cross within 1e-8 of each other (or of t = 1) with
        # orthogonal kernels: two crossings, not one
        assert _closed_form([float(r) for r in rates.split(",")]) == expected
        assert main(["cz", "--rotation", rates]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["cz_index"], out["morse_index"]) == expected

    @pytest.mark.parametrize("name", sorted(LADDER_PATHS))
    def test_rule_matches_ladder(self, name):
        path = LADDER_PATHS[name]()
        assert cz._index_regular(path) == cz._ladder_index(path)

    def test_no_rung_on_regular_paths(self, monkeypatch, capsys):
        built = _spy_rungs(monkeypatch)
        assert main(["cz", "--rotation", "1,3/2,2"]) == 0
        assert json.loads(capsys.readouterr().out)["cz_index"] == 7
        assert cz_index(_plane_one_alpha_path()) == 2
        assert built == []

    @pytest.mark.parametrize("rates,expected", [([0.0, 1.0], 0), ([1.0, 0.0, 2.0], 1),
                                                ([0.0], -1)])
    def test_identity_blocks_take_the_ladder(self, rates, expected, monkeypatch):
        # an identity block makes the form at t = 0 degenerate
        built = _spy_rungs(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert cz_index(rotation_path(rates)) == expected
        assert built

    def test_degenerate_endpoint_form_takes_the_ladder(self, monkeypatch):
        # the second block reaches the full turn with zero speed, so Q_1 is
        # singular on its half of the kernel; the backward rotation removes
        # that crossing, and the index is 1 + 1
        path = block_compose([rotation_path([1.0]), _angle_path(lambda t: 2 * t - t * t)])
        with pytest.raises(cz.DegenerateCrossingError, match="t = 1"):
            cz._index_regular(path)
        built = _spy_rungs(monkeypatch)
        assert cz_index(path) == 2
        assert built

    def test_degenerate_interior_form_is_refused_by_the_rule(self):
        # both blocks cross at t = 0.625, the second one at an inflection
        path = block_compose(
            [rotation_path([1.6]), _angle_path(lambda t: 1 - (1 - 1.6 * t) ** 3)]
        )
        with pytest.raises(cz.DegenerateCrossingError):
            cz._index_regular(path)
