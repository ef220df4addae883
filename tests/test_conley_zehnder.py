import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reeb_spectra import conley_zehnder as cz
from reeb_spectra.cli import main
from reeb_spectra.conley_zehnder import (
    UnresolvedCrossingError,
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
    With s = k t, |Gamma'| <= k (max omega + |alpha/2 - 1| |gradQ| |w|
    (1 + k max omega)), as |w| is constant and |w'| <= max omega |w|.
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

    k, w_norm = 2 * tau / alpha, np.linalg.norm(omega_h * np.hypot(z0[0::2], z0[1::2]))
    twist = abs(alpha / 2 - 1.0) * np.linalg.norm(gradQ) * w_norm * (1.0 + k * omega_h.max())
    return SymplecticPath(dim=2 * n, eval_batch=_eval, speed=k * (omega_h.max() + twist))


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

    def test_simultaneous_block_crossings(self):
        # rates 2 and 4 cross together at t = 1/2, with a kernel of dim 4
        path = block_compose([rotation_path([2.0]), rotation_path([4.0])])
        assert morse_index_from_path(path) == 2 + 2 + 4

    def test_degenerate_ramp_raises(self):
        # the shear is singular at every grid point: its kernel angle is 0
        def shear(ts):
            out = np.broadcast_to(np.eye(2), (len(ts), 2, 2)).copy()
            out[:, 0, 1] = -0.8 * np.asarray(ts)
            return out

        path = SymplecticPath(dim=2, eval_batch=shear, speed=0.8)
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

        path = SymplecticPath(dim=2, eval_batch=near_identity, speed=1e-7)
        with pytest.warns(UserWarning, match="kernel dimension may not be converged"):
            cz_nullity(path)

    def test_unstable_kernel_is_counted(self):
        # eigen-angles 3.1e-8 (twice) over 6.3e-9 (twice) straddle TOL_KER
        # with no clear gap: the nullity is the count at TOL_KER, with a
        # warning, not an error, and the index counts the same kernel at
        # 2 pi: 3 + 3
        path = rotation_path([1 + 5e-9, 2 + 1e-9])
        with pytest.warns(UserWarning, match="unstable"):
            assert cz_nullity(path) == 2
        assert cz_index(path) == 6

    def test_needs_no_grid(self):
        # a path whose grid would pass MAX_CELLS is refused by the index, not
        # by the nullity
        path = rotation_path([1e6])
        with pytest.raises(ValueError, match="more than the"):
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


def _souriau_polynomial(G: np.ndarray) -> np.ndarray:
    """Characteristic polynomial of M = W(0)* W(Gamma), from the complex
    Souriau map W = (X + iY)(X - iY)^{-1} of the frame [I; Gamma] of
    Gr Gamma, in the Darboux coordinates q = (y(z), x(w)), p = (x(z), y(w))
    of (-omega) + omega: the definition, independent of the Cayley chart."""

    def souriau(G):
        z, w = np.eye(len(G)), G
        X = np.vstack([z[1::2], w[0::2]])
        Y = np.vstack([z[0::2], w[1::2]])
        return (X + 1j * Y) @ np.linalg.inv(X - 1j * Y)

    return np.poly(souriau(np.eye(len(G))).conj().T @ souriau(G))


class TestChartAngles:
    """The Cayley chart's eigen-angles are those of the Souriau map M."""

    @pytest.mark.parametrize("name", sorted(REFERENCE_PATHS))
    def test_match_souriau_map(self, name):
        path = REFERENCE_PATHS[name]()
        mats = path.evaluate_batch(np.linspace(0.0, 1.0, 65))
        for G, theta in zip(mats, cz._angles(mats)):
            assert np.abs(np.poly(np.exp(1j * theta)) - _souriau_polynomial(G)).max() < 1e-9

    def test_random_symplectic_matrices(self):
        from scipy.linalg import expm

        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(1, 4))
            H = rng.normal(size=(2 * n, 2 * n))
            G = expm(standard_J(n) @ (H + H.T))
            theta = cz._angles(G[None])[0]
            assert np.abs(np.poly(np.exp(1j * theta)) - _souriau_polynomial(G)).max() < 1e-9


class TestOneScanPerPath:
    """The cz command scans every distinct path once, on the grid its speed sizes."""

    @pytest.mark.parametrize("rates,scans", [("2.3,0.7", 1), ("2,4/3", 1)])
    def test_grid_evaluations(self, rates, scans, monkeypatch, capsys):
        # "2,4/3" ends on a singular endpoint: the index and the Morse index
        # read the path's one grid
        evaluate = SymplecticPath.evaluate_batch
        calls, depth = [0], [0]

        def counting(self, ts):
            # a product path evaluates its factors inside its own call;
            # only the outermost call is one evaluation of the path
            if depth[0] == 0 and len(ts) == cells + 1:
                calls[0] += 1
            depth[0] += 1
            try:
                return evaluate(self, ts)
            finally:
                depth[0] -= 1

        cells = cz._cells(rotation_path([float(Fraction(r)) for r in rates.split(",")]))
        monkeypatch.setattr(SymplecticPath, "evaluate_batch", counting)
        assert main(["cz", "--rotation", rates]) == 0
        assert json.loads(capsys.readouterr().out)["meta"]["grid"] == cells
        assert calls[0] == scans

    @pytest.mark.parametrize("rates", ["2.3,0.7", "2,4/3", "1,3/2,2"])
    def test_one_endpoint_kernel_decision(self, rates, monkeypatch, capsys):
        # cz_index, morse_index_from_path and cz_nullity read one decision
        # of ker(Gamma(1) - I): the eigen-angles of M(1) are computed once
        # per cz run
        angles = cz._angles
        decided = [0]

        def counting(mats):
            decided[0] += len(mats) == 1
            return angles(mats)

        monkeypatch.setattr(cz, "_angles", counting)
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
    return flow_with_monodromy(body, z, tau, alpha=1.5).path


LADDER_PATHS = {
    "resonant-1": lambda: rotation_path([1.0]),
    "resonant-1,2": lambda: rotation_path([1.0, 2.0]),
    "resonant-2,3/2": lambda: rotation_path([2.0, 1.5]),
    "resonant-2": lambda: rotation_path([2.0]),
    "resonant-1,3/2,2": lambda: rotation_path([1.0, 1.5, 2.0]),
    "resonant-2,4/3": lambda: rotation_path([2.0, 4.0 / 3.0]),
    # a slow block next to a resonant one
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
    """A backward-rotated rung R(-eps t) Gamma(t) of a rotation path turns
    every block back by eps / 2 pi: its index is the closed form at the
    rates r - eps / 2 pi."""

    @pytest.mark.parametrize("eps", (3e-3, 1e-3, 1e-4, 1e-5))
    @pytest.mark.parametrize("name", sorted(LADDER_RATES))
    def test_rung_matches_closed_form(self, name, eps):
        rung = cz._perturbed(LADDER_PATHS[name](), eps)
        rates = [r - eps / (2.0 * np.pi) for r in LADDER_RATES[name]]
        assert cz_index(rung) == _closed_form(rates)[0]


class TestGridRefusal:
    """The grid is sized from the path's speed, so a fast rotation is
    answered on a grid fine enough for it, and a rate near a multiple of
    some fixed grid size is not mistaken for a slow one.  A path needing
    more than MAX_CELLS cells is refused before it is evaluated."""

    def test_fastest_resolved_rotation(self):
        # rates the fixed grid of 2048 cells had to cut cells for: the exact
        # speed of a rotation path sizes a grid that needs no cut
        for rates in ([130.5], [131.5], [164.5], [165.5], [88.5, 88.5], [235.5], [235.5] * 2):
            path = rotation_path(rates)
            assert (cz_index(path), morse_index_from_path(path)) == _closed_form(rates)
            assert len(path._scan.times) == cz._cells(path) + 1

    @pytest.mark.parametrize("rates", ["2047", "2049.5", "4095.7", "236", "1,236", "1000.5"])
    def test_fast_and_aliased_rates(self, rates, capsys):
        # 2047 and 2049.5 sit next to multiples of 2048, which a fixed grid
        # of 2048 cells read as nearly still (-3/0 and 3/2, with exit 0);
        # 236, (1, 236) and 1000.5 were beyond its reach and refused
        values = [float(r) for r in rates.split(",")]
        path = rotation_path(values)
        assert (cz_index(path), morse_index_from_path(path)) == _closed_form(values)
        assert main(["cz", "--rotation", rates]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["cz_index"], out["morse_index"]) == _closed_form(values)

    @pytest.mark.parametrize("rates", ["1,1e6", "1e6", "3000,1"])
    def test_unresolvable_rates_refused(self, rates, capsys):
        rotation = rotation_path([float(r) for r in rates.split(",")])
        evaluated = []

        def _eval(ts):
            evaluated.append(len(ts))
            return rotation.eval_batch(ts)

        path = SymplecticPath(dim=rotation.dim, eval_batch=_eval, speed=rotation.speed)
        evaluated.clear()  # the constructor's check of Gamma(0)
        with pytest.raises(ValueError, match="more than the"):
            cz_index(path)
        with pytest.raises(ValueError, match="more than the"):
            morse_index_from_path(path)
        assert evaluated == []
        assert main(["cz", "--rotation", rates]) == 2
        assert capsys.readouterr().out == ""


# a base of rates plus one rate m +- delta: for delta <= 1e-3 the extra
# block's crossing next to t = 1 sits within a few grid cells of a singular
# endpoint, or of the near-singular endpoint of a non-resonant base
SWEEP_BASES = ([1.0], [2.0], [1.0, 2.0], [-1.0], [1.0, 1.0], [0.5], [1.5, 1.0])
SWEEP_DELTAS = (1e-2, 4e-3, 1e-3, 4e-4, 1e-4, 4e-5, 1e-5, 1e-6)


def _angle_path(f, turns):
    """The Sp(2) path t -> exp(2 pi f(t) J), with |f'| <= turns."""

    def _eval(ts):
        th = 2 * np.pi * f(np.asarray(ts, dtype=float))
        c, s = np.cos(th), np.sin(th)
        return np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)

    return SymplecticPath(dim=2, eval_batch=_eval, speed=2 * np.pi * turns)


class TestRegularCrossingRule:
    """The count gives the closed forms next to a singular endpoint, and its
    value is that of a backward-rotated rung R(-eps t) Gamma(t): the lower
    semicontinuous index."""

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
        # two blocks cross within 1e-8 of each other (or of t = 1): two
        # crossings, not one
        assert _closed_form([float(r) for r in rates.split(",")]) == expected
        if rates == "1.5,3.00000001":
            # Gamma(1) misses the identity by an angle of 6.3e-8, within 10x
            # of TOL_KER: the empty kernel comes with the advisory
            with pytest.warns(UserWarning, match="kernel dimension may not be converged"):
                assert main(["cz", "--rotation", rates]) == 0
        else:
            assert main(["cz", "--rotation", rates]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["cz_index"], out["morse_index"]) == expected

    @pytest.mark.parametrize("name", sorted(LADDER_PATHS))
    def test_rule_matches_ladder(self, name):
        path = LADDER_PATHS[name]()
        assert cz_index(path) == cz_index(cz._perturbed(path, 1e-3))

    @pytest.mark.parametrize("rates,expected", [([0.0, 1.0], 0), ([1.0, 0.0, 2.0], 3),
                                                ([0.0], -1)])
    def test_identity_blocks(self, rates, expected):
        # an identity block's angles sit at 0 throughout and count -1 each:
        # (1, 0, 2) gives 1 - 1 + 3, as block additivity does
        assert cz_index(rotation_path(rates)) == expected

    def test_degenerate_endpoint_form(self):
        # the second block reaches the full turn with zero speed; the
        # backward rotation removes that crossing, and the index is 1 + 1
        path = block_compose([rotation_path([1.0]), _angle_path(lambda t: 2 * t - t * t, 2.0)])
        assert cz_index(path) == cz_index(cz._perturbed(path, 1e-3)) == 2
        assert (morse_index_from_path(path), cz_nullity(path)) == (0, 4)

    def test_masked_crossing_at_an_inflection(self):
        # both blocks cross at t = 0.625, the second one at an inflection,
        # under the first block's small singular value: 3 + 3
        path = block_compose(
            [rotation_path([1.6]), _angle_path(lambda t: 1 - (1 - 1.6 * t) ** 3, 4.8)]
        )
        assert (cz_index(path), morse_index_from_path(path)) == (6, 4)


class TestMaskedCrossings:
    """A slow block's small singular value 2 sin(pi s t) does not hide a
    faster block's crossing from the eigen-angle count, and a slow block
    leaving t = 0 backwards, within TOL_KER of 0 for some grid points, is
    no interior crossing."""

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("s", [1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 3e-5, 1e-5, 3e-6, 1e-6])
    @pytest.mark.parametrize("b", [1.5, 2.5, 1.3, 3.7])
    def test_slow_block_sweep(self, b, s, sign):
        rates = [b, sign * s]
        path = rotation_path(rates)
        assert (cz_index(path), morse_index_from_path(path)) == _closed_form(rates)

    @pytest.mark.parametrize("rates,expected", [([-1e-6], (-1, 0)), ([2.5, -1e-6], (4, 4)),
                                                ([-3e-7, 1.5], (2, 2))])
    def test_slow_block_leaving_backwards(self, rates, expected):
        path = rotation_path(rates)
        assert _closed_form(rates) == expected
        assert (cz_index(path), morse_index_from_path(path)) == expected

    @pytest.mark.parametrize("rates,expected", [("3.7,0.003", (8, 6)), ("1.5,0.0003", (4, 2)),
                                                ("2.5,0.000001", (6, 4))])
    def test_cli(self, rates, expected, capsys):
        assert main(["cz", "--rotation", rates]) == 0
        out = capsys.readouterr()
        assert (json.loads(out.out)["cz_index"], json.loads(out.out)["morse_index"]) == expected
        assert out.err == ""


class TestChartPoles:
    def test_exact_minus_identity_on_the_grid(self):
        # Gamma(1/2) + I is exactly singular, so the chart at that grid
        # point is taken at a turned pole
        def turn(ts):
            out = _angle_path(lambda t: t, 1.0).evaluate_batch(ts)
            out[np.asarray(ts) == 0.5] = -np.eye(2)
            return out

        path = SymplecticPath(dim=2, eval_batch=turn, speed=2 * np.pi)
        assert np.array_equal(path(0.5), -np.eye(2))
        assert (cz_index(path), morse_index_from_path(path), cz_nullity(path)) == (1, 0, 2)

    def test_conjugated_endpoint_at_minus_one(self):
        # Gamma(1) = P^-1 diag(I, R(pi)) P: the chart with its pole at -1 is
        # ill conditioned there, and the kernel is read at a turned pole
        path = conjugate_path(block_compose([rotation_path([2.0]), rotation_path([0.5])]), _P)
        assert (cz_index(path), morse_index_from_path(path), cz_nullity(path)) == (4, 2, 2)


def _seeded_P(n, seed):
    from scipy.linalg import expm

    H = np.random.default_rng(seed).normal(size=(2 * n, 2 * n)) * 0.5
    return expm(standard_J(n) @ (H + H.T))


def _understated(path, fraction):
    """The same path, declaring `fraction` of its speed."""
    return SymplecticPath(dim=path.dim, eval_batch=path.eval_batch, speed=fraction * path.speed)


class TestCutCells:
    """A cell the declared speed leaves too coarse is cut, or the path is
    refused; it is never miscounted."""

    # conjugated rotation paths (cond P of 34-82) that needed cut cells on
    # the fixed grid of 2048 cells, which the crossing counter answered all
    # but (2, 1/2) of; cond_2(P) L sizes a grid that needs none
    @pytest.mark.parametrize("rates,seed", [([2.5, -1.5], 6), ([3.2, -0.4], 3),
                                            ([2.0, 0.5], 6), ([2.5, 0.7, -1.5], 5)])
    def test_conjugated_paths(self, rates, seed):
        path = conjugate_path(rotation_path(rates), _seeded_P(len(rates), seed))
        assert (cz_index(path), morse_index_from_path(path)) == _closed_form(rates)
        assert cz_nullity(path) == 2 * sum(float(r).is_integer() for r in rates)
        assert len(path._scan.times) == cz._cells(path) + 1

    @pytest.mark.parametrize("rates,fraction", [([2.5, 1.5], 0.3), ([7.3, 0.4], 0.5),
                                                ([12.3], 0.5)])
    def test_understated_speed_is_cut(self, rates, fraction):
        path = _understated(rotation_path(rates), fraction)
        assert (cz_index(path), morse_index_from_path(path)) == _closed_form(rates)
        assert len(path._scan.times) > cz._cells(path) + 1

    @pytest.mark.parametrize("rates", [[50.5], [3.5], [12.3, 0.4]])
    def test_understated_speed_is_refused(self, rates):
        path = _understated(rotation_path(rates), 0.1)
        with pytest.raises(UnresolvedCrossingError, match="understates"):
            cz_index(path)
        with pytest.raises(UnresolvedCrossingError, match="understates"):
            morse_index_from_path(path)

    @pytest.mark.parametrize("conjugated", [False, True])
    @pytest.mark.parametrize("fraction", [0.5, 0.3, 0.1, 0.03])
    @pytest.mark.parametrize("rates", [[50.5], [3.5], [2.5, 1.5], [7.3, 0.4], [2.0, 1.0],
                                       [-2.5, 1.5], [1.5, 2.5, 0.7]], ids=str)
    def test_understated_speed_never_miscounts(self, rates, fraction, conjugated):
        path = rotation_path(rates)
        if conjugated:
            path = conjugate_path(path, _seeded_P(len(rates), 6))
        path = _understated(path, fraction)
        try:
            got = (cz_index(path), morse_index_from_path(path))
        except UnresolvedCrossingError:
            return
        assert got == _closed_form(rates)


def _max_difference_quotient(path, points=20001):
    """max |Gamma(t_{i+1}) - Gamma(t_i)|_2 / dt on a uniform grid: at most
    sup |Gamma'|_2, by the mean value inequality."""
    mats = path.evaluate_batch(np.linspace(0.0, 1.0, points))
    return np.linalg.norm(np.diff(mats, axis=0), 2, axis=(1, 2)).max() * (points - 1)


class TestDeclaredSpeed:
    """The speed each constructor declares bounds the path's |Gamma'|_2."""

    @pytest.mark.parametrize("seed", range(6))
    def test_constructors(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        rotation = rotation_path(rng.uniform(-4.0, 4.0, size=n))
        blocks = block_compose([rotation_path([r]) for r in rng.uniform(-4.0, 4.0, size=n)])
        conjugated = conjugate_path(rotation, _seeded_P(n, seed))
        for path in (rotation, blocks, conjugated, path_product(conjugated, blocks)):
            assert _max_difference_quotient(path) <= path.speed

    def test_rotation_speed_is_exact(self):
        path = rotation_path([2.5, -3.25])
        assert path.speed == pytest.approx(2 * np.pi * 3.25)
        assert _max_difference_quotient(path) == pytest.approx(path.speed, rel=1e-6)

    def test_orbit_alpha_path(self):
        # exact: the largest of |A + sigma B|_2 over the span, at one of its
        # ends; the difference quotient falls short of it by O(dt)
        path = _plane_one_alpha_path()
        assert 0 < _max_difference_quotient(path) <= path.speed < 1.001 * _max_difference_quotient(path)


class TestPositivePaths:
    @pytest.mark.parametrize("seed", range(8))
    def test_morse_is_cz_minus_n(self, seed):
        # products and symplectic conjugates of positive rotation paths are
        # positive paths, whose crossings are all positive
        from scipy.linalg import expm

        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        H = rng.normal(size=(2 * n, 2 * n)) * 0.3
        P = expm(standard_J(n) @ (H + H.T))
        first = conjugate_path(rotation_path(rng.uniform(0.1, 3.0, size=n)), P)
        path = path_product(first, rotation_path(rng.uniform(0.1, 3.0, size=n)))
        assert morse_index_from_path(path) == cz_index(path) - n
