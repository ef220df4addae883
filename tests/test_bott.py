from fractions import Fraction

import pytest

from reeb_spectra.bott import (
    bott_indices,
    class_degrees,
    cohomology_rank,
    cross_model,
    projective_space_betti,
    quadric_betti,
    zoll_spectral_values,
)


class TestCrossModel:
    def test_builtin_initial_indices(self):
        assert cross_model("S^n", 5).initial_index == 4
        assert cross_model("CP^{n/2}", 6).initial_index == 1
        assert cross_model("HP^{n/4}", 8).initial_index == 3
        assert cross_model("CaP^2", 16).initial_index == 7

    def test_divisibility_validation(self):
        with pytest.raises(ValueError):
            cross_model("CP^{n/2}", 5)
        with pytest.raises(ValueError):
            cross_model("HP^{n/4}", 6)
        with pytest.raises(ValueError):
            cross_model("CaP^2", 8)

    def test_rp_needs_explicit_index(self):
        with pytest.raises(ValueError, match="initial_index"):
            cross_model("RP^n", 3)
        m = cross_model("RP^n", 3, initial_index=0)
        assert not m.simply_connected
        assert m.spin is None

    def test_spin_flags(self):
        assert cross_model("S^n", 4).spin is True
        assert cross_model("CP^{n/2}", 4).spin is False  # complex dim 2, even
        assert cross_model("CP^{n/2}", 6).spin is True  # complex dim 3, odd
        assert cross_model("CaP^2", 16).spin is True


class TestBottIndices:
    def test_s2_iterates(self):
        m = cross_model("S^n", 2)
        assert [bott_indices(m, k) for k in (1, 2, 3)] == [(1, 3), (3, 3), (5, 3)]

    def test_cp2(self):
        assert bott_indices(cross_model("CP^{n/2}", 4), 1) == (1, 7)

    @pytest.mark.parametrize(
        "model,n", [("S^n", 2), ("S^n", 7), ("CP^{n/2}", 4), ("HP^{n/4}", 8), ("CaP^2", 16)]
    )
    def test_first_iterate_is_initial_index(self, model, n):
        m = cross_model(model, n)
        ind, nul = bott_indices(m, 1)
        assert ind == m.initial_index
        assert nul == 2 * n - 1

    def test_index_gap_constant(self):
        m = cross_model("HP^{n/4}", 12)
        gaps = {bott_indices(m, k + 1)[0] - bott_indices(m, k)[0] for k in range(1, 10)}
        assert gaps == {m.initial_index + m.n - 1}

    def test_rejects_m0(self):
        with pytest.raises(ValueError):
            bott_indices(cross_model("S^n", 2), 0)



def conjugate_point_count(model, m):
    """(index, nullity) of the m-th iterate from the Morse index theorem.

    Along a closed geodesic of a compact rank-one symmetric space, with
    sectional curvatures in [1, 4], the Jacobi operator has curvature 4 on
    the d - 1 directions J gamma' (d = 1, 2, 4, 8 for S, CP, HP, CaP) and 1
    on the other n - d normal directions; the prime geodesic has length 2 pi
    on S^n and pi on the others.  A direction of curvature kappa has its
    conjugate points at k pi / sqrt(kappa), k >= 1.  The free-loop index of
    the m-th iterate is the number of conjugate points in (0, m l), with
    multiplicity (Ziller, Invent. Math. 41 (1977)); the periodic Jacobi
    fields are gamma' and two for each direction conjugate at m l.  Lengths
    are in units of pi.
    """
    d = {"S^n": 1, "CP^{n/2}": 2, "HP^{n/4}": 4, "CaP^2": 8}[model.model]
    end = m * (2 if d == 1 else 1)
    index = endpoint = 0
    for mult, root in ((d - 1, 2), (model.n - d, 1)):  # root = sqrt(kappa)
        times = [Fraction(k, root) for k in range(1, end * root + 1)]
        index += mult * sum(1 for t in times if t < end)
        endpoint += mult * sum(1 for t in times if t == end)
    return index, 2 * endpoint + 1


class TestMorseIndexTheorem:
    """bott_indices against an independent conjugate-point count."""

    @pytest.mark.parametrize(
        "model,n",
        [("S^n", n) for n in range(2, 10)]
        + [("CP^{n/2}", n) for n in range(2, 14, 2)]
        + [("HP^{n/4}", n) for n in (4, 8, 12)]
        + [("CaP^2", 16)],
    )
    def test_conjugate_points(self, model, n):
        cm = cross_model(model, n)
        for m in range(1, 13):
            assert bott_indices(cm, m) == conjugate_point_count(cm, m)


class TestClassDegrees:
    def test_s2(self):
        m = cross_model("S^n", 2)
        assert class_degrees(m, 1) == (1, 3)
        assert class_degrees(m, 2) == (3, 5)

    def test_sphere_any_n_first(self):
        for n in (2, 3, 5, 9):
            m = cross_model("S^n", n)
            assert class_degrees(m, 1) == (n - 1, 3 * (n - 1))

    @pytest.mark.parametrize(
        "model,n", [("S^n", 4), ("CP^{n/2}", 6), ("HP^{n/4}", 8), ("CaP^2", 16)]
    )
    def test_beta_minus_alpha_gap(self, model, n):
        m = cross_model(model, n)
        for k in range(1, 11):
            da, db = class_degrees(m, k)
            assert db - da == 2 * (n - 1)
            assert da == bott_indices(m, k)[0]


class TestZollSpectralValues:
    def test_round_s2(self):
        import math

        m = cross_model("S^n", 2)
        vals = zoll_spectral_values(m, 2 * math.pi, 3)
        assert vals == [(2 * math.pi, 2 * math.pi), (4 * math.pi, 4 * math.pi), (6 * math.pi, 6 * math.pi)]

    def test_first_value(self):
        m = cross_model("S^n", 3)
        assert zoll_spectral_values(m, 1.7, 1) == [(1.7, 1.7)]

    def test_metric_scaling(self):
        m = cross_model("S^n", 2)
        base = zoll_spectral_values(m, 1.0, 5)
        scaled = zoll_spectral_values(m, 2.5, 5)
        for (a, b), (sa, sb) in zip(base, scaled):
            assert sa == 2.5 * a and sb == 2.5 * b

    def test_strictly_increasing_constant_gap(self):
        m = cross_model("S^n", 2)
        vals = [v for v, _ in zoll_spectral_values(m, 3.0, 6)]
        gaps = {round(b - a, 12) for a, b in zip(vals, vals[1:])}
        assert gaps == {3.0}


class TestCohomologyRank:
    def test_rank_one_in_initial_degree(self):
        m = cross_model("S^n", 2)
        assert cohomology_rank(m, m.initial_index, quadric_betti(2)) == 1

    def test_degree_zero_vanishes(self):
        m = cross_model("S^n", 2)
        assert cohomology_rank(m, 0, quadric_betti(2)) == 0

    def test_overlapping_summands_add(self):
        # S^2, d = 3: m=1 hits quotient degree 2, m=2 hits degree 0
        m = cross_model("S^n", 2)
        assert cohomology_rank(m, 3, quadric_betti(2)) == 2

    def test_quadric_betti_tables(self):
        assert quadric_betti(2) == [1, 0, 1]
        assert quadric_betti(3) == [1, 0, 2, 0, 1]
        assert quadric_betti(4) == [1, 0, 1, 0, 1, 0, 1]

    def test_projective_betti(self):
        assert projective_space_betti(3) == [1, 0, 1, 0, 1]

    def test_negative_shift_contributes_zero(self):
        m = cross_model("S^n", 5)
        assert cohomology_rank(m, 2, quadric_betti(5)) == 0
