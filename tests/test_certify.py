from fractions import Fraction as F

import numpy as np
import pytest

from reeb_spectra.bodies import ConvexBody
from reeb_spectra.certify import (
    EhVerdict,
    besse_by_invariants,
    besse_sufficient_eh,
    zoll_by_pinching,
)
from reeb_spectra.ellipsoid import (
    action_spectrum,
    besse_cz_index,
    classify,
    ellipsoid,
    spectral_invariants,
)


class TestBesseByInvariants:
    def test_e12_hit(self):
        c = spectral_invariants(ellipsoid([1, 2]), 8)
        hits = besse_by_invariants(c, 2)
        assert (hits[0].i, hits[0].tau, hits[0].mu) == (1, F(2), 4)
        assert hits[0].mu == besse_cz_index(ellipsoid([1, 2]), 2)

    def test_round_zoll_hit_at_zero(self):
        c = spectral_invariants(ellipsoid([1, 1]), 8)
        hits = besse_by_invariants(c, 2)
        assert hits[0].i == 0 and hits[0].tau == F(1) and hits[0].mu == 2

    def test_strictly_increasing_no_hits(self):
        assert besse_by_invariants([F(1), F(2), F(3), F(5)], 2) == []

    def test_requires_enough_entries(self):
        with pytest.raises(ValueError):
            besse_by_invariants([F(1)], 2)

    def test_requires_monotone(self):
        with pytest.raises(ValueError):
            besse_by_invariants([F(2), F(1), F(3)], 2)

    def test_float_tolerance(self):
        c = [1.0, 2.0, 2.0 + 1e-12, 3.0]
        hits = besse_by_invariants(c, 2)
        assert len(hits) == 1 and hits[0].i == 1

    @pytest.mark.parametrize("c, hit_is", [
        ([F(1), F(2), F(2), F(3)], [1]),
        ([1, 2, 2, F(3)], [1]),  # ints are exact values
        ([F(1), F(2), F(2) + F(1, 10**20), F(3)], []),  # exact values equal only when equal
        ([1.0, 2.0, 2.0 + 1e-12, 3.0], [1]),
        ([F(1), F(2), 2.0 + 1e-12, F(3)], [1]),  # a mixed pair by the relative test
        ([F(1), 2.0, F(2), 3.0], [1]),
        ([F(1), 2.0, 2.0 + 3e-9, F(3)], []),
    ])
    def test_lists_carry_their_own_exactness(self, c, hit_is):
        assert [h.i for h in besse_by_invariants(c, 2)] == hit_is

    def test_mixed_list_monotone_up_to_the_rule(self):
        # 2.0 - 1e-12 sits below F(2) but is the same action: still non-decreasing
        assert [h.i for h in besse_by_invariants([F(1), F(2), 2.0 - 1e-12, F(3)], 2)] == [1]
        with pytest.raises(ValueError, match="non-decreasing"):
            besse_by_invariants([F(1), F(2), 2.0 - 1e-6, F(3)], 2)

    @pytest.mark.parametrize("k", [-60, -30, 0, 30, 60])
    def test_float_scan_is_scale_free(self, k):
        # equality, the hit and the monotonicity check read the same at every scale
        s = 2.0**k
        hits = besse_by_invariants([s * x for x in (1.0, 2.0, 2.0 * (1 + 5e-10), 3.0)], 2)
        assert [(h.i, h.tau) for h in hits] == [(1, 2.0 * s)]
        assert besse_by_invariants([s * x for x in (1.0, 1.5, 2.0, 2.5)], 2) == []
        with pytest.raises(ValueError, match="non-decreasing"):
            besse_by_invariants([s * x for x in (2.0, 1.0, 3.0)], 2)

    @pytest.mark.parametrize("seed", range(10))
    def test_hits_exactly_at_mu_formula(self, seed):
        rng = np.random.default_rng(400 + seed)
        n = int(rng.integers(2, 4))
        a = sorted(F(int(rng.integers(1, 7)), int(rng.integers(1, 4))) for _ in range(n))
        E = ellipsoid(a)
        tau0 = classify(E).tau0
        mu = besse_cz_index(E, tau0)
        i_expected = (mu - n) // 2
        count = i_expected + n + 2
        hits = besse_by_invariants(spectral_invariants(E, count), n)
        hit_is = [h.i for h in hits if h.tau == tau0]
        assert i_expected in hit_is
        for h in hits:
            assert h.mu == 2 * h.i + n
            # a hit value must be a common period: equality of n invariants
            # forces multiplicity n, so every parameter divides tau
            assert all((h.tau / ah).denominator == 1 for ah in E.a), (a, h)

    def test_irrational_no_hits(self):
        E = ellipsoid([1.0, float(np.sqrt(2))])
        c = spectral_invariants(E, 200)
        assert besse_by_invariants(c, 2) == []


class TestZollByPinching:
    def setup_method(self):
        self.ball = ConvexBody(a=[1.0, 1.0], alpha=1.5)
        self.c_ball = spectral_invariants(ellipsoid([1, 1]), 2)

    def _spectrum(self, a, upper):
        return [e.tau for e in action_spectrum(ellipsoid(a), upper)]

    def test_ball_certified(self):
        res = zoll_by_pinching(
            self.ball,
            self._spectrum([1, 1], 3),
            delta_sq=F(3, 2),
            coverage_attested=True,
            invariants_c=self.c_ball,
        )
        assert res.status == "certified-zoll"
        assert res.detail["bound_chain"]["holds"]

    def test_besse_not_zoll_refused(self):
        body = ConvexBody(a=[1.0, 1.5], alpha=1.5)
        res = zoll_by_pinching(
            body,
            self._spectrum([1, "3/2"], 4),
            delta_sq=F(7, 4),
            coverage_attested=True,
        )
        assert res.status == "refusal"
        assert F(3, 2) in res.detail["blocking_values"]

    def test_near_round_refused(self):
        body = ConvexBody(a=[1.0, 1.1], alpha=1.5)
        res = zoll_by_pinching(
            body,
            self._spectrum([1, "11/10"], 3),
            delta_sq=F(3, 2),
            coverage_attested=True,
        )
        assert res.status == "refusal"

    def test_pinching_hypothesis_gate(self):
        body = ConvexBody(a=[1.0, 3.0], alpha=1.5)
        res = zoll_by_pinching(
            body, [F(1)], delta_sq=F(2), coverage_attested=True
        )
        assert res.status == "not-applicable"

    def test_delta_range_gate(self):
        res = zoll_by_pinching(
            self.ball, [F(1)], delta_sq=F(5, 2), coverage_attested=True
        )
        assert res.status == "not-applicable"

    def test_attestation_required(self):
        with pytest.raises(ValueError, match="attestation"):
            zoll_by_pinching(self.ball, [F(1)], delta_sq=F(3, 2))

    def test_float_delta_route(self):
        res = zoll_by_pinching(
            self.ball,
            self._spectrum([1, 1], 3),
            delta=1.2,
            coverage_attested=True,
        )
        assert res.status == "certified-zoll"

    def test_delta_required(self):
        with pytest.raises(ValueError, match="delta"):
            zoll_by_pinching(self.ball, [F(1)], coverage_attested=True)

    @pytest.mark.parametrize("kwargs, name", [
        ({"delta": -1.2}, "delta must"),
        ({"delta": 0.0}, "delta must"),
        ({"delta": float("nan")}, "delta must"),
        ({"delta": float("inf")}, "delta must"),
        ({"delta_sq": float("nan")}, "delta_sq must"),
        ({"delta_sq": float("-inf")}, "delta_sq must"),
        ({"delta": float("nan"), "delta_sq": F(3, 2)}, "delta must"),
    ])
    def test_bad_constants_refused_by_name(self, kwargs, name):
        body = ConvexBody(a=[1.0, 1.2], epsilon=1e-3, quartic=[1.0, 0.8])
        for target in (self.ball, body):
            with pytest.raises(ValueError, match=name):
                zoll_by_pinching(target, [1.0, 1.2], coverage_attested=True, **kwargs)

    @pytest.mark.parametrize("k", [-50, 0, 50])
    def test_float_bound_chain_is_scale_free(self, k):
        # c_{n-1} <= pi R^2 holds when the two are the same action, and
        # fails when c_{n-1} is above pi R^2, at every scale
        s = 2.0**k
        E = ellipsoid([s, 1.2 * s])
        for c1, holds in ((1.2 * s * (1 + 5e-10), True), (1.5 * s, False)):
            res = zoll_by_pinching(E, [s, 2 * s], delta_sq=1.5, coverage_attested=True,
                                   invariants_c=[s, c1])
            assert res.detail["bound_chain"]["holds"] is holds, (k, c1)

    def test_open_interval_boundary(self):
        # a spectrum value exactly at delta^2 * sys does not block
        res = zoll_by_pinching(
            self.ball,
            [F(1), F(3, 2)],
            delta_sq=F(3, 2),
            coverage_attested=True,
        )
        assert res.status == "certified-zoll"

    @pytest.mark.parametrize("x", [F(1000000007, 1000000000), F(12345678901, 10000000000)])
    def test_exact_ellipsoid_at_the_pinching_boundary(self, x):
        # R^2/r^2 = x = delta^2: the hypothesis R/r < delta fails exactly
        E = ellipsoid([1, x])
        res = zoll_by_pinching(E, self._spectrum([1, x], 2 * x), delta_sq=x,
                               coverage_attested=True,
                               invariants_c=spectral_invariants(E, 2))
        assert res.status == "not-applicable"
        # just inside the boundary the exact chain c_1 <= pi R^2 < delta^2 pi r^2 holds
        dsq = x + F(1, 10**12)
        res = zoll_by_pinching(E, self._spectrum([1, x], 2 * x), delta_sq=dsq,
                               coverage_attested=True,
                               invariants_c=spectral_invariants(E, 2))
        assert res.detail["bound_chain"]["holds"]
        assert res.detail["bound_chain"]["pi_R^2"] == x

    def test_quadric_body_pinches_on_its_parameters(self):
        # a quadric ConvexBody pinches on its float parameters, compared
        # exactly with a rational delta^2: at delta^2 = R^2/r^2 the hypothesis
        # fails, and 1e-17 inside it the chain holds though float(delta^2) = x
        x = 1000000007 / 1000000000
        body = ConvexBody(a=[1.0, x], alpha=1.5)
        kwargs = {"coverage_attested": True, "invariants_c": [1.0, x]}
        res = zoll_by_pinching(body, [1.0, x, 2.0], delta_sq=F(x), **kwargs)
        assert res.status == "not-applicable"
        res = zoll_by_pinching(body, [1.0, x, 2.0], delta_sq=F(x) + F(1, 10**17), **kwargs)
        assert res.detail["bound_chain"]["pi_R^2"] == x
        assert res.detail["bound_chain"]["holds"]

    def test_family_certifies_only_round(self):
        for x in [F(1), F(11, 10), F(3, 2), F(19, 10)]:
            body = ConvexBody(a=[1.0, float(x)], alpha=1.5)
            dsq = (x + 2) / 2  # in (x, 2]
            res = zoll_by_pinching(
                body,
                self._spectrum([1, x], 4),
                delta_sq=dsq,
                coverage_attested=True,
            )
            assert (res.status == "certified-zoll") == (x == 1)


class TestBesseSufficientEh:
    def test_matches_invariant_scan(self):
        c = spectral_invariants(ellipsoid([1, 2]), 8)
        v = besse_sufficient_eh(c, 2, spectrum_discrete_attested=True)
        assert isinstance(v, EhVerdict)
        assert [h.i for h in v.hits] == [h.i for h in besse_by_invariants(c, 2)]
        assert "sufficient" in v.label
        assert not v.degenerate

    def test_n1_degenerate_flag(self):
        v = besse_sufficient_eh([F(1), F(2)], 1, spectrum_discrete_attested=True)
        assert v.degenerate
        assert len(v.hits) == 2

    def test_attestation_gate(self):
        with pytest.raises(ValueError, match="attestation"):
            besse_sufficient_eh([F(1), F(1)], 2)
