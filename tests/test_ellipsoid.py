import csv
import io
import itertools
import json
import math
import sys
import time
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reeb_spectra import cli
from reeb_spectra.ellipsoid import (
    TOL_MERGE,
    SpectrumEntry,
    action_spectrum,
    besse_cz_index,
    classify,
    ellipsoid,
    invariant_window,
    lcm_fractions,
    rational_reconstruct,
    reeb_flow,
    spectral_invariants,
    spectrum_table,
    verify_interleaving,
)


def brute_force_invariants(a, count):
    """Independent oracle: enumerate all k * a_h, sort with multiplicity.

    Pure Fraction arithmetic, no shortcuts shared with the library path.
    """
    a = [F(x) for x in a]
    bound = max(a) * (count + 1)
    values = []
    for ah in a:
        k = 1
        while k * ah <= bound:
            values.append(k * ah)
            k += 1
    values.sort()
    return values[:count]


def brute_force_spectrum(a, max_action):
    a = [F(x) for x in a]
    vals = {}
    for h, ah in enumerate(a):
        k = 1
        while k * ah <= max_action:
            vals.setdefault(k * ah, set()).add(h)  # count parameter indices
            k += 1
    out = []
    for tau in sorted(vals):
        m = len(vals[tau])
        morse = 2 * sum(math.ceil(tau / ah) - 1 for ah in a)
        out.append((tau, m, morse))
    return out


def _walk(P: list[int], start: int):
    """Yield (v, multiplicity, morse index) for the scaled values v >= start >= 1.

    Ceil counters k_h = ceil(v / P_h): v = min_h k_h P_h, Morse 2 sum_h (k_h - 1).
    """
    k = [-(-start // p) for p in P]
    while True:
        v = min(kh * p for kh, p in zip(k, P))
        hit = [kh * p == v for kh, p in zip(k, P)]
        yield v, sum(hit), 2 * sum(kh - 1 for kh in k)
        k = [kh + h for kh, h in zip(k, hit)]


def walk_window(a, lo, hi):
    """c_lo, ..., c_hi from the ceil-counter walk, with no bisection: the walk
    starts at s with N(s - 1) <= lo, and a value's first slot is morse / 2."""
    E = ellipsoid(a)
    P, D = E.scaled_integer_params()
    start = 1 + int(F(lo) / sum(F(1, p) for p in P))  # N(X) <= X sum_h 1 / P_h
    out = []
    for v, m, morse in _walk(P, start):
        slot = morse // 2
        assert slot <= lo or out, "the walk started above c_lo"
        if slot > hi:
            return out
        out.extend([F(v, D)] * (min(slot + m, hi + 1) - max(slot, lo)))


def spectrum_float_oracle(E, max_action: float):
    """The float spectrum as a sequential sort-and-merge loop over (value, plane)
    pairs, one cluster at a time; the engine's array merge must agree with it."""
    a = E.floats
    n = E.n
    raw = []
    for h, ah in enumerate(a):
        k = np.arange(1, int(max_action / ah) + 1)
        raw.extend((k_ * ah, h) for k_ in k)
    raw.sort()
    entries: list[SpectrumEntry] = []
    ambiguous = []
    i = 0
    while i < len(raw):
        tau = raw[i][0]
        cluster = {raw[i][1]}
        j = i + 1
        exact_equal = True
        while j < len(raw) and abs(raw[j][0] - tau) <= TOL_MERGE * max(tau, 1.0):
            if raw[j][0] != tau:
                exact_equal = False
            cluster.add(raw[j][1])
            j += 1
        if not exact_equal:
            ambiguous.append(tau)
        m = len(cluster)
        morse = 0
        for ah in a:
            r = tau / ah
            k_near = round(r)
            near = k_near >= 1 and abs(r - k_near) <= TOL_MERGE * max(r, 1.0)
            morse += 2 * ((k_near if near else math.ceil(r)) - 1)
        entries.append(
            SpectrumEntry(tau=tau, multiplicity=m, morse_index=morse, nullity=2 * m - 1, cz_index=morse + n)
        )
        i = j
    if ambiguous:
        warnings.warn(
            f"action values merged within tol but not exactly equal near {ambiguous[:3]}; "
            "multiplicities are tolerance-dependent"
        )
    return entries


# parameter vectors whose scaled values leave int64 for Python ints
OBJECT_VECTORS = [
    [2**62 + 1, 3 * 2**63],
    [F(2**63 + 5, 3), F(2**64 - 1, 2), 3 * 2**63],
    [1, F(3 * 2**63, 2**63 - 1)],
]


def _rows_and_warning(fn, *args):
    """(rows, ValueError text or None, whether the merge warning fired)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rows = [(float(e.tau), e.multiplicity, e.morse_index, e.nullity, e.cz_index) for e in fn(*args)]
            error = None
        except ValueError as exc:
            rows, error = None, str(exc)
    return rows, error, any("tolerance-dependent" in str(w.message) for w in caught)


def _near_tolerance(base: float, ulps: int) -> float:
    """base + TOL_MERGE max(base, 1), moved by `ulps` units in the last place."""
    x = base + TOL_MERGE * max(base, 1.0)
    step = np.inf if ulps > 0 else -np.inf
    for _ in range(abs(ulps)):
        x = float(np.nextafter(x, step))
    return x


class TestReebFlow:
    def test_identity_at_zero(self):
        E = ellipsoid([1, 2])
        z = np.array([0.2, 0.1, 0.3, -0.4])
        z = z / np.sqrt(np.pi * (np.sum(z[:2] ** 2) / 1 + np.sum(z[2:] ** 2) / 2))
        assert np.array_equal(reeb_flow(E, z, 0.0), z)

    def test_round_full_period(self):
        E = ellipsoid([1, 1])
        z = np.array([0.3, 0.1, -0.2, 0.25])
        z = z / np.sqrt(np.pi * np.sum(z**2))
        assert np.abs(reeb_flow(E, z, 1.0) - z).max() < 1e-14

    def test_short_orbit_period(self):
        E = ellipsoid([1, 2])
        z = np.array([1 / np.sqrt(np.pi), 0.0, 0.0, 0.0])
        assert np.abs(reeb_flow(E, z, 1.0) - z).max() < 1e-14

    def test_off_surface_rejected(self):
        E = ellipsoid([1, 2])
        with pytest.raises(ValueError, match="off the ellipsoid"):
            reeb_flow(E, np.array([1.0, 0.0, 0.0, 0.0]), 0.5)


class TestActionSpectrum:
    def test_e12(self):
        E = ellipsoid([1, 2])
        entries = action_spectrum(E, 6)
        assert [e.tau for e in entries] == [F(k) for k in range(1, 7)]
        assert [e.multiplicity for e in entries] == [1, 2, 1, 2, 1, 2]

    def test_round(self):
        entries = action_spectrum(ellipsoid([1, 1]), 3)
        assert [(e.tau, e.multiplicity) for e in entries] == [(F(1), 2), (F(2), 2), (F(3), 2)]

    def test_empty_below_systole(self):
        assert action_spectrum(ellipsoid([2, 3]), F(3, 2)) == []

    def test_morse_recursion(self):
        # ind(tau_j) = 2 sum_{h<j} m_h
        for a in ([1, 2], [1, "3/2", 2], ["2/3", 1, "7/5"]):
            entries = action_spectrum(ellipsoid(a), 12)
            acc = 0
            for e in entries:
                assert e.morse_index == 2 * acc
                acc += e.multiplicity

    def test_cz_and_nullity_fields(self):
        for e in action_spectrum(ellipsoid([1, "5/3"]), 8):
            assert e.cz_index == e.morse_index + 2
            assert e.nullity == 2 * e.multiplicity - 1
            assert 1 <= e.multiplicity <= 2

    def test_against_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            a = sorted(F(int(rng.integers(1, 12)), int(rng.integers(1, 5))) for _ in range(n))
            E = ellipsoid(a)
            got = [(e.tau, e.multiplicity, e.morse_index) for e in action_spectrum(E, 8)]
            assert got == brute_force_spectrum(a, F(8))

    def test_beyond_int64_against_brute_force(self):
        # a numerator above 2^32 leaves int64 for Python ints
        a = [F(2**33 + 1, 3), F(2**34 + 7, 5), F(2**35, 7)]
        got = [(e.tau, e.multiplicity, e.morse_index) for e in action_spectrum(ellipsoid(a), F(2**36))]
        assert len(got) > 20
        assert got == brute_force_spectrum(a, F(2**36))

    def test_float_mode_merging(self):
        E = ellipsoid([1.0, 2.0])
        entries = action_spectrum(E, 6.0)
        assert [e.multiplicity for e in entries] == [1, 2, 1, 2, 1, 2]

    def test_float_mode_ambiguity_warning(self):
        # two values inside tol_merge but not bitwise equal
        E = ellipsoid([1.0, 1.0 + 5e-10])
        with pytest.warns(UserWarning, match="tolerance-dependent"):
            entries = action_spectrum(E, 3.0)
        assert entries[0].multiplicity == 2


class TestSpectrumColumns:
    @settings(max_examples=300, deadline=None)
    @given(
        base=st.floats(0.05, 20.0),
        ulps=st.one_of(st.none(), st.integers(-3, 3)),
        near=st.lists(st.floats(0.0, 2.5), max_size=2),
        far=st.lists(st.floats(0.05, 20.0), max_size=2),
        count=st.integers(1, 60),
    )
    @example(base=3.0, ulps=None, near=[0.0], far=[6.0], count=12).via("E(3.0, 3.0, 6.0)")
    @example(base=1.0, ulps=None, near=[0.5], far=[], count=30).via("E(1.0, 1.0 + 5e-10): warns")
    @example(base=1.0, ulps=None, near=[0.6, 1.2], far=[], count=30).via("chain longer than tol")
    @example(base=1e-10, ulps=0, near=[], far=[0.05], count=60).via("one plane twice in a cluster")
    def test_float_columns_match_oracle(self, base, ulps, near, far, count):
        # a partner exactly at, just inside or just outside TOL_MERGE max(tau, 1)
        # of base (ulps), values a fraction of that apart, and unrelated values
        partner = [] if ulps is None else [_near_tolerance(base, ulps)]
        a = sorted([base, *partner, *(base + off * TOL_MERGE * max(base, 1.0) for off in near), *far])
        E = ellipsoid(a)
        max_action = a[0] * count
        assert _rows_and_warning(action_spectrum, E, max_action) == _rows_and_warning(
            spectrum_float_oracle, E, max_action)

    def test_merge_warning_fires_with_the_oracle(self):
        E = ellipsoid([1.0, 1.0 + 5e-10])
        rows, error, warned = _rows_and_warning(action_spectrum, E, 3.0)
        assert (rows, error, warned) == _rows_and_warning(spectrum_float_oracle, E, 3.0)
        assert warned and error is None and [r[1] for r in rows] == [2, 2, 1]  # 3 (1 + 5e-10) > 3

    def test_sub_tolerance_ratio_counts_no_iterate(self):
        # tau / a_2 = k 1e-10 lies within TOL_MERGE of 0, which is no iterate:
        # plane 2 counts ceil(tau / a_2) - 1 = 0 below tau, not -1
        E = ellipsoid([1e-10, 1.0])
        got = _rows_and_warning(action_spectrum, E, 1e-9)
        assert got == _rows_and_warning(spectrum_float_oracle, E, 1e-9)
        assert got[1] is None and [row[2] for row in got[0]] == [2 * k for k in range(len(got[0]))]

    @pytest.mark.parametrize(
        "a,top",
        [
            (["1", "2863311531"], 5),
            (["1", "2863311531"], 40),
            (["1/2", "3000000001"], 30),
            (["1", "2001/2", "3000000000"], 3000),
            (["1/4", "3/2", "5000000000", "7000000000"], 25),
            (["1/1024", "4398046511104"], 2),
        ],
    )
    def test_float_table_and_window_match_exact_when_spread_past_1e9(self, a, top):
        # every plane above max_action has a ratio tau / a_h below TOL_MERGE;
        # the parameters and their multiples are exact in binary, so the
        # float values equal the exact ones
        exact, floating = ellipsoid(a), ellipsoid([float(F(x)) for x in a])
        assert float(exact.a[-1] / exact.a[0]) > 1e9
        want = [(float(e.tau), e.multiplicity, e.morse_index) for e in action_spectrum(exact, top)]
        assert want == brute_force_spectrum(exact.a, top)
        got = [(e.tau, e.multiplicity, e.morse_index) for e in action_spectrum(floating, float(top))]
        assert got == want
        count = len(want) + 5
        assert spectral_invariants(floating, count) == [float(c) for c in spectral_invariants(exact, count)]
        assert invariant_window(floating, 3, count) == [float(c) for c in invariant_window(exact, 3, count)]

    @settings(max_examples=200, deadline=None)
    @given(
        a=st.lists(st.fractions(min_value=F(1, 4), max_value=12, max_denominator=6), min_size=1, max_size=4),
        top=st.fractions(min_value=F(1, 7), max_value=20, max_denominator=7),
    )
    def test_exact_columns_match_brute_force_and_walk(self, a, top):
        a = sorted(a)
        E = ellipsoid(a)
        table = spectrum_table(E, top)
        m, morse = table.multiplicity.tolist(), table.morse_index.tolist()
        assert list(zip(table.values(), m, morse)) == brute_force_spectrum(a, top)
        P, D = E.scaled_integer_params()
        walk = list(itertools.takewhile(lambda r: r[0] <= top * D, _walk(P, 1)))
        assert table.denominator == D
        assert list(zip(table.tau.tolist(), m, morse)) == walk
        text = "".join(cli._spectrum_blocks(table, "csv"))
        assert [row.split(",")[0] for row in text.splitlines()] == [str(t) for t in table.values()]

    @pytest.mark.parametrize("a", OBJECT_VECTORS)
    def test_object_columns_match_walk(self, a):
        # scaled bounds past 2^62 enumerate in Python ints, values equal to the walk's
        E = ellipsoid(a)
        top = 40 * E.a[0]
        table = spectrum_table(E, top)
        P, D = E.scaled_integer_params()
        walk = list(itertools.takewhile(lambda r: r[0] <= top * D, _walk(P, 1)))
        assert table.tau.dtype == object
        assert list(zip(table.tau.tolist(), table.multiplicity.tolist(), table.morse_index.tolist())) == walk
        assert [(e.tau, e.multiplicity, e.morse_index) for e in table.entries()] == brute_force_spectrum(a, top)

    @pytest.mark.parametrize("a", [[1, 2], [1.0, 2.0]])
    @pytest.mark.parametrize("top", [1e300, 10**400, F(10**400, 3)])
    def test_huge_table_refused_before_allocation(self, a, top):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="multiples"):
            spectrum_table(ellipsoid(a), top)
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("a", [[1, 2], [1.0, 2.0]])
    def test_table_cap_counts_raw_multiples(self, a, monkeypatch):
        # E(1, 2) up to 10 has 10 + 5 raw multiples k a_h; the package
        # exports the function `ellipsoid`, so the module comes from sys.modules
        ellipsoid_mod = sys.modules[spectrum_table.__module__]
        monkeypatch.setattr(ellipsoid_mod, "MAX_TABLE_MULTIPLES", 15)
        assert len(spectrum_table(ellipsoid(a), 10)) == 10
        monkeypatch.setattr(ellipsoid_mod, "MAX_TABLE_MULTIPLES", 14)
        with pytest.raises(ValueError, match="multiples"):
            spectrum_table(ellipsoid(a), 10)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_beyond_int64_through_cli(self, fmt, capsys):
        a = [F(2**33 + 1, 3), F(2**34 + 7, 5), F(2**35, 7)]
        assert spectrum_table(ellipsoid(a), F(2**36)).tau.dtype == object  # Python ints past int64
        argv = ["spectrum", "--ellipsoid", ",".join(map(str, a)), "--max", str(2**36), "--out", fmt]
        assert cli.main(argv) == cli.EXIT_OK
        out = capsys.readouterr().out
        rows = json.loads(out)["entries"] if fmt == "json" else list(csv.DictReader(io.StringIO(out)))
        want = brute_force_spectrum(a, F(2**36))
        assert len(rows) == len(want) > 20
        for row, (tau, m, morse) in zip(rows, want):
            got = (F(row["tau"]), *(int(row[k]) for k in ("multiplicity", "morse_index", "nullity", "cz_index")))
            assert got == (tau, m, morse, 2 * m - 1, morse + 3)


class TestSpectralInvariants:
    def test_round_count4(self):
        assert spectral_invariants(ellipsoid([1, 1]), 4) == [F(1), F(1), F(2), F(2)]

    def test_e12_count6(self):
        assert spectral_invariants(ellipsoid([1, 2]), 6) == [F(1), F(2), F(2), F(3), F(4), F(4)]

    def test_conformal_scaling(self):
        # E(a r^2) scales every invariant by r^2
        base = spectral_invariants(ellipsoid([1, 2, 3]), 20)
        scaled = spectral_invariants(ellipsoid([F(9, 4), F(9, 2), F(27, 4)]), 20)
        assert scaled == [F(9, 4) * c for c in base]

    @pytest.mark.parametrize("seed", range(12))
    def test_against_brute_force(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(2, 7))
        a = sorted(F(int(rng.integers(1, 40)), int(rng.integers(1, 5))) for _ in range(n))
        assert spectral_invariants(ellipsoid(a), 30) == brute_force_invariants(a, 30)


    def test_widely_spread_closed_form(self):
        t0 = time.perf_counter()
        c = spectral_invariants(ellipsoid([F(1, 10**6), 1]), 25)
        assert time.perf_counter() - t0 < 1.0
        assert c == [F(k + 1, 10**6) for k in range(25)]

    def test_widely_spread_float(self):
        # the bound comes from a_1, so 25 invariants enumerate ~25 values, not ~14M
        t0 = time.perf_counter()
        c = spectral_invariants(ellipsoid([1e-6, 1.0]), 25)
        assert time.perf_counter() - t0 < 1.0
        assert np.allclose(c, [(k + 1) * 1e-6 for k in range(25)], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("a", OBJECT_VECTORS)
    @pytest.mark.parametrize("lo", [0, 1, 7, 38, 500])
    def test_object_window_matches_walk(self, a, lo):
        # scaled parameters past 2^32 send the window's multiples to Python ints
        assert max(ellipsoid(a).scaled_integer_params()[0]) > 2**32
        for hi in (lo, lo + 1, lo + 9):
            assert invariant_window(ellipsoid(a), lo, hi) == walk_window(a, lo, hi)

    @pytest.mark.parametrize("seed", range(6))
    def test_high_index_window_matches_walk(self, seed):
        # acceptance-style vectors (n in 2..6, a_h = p/q <= 10) at the
        # benchmark's high-index band of slots
        rng = np.random.default_rng(900 + seed)
        for _ in range(8):
            n = int(rng.integers(2, 7))
            q = rng.integers(1, 5, size=n)
            a = sorted(F(int(rng.integers(1, 10 * qh + 1)), int(qh)) for qh in q)
            lo = int(rng.integers(6 * 10**4, 12 * 10**4 + 1))
            hi = lo + int(rng.choice([0, n - 1, n + 1, 40]))
            assert invariant_window(ellipsoid(a), lo, hi) == walk_window(a, lo, hi)

    def test_huge_window_refused_before_allocation(self, capsys):
        # 1.5M invariants of the round E(1, 1) take 3M multiples
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="multiples"):
            spectral_invariants(ellipsoid([1, 1]), 1_500_000)
        assert time.perf_counter() - t0 < 1.0
        assert cli.main(["invariants", "--ellipsoid", "1,1", "--count", "1500000"]) == cli.EXIT_INPUT
        assert capsys.readouterr().out == ""

    def test_window_cap_counts_multiples(self, monkeypatch):
        # c_0..c_9 of E(1, 2) slice the 10 + 5 multiples in [1, 10]
        ellipsoid_mod = sys.modules[invariant_window.__module__]
        monkeypatch.setattr(ellipsoid_mod, "MAX_TABLE_MULTIPLES", 15)
        assert spectral_invariants(ellipsoid([1, 2]), 10) == brute_force_invariants([1, 2], 10)
        monkeypatch.setattr(ellipsoid_mod, "MAX_TABLE_MULTIPLES", 14)
        with pytest.raises(ValueError, match="multiples"):
            spectral_invariants(ellipsoid([1, 2]), 10)

    def test_float_window_high_index_against_oracle(self):
        E = ellipsoid([0.5, 2.75, 4.75])
        lo, hi = 10**5, 10**5 + 30
        entries = spectrum_float_oracle(E, E.floats[0] * (hi + 1) * (1 + TOL_MERGE))
        prefix = [e.tau for e in entries for _ in range(e.multiplicity)]
        assert invariant_window(E, lo, hi) == prefix[lo : hi + 1]
        assert spectral_invariants(E, 500) == prefix[:500]

    @settings(max_examples=200, deadline=None)
    @given(
        a=st.lists(st.fractions(min_value=F(1, 4), max_value=12, max_denominator=5), min_size=1, max_size=5),
        lo=st.integers(0, 59),
        width=st.integers(0, 59),
    )
    def test_window_is_slice_of_oracle(self, a, lo, width):
        a = sorted(x for x in a if x > 0) or [F(1)]
        hi = min(lo + width, 59)
        assert invariant_window(ellipsoid(a), lo, hi) == brute_force_invariants(a, hi + 1)[lo : hi + 1]


class TestClassify:
    def test_round_is_zoll(self):
        c = classify(ellipsoid([1, 1, 1]))
        assert (c.kind, c.tau0, c.heuristic) == ("Zoll", F(1), False)

    def test_e12_besse_lcm(self):
        c = classify(ellipsoid([1, 2]))
        assert (c.kind, c.tau0) == ("Besse", F(2))

    def test_rational_lcm(self):
        assert lcm_fractions([F(1), F(3, 2)]) == F(3)
        assert classify(ellipsoid([1, "3/2"])).tau0 == F(3)

    def test_float_irrational_flagged(self):
        c = classify(ellipsoid([1.0, float(np.sqrt(2))]))
        assert c.kind == "NotBesse"
        assert c.heuristic
        assert c.certificate["denominator_bound"] == 10**6
        assert c.certificate["convergent_error"] > 0

    def test_float_rational_recovers(self):
        c = classify(ellipsoid([1.0, 1.5]))
        assert c.kind == "Besse"
        assert c.heuristic
        assert abs(c.tau0 - 3.0) < 1e-12

    def test_reconstruct(self):
        assert rational_reconstruct(2 / 3) == F(2, 3)
        assert rational_reconstruct(float(np.pi)) is None


class TestBesseCzIndex:
    def test_e12_tau2(self):
        assert besse_cz_index(ellipsoid([1, 2]), 2) == 4

    def test_round_tau1(self):
        assert besse_cz_index(ellipsoid([1, 1]), 1) == 2

    def test_lcm_three(self):
        assert besse_cz_index(ellipsoid([1, "3/2"]), 3) == 8

    def test_not_common_period(self):
        with pytest.raises(ValueError):
            besse_cz_index(ellipsoid([1, 2]), 1)


class TestInterleaving:
    def test_e12_tau2(self):
        rep = verify_interleaving(ellipsoid([1, 2]), 2)
        assert rep.i == 1 and rep.passed

    def test_e12_tau4(self):
        rep = verify_interleaving(ellipsoid([1, 2]), 4)
        assert rep.i == 4 and rep.passed

    def test_round_tau1_cminus1_convention(self):
        rep = verify_interleaving(ellipsoid([1, 1]), 1)
        assert rep.i == 0 and rep.passed
        first = rep.checks[0]
        assert first.lhs == 0  # c_{-1} := 0

    @pytest.mark.parametrize("seed", range(8))
    def test_random_besse(self, seed):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(2, 4))
        a = sorted(F(int(rng.integers(1, 8)), int(rng.integers(1, 4))) for _ in range(n))
        E = ellipsoid(a)
        tau0 = classify(E).tau0
        assert verify_interleaving(E, tau0).passed

    @pytest.mark.parametrize("a", [["1/2", "11/4", "19/4", "20/3", "17/2", "9"], ["1/1231", 2, "8/3"]])
    def test_high_index(self, a):
        # i is about 1.9M and 9.9k: the window is bisected, not enumerated
        E = ellipsoid(a)
        tau0 = classify(E).tau0
        rep = verify_interleaving(E, tau0)
        assert rep.i == (besse_cz_index(E, tau0) - E.n) // 2
        assert rep.passed
        # tau0 is a multiple of every a_h, so its neighbours are tau0 -+ a_1
        assert rep.checks[0].lhs == tau0 - E.a[0]
        assert rep.checks[3].rhs == tau0 + E.a[0]

    @pytest.mark.parametrize("a", [[1, 2], [1, "3/2"], ["1/2", "3/4", 1]])
    def test_equality_at_every_multiple(self, a):
        # c_i = c_{i+n-1} at i = (mu(k tau0) - n)/2 for every k >= 1
        E = ellipsoid(a)
        tau0 = classify(E).tau0
        for k in (1, 2, 3):
            assert verify_interleaving(E, k * tau0).passed
