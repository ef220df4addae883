"""Independent reference answers for every job type.

Nothing here calls into reeb_spectra: each check recomputes the expected
answer from the job's inputs with plain Fractions, integers or floats, and
returns a list of problems (empty when the output is right).  A problem
string that starts with KNOWN is a documented defect of the program.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction as F

import numpy as np

KNOWN = "known defect (ROADMAP item 4, minimal period): "


# -- ellipsoids -----------------------------------------------------------------


def smallest_common_period(a: list[F]) -> F:
    """Least T > 0 with T / a_h an integer for every h, over the common
    denominator D: T = lcm(a_h D) / D."""
    D = math.lcm(*(x.denominator for x in a))
    return F(math.lcm(*(int(x * D) for x in a)), D)


def besse_index(a: list[F], tau: F) -> int:
    """i = (mu - n)/2 with mu = 2 sum tau/a_h - n."""
    return sum(int(tau / x) for x in a) - len(a)


def invariants(a: list[F], count: int) -> list[F]:
    """The `count` smallest elements of the multiset {k a_h : k >= 1, h}."""
    heap = [(x, x) for x in a]
    heapq.heapify(heap)
    out = []
    while len(out) < count:
        v, step = heapq.heappop(heap)
        out.append(v)
        heapq.heappush(heap, (v + step, step))
    return out


def morse(rates) -> int:
    """2 sum (ceil(r_h) - 1), the Morse index of the rotation path."""
    return 2 * sum(math.ceil(r) - 1 for r in rates)


def spectrum(a: list[F], max_action: F) -> list[tuple[F, int, int]]:
    """(tau, multiplicity, morse) for every distinct k a_h <= max_action."""
    D = math.lcm(*(x.denominator for x in a))
    P = [int(x * D) for x in a]
    top = int(max_action * D)
    mult: dict[int, int] = {}
    for p in P:
        for v in range(p, top + 1, p):
            mult[v] = mult.get(v, 0) + 1
    return [(F(v, D), m, 2 * sum(-(-v // p) - 1 for p in P)) for v, m in sorted(mult.items())]


def check_invariants(a, count, payload) -> list[str]:
    got = [F(x) for x in payload["invariants"]]
    want = invariants(a, count)
    if got != want:
        k = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), min(len(got), len(want)))
        return [f"c_{k}: got {got[k] if k < len(got) else None}, want {want[k] if k < len(want) else None}"]
    return []


def check_classify(a, count, payload) -> list[str]:
    problems = []
    n = len(a)
    zoll = all(x == a[0] for x in a)
    want_kind = "Zoll" if zoll else "Besse"
    if payload["classification"] != want_kind:
        problems.append(f"classification {payload['classification']}, want {want_kind}")
    tau0 = a[0] if zoll else smallest_common_period(a)
    if F(payload["tau0"]) != tau0:
        problems.append(f"tau0 {payload['tau0']}, want {tau0}")
    c = invariants(a, count)
    hits = [i for i in range(count - n + 1) if c[i] == c[i + n - 1]]
    got_hits = [h["i"] for h in payload["invariant_hits"]]
    if got_hits != hits:
        problems.append(f"invariant hits {got_hits[:5]}, want {hits[:5]}")
    if payload["zoll_by_invariant_equality"] != zoll:
        problems.append(f"zoll_by_invariant_equality {payload['zoll_by_invariant_equality']}, want {zoll}")
    return problems


def check_interleaving(a, report) -> list[str]:
    """c_{i-1} = tau - a_1 < tau = c_i = c_{i+n-1} < c_{i+n} = tau + a_1 at
    i = sum tau/a_h - n: below tau the counting function is sum (tau/a_h - 1)
    = i, and tau itself carries n slots."""
    tau = smallest_common_period(a)
    i = besse_index(a, tau)
    problems = []
    if report.i != i:
        problems.append(f"i = {report.i}, want {i}")
    if not report.passed:
        problems.append("interleaving report did not pass")
    lhs = {ch.name: ch for ch in report.checks}
    want_below = tau - a[0] if i >= 1 else F(0)
    got_below = lhs["c_{i-1} < tau"].lhs
    if got_below != want_below:
        problems.append(f"c_(i-1) = {got_below}, want {want_below}")
    got_above = lhs["c_{i+n-1} < c_{i+n}"].rhs
    if got_above != tau + a[0]:
        problems.append(f"c_(i+n) = {got_above}, want {tau + a[0]}")
    if lhs["c_i == tau"].lhs != tau:
        problems.append(f"c_i = {lhs['c_i == tau'].lhs}, want {tau}")
    return problems


def check_pinch_ellipsoid(a, delta_sq: F, payload) -> list[str]:
    """Ellipsoid pinch: pi r^2 = a_1, pi R^2 = a_n; certified iff no
    spectrum value lies in the open interval (a_1, delta^2 a_1)."""
    if not (1 < delta_sq <= 2) or not a[-1] < delta_sq * a[0]:
        want = "not-applicable"
    else:
        blocked = any(a[0] < k * x < delta_sq * a[0]
                      for x in a for k in range(1, int(delta_sq * a[0] / x) + 1))
        want = "refusal" if blocked else "certified-zoll"
    problems = []
    if payload["status"] != want:
        problems.append(f"status {payload['status']}, want {want}")
    chain = payload.get("bound_chain")
    if want != "not-applicable" and not (chain and chain["holds"]):
        problems.append("bound chain c_(n-1) <= pi R^2 < delta^2 pi r^2 not reported as holding")
    return problems


def check_spectrum(a, max_action, rows, exact: bool) -> list[str]:
    want = spectrum(a, max_action)
    if len(rows) != len(want):
        return [f"{len(rows)} entries, want {len(want)}"]
    n = len(a)
    for row, (tau, m, mo) in zip(rows, want):
        got_tau = F(row["tau"]) if exact else float(row["tau"])
        ok_tau = got_tau == tau if exact else abs(got_tau - float(tau)) <= 1e-9 * float(tau)
        if not ok_tau or int(row["multiplicity"]) != m or int(row["morse_index"]) != mo \
                or int(row["nullity"]) != 2 * m - 1 or int(row["cz_index"]) != mo + n:
            return [f"entry at {tau}: got {dict(row)}, want m={m} morse={mo}"]
    return []


def check_cz(rates, payload) -> list[str]:
    """cz = morse + n with morse = 2 sum (ceil r - 1); the endpoint kernel
    has dimension 2 per integer rate."""
    mo = morse(rates)
    nullity = 2 * sum(1 for r in rates if F(r).denominator == 1)
    want = {"cz_index": mo + len(rates), "morse_index": mo, "nullity": nullity}
    got = {k: payload[k] for k in want}
    return [] if got == want else [f"got {got}, want {want}"]


INITIAL_INDEX = {"S^n": lambda n: n - 1, "CP^{n/2}": lambda n: 1,
                 "HP^{n/4}": lambda n: 3, "CaP^2": lambda n: 7}


def check_bott(model, n, initial, mmax, ell, payload) -> list[str]:
    i_m = initial if initial is not None else INITIAL_INDEX[model](n)
    rows = payload["table"]
    if len(rows) != mmax:
        return [f"{len(rows)} rows, want {mmax}"]
    for m, row in enumerate(rows, start=1):
        ind = m * i_m + (m - 1) * (n - 1)
        want = (m, ind, 2 * n - 1, ind, ind + 2 * (n - 1))
        got = (row["m"], row["ind"], row["nul"], row["deg_alpha"], row["deg_beta"])
        if got != want or not math.isclose(row["spectral_value"], m * ell, rel_tol=1e-12):
            return [f"row {m}: got {got}, want {want}"]
    return []


# -- convex bodies ----------------------------------------------------------------


def planar_period(a_h: float, eps: float, q_h: float) -> float:
    """Period of the coordinate-plane orbit of the quartic-perturbed body:
    in the plane G = I (w + sqrt(w^2 + 16 eps q)) / 2 with w = 2 pi / a, so
    the orbit is harmonic with period 4 pi / (w + sqrt(w^2 + 16 eps q))."""
    w = 2 * math.pi / a_h
    return 4 * math.pi / (w + math.sqrt(w * w + 16 * eps * q_h))


def body_periods(spec) -> list[float]:
    eps = float(spec.get("epsilon", 0.0))
    q = spec.get("quartic") or [1.0] * len(spec["a"])
    return [planar_period(float(F(str(x))), eps, float(qh)) for x, qh in zip(spec["a"], q)]


def gauge2(spec, z: np.ndarray) -> np.ndarray:
    """G = (Q + sqrt(Q^2 + 4 eps P)) / 2 for the body spec, rows of z."""
    a = np.array([float(F(str(x))) for x in spec["a"]])
    eps = float(spec.get("epsilon", 0.0))
    q = np.array(spec.get("quartic") or [1.0] * len(a), dtype=float)
    r2 = z[:, 0::2] ** 2 + z[:, 1::2] ** 2
    Q = (np.pi / a * r2).sum(axis=1)
    P = (q * r2 * r2).sum(axis=1)
    return 0.5 * (Q + np.sqrt(Q * Q + 4 * eps * P))


def radii(spec, samples: int = 20000) -> tuple[float, float]:
    """(r, R) by dense sampling of the unit sphere plus the coordinate planes'
    unit circles, where the extrema of G sit for these bodies."""
    n = len(spec["a"])
    rng = np.random.default_rng(0)
    z = rng.normal(size=(samples, 2 * n))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    axes = np.eye(2 * n)
    G = gauge2(spec, np.vstack([z, axes]))
    return 1.0 / math.sqrt(G.max()), 1.0 / math.sqrt(G.min())


def check_systole(spec, payload) -> list[str]:
    periods = body_periods(spec)
    if float(spec.get("epsilon", 0.0)) == 0.0:
        want, tol = float(F(str(spec["a"][0]))), 1e-6 * float(F(str(spec["a"][0])))
    else:
        want, tol = min(periods), 1e-8
    got = payload["systole"]
    return [] if abs(got - want) <= tol else [f"systole {got!r}, want {want!r} (tol {tol:g})"]


def _plane(z: np.ndarray, tol: float = 1e-6):
    """Index of the coordinate plane holding the point, or None."""
    r = np.hypot(z[0::2], z[1::2])
    on = np.flatnonzero(r > tol)
    return int(on[0]) if len(on) == 1 else None


def check_orbits(spec, t_max: float, payload) -> list[str]:
    """Periods of every orbit: quadric orbits sit on the spectrum, with
    cz = morse + n and nullity 2m - 1; perturbed orbits lie within 10 eps of
    the unperturbed spectrum, and planar ones on their closed form.  No orbit
    may be a multiple cover of another one in the same plane."""
    a = [float(F(str(x))) for x in spec["a"]]
    n = len(a)
    eps = float(spec.get("epsilon", 0.0))
    periods = body_periods(spec)
    orbits = payload["orbits"]
    problems = []
    if not orbits:
        return ["no orbit found"]
    for o in orbits:
        T = o["period"]
        if not 0 < T <= t_max * (1 + 1e-9):
            problems.append(f"period {T} outside (0, {t_max}]")
            continue
        z = np.array(o["initial_point"])
        plane = _plane(z)
        if eps == 0.0:
            ratios = [T / x for x in a]
            resonant = [abs(r - round(r)) <= 1e-8 * max(r, 1.0) for r in ratios]
            if not any(resonant):
                problems.append(f"period {T} not on the spectrum")
                continue
            mo = 2 * sum(round(r) - 1 if res else math.ceil(r) - 1 for r, res in zip(ratios, resonant))
            want = (mo + n, mo, 2 * sum(resonant) - 1)
            got = (o["cz"], o["morse"], o["nullity"])
            if got != want:
                problems.append(f"orbit at {T}: (cz, morse, nullity) {got}, want {want}")
        else:
            gap = min(abs(T - k * x) for x in a for k in range(1, 4))
            if gap >= 10 * eps:
                problems.append(f"period {T} farther than 10 eps from the unperturbed spectrum")
            if plane is not None:
                k = round(T / periods[plane])
                if k < 1 or abs(T - k * periods[plane]) > 1e-8:
                    problems.append(f"planar orbit at {T} off the closed form {periods[plane]} x {k}")
    for o in orbits:
        plane = _plane(np.array(o["initial_point"]))
        if plane is None:
            continue
        for base in orbits:
            if base is o or _plane(np.array(base["initial_point"])) != plane:
                continue
            k = o["period"] / base["period"]
            if round(k) >= 2 and abs(k - round(k)) <= 1e-6 * k:
                msg = (f"orbit at {o['period']:.9g} is {round(k)} x the orbit at "
                       f"{base['period']:.9g} in plane {plane + 1}, listed as its own orbit")
                problems.append(KNOWN + msg if eps > 0 else msg)
                break
    return problems


def check_besse(payload, want: bool) -> list[str]:
    if payload["besse_at_tau"] != want:
        return [f"besse_at_tau {payload['besse_at_tau']}, want {want} "
                f"(max displacement {payload['max_displacement']:.3e})"]
    return []


def check_pinch_body(spec, delta_sq: float, supplied: list[float], payload) -> list[str]:
    """Radii against dense sampling of G on the unit sphere; the status
    against the pinching condition and the supplied spectrum."""
    r, R = radii(spec)
    problems = []
    if payload["status"] == "not-applicable" and "R_over_r_sq" in payload:
        ratio = payload["R_over_r_sq"]
        if abs(ratio - (R / r) ** 2) > 1e-5 * ratio:
            problems.append(f"R^2/r^2 = {ratio}, sampled {(R / r) ** 2}")
    elif "inradius" in payload:
        if abs(payload["inradius"] - r) > 1e-5 * r or abs(payload["circumradius"] - R) > 1e-5 * R:
            problems.append(f"radii ({payload['inradius']}, {payload['circumradius']}), sampled ({r}, {R})")
    applicable = (R / r) ** 2 < delta_sq
    if not applicable:
        want = "not-applicable"
    else:
        sys_val = min(supplied)
        blocked = any(sys_val < v < delta_sq * sys_val for v in supplied)
        want = "refusal" if blocked else "certified-zoll"
    if payload["status"] != want:
        problems.append(f"status {payload['status']}, want {want}")
    return problems
