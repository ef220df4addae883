"""Exact engine for the ellipsoid E(a) = { sum |z_h|^2 / a_h = 1/pi }.

The action spectrum is the set of positive multiples of the parameters a_h;
with the multiplicity m_j = #{h : tau_j / a_h integer} each value tau_j
carries Morse index 2 sum_h (ceil(tau_j/a_h) - 1), nullity 2 m_j - 1 and
Conley-Zehnder index morse + n.  Rational parameter vectors are handled on
Python ints over the common denominator D (a_h = P_h / D): invariants come
from the counting function N(X) = sum_h floor(X / P_h) by integer bisection
and a walk of the merged progressions k P_h; spectrum tables are enumerated
in int64 numpy, falling back to the same walk where int64 could overflow.
Float vectors are merged at a relative tolerance and flagged.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

TOL_SURFACE = 1e-12
TOL_MERGE = 1e-9  # relative, float mode
CF_MAX_DENOMINATOR = 10**6
CF_BIG_QUOTIENT = 10**8


def _to_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"exact mode needs int/Fraction/'p/q' strings, got {type(x).__name__}")


def rational_reconstruct(
    x: float,
    max_denominator: int = CF_MAX_DENOMINATOR,
    big_quotient: int = CF_BIG_QUOTIENT,
):
    """Continued-fraction rational reconstruction of a float.

    Returns a Fraction when the expansion hits a huge partial quotient (the
    float noise floor of a true rational) while the denominator is still
    below max_denominator, else None.  A float carrying an irrational value
    keeps moderate quotients until the denominator bound is passed.
    """
    if x <= 0 or not math.isfinite(x):
        return None
    f = Fraction(x).limit_denominator(10**15)
    p, q = f.numerator, f.denominator
    # expand p/q, watching for a giant quotient; (h_prev, h) and (k_prev, k)
    # carry (h_{k-2}, h_{k-1}) and (k_{k-2}, k_{k-1})
    h_prev, h = 0, 1
    k_prev, k = 1, 0
    a, b = p, q
    while b:
        quot, rem = divmod(a, b)
        if quot >= big_quotient and k >= 1:
            if k <= max_denominator and k > 0:
                return Fraction(h, k)
            return None
        h_prev, h = h, quot * h + h_prev
        k_prev, k = k, quot * k + k_prev
        if k > max_denominator:
            return None
        a, b = b, rem
    if k <= max_denominator:
        return Fraction(h, k)
    return None


@dataclass(frozen=True)
class Ellipsoid:
    """Parameter vector a = (a_1 <= ... <= a_n); exact when all entries rational."""

    a: tuple
    exact: bool

    def __post_init__(self):
        if not self.a:
            raise ValueError("at least one parameter required")
        vals = [float(x) for x in self.a]
        if any(not math.isfinite(v) or v <= 0 for v in vals):
            raise ValueError("parameters must be positive and finite")
        if any(vals[i] > vals[i + 1] for i in range(len(vals) - 1)):
            raise ValueError("parameters must be sorted ascending")

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def floats(self) -> np.ndarray:
        return np.array([float(x) for x in self.a])

    def scaled_integer_params(self) -> tuple[list[int], int]:
        """Return (P, D) with a_h = P_h / D over the common denominator D."""
        if not self.exact:
            raise ValueError("scaled integer parameters need exact mode")
        D = math.lcm(*[f.denominator for f in self.a])
        return [int(f * D) for f in self.a], D


def ellipsoid(values: Sequence) -> Ellipsoid:
    """Build an Ellipsoid; ints, Fractions and 'p/q' strings give exact mode."""
    try:
        fracs = tuple(sorted(_to_fraction(v) for v in values))
        return Ellipsoid(a=fracs, exact=True)
    except TypeError:
        floats = tuple(sorted(float(v) for v in values))
        return Ellipsoid(a=floats, exact=False)


@dataclass(frozen=True)
class SpectrumEntry:
    tau: object  # Fraction (exact) or float
    multiplicity: int
    morse_index: int
    nullity: int
    cz_index: int

    def __post_init__(self):
        if self.nullity != 2 * self.multiplicity - 1:
            raise ValueError("nullity must equal 2 m - 1")
        if self.morse_index < 0 or self.morse_index % 2:
            raise ValueError("Morse index must be even and non-negative")


def surface_residual(E: Ellipsoid, z: np.ndarray) -> float:
    z = np.asarray(z, dtype=float)
    a = E.floats
    s = sum(
        (z[2 * h] ** 2 + z[2 * h + 1] ** 2) / a[h] for h in range(E.n)
    )
    return abs(s - 1.0 / np.pi)


def reeb_flow(E: Ellipsoid, z: np.ndarray, t: float) -> np.ndarray:
    """phi_R^t(z): block rotation by 2 pi t / a_h in each coordinate plane."""
    z = np.asarray(z, dtype=float)
    if z.shape != (2 * E.n,):
        raise ValueError(f"point must have shape ({2*E.n},)")
    if surface_residual(E, z) > TOL_SURFACE:
        raise ValueError("point is off the ellipsoid surface beyond 1e-12")
    out = np.empty_like(z)
    for h, ah in enumerate(E.floats):
        turns = t / ah
        ang = 2.0 * np.pi * (turns - math.floor(turns))
        c, s = math.cos(ang), math.sin(ang)
        x, y = z[2 * h], z[2 * h + 1]
        out[2 * h] = c * x - s * y
        out[2 * h + 1] = s * x + c * y
    return out


def _scaled_spectrum(P: list[int], bound_scaled: int):
    """(values, multiplicities, morse indices) of the scaled integer spectrum.

    Exact int64 arithmetic; returns None when the scaled bound would risk
    overflow (callers fall back to `_walk`).
    """
    if bound_scaled > 2**62 or any(p > 2**32 for p in P):
        return None
    kmax = [bound_scaled // p for p in P]
    if not any(kmax):
        empty = np.array([], dtype=np.int64)
        return empty, empty, empty
    vals = np.unique(
        np.concatenate(
            [np.arange(1, k + 1, dtype=np.int64) * p for k, p in zip(kmax, P) if k]
        )
    )
    P_arr = np.array(P, dtype=np.int64)
    mult = (vals[:, None] % P_arr[None, :] == 0).sum(axis=1)
    # ceil(v / p) = (v + p - 1) // p on positive ints
    morse = 2 * ((vals[:, None] + P_arr[None, :] - 1) // P_arr[None, :] - 1).sum(axis=1)
    return vals, mult, morse


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


def _spectrum_exact(E: Ellipsoid, max_action: Fraction) -> list[SpectrumEntry]:
    P, D = E.scaled_integer_params()
    n = E.n
    bound = int(max_action * D)
    scaled = _scaled_spectrum(P, bound)
    rows = zip(*scaled) if scaled is not None else (
        itertools.takewhile(lambda r: r[0] <= bound, _walk(P, 1)))
    return [
        SpectrumEntry(
            tau=Fraction(int(v), D),
            multiplicity=int(m),
            morse_index=int(mo),
            nullity=2 * int(m) - 1,
            cz_index=int(mo) + n,
        )
        for v, m, mo in rows
    ]


def _spectrum_float(E: Ellipsoid, max_action: float):
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
            morse += 2 * ((k_near if abs(r - k_near) <= TOL_MERGE * max(r, 1.0) else math.ceil(r)) - 1)
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


def action_spectrum(E: Ellipsoid, max_action) -> list[SpectrumEntry]:
    """All distinct spectrum values k a_h <= max_action, with index data."""
    if float(max_action) <= 0:
        raise ValueError("max_action must be positive")
    if E.exact:
        return _spectrum_exact(E, _to_fraction(max_action) if not isinstance(max_action, float) else Fraction(max_action).limit_denominator(10**12))
    return _spectrum_float(E, float(max_action))


def spectral_invariants(E: Ellipsoid, count: int) -> list:
    """First `count` spectral invariants c_0, ..., c_{count-1}.

    c_{i} is the (i+1)-th element of the sequence tau_1 (x m_1), tau_2 (x m_2), ...
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if E.exact:
        return invariant_window(E, 0, count - 1)
    # N(a_1 count) >= count; the pad keeps k = count of plane 1 below the bound
    entries = action_spectrum(E, E.floats[0] * count * (1 + TOL_MERGE))
    out = []
    for e in entries:
        out.extend([e.tau] * e.multiplicity)
        if len(out) >= count:
            break
    return out[:count]


def invariant_window(E: Ellipsoid, lo: int, hi: int) -> list:
    """c_lo, ..., c_hi without materializing the prefix c_0, ..., c_{lo-1}.

    Exact mode bisects for c_lo = min{X : N(X) >= lo + 1}, always a spectrum
    value whose first slot is N(c_lo - 1), then walks up to c_hi: O(n (log(P_1
    lo) + hi - lo)) integer operations whatever the index.
    """
    if lo < 0 or hi < lo:
        raise ValueError("need 0 <= lo <= hi")
    if not E.exact:
        return spectral_invariants(E, hi + 1)[lo : hi + 1]
    P, D = E.scaled_integer_params()
    left, right = 0, P[0] * (lo + 1)  # N(left) < lo + 1 <= N(right)
    while right - left > 1:
        mid = (left + right) // 2
        if sum(mid // p for p in P) > lo:
            right = mid
        else:
            left = mid
    slot = sum((right - 1) // p for p in P)
    out = []
    for v, m, _ in _walk(P, right):
        out.extend([Fraction(v, D)] * (min(slot + m, hi + 1) - max(slot, lo)))
        slot += m
        if slot > hi:
            return out


@dataclass(frozen=True)
class Classification:
    kind: str  # "Besse" | "Zoll" | "NotBesse"
    tau0: object | None
    heuristic: bool
    certificate: dict = field(default_factory=dict)


def lcm_fractions(fracs: Sequence[Fraction]) -> Fraction:
    nums = [f.numerator for f in fracs]
    dens = [f.denominator for f in fracs]
    return Fraction(math.lcm(*nums), math.gcd(*dens))


def classify(E: Ellipsoid) -> Classification:
    """Besse iff all parameter ratios are rational; Zoll iff all equal.

    Exact mode is definitive (tau0 = lcm of the parameters).  Float mode
    reconstructs the ratios a_h/a_1 by continued fractions up to denominator
    1e6 and returns a flagged heuristic verdict either way.
    """
    if E.exact:
        if all(x == E.a[0] for x in E.a):
            return Classification(kind="Zoll", tau0=E.a[0], heuristic=False)
        return Classification(kind="Besse", tau0=lcm_fractions(E.a), heuristic=False)

    a = E.floats
    if np.all(a == a[0]):
        return Classification(kind="Zoll", tau0=float(a[0]), heuristic=True,
                              certificate={"note": "float equality of all parameters"})
    ratios = a / a[0]
    recon = []
    for h, r in enumerate(ratios):
        f = rational_reconstruct(float(r))
        if f is None:
            best = Fraction(float(r)).limit_denominator(CF_MAX_DENOMINATOR)
            return Classification(
                kind="NotBesse",
                tau0=None,
                heuristic=True,
                certificate={
                    "irrational_ratio_index": h,
                    "ratio": float(r),
                    "best_convergent": str(best),
                    "convergent_error": abs(float(r) - float(best)),
                    "denominator_bound": CF_MAX_DENOMINATOR,
                    "note": "no common period with denominator below the bound",
                },
            )
        recon.append(f)
    tau0 = float(a[0]) * float(lcm_fractions(recon))
    kind = "Zoll" if all(f == 1 for f in recon) else "Besse"
    return Classification(
        kind=kind,
        tau0=tau0,
        heuristic=True,
        certificate={
            "reconstructed_ratios": [str(f) for f in recon],
            "denominator_bound": CF_MAX_DENOMINATOR,
        },
    )


def besse_cz_index(E: Ellipsoid, tau) -> int:
    """mu = 2 (tau/a_1 + ... + tau/a_n) - n for a common period tau."""
    n = E.n
    if E.exact:
        tau = _to_fraction(tau)
        ratios = [tau / ah for ah in E.a]
        if any(r.denominator != 1 or r <= 0 for r in ratios):
            raise ValueError(f"tau = {tau} is not a common period of {E.a}")
        mu = 2 * sum(int(r) for r in ratios) - n
    else:
        tau = float(tau)
        ratios = [tau / ah for ah in E.floats]
        if any(abs(r - round(r)) > 1e-9 * max(r, 1.0) or r <= 0 for r in ratios):
            raise ValueError(f"tau = {tau} is not a common period within tolerance")
        mu = 2 * sum(round(r) for r in ratios) - n
    assert (mu - n) % 2 == 0 and (mu - n) // 2 >= 0
    return mu


@dataclass(frozen=True)
class InterleavingCheck:
    name: str
    lhs: object
    rhs: object
    passed: bool


@dataclass(frozen=True)
class InterleavingReport:
    i: int
    tau: object
    checks: tuple
    passed: bool


def verify_interleaving(E: Ellipsoid, tau) -> InterleavingReport:
    """Check c_{i-1} < tau = c_i = c_{i+n-1} < c_{i+n} at i = (mu - n)/2.

    The convention c_{-1} := 0 covers the minimal period of a Zoll sphere.
    """
    n = E.n
    mu = besse_cz_index(E, tau)
    i = (mu - n) // 2
    window = invariant_window(E, max(i - 1, 0), i + n)
    c = {}
    base = max(i - 1, 0)
    for k, v in enumerate(window):
        c[base + k] = v
    c_im1 = c[i - 1] if i - 1 >= 0 else (Fraction(0) if E.exact else 0.0)
    tau_cmp = _to_fraction(tau) if E.exact else float(tau)
    checks = (
        InterleavingCheck("c_{i-1} < tau", c_im1, tau_cmp, c_im1 < tau_cmp),
        InterleavingCheck("c_i == tau", c[i], tau_cmp, c[i] == tau_cmp),
        InterleavingCheck("c_i == c_{i+n-1}", c[i], c[i + n - 1], c[i] == c[i + n - 1]),
        InterleavingCheck("c_{i+n-1} < c_{i+n}", c[i + n - 1], c[i + n], c[i + n - 1] < c[i + n]),
    )
    return InterleavingReport(i=i, tau=tau_cmp, checks=checks, passed=all(ch.passed for ch in checks))
