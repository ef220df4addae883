"""Exact engine for the ellipsoid E(a) = { sum |z_h|^2 / a_h = 1/pi }.

The action spectrum is the set of positive multiples of the parameters a_h;
with the multiplicity m_j = #{h : tau_j / a_h integer} each value tau_j
carries Morse index 2 sum_h (ceil(tau_j/a_h) - 1), nullity 2 m_j - 1 and
Conley-Zehnder index morse + n.  Rational parameter vectors are handled on
Python ints over the common denominator D (a_h = P_h / D): invariants come
from the counting function N(X) = sum_h floor(X / P_h) by integer bisection
and a walk of the merged progressions k P_h.  A spectrum table is computed
once, as columns (`SpectrumTable`: tau, multiplicity and Morse index as
arrays): exact tables hold tau as scaled integers over D, enumerated in int64
numpy or, where int64 could overflow, by the same walk; float tables merge
the sorted multiples at a relative tolerance in array passes and flag
merges of unequal values.  `action_spectrum` is the row view of a table.
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
_INT64_MAX = int(np.iinfo(np.int64).max)


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


@dataclass(frozen=True, eq=False)
class SpectrumTable:
    """The distinct spectrum values tau <= max_action of one ellipsoid, as columns.

    Exact mode keeps tau as scaled integers over `denominator` (int64, or
    Python ints in an object array where int64 could overflow); float mode
    keeps float64 values and `denominator` is None.  The nullity 2 m - 1 and
    the Conley-Zehnder index morse + n are derived from the columns.
    """

    n: int
    tau: np.ndarray
    multiplicity: np.ndarray
    morse_index: np.ndarray
    denominator: int | None = None

    def __post_init__(self):
        # the checks of SpectrumEntry, on whole columns: 1 <= m <= n keeps the
        # nullity 2 m - 1 inside the 2n - 1 directions transverse to the flow
        if np.any((self.multiplicity < 1) | (self.multiplicity > self.n)):
            raise ValueError("multiplicity must lie in 1..n, nullity 2 m - 1 in 1..2n - 1")
        if np.any((self.morse_index < 0) | (self.morse_index % 2 != 0)):
            raise ValueError("Morse index must be even and non-negative")

    def __len__(self) -> int:
        return len(self.tau)

    @property
    def exact(self) -> bool:
        return self.denominator is not None

    @property
    def nullity(self) -> np.ndarray:
        return 2 * self.multiplicity - 1

    @property
    def cz_index(self) -> np.ndarray:
        return self.morse_index + self.n

    def values(self) -> list:
        """tau as Fractions (exact mode) or floats."""
        if self.exact:
            return [Fraction(v, self.denominator) for v in self.tau.tolist()]
        return self.tau.tolist()

    def tau_text(self) -> list[str]:
        """str(Fraction(tau, D)) of every exact value, reduced by one array gcd."""
        D = self.denominator
        v = self.tau if D <= _INT64_MAX else self.tau.astype(object)
        g = np.gcd(v, D)
        return [str(p) if q == 1 else f"{p}/{q}" for p, q in zip((v // g).tolist(), (D // g).tolist())]

    def entries(self) -> list[SpectrumEntry]:
        n = self.n
        return [
            SpectrumEntry(tau=t, multiplicity=m, morse_index=mo, nullity=2 * m - 1, cz_index=mo + n)
            for t, m, mo in zip(self.values(), self.multiplicity.tolist(), self.morse_index.tolist())
        ]


def _table_exact(E: Ellipsoid, max_action: Fraction) -> SpectrumTable:
    P, D = E.scaled_integer_params()
    bound = int(max_action * D)
    columns = _scaled_spectrum(P, bound)
    if columns is None:
        rows = list(itertools.takewhile(lambda r: r[0] <= bound, _walk(P, 1)))
        v, m, mo = zip(*rows) if rows else ((), (), ())
        columns = (np.array(v, dtype=object), np.array(m, dtype=np.int64), np.array(mo, dtype=np.int64))
    return SpectrumTable(E.n, *columns, denominator=D)


def _table_float(E: Ellipsoid, max_action: float) -> SpectrumTable:
    """Sorted multiples k a_h merged at TOL_MERGE relative to each cluster's anchor.

    A cluster starts at the smallest value not yet taken, tau, and takes every
    raw value with raw - tau <= TOL_MERGE max(tau, 1); its multiplicity is the
    number of distinct planes in it.  A plane whose ratio tau / a_h lies within
    TOL_MERGE of an integer k counts k - 1 earlier iterates, otherwise
    ceil(tau / a_h) - 1.  A cluster of values that are not all equal makes the
    multiplicity tolerance-dependent, and is reported in one warning.
    """
    a = E.floats
    counts = [int(max_action / ah) for ah in a]
    raw = np.concatenate([np.arange(1, c + 1) * ah for c, ah in zip(counts, a)])
    order = np.argsort(raw, kind="stable")
    raw, plane = raw[order], np.repeat(np.arange(E.n), counts)[order]
    N = len(raw)
    # end[i]: one past the cluster anchored at i; raw is sorted, so the
    # anchored test holds on a prefix of raw[i + 1:] and end grows one step
    # per round, as many rounds as the largest cluster has values
    tol = TOL_MERGE * np.maximum(raw, 1.0)
    end = np.arange(1, N + 1)
    grow = np.arange(N)
    while grow.size:
        grow = grow[end[grow] < N]
        grow = grow[raw[end[grow]] - raw[grow] <= tol[grow]]
        end[grow] += 1
    # the anchors are 0, end[0], end[end[0]], ...: pointer doubling marks the
    # first 2^(k+1) of them in round k
    anchor = np.zeros(N + 1, dtype=bool)
    anchor[0] = True
    jump = np.append(end, N)
    while True:
        anchor[jump[anchor]] = True
        if jump[0] == N:
            break
        jump = jump[jump]
    starts = np.flatnonzero(anchor[:N])
    tau = raw[starts]
    planes = np.zeros((len(starts), E.n), dtype=bool)
    planes[np.cumsum(anchor[:N]) - 1, plane] = True
    r = tau[:, None] / a
    k_near = np.rint(r)
    k = np.where(np.abs(r - k_near) <= TOL_MERGE * np.maximum(r, 1.0), k_near, np.ceil(r))
    table = SpectrumTable(E.n, tau, planes.sum(axis=1), 2 * (k.astype(np.int64) - 1).sum(axis=1))
    ambiguous = tau[raw[end[starts] - 1] != tau]
    if ambiguous.size:
        warnings.warn(
            f"action values merged within tol but not exactly equal near {ambiguous[:3].tolist()}; "
            "multiplicities are tolerance-dependent"
        )
    return table


def spectrum_table(E: Ellipsoid, max_action) -> SpectrumTable:
    """All distinct spectrum values k a_h <= max_action, with index data, as columns."""
    if float(max_action) <= 0:
        raise ValueError("max_action must be positive")
    if E.exact:
        return _table_exact(E, _to_fraction(max_action) if not isinstance(max_action, float) else Fraction(max_action).limit_denominator(10**12))
    return _table_float(E, float(max_action))


def action_spectrum(E: Ellipsoid, max_action) -> list[SpectrumEntry]:
    """All distinct spectrum values k a_h <= max_action, with index data: the
    rows of `spectrum_table` as SpectrumEntry objects."""
    return spectrum_table(E, max_action).entries()


def spectral_invariants(E: Ellipsoid, count: int) -> list:
    """First `count` spectral invariants c_0, ..., c_{count-1}.

    c_{i} is the (i+1)-th element of the sequence tau_1 (x m_1), tau_2 (x m_2), ...
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if E.exact:
        return invariant_window(E, 0, count - 1)
    # N(a_1 count) >= count; the pad keeps k = count of plane 1 below the bound
    table = spectrum_table(E, E.floats[0] * count * (1 + TOL_MERGE))
    return np.repeat(table.tau, table.multiplicity)[:count].tolist()


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
