"""Exact engine for the ellipsoid E(a) = { sum |z_h|^2 / a_h = 1/pi }.

The action spectrum is the set of positive multiples of the parameters a_h;
with the multiplicity m_j = #{h : tau_j / a_h integer} each value tau_j
carries Morse index 2 sum_h (ceil(tau_j/a_h) - 1), nullity 2 m_j - 1 and
Conley-Zehnder index morse + n.  Rational parameter vectors are handled on
integers over the common denominator D (a_h = P_h / D), and their one engine
is the sorted array of multiples k P_h: a run of equal multiples is one
spectrum value, its length the multiplicity, and twice its start the Morse
index; an invariant window is a slice of it from c_lo, found by integer
bisection of the counting function N(X) = sum_h floor(X / P_h).  A spectrum
table is computed once, as columns (`SpectrumTable`: tau, multiplicity and
Morse index as arrays): exact tables hold tau as scaled integers over D, in
int64 numpy or, where int64 could overflow, in object arrays of Python ints;
float tables take the runs of the sorted float multiples by the same step,
a run ending where a multiple is not the same action as its first, and flag
runs of unequal values.  A table or window of more than
MAX_TABLE_MULTIPLES raw multiples is refused.  `action_spectrum` is the row
view of a table.

Two actions are the same by one rule, `same_action` (exact values when equal,
any other pair to TOL_MERGE relative), and strictly ordered by `lower_action`,
here and in `certify`; float `classify` keeps a period `besse_cz_index` accepts.
"""

from __future__ import annotations

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
# per 10^6 raw multiples, an exact table peaks at about 35 MB and a float one
# at about 72 MB, before any output text (E(1, 3/2, 23/10) up to 950000)
MAX_TABLE_MULTIPLES = 2 * 10**6


def _to_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"exact mode needs int/Fraction/'p/q' strings, got {type(x).__name__}")


def rational_reconstruct(x: float):
    """Continued-fraction rational reconstruction of a float.

    Returns a Fraction when the expansion hits a huge partial quotient
    (CF_BIG_QUOTIENT or more, the float noise floor of a true rational)
    while the denominator is still at most CF_MAX_DENOMINATOR, else None.
    A float carrying an irrational value keeps moderate quotients until the
    denominator bound is passed.
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
        if quot >= CF_BIG_QUOTIENT and k >= 1:
            if k <= CF_MAX_DENOMINATOR and k > 0:
                return Fraction(h, k)
            return None
        h_prev, h = h, quot * h + h_prev
        k_prev, k = k, quot * k + k_prev
        if k > CF_MAX_DENOMINATOR:
            return None
        a, b = b, rem
    if k <= CF_MAX_DENOMINATOR:
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
    return abs(np.sum((z[0::2] ** 2 + z[1::2] ** 2) / E.floats) - 1.0 / np.pi)


def reeb_flow(E: Ellipsoid, z: np.ndarray, t: float) -> np.ndarray:
    """phi_R^t(z): block rotation by 2 pi t / a_h in each coordinate plane."""
    z = np.asarray(z, dtype=float)
    if z.shape != (2 * E.n,):
        raise ValueError(f"point must have shape ({2*E.n},)")
    if surface_residual(E, z) > TOL_SURFACE:
        raise ValueError("point is off the ellipsoid surface beyond 1e-12")
    turns = t / E.floats
    ang = 2.0 * np.pi * (turns - np.floor(turns))
    c, s = np.cos(ang), np.sin(ang)
    x, y = z[0::2], z[1::2]
    out = np.empty_like(z)
    out[0::2] = c * x - s * y
    out[1::2] = s * x + c * y
    return out


def _scaled_multiples(P: list[int], start: int, stop: int) -> np.ndarray:
    """The multiples k P_h (k >= 1) in [start, stop], sorted, repeats kept.

    int64, or Python ints in an object array where int64 could overflow.
    """
    dtype = object if stop > 2**62 or any(p > 2**32 for p in P) else np.int64
    parts = [np.arange(-(-start // p), stop // p + 1, dtype=dtype) * p for p in P]
    return np.sort(np.concatenate(parts))


def _runs(vals: np.ndarray, first: np.ndarray):
    """(values, multiplicities, morse indices) of the sorted multiples `vals`
    cut into runs where `first` is set: a run is one value v, its length the
    multiplicity, and its Morse index 2 sum_h (ceil(v / a_h) - 1) twice the
    number of multiples below v, the position where the run starts."""
    starts = np.flatnonzero(first)
    return vals[starts], np.diff(starts, append=len(vals)), 2 * starts


def _scaled_spectrum(P: list[int], bound_scaled: int):
    """The runs of equal multiples k P_h <= bound_scaled (`_runs`)."""
    vals = _scaled_multiples(P, 1, bound_scaled)
    first = np.ones(len(vals), dtype=bool)
    np.not_equal(vals[1:], vals[:-1], out=first[1:])
    return _runs(vals, first)


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

    def entries(self) -> list[SpectrumEntry]:
        n = self.n
        return [
            SpectrumEntry(tau=t, multiplicity=m, morse_index=mo, nullity=2 * m - 1, cz_index=mo + n)
            for t, m, mo in zip(self.values(), self.multiplicity.tolist(), self.morse_index.tolist())
        ]


def same_action(x, y):
    """Whether two actions are the same: two exact values (Fraction or int)
    when equal; any other pair, arrays of floats included, when
    |x - y| <= TOL_MERGE min(|x|, |y|), relative and free of scale, as
    c_i(lambda Sigma) = lambda c_i(Sigma) is."""
    if isinstance(x, (Fraction, int)) and isinstance(y, (Fraction, int)):
        return x == y
    return abs(x - y) <= TOL_MERGE * np.minimum(abs(x), abs(y))


def lower_action(x, y) -> bool:
    """Whether the action x lies strictly below y: x < y and not the same action."""
    return x < y and not same_action(x, y)


def _table_float(E: Ellipsoid, max_action: float) -> SpectrumTable:
    """The runs (`_runs`) of the sorted float multiples k a_h, each run the
    multiples that are the same action (`same_action`) as its first, tau.

    Two multiples k a_h < k' a_h of one plane are never the same while
    k < 1 / TOL_MERGE, and MAX_TABLE_MULTIPLES keeps k below that: a run's
    length is the number of distinct planes in it.  A run of values that are
    not all equal makes the multiplicity tolerance-dependent, and is reported
    in one warning.
    """
    raw = np.sort(np.concatenate([np.arange(1, int(max_action / ah) + 1) * ah for ah in E.floats]))
    N = len(raw)
    # end[i]: one past the run anchored at i; raw is sorted, so the anchored
    # test holds on a prefix of raw[i + 1:] and end grows one step per round,
    # as many rounds as the longest run has values
    end = np.arange(1, N + 1)
    grow = np.arange(N)
    while grow.size:
        grow = grow[end[grow] < N]
        grow = grow[same_action(raw[grow], raw[end[grow]])]
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
    table = SpectrumTable(E.n, *_runs(raw, anchor[:N]))
    ambiguous = table.tau[raw[end[anchor[:N]] - 1] != table.tau]
    if ambiguous.size:
        warnings.warn(
            f"action values merged within tol but not exactly equal near {ambiguous[:3].tolist()}; "
            "multiplicities are tolerance-dependent"
        )
    return table


def _refuse_over_cap(multiples: int) -> None:
    if multiples > MAX_TABLE_MULTIPLES:
        raise ValueError(
            f"max_action asks for more than the {MAX_TABLE_MULTIPLES} multiples k a_h a table may hold"
        )


def spectrum_table(E: Ellipsoid, max_action) -> SpectrumTable:
    """All distinct spectrum values k a_h <= max_action, with index data, as columns.

    The raw multiples sum_h floor(max_action / a_h) are counted in exact
    arithmetic before anything is allocated, and a table of more than
    MAX_TABLE_MULTIPLES of them is refused with ValueError.
    """
    if isinstance(max_action, float):
        if not math.isfinite(max_action):
            raise ValueError("max_action must be positive and finite")
        bound = Fraction(max_action).limit_denominator(10**12) if E.exact else Fraction(max_action)
    else:
        bound = _to_fraction(max_action)
    if bound <= 0:
        raise ValueError("max_action must be positive and finite")
    _refuse_over_cap(sum(bound // Fraction(ah) for ah in E.a))
    if E.exact:
        P, D = E.scaled_integer_params()
        return SpectrumTable(E.n, *_scaled_spectrum(P, int(bound * D)), denominator=D)
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
    return invariant_window(E, 0, count - 1)


def invariant_window(E: Ellipsoid, lo: int, hi: int) -> list:
    """c_lo, ..., c_hi without materializing the prefix c_0, ..., c_{lo-1}.

    Exact mode bisects for c_lo = min{X : N(X) >= lo + 1}, always a spectrum
    value whose first slot is N(c_lo - 1), and slices the window out of the
    sorted multiples in [c_lo, c_lo + (hi - lo) P_1]: O(n log(P_1 lo)) integer
    operations and about n (hi - lo + 1) multiples whatever the index.  A
    window of more than MAX_TABLE_MULTIPLES multiples is refused with
    ValueError.  Float mode repeats the values of the float table up to
    a_1 (hi + 1) by their multiplicities.
    """
    if lo < 0 or hi < lo:
        raise ValueError("need 0 <= lo <= hi")
    if not E.exact:
        # N(a_1 (hi + 1)) >= hi + 1; the pad keeps k = hi + 1 of plane 1 below the bound
        table = spectrum_table(E, E.floats[0] * (hi + 1) * (1 + TOL_MERGE))
        return np.repeat(table.tau, table.multiplicity)[lo : hi + 1].tolist()
    P, D = E.scaled_integer_params()
    left, right = 0, P[0] * (lo + 1)  # N(left) < lo + 1 <= N(right)
    while right - left > 1:
        mid = (left + right) // 2
        if sum(mid // p for p in P) > lo:
            right = mid
        else:
            left = mid
    slot = sum((right - 1) // p for p in P)
    # c_lo's run holds slot lo; plane 1 alone adds the hi - lo multiples above it
    stop = right + (hi - lo) * P[0]
    _refuse_over_cap(sum(stop // p for p in P) - slot)
    window = _scaled_multiples(P, right, stop)[lo - slot : hi - slot + 1]
    return [Fraction(v, D) for v in window.tolist()]


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
    1e6 and returns a flagged heuristic verdict either way: Besse or Zoll only
    when `besse_cz_index` accepts the reconstructed tau0 = a_1 lcm(ratios) as
    a common period, else NotBesse with the candidate as `rejected_tau0`.
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
    certificate = {
        "reconstructed_ratios": [str(f) for f in recon],
        "denominator_bound": CF_MAX_DENOMINATOR,
    }
    try:
        besse_cz_index(E, tau0)
    except ValueError as exc:
        certificate["rejected_tau0"] = tau0
        certificate["note"] = str(exc)
        return Classification(kind="NotBesse", tau0=None, heuristic=True, certificate=certificate)
    kind = "Zoll" if all(f == 1 for f in recon) else "Besse"
    return Classification(kind=kind, tau0=tau0, heuristic=True, certificate=certificate)


def besse_cz_index(E: Ellipsoid, tau) -> int:
    """mu = 2 (tau/a_1 + ... + tau/a_n) - n for a common period tau: each
    k = round(tau / a_h) >= 1 and tau / a_h the same as k, which is tau the
    same action as k a_h since the rule is free of scale; for exact values it
    says that every tau / a_h is an integer.

    For floats the multiples k_h a_h must also make one run of the table,
    which holds the values that are the same action as its smallest: so
    min_h k_h a_h must be the same action as max_h k_h a_h.  Two multiples on
    either side of tau can each pass against tau and fail against each
    other.  The test is skipped, at no cost to exact values, when every
    ratio equals its integer.  A float k_h >= 1 / TOL_MERGE is refused: there
    k a_h and (k + 1) a_h are the same action, and no run is resolved.
    """
    tau = _to_fraction(tau) if E.exact else float(tau)
    ratios = [tau / ah for ah in E.a]
    ks = [round(r) for r in ratios]
    if not E.exact and max(ks) >= 1 / TOL_MERGE:
        raise ValueError(f"tau = {tau} needs the multiple k = {max(ks)}, past 1/TOL_MERGE = "
                         f"{1 / TOL_MERGE:g}, where k a_h and (k + 1) a_h are the same action")
    if not all(k >= 1 and same_action(r, k) for r, k in zip(ratios, ks)):
        raise ValueError(f"tau = {tau} is not a common period of {E.a}")
    if not E.exact and ratios != ks:
        multiples = [k * ah for k, ah in zip(ks, E.a)]
        if not same_action(min(multiples), max(multiples)):
            raise ValueError(f"tau = {tau} is not a common period of {E.a}: the multiples "
                             f"{min(multiples)} and {max(multiples)} are not the same action")
    return 2 * sum(ks) - E.n


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
    Equality is `same_action` and the strict order `lower_action`.
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
        InterleavingCheck("c_{i-1} < tau", c_im1, tau_cmp, lower_action(c_im1, tau_cmp)),
        InterleavingCheck("c_i == tau", c[i], tau_cmp, bool(same_action(c[i], tau_cmp))),
        InterleavingCheck("c_i == c_{i+n-1}", c[i], c[i + n - 1], bool(same_action(c[i], c[i + n - 1]))),
        InterleavingCheck("c_{i+n-1} < c_{i+n}", c[i + n - 1], c[i + n], lower_action(c[i + n - 1], c[i + n])),
    )
    return InterleavingReport(i=i, tau=tau_cmp, checks=checks, passed=all(ch.passed for ch in checks))
