"""Decision procedures for the Besse and Zoll properties.

besse_by_invariants scans a spectral-invariant list for an equality
c_i = c_{i+n-1}; each hit certifies a Besse flow with common period c_i and
Conley-Zehnder index mu = 2i + n, and a hit at i = 0 certifies Zoll.
zoll_by_pinching decides the Zoll property of a delta-pinched body from its
action spectrum on the window (sys, delta^2 sys).  besse_sufficient_eh runs
the same equality scan on exact capacity values under a discreteness
attestation and labels its verdict as a sufficient condition only.
Every comparison of two actions is `ellipsoid.same_action`, which compares
exact values (Fraction or int) exactly and any other pair to a relative
tolerance; the values carry their own exactness, and no caller declares it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .bodies import ConvexBody
from .ellipsoid import Ellipsoid, ellipsoid, same_action


@dataclass(frozen=True)
class BesseHit:
    i: int
    tau: object
    mu: int


def besse_by_invariants(c: list, n: int) -> list[BesseHit]:
    """All i with c_i = c_{i+n-1} (`same_action`); hits carry tau = c_i and
    mu = 2i + n.  The input must be non-decreasing and of length >= n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(c) < n:
        raise ValueError(f"need at least n = {n} invariants, got {len(c)}")
    if not all(a <= b or same_action(a, b) for a, b in zip(c, c[1:])):
        raise ValueError("invariant list must be non-decreasing")
    return [BesseHit(i=i, tau=c[i], mu=2 * i + n)
            for i in range(len(c) - n + 1) if same_action(c[i], c[i + n - 1])]


@dataclass(frozen=True)
class PinchingResult:
    status: str  # "certified-zoll" | "refusal" | "not-applicable"
    detail: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"status": self.status, **{k: _plain(v) for k, v in self.detail.items()}}


def _plain(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    return v


def pinching_delta_sq(delta=None, delta_sq=None):
    """delta^2 from delta_sq, or else from delta; a delta that is not positive
    and finite, or a delta_sq that is not finite, is refused with ValueError."""
    if delta is not None and not (math.isfinite(delta) and delta > 0):
        raise ValueError(f"delta must be positive and finite, got {delta}")
    if delta_sq is not None and not math.isfinite(delta_sq):
        raise ValueError(f"delta_sq must be finite, got {delta_sq}")
    if delta_sq is None:
        if delta is None:
            raise ValueError("supply delta or delta_sq")
        delta_sq = float(delta) ** 2
    return delta_sq


def zoll_by_pinching(
    body: Ellipsoid | ConvexBody,
    partial_spectrum: list,
    delta: float | None = None,
    delta_sq=None,
    coverage_attested: bool = False,
    invariants_c: list | None = None,
) -> PinchingResult:
    """Zoll certificate for a delta-pinched body from its action spectrum.

    Requires R/r < delta <= sqrt(2) (else "not-applicable") and a caller
    attestation that partial_spectrum covers (0, delta^2 sys].  The
    certificate holds iff no spectrum value lies in the OPEN interval
    (sys, delta^2 sys); boundary values do not block.  When an invariant
    list is supplied, the internal bound chain c_{n-1} <= pi R^2 <
    delta^2 pi r^2 <= delta^2 sys is checked and reported; a link x <= y also
    holds when x and y are the same action (`same_action`).

    An ellipsoid, an `Ellipsoid` or a quadric `ConvexBody`, pinches on its
    parameters, pi r^2 = a_1 and pi R^2 = a_n; any other body on its
    `pinching_radii`.  A rational delta^2 is compared exactly: on an exact
    ellipsoid the hypothesis and the bound chain are decided in Fractions,
    and a float area enters at its exact value.  A spectrum value that is
    not finite is refused with ValueError.
    """
    if not coverage_attested:
        raise ValueError(
            "zoll_by_pinching needs an explicit attestation that the supplied "
            "spectrum covers (0, delta^2 * sys]; coverage is never inferred"
        )
    if not partial_spectrum:
        raise ValueError("empty spectrum")
    bad = [v for v in partial_spectrum if not math.isfinite(v)]
    if bad:
        raise ValueError(f"spectrum values must be finite, got {bad[0]}")
    dsq = pinching_delta_sq(delta, delta_sq)  # Fraction stays exact, float stays float
    if float(dsq) <= 1.0 or float(dsq) > 2.0 + 1e-15:
        return PinchingResult(
            status="not-applicable",
            detail={"reason": f"delta^2 = {float(dsq):.6g} outside (1, 2]"},
        )

    if isinstance(body, ConvexBody) and body.kind == "quadric":
        body = ellipsoid(body.a.tolist())
    if isinstance(body, Ellipsoid):
        pi_r2, pi_R2 = body.a[0], body.a[-1]
        r, R = (math.sqrt(float(v) / math.pi) for v in (pi_r2, pi_R2))
    else:
        r, R = body.pinching_radii()
        pi_r2, pi_R2 = math.pi * r * r, math.pi * R * R
    # Fraction(x) is the exact value of a float x
    num = Fraction if isinstance(dsq, Fraction) else float
    if not num(pi_R2) < dsq * num(pi_r2):
        return PinchingResult(
            status="not-applicable",
            detail={
                "reason": "pinching hypothesis fails: R^2/r^2 >= delta^2",
                "R_over_r_sq": float(pi_R2) / float(pi_r2),
                "delta_sq": float(dsq),
            },
        )

    spectrum = sorted(partial_spectrum)
    sys_val = spectrum[0]
    upper = dsq * sys_val
    blockers = [v for v in spectrum if sys_val < v < upper]

    detail = {
        "sys": sys_val,
        "delta_sq": dsq,
        "interval": (sys_val, upper),
        "inradius": r,
        "circumradius": R,
    }
    if invariants_c is not None:
        n = body.n
        if len(invariants_c) < n:
            raise ValueError("invariant list shorter than n")
        c_nm1 = invariants_c[n - 1]
        # the middle link pi R^2 < delta^2 pi r^2 is the hypothesis above; a
        # Fraction times a float is the float product of their float values
        d_r2, d_sys = dsq * pi_r2, dsq * sys_val
        chain = ((c_nm1 <= pi_R2 or same_action(c_nm1, pi_R2))
                 and (d_r2 <= d_sys or same_action(d_r2, d_sys)))
        detail["bound_chain"] = {
            "c_{n-1}": c_nm1,
            "pi_R^2": pi_R2,
            "delta^2 pi_r^2": d_r2,
            "delta^2 sys": d_sys,
            "holds": bool(chain),
        }
    if blockers:
        detail["blocking_values"] = blockers[:8]
        return PinchingResult(status="refusal", detail=detail)
    detail["criterion"] = "pinched-zoll-spectral-gap"
    return PinchingResult(status="certified-zoll", detail=detail)


@dataclass(frozen=True)
class EhVerdict:
    hits: list
    label: str
    degenerate: bool = False


def besse_sufficient_eh(c: list, n: int, spectrum_discrete_attested: bool = False) -> EhVerdict:
    """Equality scan labeled as the capacity-based sufficient condition.

    The converse is an open question, so hits are never reported as a
    characterization.  n = 1 makes every index a trivial hit; the verdict
    is flagged degenerate in that case.
    """
    if not spectrum_discrete_attested:
        raise ValueError(
            "refusing the capacity-based verdict without the attestation "
            "that the action spectrum is discrete"
        )
    hits = besse_by_invariants(c, n)
    return EhVerdict(
        hits=hits,
        label="sufficient condition via capacities (no converse claimed)",
        degenerate=(n == 1),
    )
