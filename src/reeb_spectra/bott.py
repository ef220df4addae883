"""Index bookkeeping for geodesic flows on compact rank-one symmetric models.

For a Besse metric on a manifold modeled on S^n, CP^{n/2}, HP^{n/4} or
CaP^2 the iterated critical manifolds obey

    ind(K^m) = m i(M) + (m-1)(n-1),      nul(K^m) = 2n - 1,

and the distinguished classes sit in degrees deg alpha_m = m i(M) +
(m-1)(n-1), deg beta_m = deg alpha_m + 2(n-1).  RP^n is on the model list
but not simply connected, so its initial index is caller-supplied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

MODELS = ("S^n", "RP^n", "CP^{n/2}", "HP^{n/4}", "CaP^2")

_INITIAL_INDEX = {
    "S^n": lambda n: n - 1,
    "CP^{n/2}": lambda n: 1,
    "HP^{n/4}": lambda n: 3,
    "CaP^2": lambda n: 7,
}


@dataclass(frozen=True)
class CrossModel:
    """A compact rank-one symmetric space model with its initial index."""

    model: str
    n: int
    initial_index: int

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}")
        if self.n < 2:
            raise ValueError("dimension must be >= 2")
        if self.model == "CP^{n/2}" and self.n % 2:
            raise ValueError("CP model needs even dimension")
        if self.model == "HP^{n/4}" and self.n % 4:
            raise ValueError("HP model needs dimension divisible by 4")
        if self.model == "CaP^2" and self.n != 16:
            raise ValueError("CaP^2 has dimension 16")
        if self.initial_index < 0:
            raise ValueError("initial index must be non-negative")

    @property
    def simply_connected(self) -> bool:
        return self.model != "RP^n"

    @property
    def spin(self) -> bool | None:
        """Spin flag for simply connected models (None for RP^n).

        Every simply connected Besse manifold is spin except the CP model
        with even complex dimension n/2.
        """
        if not self.simply_connected:
            return None
        if self.model == "CP^{n/2}":
            return (self.n // 2) % 2 == 1
        return True


def cross_model(model: str, n: int, initial_index: int | None = None) -> CrossModel:
    """Build a CrossModel; i(M) is built in for the simply connected models."""
    if initial_index is None:
        if model == "RP^n":
            raise ValueError(
                "RP^n is not simply connected and has no built-in initial index; "
                "pass initial_index explicitly"
            )
        if model not in _INITIAL_INDEX:
            raise ValueError(f"model must be one of {MODELS}")
        initial_index = _INITIAL_INDEX[model](n)
    return CrossModel(model=model, n=n, initial_index=initial_index)


def bott_indices(model: CrossModel, m: int) -> tuple[int, int]:
    """(ind, nul) of the m-th iterate critical manifold."""
    if m < 1:
        raise ValueError("iterate m must be >= 1")
    ind = m * model.initial_index + (m - 1) * (model.n - 1)
    return ind, 2 * model.n - 1


def class_degrees(model: CrossModel, m: int) -> tuple[int, int]:
    """(deg alpha_m, deg beta_m); beta_m = alpha_m cup e^{n-1}."""
    deg_a = bott_indices(model, m)[0]
    return deg_a, deg_a + 2 * (model.n - 1)


def zoll_spectral_values(model: CrossModel, ell: float, m_max: int) -> list[tuple[float, float]]:
    """(c(alpha_m), c(beta_m)) = (m ell, m ell) for m = 1..m_max."""
    if not 0.0 < ell < math.inf:
        raise ValueError(f"minimal period ell must be positive and finite, got {ell}")
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    return [(m * ell, m * ell) for m in range(1, m_max + 1)]


def quadric_betti(n: int) -> list[int]:
    """Betti numbers of the geodesic quotient SM/S^1 of the round S^n.

    The space of oriented great circles is the complex quadric of complex
    dimension n-1: one generator in each even degree 0..2(n-1), plus a
    second one in the middle degree when n-1 is even.
    """
    if n < 2:
        raise ValueError("n >= 2 required")
    m = n - 1
    betti = [0] * (2 * m + 1)
    for k in range(0, 2 * m + 1, 2):
        betti[k] = 1
    if m % 2 == 0:
        betti[m] += 1
    return betti


def projective_space_betti(n: int) -> list[int]:
    """Betti numbers of CP^{n-1}: 1 in even degrees 0..2n-2 (Hopf quotient)."""
    if n < 1:
        raise ValueError("n >= 1 required")
    betti = [0] * (2 * n - 1)
    for k in range(0, 2 * n - 1, 2):
        betti[k] = 1
    return betti


def cohomology_rank(model: CrossModel, degree: int, quotient_betti: list[int]) -> int:
    """rank of the degree-d equivariant cohomology of the loop space pair.

    rank = sum over m >= 1 of betti(d - ind(K^m)), with ind(K^m) from
    `bott_indices`; negative shifted degrees contribute zero, and
    overlapping summands ADD.
    """
    if degree < 0:
        return 0
    total = 0
    m = 1
    while True:
        # the shift is strictly increasing in m (i(M) + n - 1 >= 1)
        shift = bott_indices(model, m)[0]
        if shift > degree:
            break
        d = degree - shift
        if d < len(quotient_betti):
            total += quotient_betti[d]
        m += 1
    return total
