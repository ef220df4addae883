"""Linear symplectic algebra shared by the whole toolkit.

Coordinates on R^{2n} are interleaved (x1, y1, ..., xn, yn); the standard
structure J is block-diagonal with 2x2 blocks [[0, -1], [1, 0]], and the
symplectic form is omega(u, v) = <J u, v> = sum dx_h ^ dy_h.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

TOL_SYM = 1e-10


def standard_J(n: int) -> np.ndarray:
    """Standard complex structure on R^{2n}; J^2 = -I, J^T J = I."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    J = np.zeros((2 * n, 2 * n))
    for h in range(n):
        J[2 * h, 2 * h + 1] = -1.0
        J[2 * h + 1, 2 * h] = 1.0
    return J


def apply_J(v: np.ndarray) -> np.ndarray:
    """J v without materializing the matrix; works on (..., 2n) arrays."""
    v = np.asarray(v)
    out = np.empty_like(v)
    out[..., 0::2] = -v[..., 1::2]
    out[..., 1::2] = v[..., 0::2]
    return out


def symplectic_defect(M: np.ndarray) -> float:
    """Max-norm of M^T J M - J; zero exactly for symplectic M."""
    M = np.asarray(M, dtype=float)
    J = standard_J(M.shape[0] // 2)
    return float(np.abs(M.T @ J @ M - J).max())


def is_symplectic(M: np.ndarray, tol: float = TOL_SYM) -> bool:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] % 2:
        return False
    return symplectic_defect(M) < tol and abs(np.linalg.det(M) - 1.0) < max(tol, 1e-9)


def assert_symplectic(M: np.ndarray, tol: float = TOL_SYM) -> None:
    if not is_symplectic(M, tol):
        raise ValueError(
            f"matrix is not symplectic at tol {tol}: defect {symplectic_defect(np.asarray(M, float)):.3e}"
        )


@dataclass(frozen=True)
class SymplecticPath:
    """Path Gamma: [0,1] -> Sp(2n) with Gamma(0) = I.

    The batch evaluator maps a (T,) array of times to a (T, 2n, 2n) stack;
    scalar evaluation goes through __call__.  `speed` is an upper bound on
    sup_t |Gamma'(t)|_2 over [0, 1]; the index count sizes its grid from it
    (`conley_zehnder._cells`), and the constructors below propagate it.  The
    count keeps what it decides on the path in _scan: the eigen-angles of
    the graph's Souriau map at the grid times, their unwrapped sum, the
    grid's cell bounds and the endpoint kernel, so the grid is evaluated and
    counted once per path.
    """

    dim: int
    eval_batch: Callable[[np.ndarray], np.ndarray]
    speed: float
    _scan: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim < 2 or self.dim % 2:
            raise ValueError(f"dim must be a positive even integer, got {self.dim}")
        if not (np.isfinite(self.speed) and self.speed >= 0):
            raise ValueError(f"speed must be finite and non-negative, got {self.speed}")
        start = self(0.0)
        if np.abs(start - np.eye(self.dim)).max() > 1e-9:
            raise ValueError("path does not start at the identity")

    def __call__(self, t: float) -> np.ndarray:
        return self.eval_batch(np.asarray([float(t)]))[0]

    def evaluate_batch(self, ts: np.ndarray) -> np.ndarray:
        return self.eval_batch(np.asarray(ts, dtype=float))

    def symplectic_defect(self, ts: Sequence[float]) -> float:
        """Worst defect of Gamma(t)^T J Gamma(t) - J over the samples."""
        mats = self.evaluate_batch(np.asarray(ts, dtype=float))
        J = standard_J(self.dim // 2)
        defect = np.einsum("tji,jk,tkl->til", mats, J, mats) - J
        return float(np.abs(defect).max())


def rotation_path(rates: Sequence[float]) -> SymplecticPath:
    """Block-diagonal rotation path Gamma(t) = diag_h exp(2 pi J rate_h t),
    of speed 2 pi max |rate_h| exactly.

    Angles are reduced mod one full turn before calling sin/cos, so an
    integer number of turns lands on the identity bitwise.
    """
    rates = tuple(float(r) for r in rates)
    if not rates:
        raise ValueError("at least one rotation rate required")
    if not all(np.isfinite(rates)):
        raise ValueError("rotation rates must be finite")
    n = len(rates)
    rates_arr = np.asarray(rates)

    def _eval(ts):
        turns = np.outer(ts, rates_arr)  # (T, n)
        frac = turns - np.floor(turns)
        ang = 2.0 * np.pi * frac
        c, s = np.cos(ang), np.sin(ang)
        out = np.zeros((len(ts), 2 * n, 2 * n))
        for h in range(n):
            out[:, 2 * h, 2 * h] = c[:, h]
            out[:, 2 * h, 2 * h + 1] = -s[:, h]
            out[:, 2 * h + 1, 2 * h] = s[:, h]
            out[:, 2 * h + 1, 2 * h + 1] = c[:, h]
        return out

    return SymplecticPath(dim=2 * n, eval_batch=_eval, speed=2.0 * np.pi * np.abs(rates_arr).max())


def block_compose(blocks: Sequence[SymplecticPath]) -> SymplecticPath:
    """Block-diagonal composition; dim is the sum of block dims, and the
    speed the largest of the blocks'."""
    blocks = list(blocks)
    if not blocks:
        raise ValueError("block_compose needs at least one path")
    if len(blocks) == 1:
        return blocks[0]
    dim = sum(b.dim for b in blocks)
    offsets = np.cumsum([0] + [b.dim for b in blocks])

    def _eval(ts):
        out = np.zeros((len(ts), dim, dim))
        for b, off in zip(blocks, offsets):
            out[:, off : off + b.dim, off : off + b.dim] = b.evaluate_batch(ts)
        return out

    return SymplecticPath(dim=dim, eval_batch=_eval, speed=max(b.speed for b in blocks))


def path_product(p: SymplecticPath, q: SymplecticPath) -> SymplecticPath:
    """Pointwise product t -> p(t) q(t); used for loop shifts and perturbations.

    (pq)' = p'q + pq', and |p(t)|_2 <= 1 + L_p since p(0) = I: the speed is
    L_p (1 + L_q) + (1 + L_p) L_q.
    """
    if p.dim != q.dim:
        raise ValueError("paths must share the same dimension")

    def _eval(ts):
        return np.matmul(p.evaluate_batch(ts), q.evaluate_batch(ts))

    speed = p.speed * (1.0 + q.speed) + (1.0 + p.speed) * q.speed
    return SymplecticPath(dim=p.dim, eval_batch=_eval, speed=speed)


def conjugate_path(path: SymplecticPath, P: np.ndarray) -> SymplecticPath:
    """Symplectic conjugation t -> P^{-1} Gamma(t) P, of speed cond_2(P) L."""
    P = np.asarray(P, dtype=float)
    assert_symplectic(P, tol=1e-8)
    Pinv = np.linalg.inv(P)

    def _eval(ts):
        return np.matmul(Pinv, np.matmul(path.evaluate_batch(ts), P))

    return SymplecticPath(dim=path.dim, eval_batch=_eval, speed=np.linalg.cond(P, 2) * path.speed)
