"""Conley-Zehnder index, Morse index and nullity from one eigen-angle count.

The graph of a path Gamma: [0,1] -> Sp(2n) with Gamma(0) = I is a path of
Lagrangians in (R^{4n}, (-omega) + omega).  Its Souriau map W(t) is unitary,
and M(t) = W(0)* W(t) has the eigenvalue 1 exactly dim ker(Gamma(t) - I)
times (Arnold, Funct. Anal. Appl. 1 (1967); Souriau, LNP 50 (1976)).  The
eigen-angles theta_j of M are read from the real symmetric Cayley chart

    S = J (Gamma - I)(Gamma + I)^{-1},   theta_j = -2 arctan(eig_j S),

one batched `solve` and `eigvalsh` over a grid.  A crossing is an angle
passing 0 mod 2 pi, and the index is a winding count of the angles, as
Chardard, Dias & Bridges compute Maslov indices (Physica D 238 (2009)); no
crossing is located.  With Theta the unwrapped sum of the angles on the
grid, Theta(0) = 0, the net number of crossings up to t_i is

    F(t_i) = (Theta(t_i) - sum_j (theta_j(t_i) mod 2 pi)) / 2 pi.

- `cz_index` = n + F(1), the angles of the endpoint kernel counted as 2 pi:
  the largest lower semicontinuous extension, normalized so that
  t -> exp(2 pi J t) in Sp(2) has index +1 (Robbin-Salamon, Topology 32
  (1993); Long, Index Theory for Symplectic Paths (2002)).
- `morse_index_from_path` = the sum of |F(t_{i+1}) - F(t_i)| over every
  cell after the first, with passages one direction at a time in the last
  cell and where opposite ones may cancel in F.
- `cz_nullity` = k, the number of angles of M(1) within TOL_KER of 0.

Each path is evaluated once on a grid, kept on the path (one `_Scan`).  The
unwrap is exact while the angles move less than pi in sum per cell.  In a
cell |dM| <= 2 sqrt(2) |dGamma|_2, as the complex frame Z of [I; Gamma] has
Z* Z = I + Gamma^T Gamma >= I, and matched eigenvalues of unitary matrices
move by at most |dM| (Bhatia-Davis, 1984): each angle moves at most
2 arcsin(sqrt(2) b) for b >= |dGamma|_2.  The path's `speed` L bounds
|Gamma'|_2, so N = ceil(sqrt(2) L / sin(pi / 4 dim)) equal cells hold the
sum over the dim angles to pi / 2, half the limit (`_cells`; at least
MIN_CELLS, and a path needing more than MAX_CELLS is refused with
ValueError before it is evaluated).  A declared speed is the path's own
claim, so every cell is still checked with b = sqrt(|dGamma^T dGamma|_1),
exact on rotation blocks (|dGamma|_2 itself where 2n times that reaches
pi).  A cell where it still does is cut; a path with a cell where the bound
says nothing (sqrt(2) b >= 1), or a cut cell where it still reaches pi, is
refused (UnresolvedCrossingError).  A speed understated so far that Gamma
returns to where it was over every cell cannot be seen on the grid.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .symplectic import SymplecticPath, apply_J, path_product, rotation_path, standard_J

TOL_KER = 1e-8
# a kernel is unstable when the next angle is within KERNEL_GAP times its
# largest and below KERNEL_MARGIN * TOL_KER (`_endpoint_split`)
KERNEL_GAP, KERNEL_MARGIN = 100.0, 10.0
CHART_CAP = 1e3  # of a Cayley chart's |eigenvalues| (`_charts`)
SINGULAR_FRACTION = 0.2  # of grid points, above which crossings are not isolated
# t = 0 and a singular endpoint together stay within SINGULAR_FRACTION of the grid
MIN_CELLS = math.ceil(2 / SINGULAR_FRACTION)
# of a grid, 38 MB per stack of its 6x6 matrices; a path needing more is refused
# before it is evaluated
MAX_CELLS = 2**17
TOL_EIG = 1e-8  # relative, to the real axis and to 1, for `parity`
TWO_PI = 2.0 * np.pi


class UnresolvedCrossingError(RuntimeError):
    """Crossing structure could not be resolved at the requested refinement."""


@dataclass
class _Scan:
    """What the count has decided on one path, each part once: by `_grid`,
    the grid times t_i, the eigen-angles of M(t_i), their unwrapped sum
    Theta(t_i) (winding), the `_cell_bounds` and the first t_i at which no
    angle may still be leaving 0; by `_endpoint_split`, (k, ends, stable)."""

    times: np.ndarray | None = None
    angles: np.ndarray | None = None
    winding: np.ndarray | None = None
    bounds: np.ndarray | None = None
    leaving: int = 0
    endpoint: tuple | None = None


def _scan(path: SymplecticPath) -> _Scan:
    if path._scan is None:
        object.__setattr__(path, "_scan", _Scan())  # a cache on the frozen path
    return path._scan


def _charts(mats: np.ndarray):
    """(S, lam, s) for each item of the first axis of a stack of symplectic
    matrices G: S^T, the Cayley chart of R G R with R = exp(s J) up to
    rounding (`eigvalsh` reads one triangle), its eigenvalues lam and the
    offset s; the angles of M are -2 arctan(lam) - 2 s.  A small angle comes
    out within about rounding times max |lam|, so each item takes the first
    of the 2n + 1 offsets k pi / (2n + 1) with max |lam| < CHART_CAP.  Their
    poles are evenly spaced, and one keeps every angle half their spacing
    off its pole: max |lam| <= cot(pi / (4n + 2)) < 4.4 for n <= 3.
    """
    d = mats.shape[-1]
    eye, J = np.eye(d), standard_J(d // 2)
    S = lam = None
    s, todo = np.zeros(len(mats)), np.arange(len(mats))
    for off in np.pi * np.arange(d + 1) / (d + 1):
        R = np.cos(off) * eye + np.sin(off) * J
        g = np.swapaxes(R @ mats[todo] @ R if off else mats, -1, -2)
        try:
            St = np.linalg.solve(g + eye, apply_J(g - eye))
        except np.linalg.LinAlgError:  # some G + I exactly singular
            continue
        ev = np.linalg.eigvalsh(St)  # ascending
        ok = np.maximum(-ev[..., 0], ev[..., -1]).reshape(len(todo), -1).max(axis=1) < CHART_CAP
        if S is None:  # the first chart that solves covers every item
            S, lam = St, ev
        else:
            S[todo[ok]], lam[todo[ok]] = St[ok], ev[ok]
        s[todo[ok]] = off
        todo = todo[~ok]
        if not len(todo):
            return S, lam, s
    raise UnresolvedCrossingError("no Cayley chart of Gr Gamma is well conditioned")


def _wrap(theta: np.ndarray) -> np.ndarray:
    return np.remainder(theta + np.pi, TWO_PI) - np.pi


def _angles(mats: np.ndarray) -> np.ndarray:
    """Eigen-angles in [-pi, pi) of the Souriau maps of a stack of matrices."""
    _, lam, s = _charts(mats)
    return _wrap(-2.0 * np.arctan(lam) - 2.0 * s[:, None])


def _cell_bounds(mats: np.ndarray) -> np.ndarray:
    """How far each angle may move on each cell of a grid of matrices."""
    d = mats[1:] - mats[:-1]
    # column sums of |d^T d|, which is symmetric, along its rows; |d|_2 where
    # that fails the unwrap's limit (2n bound >= pi)
    b = np.sqrt(np.abs(np.swapaxes(d, -1, -2) @ d).sum(axis=2).max(axis=1))
    wide = np.flatnonzero(np.sqrt(2.0) * b >= np.sin(np.pi / (2 * mats.shape[-1])))
    b[wide] = np.linalg.norm(d[wide], 2, axis=(1, 2))
    return 2.0 * np.arcsin(np.minimum(1.0, np.sqrt(2.0) * b))


def _cells(path: SymplecticPath) -> int:
    """Cells of the path's grid, sized from its speed as the module says."""
    cells = max(MIN_CELLS, math.ceil(np.sqrt(2.0) * path.speed / np.sin(np.pi / (4 * path.dim))))
    if cells > MAX_CELLS:
        raise ValueError(f"a path of speed {path.speed:.3g} needs a grid of {cells} cells, "
                         f"more than the {MAX_CELLS} a grid may hold")
    return cells


def _grid(path: SymplecticPath) -> _Scan:
    """The path's scan with its grid times, angles, winding and cell bounds,
    evaluated once, cells cut or the path refused as the module says.

    An angle within TOL_KER of 0 is a crossing on the grid point, as at the
    endpoint: it counts as 0, passed whichever side it comes from.  Every
    angle is 0 at t = 0, and until the first grid point with no angle that
    close, one may still be leaving t = 0; a negative one keeps its sign,
    so that it has left in the first cell, which holds no interior crossing.
    """
    g = _scan(path)
    if g.angles is None:
        ts = np.linspace(0.0, 1.0, _cells(path) + 1)
        mats = path.evaluate_batch(ts)
        bounds = _cell_bounds(mats)
        cells = np.flatnonzero(path.dim * bounds >= np.pi)
        if len(cells) and bounds[cells].max() < np.pi:  # pi: the step may be any size
            # ceil(4n bound / pi) cells: half the limit if the angles move linearly
            cuts = np.ceil(2.0 * path.dim * bounds[cells] / np.pi).astype(int)
            new = np.concatenate([np.linspace(ts[i], ts[i + 1], m + 1)[1:-1]
                                  for i, m in zip(cells, cuts)])
            ts, order = np.unique(np.concatenate([ts, new]), return_index=True)
            mats = np.concatenate([mats, path.evaluate_batch(new)])[order]
            bounds = _cell_bounds(mats)
        if path.dim * bounds.max() >= np.pi:
            raise UnresolvedCrossingError(
                f"path's eigen-angles may move {path.dim * bounds.max():.3g} >= pi per grid cell "
                f"on {len(ts) - 1} cells, cut where needed; its declared speed {path.speed:.3g} "
                "understates |Gamma'|")
        angles = _angles(mats)
        near = np.abs(angles) < TOL_KER
        clear = np.flatnonzero(~near.any(axis=1))
        g.leaving = clear[0] if len(clear) else len(ts)
        near[: g.leaving] &= angles[: g.leaving] >= 0
        g.times, g.angles, g.bounds = ts, np.where(near, 0.0, angles), bounds
        g.winding = np.unwrap(g.angles.sum(axis=1))
    return g


def _endpoint_split(path: SymplecticPath):
    """(k, angles of M(1), stable): the endpoint kernel, decided once per path
    from Gamma(1) alone; k counts the angles with |theta| < TOL_KER."""
    g = _scan(path)
    if g.endpoint is None:
        ends = _angles(path(1.0)[None])[0]
        a = np.sort(np.abs(ends))
        k = int(np.count_nonzero(a < TOL_KER))
        near = KERNEL_MARGIN * TOL_KER
        stable = not (0 < k < len(a) and a[k] < KERNEL_GAP * a[k - 1] and a[k] < near)
        g.endpoint = k, ends, stable
        if not k and a[0] < near:
            warnings.warn(
                f"ker(Gamma(1) - I) is empty, but its smallest eigen-angle {a[0]:.3g} "
                f"is within {KERNEL_MARGIN:g}x of the kernel tolerance; kernel dimension may "
                "not be converged"
            )
    return g.endpoint


def _cell_passages(path: SymplecticPath, g: _Scan, cells: np.ndarray, k: int) -> np.ndarray:
    """Passages through 0 inside each of the grid cells `cells` (ascending,
    the last one last), counted one direction at a time.

    The charts at both ends of a cell (one chart for both) split the
    directions whose angles lie within the cell's bound of 0 into those
    below 0 and those at or above it, angles near 0 read as on the grid.  A
    passage up is a principal angle between the directions below 0 at the
    start and those at or above 0 at the end with cosine nearer 1 than 0
    (squared above 1/2); a passage down likewise.  The k directions of
    angles nearest 0 at t = 1, the endpoint kernel, take no part.
    """
    ends, d = np.stack([cells, cells + 1], axis=1), path.dim
    S, _, s = _charts(path.evaluate_batch(g.times[ends].ravel()).reshape(len(cells), 2, d, d))
    lam, vec = np.linalg.eigh(S)
    th = _wrap(-2.0 * np.arctan(lam) - 2.0 * s[:, None, None])
    th[(np.abs(th) < TOL_KER) & ~((ends < g.leaving)[..., None] & (th < 0))] = 0.0
    keep = np.abs(th) < g.bounds[cells][:, None, None]
    keep[-1, 1, np.argsort(np.abs(th[-1, 1]))[:k]] = False
    below, above = keep & (th < 0), keep & (th >= 0)
    count = 0
    for x, y in ((below[:, 0], above[:, 1]), (above[:, 0], below[:, 1])):
        # masked columns leave the principal angles between the rest
        xy = np.swapaxes(vec[:, 0] * x[:, None, :], -1, -2) @ (vec[:, 1] * y[:, None, :])
        count = count + np.count_nonzero(np.linalg.svd(xy, compute_uv=False) ** 2 > 0.5, axis=-1)
    return count


def cz_index(path: SymplecticPath) -> int:
    """Conley-Zehnder index of an identity-based symplectic path;
    UnresolvedCrossingError when the grid cannot resolve the path, and
    ValueError when its speed needs more than MAX_CELLS cells."""
    winding = _grid(path).winding[-1]
    _, ends, _ = _endpoint_split(path)
    phi = np.where(np.abs(ends) < TOL_KER, TWO_PI, np.mod(ends, TWO_PI))  # F(1)
    return path.dim // 2 + int(np.rint((winding - phi.sum()) / TWO_PI))


def morse_index_from_path(path: SymplecticPath) -> int:
    """Number of interior crossings in (0, 1), each counted dim ker(Gamma(t) - I) times.

    Each cell after the first counts |F(t_{i+1}) - F(t_i)|.  Passages in both
    directions inside one cell cancel in F; they need angles within the
    cell's bound on both sides of 0 at both ends, and such a cell, like the
    last one, which ends on the endpoint kernel, counts `_cell_passages`.
    """
    g = _grid(path)
    singular = np.abs(g.angles).min(axis=1) < TOL_KER
    if np.count_nonzero(singular) > SINGULAR_FRACTION * len(singular):
        raise UnresolvedCrossingError("path is singular on a positive fraction of the grid; "
                                      "crossings are not isolated")

    def sides(a):
        near = np.abs(a) < g.bounds[:, None]
        return np.any(near & (a < 0), axis=1) & np.any(near & (a >= 0), axis=1)

    turns = np.rint((g.winding - np.mod(g.angles, TWO_PI).sum(axis=1)) / TWO_PI)  # F
    count = np.abs(np.diff(turns))
    count[0] = 0  # the first cell leaves t = 0, which is no interior crossing
    mixed = sides(g.angles[:-1]) & sides(g.angles[1:])
    mixed[0], mixed[-1] = False, True
    cells = np.flatnonzero(mixed)
    count[cells] = _cell_passages(path, g, cells, _endpoint_split(path)[0])
    return int(count.sum())


def grid_cells(path: SymplecticPath) -> int:
    """Number of grid cells the count scans on the path, cut cells included."""
    return len(_grid(path).times) - 1


def cz_nullity(path: SymplecticPath) -> int:
    """dim ker(Gamma(1) - I), the endpoint kernel `cz_index` counts at 2 pi;
    needs no grid, so a path the grid refuses still has a nullity.  An
    unstable kernel is counted at TOL_KER with a warning."""
    k, ends, stable = _endpoint_split(path)
    if not stable:
        warnings.warn(f"ker(Gamma(1) - I) is unstable at the kernel tolerance (eigen-angles "
                      f"{np.sort(np.abs(ends))}); counted {k}, kernel dimension may not be "
                      "converged")
    return k


def warn_unresolved_rates(rates) -> None:
    """Warn for each non-integer rotation rate r within the endpoint kernel's
    resolution of an integer m, 2 pi |r - m| < TOL_KER: the angle 2 pi r of
    `rotation_path(rates)` at t = 1 is then counted as 0, so r as m."""
    for r in rates:
        m = round(r)
        if r != m and TWO_PI * abs(r - m) < TOL_KER:
            warnings.warn(f"rate {r!r} lies within the endpoint kernel's resolution "
                          f"(2 pi |r - m| < {TOL_KER:g}) of {m} and is counted as {m}")


def _perturbed(path: SymplecticPath, eps: float) -> SymplecticPath:
    """The backward-rotated path R(-eps t) Gamma(t); for small eps > 0 its
    index is the lower semicontinuous index of Gamma.  `perfbench/tracing.py`
    hooks this name until the benchmark reads a recorder (ROADMAP item 4), so
    its name, call shape and return shape stay."""
    return path_product(rotation_path([-eps / (2.0 * np.pi)] * (path.dim // 2)), path)


def parity(M: np.ndarray) -> int:
    """Parity (mod 2) of the CZ index of any identity-based path ending at M.

    Each positive real hyperbolic pair (lambda > 1) flips the sign of
    det(M - I); elliptic pairs, negative hyperbolic pairs, complex quadruples
    and eigenvalue-1 blocks do not: parity = (n + #positive pairs) mod 2.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0] // 2
    eigs = np.linalg.eigvals(M)
    scale = max(1.0, np.abs(eigs).max())
    real = np.abs(eigs.imag) < TOL_EIG * scale
    near_one = np.abs(eigs - 1.0) < TOL_EIG * scale
    ambiguous = real & ~near_one & (np.abs(eigs - 1.0) < KERNEL_MARGIN * TOL_EIG * scale)
    if np.any(ambiguous):
        raise ValueError(f"eigenvalue classification ambiguous near 1 at tol {TOL_EIG}: "
                         f"{eigs[ambiguous]}")
    pos_hyperbolic = int(np.count_nonzero(real & (eigs.real > 1.0 + TOL_EIG * scale)))
    return (n + pos_hyperbolic) % 2
