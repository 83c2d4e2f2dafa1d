"""Exact simulation of the diffusion on discrete grids.

The conditional law of ``log(X(t_{j+1})/X(t_j))`` is normal with mean equal to
the integrated drift over the step and variance ``sigma2 * dt``, so paths are
generated exactly on any grid; there is no discretization scheme and no bias.

Reproducibility contract: each path is generated from its own counter-based
Philox stream keyed by ``(seed, path_index)`` with counter 0, and normals are
produced by the inverse CDF applied to the stream's uniforms.  A panel is
therefore bit-identical for a fixed seed regardless of how many paths are
drawn or in which order, and paths can be generated concurrently.

:func:`simulate_panel` resets one generator's key per path, draws each path's
uniforms into a row of one ``(d, N)`` buffer and transforms the buffer in place.
The returned panel keeps that buffer as its one block; no per-path object
exists until :attr:`PathPanel.paths` is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _special
from .model import Degenerate, InitialDistribution, ModelParams, integrated_drift

__all__ = ["SamplePath", "PathPanel", "SimSpec", "simulate_panel", "check_seed"]


MAX_FLOATS = np.iinfo(np.intp).max // 8  # float64 values one numpy array can address
# Draws up to which simulate_panel uses the numpy ndtri port.  Its tails call
# libm's log per element, so above this scipy's compiled ndtri wins even
# counting the 0.2-0.3 s its import costs.
NDTRI_PORT_MAX = 2**20
ROW_BLOCK = 2**14  # matrix entries per block of :func:`_column_sums` (128 KB per temporary)


def check_seed(seed, name: str = "seed"):
    """Return ``seed`` if it is an integer in [0, 2**64) (not a bool), else raise ValueError."""
    if isinstance(seed, (int, np.integer)) and not isinstance(seed, bool) and 0 <= seed < 2**64:
        return seed
    raise ValueError(f"{name}: expected an integer in [0, 2**64), got {seed!r}")


def _check_count(value, name: str):
    """Return ``value`` if it is an integer >= 1 (not a bool), else raise ValueError."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= 1:
        return value
    raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class SamplePath:
    """One discretely observed trajectory: finite increasing times, finite positive values.

    Both arrays are read-only float64.  An argument that the caller could still
    write through is copied; read-only views of read-only arrays (a panel's
    rows and grid) are kept as they are.  That is the contract's one limit: a
    caller who turns a kept array's ``writeable`` flag back on and writes to it
    changes the path, and any panel and prepared data built from it.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = _frozen(self.times)
        values = _frozen(self.values)
        _check(times, values[np.newaxis], "")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.times.size


class PathPanel:
    """A bundle of independent sample paths sharing their first observation time.

    The panel's one storage is :attr:`blocks`, a tuple of ``(times, values)``
    pairs: each ``values`` is a read-only C-ordered ``(k, N)`` matrix of k
    paths observed at the N read-only ``times``, and the blocks hold the paths
    in order.  Paths that share one grid form one block: :meth:`from_matrix`
    keeps the one copy of the matrix that it validated, and a tuple of paths
    on one grid is copied and stacked once.  Paths on different grids (a
    ragged panel) give one single-row block per path, as given; they are not
    regrouped by grid.  :meth:`common_grid` and :meth:`values_matrix` return
    the one block's arrays without scanning or re-stacking, and :attr:`paths`
    is built on first read as read-only row views of the blocks.

    The ``pointwise_*`` cross-sectional moments are computed on first use and
    kept as read-only arrays; on a ragged panel they raise like :meth:`values_matrix`.
    The geometric mean and the standard deviation reduce the matrix in row
    blocks (:func:`_column_sums`), so neither makes a matrix-sized temporary.
    A panel cannot change once built, so every panel, ragged or not, is
    prepared for the likelihood once: :func:`~mslogistic.likelihood.transform`
    keeps its result for as long as the panel lives.
    """

    def __init__(self, paths):
        paths = tuple(paths)
        if len(paths) < 1:
            raise ValueError("panel needs at least one path")
        t0 = paths[0].times[0]
        for i, p in enumerate(paths):
            if p.times[0] != t0:
                raise ValueError(f"path {i} starts at t={p.times[0]} but path 0 starts at t={t0}")
        first = paths[0].times
        if all(len(p) == len(first) and np.array_equal(p.times, first) for p in paths[1:]):
            self.blocks = ((first, _read_only(np.vstack([p.values for p in paths]))),)
        else:
            self.blocks = tuple((p.times, p.values[np.newaxis]) for p in paths)

    @classmethod
    def from_matrix(cls, times, values) -> "PathPanel":
        """Build a common-grid panel from times ``(N,)`` and values ``(d, N)``.

        Both arrays are copied once and the copies made read-only, so later
        changes to the arguments do not reach the panel.
        """
        return cls._from_owned(np.array(times, dtype=float),
                               np.array(np.atleast_2d(values), dtype=float, order="C"))

    @classmethod
    def _from_owned(cls, times: np.ndarray, values: np.ndarray) -> "PathPanel":
        """Validate and keep ``times`` and C-ordered ``values`` without copying."""
        _check(times, values, "path {}: ")
        panel = cls.__new__(cls)
        panel.blocks = ((_read_only(times), _read_only(values)),)
        return panel

    @cached_property
    def paths(self) -> tuple[SamplePath, ...]:
        """The paths as read-only row views of the blocks, built on first read."""
        return tuple(SamplePath(times, row) for times, values in self.blocks for row in values)

    @property
    def d(self) -> int:
        return sum(values.shape[0] for _, values in self.blocks)

    @property
    def t0(self) -> float:
        return float(self.blocks[0][0][0])

    def common_grid(self) -> np.ndarray | None:
        """The shared time grid, or None if paths are observed on different grids."""
        return self.blocks[0][0] if len(self.blocks) == 1 else None

    def values_matrix(self) -> np.ndarray:
        """Values as a read-only ``(d, N)`` matrix; requires a common grid."""
        if len(self.blocks) != 1:
            raise ValueError("paths are not on a common grid")
        return self.blocks[0][1]

    @cached_property
    def pointwise_mean(self) -> np.ndarray:
        """Read-only arithmetic mean across paths at each time; requires a common grid."""
        return _read_only(self.values_matrix().mean(axis=0))

    @cached_property
    def pointwise_geometric_mean(self) -> np.ndarray:
        """Read-only geometric mean across paths at each time; requires a common grid."""
        [log_sum] = _column_sums(self.values_matrix(), lambda rows: (np.log(rows),))
        return _read_only(np.exp(log_sum / self.d))

    @cached_property
    def pointwise_sd(self) -> np.ndarray:
        """Read-only ``ddof=1`` standard deviation across paths (NaN if d = 1); common grid only."""
        mean = self.pointwise_mean  # the steps of numpy's std(axis=0, ddof=1), blocked
        [ss] = _column_sums(self.values_matrix(), lambda rows: (np.square(rows - mean),))
        with np.errstate(invalid="ignore"):  # 0/0 when d = 1
            return _read_only(np.sqrt(ss / (self.d - 1)))

    def first_values(self) -> np.ndarray:
        return np.concatenate([values[:, 0] for _, values in self.blocks])


def _column_sums(values: np.ndarray, fn) -> list[np.ndarray]:
    """Column sums of each array in the tuple ``fn`` maps a block of rows of ``values`` to.

    Blocks of the C-ordered ``(d, N)`` ``values`` hold about :data:`ROW_BLOCK`
    entries, and each is summed with the running sums as its row 0.  numpy sums
    a C-ordered matrix over axis 0 row by row, so the sums equal the whole-matrix
    ``fn(values)[k].sum(axis=0)`` bit for bit.  numpy sums one column pairwise,
    so with N <= 2 (``fn`` may give one column) the matrix is one block.
    """
    d, n = values.shape
    rows = max(1, ROW_BLOCK // n) if n > 2 else d
    sums = [part.sum(axis=0) for part in fn(values[:rows])]
    for start in range(rows, d, rows):
        parts = fn(values[start:start + rows])
        sums = [np.vstack((s, part)).sum(axis=0) for s, part in zip(sums, parts)]
    return sums


def _check(times: np.ndarray, values: np.ndarray, where: str) -> None:
    """Require finite positive ``(d, N)`` ``values``, ``d, N >= 1``, at finite increasing ``times``.

    Messages about row ``i`` start with ``where.format(i)``.  ``values`` is only
    reduced by ``min`` and ``max`` until a check fails.
    """
    if times.ndim != 1 or values.ndim != 2 or values.shape[1] != times.size:
        raise ValueError(where.format(0) + "times and values must be 1-d arrays of equal length")
    if values.shape[0] < 1:
        raise ValueError("panel needs at least one path")
    if times.size < 1:
        raise ValueError(where.format(0) + "a path needs at least one observation")
    if problem := _times_problem(times):
        raise ValueError(where.format(0) + "observation times " + problem)
    if not values.min() > 0:  # NaN fails here too
        i, j = divmod(int(np.argmin(values > 0)), times.size)
        raise ValueError(where.format(i) + f"nonpositive value {values[i, j]} at index {j}")
    if values.max() == np.inf:
        i, j = divmod(int(np.argmax(values)), times.size)
        raise ValueError(where.format(i) + f"infinite value {values[i, j]} at index {j}")


def _times_problem(t: np.ndarray) -> str | None:
    """What keeps the nonempty ``t`` from being finite and strictly increasing, or None."""
    if not ((np.diff(t) > 0).all() and np.isfinite(t[[0, -1]]).all()):
        return "must be strictly increasing" if (np.diff(t) <= 0).any() else "must be finite"


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _frozen(x) -> np.ndarray:
    """``x`` as a read-only float64 array that the caller cannot write through.

    ``x`` is kept if it and every array it views are read-only, else copied.
    """
    a = np.asarray(x, dtype=float)
    base = a
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        if base.base is None:
            return a
        base = base.base
    return _read_only(a.copy())


@dataclass(frozen=True)
class SimSpec:
    """Everything needed to draw a reproducible panel; ``grid`` is read-only like path times."""

    params: ModelParams
    init: InitialDistribution
    grid: np.ndarray
    d: int
    seed: int

    def __post_init__(self):
        grid = _frozen(self.grid)
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("grid must be a 1-d array with at least two times")
        if problem := _times_problem(grid):
            raise ValueError(f"grid times {problem}")
        _check_count(self.d, "need at least one path: d")
        if self.d * grid.size > MAX_FLOATS:
            raise ValueError(f"{self.d} paths of {grid.size} points exceed numpy's largest array")
        check_seed(self.seed)
        object.__setattr__(self, "grid", grid)


def simulate_panel(spec: SimSpec) -> PathPanel:
    """Draw ``spec.d`` paths on ``spec.grid``; FloatingPointError if a value under/overflows."""
    grid, params = spec.grid, spec.params
    step_mean = integrated_drift(params, grid[:-1], grid[1:])
    step_sd = params.sigma * np.sqrt(np.diff(grid))

    # Row i holds path i's uniforms: the lognormal start draws one more, into
    # column 0.  One generator serves every path; resetting its key and
    # counter gives the draws of a fresh Philox(key=(seed, i)).
    degenerate = isinstance(spec.init, Degenerate)
    rows = np.empty((spec.d, grid.size))
    z = rows[:, 1:] if degenerate else rows
    bitgen = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    gen = np.random.Generator(bitgen)
    fresh = bitgen.state
    for i in range(spec.d):
        fresh["state"]["key"] = np.array([spec.seed, i], dtype=np.uint64)
        bitgen.state = fresh
        gen.random(out=z[i])
    # draws are multiples of 2**-53, so this lifts only exact zeros (ndtri(0) = -inf)
    np.maximum(z, 0.5 / 2**53, out=z)
    ndtri = _special.ndtri
    if z.size > NDTRI_PORT_MAX:
        from scipy.special import ndtri  # same doubles; costly import, paid only here
    ndtri(z, out=z)

    incr = rows[:, 1:]
    incr *= step_sd
    incr += step_mean
    np.cumsum(incr, axis=1, out=incr)
    log_x0 = rows[:, :1]
    if degenerate:
        log_x0[:] = np.log(spec.init.x0)
    else:
        log_x0 *= np.sqrt(spec.init.sigma1sq)
        log_x0 += spec.init.mu1
    incr += log_x0
    try:  # overflow raises here; a value that underflows to 0 fails the panel's check
        with np.errstate(over="raise"):
            np.exp(rows, out=rows)
        return PathPanel._from_owned(grid, rows)
    except (FloatingPointError, ValueError):
        raise FloatingPointError("simulated values leave the floating-point range; "
                                 "check sigma2, the initial law and the grid") from None
