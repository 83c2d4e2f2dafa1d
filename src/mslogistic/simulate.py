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
The returned panel keeps that buffer as its value matrix; no per-path object
exists until :attr:`PathPanel.paths` is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import Degenerate, InitialDistribution, ModelParams

__all__ = ["SamplePath", "PathPanel", "SimSpec", "simulate_panel", "sample_mean", "geometric_mean",
           "check_seed"]


MAX_FLOATS = np.iinfo(np.intp).max // 8  # float64 values one numpy array can address


def check_seed(seed, name: str = "seed"):
    """Return ``seed`` if it is an integer in [0, 2**64) (not a bool), else raise ValueError."""
    if isinstance(seed, (int, np.integer)) and not isinstance(seed, bool) and 0 <= seed < 2**64:
        return seed
    raise ValueError(f"{name}: expected an integer in [0, 2**64), got {seed!r}")


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

    The panel works out once whether all paths share one time grid.  If they
    do, it holds only the grid and a read-only ``(d, N)`` value matrix, which
    :meth:`common_grid` and :meth:`values_matrix` return without scanning or
    re-stacking, and :attr:`paths` is built on first read as read-only row
    views of the matrix.  :meth:`from_matrix` keeps the one copy of the matrix
    that it validated; a tuple of paths on one grid is copied and stacked once
    and not kept.  Paths on different grids (a ragged panel) are kept as
    given, with no grid and no matrix.

    The ``pointwise_*`` cross-sectional moments are computed on first use and
    kept as read-only arrays; on a ragged panel they raise like :meth:`values_matrix`.
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
            self._grid, self._values = first, _read_only(np.vstack([p.values for p in paths]))
        else:
            self._grid = self._values = None
            self.paths = paths

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
        panel._grid, panel._values = _read_only(times), _read_only(values)
        return panel

    @cached_property
    def paths(self) -> tuple[SamplePath, ...]:
        """The paths; on a common grid, read-only row views of the matrix, built on first read."""
        return tuple(SamplePath(self._grid, row) for row in self._values)

    @property
    def d(self) -> int:
        return len(self.paths) if self._values is None else self._values.shape[0]

    @property
    def t0(self) -> float:
        return float((self.paths[0].times if self._grid is None else self._grid)[0])

    def common_grid(self) -> np.ndarray | None:
        """The shared time grid, or None if paths are observed on different grids."""
        return self._grid

    def values_matrix(self) -> np.ndarray:
        """Values as a read-only ``(d, N)`` matrix; requires a common grid."""
        if self._values is None:
            raise ValueError("paths are not on a common grid")
        return self._values

    @cached_property
    def pointwise_mean(self) -> np.ndarray:
        """Read-only arithmetic mean across paths at each time; requires a common grid."""
        return _read_only(self.values_matrix().mean(axis=0))

    @cached_property
    def pointwise_geometric_mean(self) -> np.ndarray:
        """Read-only geometric mean across paths at each time; requires a common grid."""
        return _read_only(np.exp(np.log(self.values_matrix()).mean(axis=0)))

    @cached_property
    def pointwise_sd(self) -> np.ndarray:
        """Read-only ``ddof=1`` standard deviation across paths; requires a common grid."""
        return _read_only(self.values_matrix().std(axis=0, ddof=1))

    def first_values(self) -> np.ndarray:
        if self._values is not None:
            return self._values[:, 0].copy()
        return np.array([p.values[0] for p in self.paths])


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
        if not isinstance(self.d, (int, np.integer)) or isinstance(self.d, bool) or self.d < 1:
            raise ValueError(f"need at least one path: d must be an integer >= 1, got {self.d!r}")
        if self.d * grid.size > MAX_FLOATS:
            raise ValueError(f"{self.d} paths of {grid.size} points exceed numpy's largest array")
        check_seed(self.seed)
        object.__setattr__(self, "grid", grid)


def simulate_panel(spec: SimSpec) -> PathPanel:
    """Draw ``spec.d`` paths on ``spec.grid``; FloatingPointError if a value under/overflows."""
    from scipy.special import ndtri  # costly import, paid only by simulation

    grid, params = spec.grid, spec.params
    log_gap = np.logaddexp(np.log(params.eta), -params.poly.value(grid))
    step_mean = (log_gap[:-1] - log_gap[1:]) - 0.5 * params.sigma2 * np.diff(grid)
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


def sample_mean(panel: PathPanel) -> np.ndarray:
    """Pointwise arithmetic mean across paths, kept by the panel; requires a common grid."""
    return panel.pointwise_mean


def geometric_mean(panel: PathPanel) -> np.ndarray:
    """Pointwise geometric mean across paths, kept by the panel; requires a common grid."""
    return panel.pointwise_geometric_mean
