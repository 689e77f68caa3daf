"""Piece-wise linear approximation (Eq. 1 of the paper).

An ``N``-entry pwl is defined by ``N - 1`` breakpoints ``p_0 < ... < p_{N-2}``
and per-segment slopes/intercepts ``k_i, b_i``:

    pwl(x) = k_0 x + b_0          if x <  p_0
           = k_i x + b_i          if p_{i-1} <= x < p_i
           = k_{N-1} x + b_{N-1}  if x >= p_{N-2}

:func:`fit_pwl` derives the slopes and intercepts for a given breakpoint set
by interpolating (or least-squares fitting) the target function on each
segment over the search range, which is exactly how GQA-LUT turns a
breakpoint individual into a candidate approximation.

:func:`fit_pwl_batch` fits a whole ``(P, N - 1)`` population matrix in one
shot and returns a :class:`PiecewiseLinearBatch`.  Both entry points share
the same vectorized cleaning and segment-fit helpers, so row ``i`` of a
batch fit is bit-identical to the scalar fit of row ``i`` — the property the
genetic search relies on to make its batched and per-individual scoring
paths interchangeable (see DESIGN.md).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Sequence, Tuple

import numpy as np

from repro.quant.fxp import fxp_round


@dataclasses.dataclass(frozen=True)
class PiecewiseLinear:
    """An immutable piece-wise linear function.

    Attributes
    ----------
    breakpoints:
        Sorted array of ``N - 1`` segment boundaries.
    slopes, intercepts:
        Arrays of length ``N`` holding ``k_i`` and ``b_i``.
    """

    breakpoints: np.ndarray
    slopes: np.ndarray
    intercepts: np.ndarray

    def __post_init__(self) -> None:
        bp = np.asarray(self.breakpoints, dtype=np.float64).ravel()
        k = np.asarray(self.slopes, dtype=np.float64).ravel()
        b = np.asarray(self.intercepts, dtype=np.float64).ravel()
        if k.shape != b.shape:
            raise ValueError("slopes and intercepts must have the same length")
        if bp.size != k.size - 1:
            raise ValueError(
                "an N-entry pwl needs N-1 breakpoints (got %d breakpoints for %d entries)"
                % (bp.size, k.size)
            )
        if bp.size and np.any(np.diff(bp) < 0):
            raise ValueError("breakpoints must be sorted in ascending order")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "slopes", k)
        object.__setattr__(self, "intercepts", b)

    @property
    def num_entries(self) -> int:
        """Number of LUT entries (segments)."""
        return int(self.slopes.size)

    def segment_index(self, x) -> np.ndarray:
        """Return the segment index selected for each element of ``x``.

        Matches the comparer in Figure 1: index ``i`` is the count of
        breakpoints less than or equal to ``x``.
        """
        arr = np.asarray(x, dtype=np.float64)
        return self.breakpoints.searchsorted(arr, side="right")

    def __call__(self, x) -> np.ndarray:
        """Evaluate the pwl at ``x`` (element-wise)."""
        arr = np.asarray(x, dtype=np.float64)
        idx = self.segment_index(arr)
        return self.slopes[idx] * arr + self.intercepts[idx]

    def to_fixed_point(self, frac_bits: int) -> "PiecewiseLinear":
        """Round slopes and intercepts to FXP with ``frac_bits`` decimal bits.

        This is the final step of Algorithm 1 (``lambda`` rounding); the
        breakpoints are left untouched — their quantization depends on the
        runtime scaling factor and is handled by :class:`QuantizedLUT`.
        """
        return PiecewiseLinear(
            breakpoints=self.breakpoints.copy(),
            slopes=fxp_round(self.slopes, frac_bits),
            intercepts=fxp_round(self.intercepts, frac_bits),
        )


def uniform_breakpoints(lo: float, hi: float, num_entries: int) -> np.ndarray:
    """Evenly spaced interior breakpoints for an ``num_entries``-entry pwl."""
    if num_entries < 2:
        raise ValueError("a pwl needs at least 2 entries, got %d" % num_entries)
    if not lo < hi:
        raise ValueError("invalid range [%r, %r]" % (lo, hi))
    return np.linspace(lo, hi, num_entries + 1)[1:-1]


def _clean_breakpoints(breakpoints: np.ndarray, lo: float, hi: float, min_gap: float) -> np.ndarray:
    """Sort, clip to the search range, and enforce a minimal spacing.

    Operates along the last axis, so a ``(P, M)`` population matrix is
    cleaned in one shot.  The spacing recurrence ``c_i = max(b_i, c_{i-1} +
    g)`` is computed as a running maximum of the gap-shifted values
    ``b_i - i g`` (``c_i = i g + max_{j <= i}(b_j - j g)``); breakpoints that
    already satisfy the spacing pass through bitwise untouched.
    """
    bp = np.clip(np.asarray(breakpoints, dtype=np.float64), lo, hi)
    bp.sort(axis=-1)
    if bp.shape[-1] == 0:
        return bp
    offset = min_gap * np.arange(bp.shape[-1], dtype=np.float64)
    shifted = bp - offset
    chain = np.maximum.accumulate(shifted, axis=-1)
    cleaned = np.where(shifted >= chain, bp, chain + offset)
    return np.minimum(cleaned, hi)


def _fit_segments(
    fn: Callable[[np.ndarray], np.ndarray],
    edges: np.ndarray,
    min_gap: float,
    method: str,
    samples_per_segment: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-segment slopes/intercepts for an ``(..., N + 1)`` edge array.

    Shared by the scalar and batch fit paths: every operation is
    element-wise over the leading axes, so fitting a stacked population
    produces the same bits per row as fitting each row on its own.
    """
    if method == "interpolate":
        values = np.asarray(fn(edges), dtype=np.float64)
        x0, x1 = edges[..., :-1], edges[..., 1:]
        y0, y1 = values[..., :-1], values[..., 1:]
        width = np.maximum(x1 - x0, min_gap)
        slopes = (y1 - y0) / width
        intercepts = y0 - slopes * x0
    elif method == "lstsq":
        x0, x1 = edges[..., :-1], edges[..., 1:]
        x1 = np.where(x1 - x0 < min_gap, x0 + min_gap, x1)
        xs = np.linspace(x0, x1, samples_per_segment, axis=-1)
        ys = np.asarray(fn(xs), dtype=np.float64)
        x_mean = xs.mean(axis=-1, keepdims=True)
        y_mean = ys.mean(axis=-1, keepdims=True)
        x_centered = xs - x_mean
        slopes = (x_centered * (ys - y_mean)).sum(axis=-1) / (x_centered * x_centered).sum(axis=-1)
        intercepts = y_mean[..., 0] - slopes * x_mean[..., 0]
    else:
        raise ValueError("unknown fit method %r (expected 'interpolate' or 'lstsq')" % method)
    return slopes, intercepts


def fit_pwl(
    fn: Callable[[np.ndarray], np.ndarray],
    breakpoints: Sequence[float],
    search_range: Tuple[float, float],
    method: str = "interpolate",
    samples_per_segment: int = 64,
) -> PiecewiseLinear:
    """Derive slopes/intercepts for ``breakpoints`` approximating ``fn``.

    Parameters
    ----------
    fn:
        The target non-linear function.
    breakpoints:
        The ``N - 1`` candidate breakpoints (an individual of the GA
        population).  They are sorted and lightly de-duplicated before use.
    search_range:
        The ``[R_n, R_p]`` interval; the two outermost segments are fitted on
        ``[R_n, p_0]`` and ``[p_{N-2}, R_p]``.
    method:
        ``"interpolate"`` joins the function values at segment endpoints
        (continuous pwl, the construction shown in Fig. 2b);
        ``"lstsq"`` performs an independent least-squares line fit per
        segment (lower MSE but possibly discontinuous).
    samples_per_segment:
        Sample count per segment for the least-squares method.
    """
    lo, hi = float(search_range[0]), float(search_range[1])
    if not lo < hi:
        raise ValueError("invalid search range [%r, %r]" % (lo, hi))
    min_gap = (hi - lo) * 1e-6
    bp = _clean_breakpoints(np.asarray(breakpoints, dtype=np.float64).ravel(), lo, hi, min_gap)
    edges = np.concatenate(([lo], bp, [hi]))
    slopes, intercepts = _fit_segments(fn, edges, min_gap, method, samples_per_segment)
    return PiecewiseLinear(breakpoints=bp, slopes=slopes, intercepts=intercepts)


@dataclasses.dataclass(frozen=True)
class PiecewiseLinearBatch:
    """A population of ``P`` pwl functions stored as dense matrices.

    Attributes
    ----------
    breakpoints:
        ``(P, N - 1)`` matrix, each row sorted ascending.
    slopes, intercepts:
        ``(P, N)`` matrices of per-segment coefficients.

    Evaluating the batch on a grid of ``G`` points is a single ``(P, G)``
    array operation; row ``i`` is bit-identical to ``self.row(i)(x)``.
    """

    breakpoints: np.ndarray
    slopes: np.ndarray
    intercepts: np.ndarray

    def __post_init__(self) -> None:
        bp = np.asarray(self.breakpoints, dtype=np.float64)
        k = np.asarray(self.slopes, dtype=np.float64)
        b = np.asarray(self.intercepts, dtype=np.float64)
        if bp.ndim != 2 or k.ndim != 2 or b.ndim != 2:
            raise ValueError("batch pwl parameters must be 2-D (population, entries)")
        if k.shape != b.shape:
            raise ValueError("slopes and intercepts must have the same shape")
        if bp.shape[0] != k.shape[0] or bp.shape[1] != k.shape[1] - 1:
            raise ValueError(
                "an N-entry pwl batch needs (P, N-1) breakpoints (got %r for %r slopes)"
                % (bp.shape, k.shape)
            )
        if bp.shape[1] and np.any(np.diff(bp, axis=1) < 0):
            raise ValueError("each breakpoint row must be sorted in ascending order")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "slopes", k)
        object.__setattr__(self, "intercepts", b)

    @classmethod
    def _trusted(
        cls, breakpoints: np.ndarray, slopes: np.ndarray, intercepts: np.ndarray
    ) -> "PiecewiseLinearBatch":
        """Wrap float64 matrices this module built, skipping re-validation.

        Only for arrays that already satisfy the class invariants (2-D,
        matching shapes, rows sorted), such as the output of
        :func:`fit_pwl_batch`; everything else goes through the constructor.
        """
        batch = object.__new__(cls)
        object.__setattr__(batch, "breakpoints", breakpoints)
        object.__setattr__(batch, "slopes", slopes)
        object.__setattr__(batch, "intercepts", intercepts)
        return batch

    @property
    def population_size(self) -> int:
        return int(self.slopes.shape[0])

    @property
    def num_entries(self) -> int:
        return int(self.slopes.shape[1])

    def row(self, i: int) -> PiecewiseLinear:
        """The ``i``-th individual as a scalar :class:`PiecewiseLinear`."""
        return PiecewiseLinear(
            breakpoints=self.breakpoints[i].copy(),
            slopes=self.slopes[i].copy(),
            intercepts=self.intercepts[i].copy(),
        )

    @classmethod
    def from_rows(cls, pwls: Sequence[PiecewiseLinear]) -> "PiecewiseLinearBatch":
        """Stack scalar pwls (all with the same entry count) into a batch."""
        if not pwls:
            raise ValueError("need at least one pwl to build a batch")
        return cls(
            breakpoints=np.stack([p.breakpoints for p in pwls]),
            slopes=np.stack([p.slopes for p in pwls]),
            intercepts=np.stack([p.intercepts for p in pwls]),
        )

    def _broadcast_input(self, x) -> np.ndarray:
        arr = np.asarray(x, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        if arr.ndim == 1:
            return arr[None, :]
        if arr.ndim == 2 and arr.shape[0] in (1, self.population_size):
            return arr
        raise ValueError(
            "batch input must be a shared 1-D grid or a (P, G) matrix, got shape %r"
            % (arr.shape,)
        )

    def segment_index(self, x) -> np.ndarray:
        """Comparer output per individual: a ``(P, G)`` integer matrix.

        ``x`` is either a shared 1-D grid or a per-individual ``(P, G)``
        matrix.  Matches ``searchsorted(side="right")`` row by row.
        """
        arr = self._broadcast_input(x)
        return (self.breakpoints[:, :, None] <= arr[:, None, :]).sum(axis=1)

    def __call__(self, x) -> np.ndarray:
        """Evaluate all ``P`` pwls; returns a ``(P, G)`` matrix.

        A shared ascending grid (the GA fitness case) takes the
        :meth:`on_sorted_grid` fast path; the outputs are bit-identical to
        the scalar pwl either way.
        """
        arr = np.asarray(x, dtype=np.float64)
        if (
            arr.ndim == 1
            and arr.size
            and self.breakpoints.shape[1]
            and np.all(arr[1:] >= arr[:-1])
        ):
            return self.on_sorted_grid(arr)
        arr = self._broadcast_input(arr)
        idx = self.segment_index(arr)
        k = np.take_along_axis(self.slopes, idx, axis=1)
        b = np.take_along_axis(self.intercepts, idx, axis=1)
        return k * arr + b

    def on_sorted_grid(self, grid: np.ndarray) -> np.ndarray:
        """Evaluate all ``P`` pwls on a shared ascending 1-D float64 grid.

        Each row's breakpoints are located in the grid with one
        ``searchsorted`` and the per-segment coefficients are expanded with
        ``np.repeat``; the selected ``k``/``b`` per point are the same as
        the comparer's.  The caller guarantees the grid is ascending and
        non-empty and the pwls have at least one breakpoint.
        """
        counts = segment_counts(self.breakpoints, grid).ravel()
        out = np.repeat(self.slopes.ravel(), counts).reshape(-1, grid.size)
        out *= grid
        out += np.repeat(self.intercepts.ravel(), counts).reshape(-1, grid.size)
        return out

    def to_fixed_point(self, frac_bits: int) -> "PiecewiseLinearBatch":
        """FXP-round every individual's slopes/intercepts (Algorithm 1)."""
        return PiecewiseLinearBatch._trusted(
            self.breakpoints.copy(),
            fxp_round(self.slopes, frac_bits),
            fxp_round(self.intercepts, frac_bits),
        )


def segment_counts(breakpoints: np.ndarray, sorted_grid: np.ndarray) -> np.ndarray:
    """Points-per-segment for each row of an ``(R, M)`` breakpoint matrix.

    ``sorted_grid`` must be ascending.  Row ``r``, segment ``s`` counts the
    grid points whose comparer index (``#{bp <= x}``) equals ``s``; each row
    sums to ``sorted_grid.size``.  This is the inverse of the comparer: it
    lets batched lookups expand per-segment coefficients with ``np.repeat``
    instead of gathering per point.
    """
    rows, m = breakpoints.shape
    pos = np.searchsorted(sorted_grid, breakpoints.ravel(), side="left").reshape(rows, m)
    edges = np.empty((rows, m + 2), dtype=np.int64)
    edges[:, 0] = 0
    edges[:, -1] = sorted_grid.size
    edges[:, 1:-1] = pos
    return edges[:, 1:] - edges[:, :-1]


def fit_pwl_batch(
    fn: Callable[[np.ndarray], np.ndarray],
    population: np.ndarray,
    search_range: Tuple[float, float],
    method: str = "interpolate",
    samples_per_segment: int = 64,
) -> PiecewiseLinearBatch:
    """Fit every row of a ``(P, N - 1)`` breakpoint matrix in one shot.

    The cleaning, target-function sampling and per-segment fits all run as
    single array operations over the whole population; row ``i`` of the
    result is bit-identical to ``fit_pwl(fn, population[i], ...)``.
    """
    pop = np.asarray(population, dtype=np.float64)
    if pop.ndim != 2:
        raise ValueError("population must be a (P, N-1) matrix, got shape %r" % (pop.shape,))
    lo, hi = float(search_range[0]), float(search_range[1])
    if not lo < hi:
        raise ValueError("invalid search range [%r, %r]" % (lo, hi))
    min_gap = (hi - lo) * 1e-6
    bp = _clean_breakpoints(pop, lo, hi, min_gap)
    edges = np.empty((pop.shape[0], pop.shape[1] + 2), dtype=np.float64)
    edges[:, 0] = lo
    edges[:, 1:-1] = bp
    edges[:, -1] = hi
    slopes, intercepts = _fit_segments(fn, edges, min_gap, method, samples_per_segment)
    return PiecewiseLinearBatch._trusted(bp, slopes, intercepts)
