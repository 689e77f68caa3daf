"""Mutation operators for the genetic breakpoint search.

Two operators are provided:

* :class:`NormalMutation` — the conventional mutation used by GQA-LUT
  *without* RM: each breakpoint is perturbed by normally distributed noise
  with some per-element probability.
* :class:`RoundingMutation` — Algorithm 2: the Rounding Mutation (RM)
  strategy.  Each breakpoint is, with probability ``theta_r`` per grid
  exponent ``i`` in ``[m_a, m_b]``, rounded onto the fixed-point grid
  ``2^-i``.  This "images" the FXP/quantization rounding the breakpoint will
  suffer at deployment as a stochastic mutation during evolution, so the
  survivors are breakpoints that remain good after quantization.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

import numpy as np


class MutationFunction:
    """Interface: mutate a breakpoint vector in place-free fashion."""

    def __call__(
        self, breakpoints: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError

    def mutate_batch(self, rows: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Mutate a ``(K, N_b)`` matrix of individuals; returns the same shape.

        The default applies ``__call__`` row by row, so custom operators work
        with the batched genetic engine unchanged; the built-in operators
        override it with a single-draw vectorized implementation (one RNG
        call per noise source for the whole matrix).
        """
        matrix = np.asarray(rows, dtype=np.float64)
        return np.stack([self(row, rng) for row in matrix])


@dataclasses.dataclass(frozen=True)
class NormalMutation(MutationFunction):
    """Additive Gaussian-noise mutation (the non-RM default).

    Parameters
    ----------
    sigma_fraction:
        Noise standard deviation as a fraction of the search-range width.
    per_element_prob:
        Probability that each individual breakpoint is perturbed.
    search_range:
        ``[R_n, R_p]``; mutated breakpoints are clipped back into it.
    """

    search_range: Tuple[float, float]
    sigma_fraction: float = 0.05
    per_element_prob: float = 0.5

    def __call__(self, breakpoints: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        # One-row batch: rng.random((1, N)) consumes the same doubles as
        # rng.random(N), so this is stream-identical to a scalar version.
        return self.mutate_batch(np.asarray(breakpoints, dtype=np.float64)[None, :], rng)[0]

    def mutate_batch(self, rows: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Perturb all ``K`` individuals with two draws (mask + noise)."""
        lo, hi = self.search_range
        width = hi - lo
        bp = np.asarray(rows, dtype=np.float64).copy()
        mask = rng.random(bp.shape) < self.per_element_prob
        noise = rng.normal(0.0, self.sigma_fraction * width, size=bp.shape)
        bp = np.where(mask, bp + noise, bp)
        return np.sort(np.clip(bp, lo, hi), axis=-1)


@dataclasses.dataclass(frozen=True)
class RoundingMutation(MutationFunction):
    """Rounding Mutation (Algorithm 2).

    For each breakpoint ``p`` draw ``rand_p ~ U[0, 1]`` and scan the grid
    exponents ``i = m_a .. m_b``; the first ``i`` whose probability slot
    ``[i * theta_r, (i + 1) * theta_r)`` contains ``rand_p`` triggers the
    rounding ``p' = round(p * 2^i) / 2^i`` (a single mutation per
    breakpoint).  With ``theta_r = 0`` the operator is the identity, which
    matches the DIV/RSQRT rows of Table 1.

    The mutated set is re-sorted, as required by the comparer semantics.
    """

    mutate_range: Tuple[int, int] = (0, 6)
    theta_r: float = 0.05
    search_range: Optional[Tuple[float, float]] = None

    def __post_init__(self) -> None:
        ma, mb = self.mutate_range
        if ma < 0 or mb < ma:
            raise ValueError("mutate_range must satisfy 0 <= m_a <= m_b, got %r" % (self.mutate_range,))
        if self.theta_r < 0:
            raise ValueError("theta_r must be non-negative, got %r" % (self.theta_r,))

    def mutate_scalar(self, p: float, rand_p: float) -> float:
        """Apply Algorithm 2's inner loop to a single breakpoint."""
        ma, mb = self.mutate_range
        if self.theta_r <= 0:
            return p
        for i in range(ma, mb + 1):
            if i * self.theta_r <= rand_p < (i + 1) * self.theta_r:
                return float(np.round(p * (2.0 ** i)) / (2.0 ** i))
        return p

    def _apply_rands(self, bp: np.ndarray, rands: np.ndarray) -> np.ndarray:
        """Vectorized Algorithm 2 inner loop: one slot lookup per breakpoint.

        The slot bounds ``i * theta_r`` for ``i = m_a .. m_b + 1`` are the
        same float products :meth:`mutate_scalar` compares against (slot
        ``i``'s upper bound is slot ``i + 1``'s lower bound), so one
        ``searchsorted`` finds the single exponent whose slot holds each
        ``rand_p``, and each hit is rounded with that slot's ``2.0 ** i``.
        """
        if self.theta_r <= 0:
            return bp
        ma, mb = self.mutate_range
        bounds = [i * self.theta_r for i in range(ma, mb + 2)]
        # searchsorted(side="right") counts the bounds <= rand_p: 0 is below
        # slot m_a, len(bounds) is at or above the top bound, k hits m_a+k-1.
        slot = np.searchsorted(bounds, rands, side="right")
        hit = (slot > 0) & (slot < len(bounds))
        factor = np.asarray([1.0] + [2.0 ** i for i in range(ma, mb + 1)] + [1.0])[slot]
        return np.where(hit, np.round(bp * factor) / factor, bp)

    def __call__(self, breakpoints: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        # One-row batch; stream-identical to a scalar implementation (see
        # NormalMutation.__call__).
        return self.mutate_batch(np.asarray(breakpoints, dtype=np.float64)[None, :], rng)[0]

    def mutate_batch(self, rows: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Round all ``K`` individuals with a single ``(K, N_b)`` draw."""
        bp = np.asarray(rows, dtype=np.float64)
        mutated = self._apply_rands(bp, rng.random(bp.shape))
        if self.search_range is not None:
            mutated = np.clip(mutated, self.search_range[0], self.search_range[1])
        return np.sort(mutated, axis=-1)
