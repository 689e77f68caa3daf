"""Reference implementations the fast paths are held to, bit for bit.

The library runs one path per job: the genetic search scores each
generation through its dedup cache and one batched fitness call, and the
pwl operator modules serve the dense gather tables (``PWLActivation``) or
the precomputed slot tables (``PWLWideRange``).  The straightforward forms
those paths replaced live here, as oracles for the parity tests and the
benchmarks (which add this directory to ``sys.path``):

* :class:`PerRowGeneticSearch` / :func:`per_row_search` — one scalar
  fitness call per individual, no dedup, no cache;
* :class:`ReferencePWLActivation` — the per-pass Fig. 1b pipeline: a
  :class:`~repro.core.lut.QuantizedLUT` at the quantizer's current scale,
  with the selected segment's stored slope as the gradient;
* :class:`ReferencePWLWideRange` — the multi-range mask sweep for the
  output and ``factor * slope * S'`` from a second classification for the
  gradient;
* :class:`ReferencePWLSuite` — a :class:`~repro.nn.approx.PWLSuite` that
  builds the two reference modules, so whole models run on the oracle.

Every oracle consumes the same random stream and the same parameters as
the path it checks, so seeded results must match exactly.
"""

from __future__ import annotations

from unittest import mock

import numpy as np

from repro.core import search as search_module
from repro.core.genetic import GeneticSearch
from repro.core.lut import QuantizedLUT
from repro.core.search import GQALUT, SearchOutcome
from repro.nn.approx import PWLActivation, PWLLayerNorm, PWLSuite, PWLWideRange
from repro.nn.module import Module
from repro.nn.tensor import Tensor


class PerRowGeneticSearch(GeneticSearch):
    """:class:`GeneticSearch` scoring one scalar fitness call per row.

    The generation loop is inherited unchanged, so only the scoring path
    differs; ``fitness_calls == evaluations`` and ``cache_hits == 0``.
    """

    def _score(self, population):
        self._fitness_calls += len(population)
        return np.array(
            [float(self.fitness(np.array(row))) for row in population], dtype=np.float64
        )


def per_row_search(searcher: GQALUT, **kwargs) -> SearchOutcome:
    """``searcher.search(**kwargs)`` with :class:`PerRowGeneticSearch`."""
    with mock.patch.object(search_module, "GeneticSearch", PerRowGeneticSearch):
        return searcher.search(**kwargs)


def quantized_lut_slope(lut: QuantizedLUT, data: np.ndarray) -> np.ndarray:
    """The stored slope of the segment each input's code selects."""
    codes = np.clip(np.round(data / lut.scale), lut.spec.qmin, lut.spec.qmax)
    return lut.stored_slopes[lut.segment_index(codes)]


class ReferencePWLActivation(PWLActivation):
    """:class:`PWLActivation` through the per-pass Fig. 1b pipeline."""

    def forward(self, x: Tensor) -> Tensor:
        if not self.quantizer.initialised:
            self.quantizer.initialise_from(x.data)
        lut = QuantizedLUT(
            pwl=self.pwl,
            scale=self.quantizer.current_scale(),
            spec=self._spec,
            frac_bits=self.frac_bits,
        )
        return x.apply_elementwise(
            lut, lambda data: quantized_lut_slope(lut, data), name="pwl[%s]" % self.name
        )


class ReferencePWLWideRange(PWLWideRange):
    """:class:`PWLWideRange` through the multi-range mask sweep."""

    def forward(self, x: Tensor) -> Tensor:
        wrapped = self.wrapped
        fxp = wrapped.fxp_pwl

        def slope_fn(data: np.ndarray) -> np.ndarray:
            # d/dx [ factor * pwl(scale * x) ] = factor * slope * scale; the
            # input scale equals factor**(1/rescale_power) only for DIV, so
            # it comes explicitly from the classification.
            scaled, factor, input_scale = wrapped.scaling.rescale_input_with_scale(data)
            return factor * fxp.slopes[fxp.segment_index(scaled)] * input_scale

        return x.apply_elementwise(wrapped, slope_fn, name="pwl_wide[%s]" % self.name)


def _as_reference(module):
    """Build ``module``'s reference twin from the same arguments."""
    if isinstance(module, PWLActivation):
        return ReferencePWLActivation(
            module.name, module.pwl, bits=module.bits, frac_bits=module.frac_bits
        )
    if isinstance(module, PWLWideRange):
        return ReferencePWLWideRange(
            module.name, module.wrapped.pwl, scaling=module.scaling,
            frac_bits=module.wrapped.frac_bits,
        )
    return module


class ReferencePWLSuite(PWLSuite):
    """:class:`PWLSuite` whose replaced operators run on the oracles."""

    def activation(self, kind: str) -> Module:
        return _as_reference(super().activation(kind))

    def exp_fn(self):
        return _as_reference(super().exp_fn())

    def reciprocal_fn(self):
        return _as_reference(super().reciprocal_fn())

    def layer_norm(self, num_features: int) -> Module:
        norm = super().layer_norm(num_features)
        if isinstance(norm, PWLLayerNorm):
            norm.rsqrt = _as_reference(norm.rsqrt)
        return norm
