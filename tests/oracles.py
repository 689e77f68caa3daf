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
* :func:`reference_sub_range_index` / :func:`reference_rescale` /
  :func:`reference_multi_range` — the multi-range mask sweep, one boolean
  mask and ``np.where`` per sub-range, that ``MultiRangePWL``'s slot
  tables replaced;
* :class:`ReferencePWLWideRange` — that mask sweep for the output and
  ``factor * slope * S'`` from a second classification for the gradient;
* :class:`ReferencePWLSuite` — a :class:`~repro.nn.approx.PWLSuite` that
  builds the two reference modules, so whole models run on the oracle;
* :func:`reference_pipeline_mse` — the Fig. 1b pipeline MSE of one pwl at
  one scale through a scalar :class:`~repro.core.lut.QuantizedLUT`, the
  per-row form of ``QuantizedPWLEvaluator.mse_matrix``;
* :class:`ReferenceSGD` / :class:`ReferenceAdam` — the optimizers'
  per-parameter update loop, one expression chain per parameter instead of
  one over the packed vectors;
* :func:`reference_getitem_vjp` / :func:`reference_upsample_index` — the
  ``np.add.at`` scatter every gather VJP used, and the fancy index
  ``Upsample`` gathered with before it became the ``upsample_nearest`` op;
* :func:`reference_unbroadcast` — the sum-to-shape loop over
  ``ndarray.sum`` that ``unbroadcast_array`` ran before a short last axis
  was folded column by column.

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
from repro.nn.optim import SGD, Adam
from repro.nn.tensor import Tensor
from repro.quant.quantizer import quant_bounds


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


def reference_pipeline_mse(function, pwl, scale, spec, frac_bits, eval_domain) -> float:
    """MSE of one pwl's Fig. 1b pipeline against ``function`` at ``scale``.

    The codes are every ``spec`` integer whose dequantized value lies in
    ``eval_domain``; an empty grid raises ``ValueError``.
    """
    lut = QuantizedLUT(pwl=pwl, scale=scale, spec=spec, frac_bits=frac_bits)
    qn, qp = quant_bounds(spec.bits, spec.signed)
    codes = np.arange(qn, qp + 1, dtype=np.float64)
    x = codes * scale
    mask = (x >= eval_domain[0]) & (x <= eval_domain[1])
    codes, x = codes[mask], x[mask]
    if x.size == 0:
        raise ValueError("evaluation grid is empty for scale %r" % (scale,))
    approx = lut.lookup_dequantized(codes)
    reference = np.asarray(function(x), dtype=np.float64)
    return float(np.mean((approx - reference) ** 2))


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


def reference_sub_range_index(scaling, x) -> np.ndarray:
    """The sub-range ``[lower, upper)`` holding each element of ``x``, by
    one mask per sub-range (-1 for none: ``I_R``, the gaps and NaN)."""
    arr = np.asarray(x, dtype=np.float64)
    out = np.full(arr.shape, -1, dtype=np.int64)
    for i, sub in enumerate(scaling.sub_ranges):
        out[(arr >= sub.lower) & (arr < sub.upper)] = i
    return out


def reference_rescale(scaling, x):
    """``(scaled_x, output_factor, input_scale)`` of a
    :class:`~repro.scaling.MultiRangeScaling` by the mask sweep: inputs in
    sub-range ``i`` become ``x * S'_i`` with factor ``S'_i^rescale_power``,
    all others stay as they are with factor and scale 1."""
    arr = np.asarray(x, dtype=np.float64)
    idx = reference_sub_range_index(scaling, arr)
    scaled = arr.copy()
    factor = np.ones_like(arr)
    input_scale = np.ones_like(arr)
    for i, sub in enumerate(scaling.sub_ranges):
        mask = idx == i
        scaled = np.where(mask, arr * sub.scale, scaled)
        factor = np.where(mask, sub.scale ** scaling.rescale_power, factor)
        input_scale = np.where(mask, sub.scale, input_scale)
    return scaled, factor, input_scale


def reference_multi_range(wrapped, x) -> np.ndarray:
    """A :class:`~repro.scaling.MultiRangePWL`'s output by the mask sweep."""
    scaled, factor, _ = reference_rescale(wrapped.scaling, x)
    return factor * wrapped.fxp_pwl(scaled)


class ReferencePWLWideRange(PWLWideRange):
    """:class:`PWLWideRange` through the multi-range mask sweep."""

    def forward(self, x: Tensor) -> Tensor:
        wrapped = self.wrapped
        fxp = wrapped.fxp_pwl

        def slope_fn(data: np.ndarray) -> np.ndarray:
            # d/dx [ factor * pwl(scale * x) ] = factor * slope * scale; the
            # input scale equals factor**(1/rescale_power) only for DIV, so
            # it comes explicitly from the classification.
            scaled, factor, input_scale = reference_rescale(wrapped.scaling, data)
            return factor * fxp.slopes[fxp.segment_index(scaled)] * input_scale

        return x.apply_elementwise(
            lambda data: reference_multi_range(wrapped, data), slope_fn,
            name="pwl_wide[%s]" % self.name,
        )


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


class ReferenceSGD(SGD):
    """:class:`SGD` updating one parameter at a time."""

    def step(self) -> None:
        for param, velocity in zip(self.parameters, self._velocity):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                velocity *= self.momentum
                velocity += grad
                grad = velocity
            param.data = param.data - self.lr * grad


class ReferenceAdam(Adam):
    """:class:`Adam` updating one parameter at a time."""

    def step(self) -> None:
        self._step += 1
        for i, param in enumerate(self.parameters):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            self._m[i] = self.beta1 * self._m[i] + (1 - self.beta1) * grad
            # np.square, not ``grad ** 2``: with weight decay a 0-d parameter
            # turns ``grad`` into a numpy scalar, whose ``**`` calls libm pow
            # and can miss the correctly rounded square by one ulp.  The
            # packed update (and the traced ``pow`` op) square arrays.
            self._v[i] = self.beta2 * self._v[i] + (1 - self.beta2) * np.square(grad)
            m_hat = self._m[i] / (1 - self.beta1 ** self._step)
            v_hat = self._v[i] / (1 - self.beta2 ** self._step)
            param.data = param.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def reference_getitem_vjp(g: np.ndarray, a: np.ndarray, index) -> np.ndarray:
    """The gradient of ``a[index]`` under cotangent ``g``, by ``np.add.at``."""
    full = np.zeros_like(a)
    np.add.at(full, index, g)
    return full


def reference_unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` with ``ndarray.sum``, one axis at a
    time: leading broadcast axes first, then every unit axis."""
    shape = tuple(shape)
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def reference_upsample_index(height: int, width: int, factor: int) -> tuple:
    """The fancy index of a channels-last nearest upsample by ``factor``."""
    idx_y = np.repeat(np.arange(height), factor)
    idx_x = np.repeat(np.arange(width), factor)
    return (slice(None), idx_y[:, None], idx_x[None, :], slice(None))
