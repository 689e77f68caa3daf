"""Re-implementation of NN-LUT [Yu et al., DAC 2022].

NN-LUT approximates a non-linear operator with a single-hidden-layer ReLU
network

    h(x) = sum_j  w2_j * relu(w1_j * x + b1_j)  +  a * x  +  c

which is itself a piece-wise linear function: each hidden unit contributes a
kink at ``p_j = -b1_j / w1_j``.  After training on samples of the operator
(the paper reports 100K samples), the network weights are converted
*exactly* into LUT parameters — breakpoints from the kink locations, slopes
and intercepts from the analytic derivative of the network on each segment.

This mirrors the paper's own re-implementation: the resulting slopes,
intercepts and breakpoints are then converted to the same FXP precision as
GQA-LUT for a fair comparison.  Crucially the breakpoints are *deduced from*
the weights, so there is no direct handle with which to make them
quantization aware — the limitation GQA-LUT's RM strategy addresses.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.core.lut import DenseLUT, QuantizedLUT
from repro.core.pwl import PiecewiseLinear
from repro.functions.nonlinear import NonLinearFunction
from repro.quant.quantizer import QuantSpec


@dataclasses.dataclass(frozen=True)
class NNLUTTrainingConfig:
    """Training hyper-parameters for the NN-LUT network.

    The defaults are sized for reproducibility rather than speed: 100K
    samples as in the original paper, full-batch Adam.  Tests and quick
    experiments can shrink ``num_samples`` and ``iterations``.
    """

    num_samples: int = 100_000
    iterations: int = 3000
    learning_rate: float = 5e-3
    batch_size: int = 4096
    weight_decay: float = 0.0
    seed: Optional[int] = 0


class NNLUT:
    """Single-hidden-layer ReLU approximator with exact pwl extraction.

    Parameters
    ----------
    function:
        Target operator (provides the callable and training range).
    num_entries:
        LUT entry count ``N``; the network uses ``N - 1`` hidden units so
        the extracted pwl has exactly ``N`` segments.
    config:
        Training configuration.
    """

    def __init__(
        self,
        function: NonLinearFunction,
        num_entries: int = 8,
        config: NNLUTTrainingConfig = NNLUTTrainingConfig(),
    ) -> None:
        if num_entries < 2:
            raise ValueError("num_entries must be at least 2, got %d" % num_entries)
        self.function = function
        self.num_entries = num_entries
        self.config = config
        self._rng = np.random.default_rng(config.seed)
        self._init_parameters()
        self._trained = False

    # -- network definition ---------------------------------------------------

    def _init_parameters(self) -> None:
        lo, hi = self.function.search_range
        hidden = self.num_entries - 1
        # Spread the initial kinks uniformly over the range so the optimiser
        # starts from a sensible pwl; w1 alternates sign to diversify slopes.
        kinks = np.linspace(lo, hi, hidden + 2)[1:-1]
        self.w1 = np.where(np.arange(hidden) % 2 == 0, 1.0, -1.0) * (
            1.0 + 0.1 * self._rng.standard_normal(hidden)
        )
        self.b1 = -self.w1 * kinks
        self.w2 = 0.1 * self._rng.standard_normal(hidden)
        self.a = 0.0
        self.c = 0.0

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Network output for inputs ``x`` (vectorised)."""
        pre = np.outer(x, self.w1) + self.b1
        hidden = np.maximum(pre, 0.0)
        return hidden @ self.w2 + self.a * x + self.c

    def _forward_backward(self, x: np.ndarray, y: np.ndarray):
        pre = np.outer(x, self.w1) + self.b1
        hidden = np.maximum(pre, 0.0)
        pred = hidden @ self.w2 + self.a * x + self.c
        err = pred - y
        n = x.size
        grad_pred = 2.0 * err / n
        grads = {
            "w2": hidden.T @ grad_pred,
            "a": float(grad_pred @ x),
            "c": float(grad_pred.sum()),
        }
        dhidden = np.outer(grad_pred, self.w2)
        dpre = dhidden * (pre > 0)
        grads["w1"] = dpre.T @ x
        grads["b1"] = dpre.sum(axis=0)
        loss = float(np.mean(err ** 2))
        return loss, grads

    # -- training -------------------------------------------------------------

    def train(self, verbose: bool = False) -> float:
        """Train with Adam on samples of the operator; returns the final loss."""
        cfg = self.config
        lo, hi = self.function.search_range
        x_all = self._rng.uniform(lo, hi, size=cfg.num_samples)
        y_all = np.asarray(self.function(x_all), dtype=np.float64)

        params = ["w1", "b1", "w2", "a", "c"]
        m = {p: np.zeros_like(np.asarray(getattr(self, p), dtype=np.float64)) for p in params}
        v = {p: np.zeros_like(np.asarray(getattr(self, p), dtype=np.float64)) for p in params}
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        loss = float("inf")

        for it in range(1, cfg.iterations + 1):
            if cfg.batch_size and cfg.batch_size < cfg.num_samples:
                idx = self._rng.integers(0, cfg.num_samples, size=cfg.batch_size)
                x, y = x_all[idx], y_all[idx]
            else:
                x, y = x_all, y_all
            loss, grads = self._forward_backward(x, y)
            for p in params:
                g = np.asarray(grads[p], dtype=np.float64)
                if cfg.weight_decay:
                    g = g + cfg.weight_decay * np.asarray(getattr(self, p), dtype=np.float64)
                m[p] = beta1 * m[p] + (1 - beta1) * g
                v[p] = beta2 * v[p] + (1 - beta2) * g ** 2
                m_hat = m[p] / (1 - beta1 ** it)
                v_hat = v[p] / (1 - beta2 ** it)
                update = cfg.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
                new_value = np.asarray(getattr(self, p), dtype=np.float64) - update
                if np.isscalar(getattr(self, p)) or np.ndim(getattr(self, p)) == 0:
                    setattr(self, p, float(new_value))
                else:
                    setattr(self, p, new_value)
            if verbose and it % max(cfg.iterations // 10, 1) == 0:
                print("NN-LUT[%s] iter %d loss %.3e" % (self.function.name, it, loss))
        self._trained = True
        return loss

    # -- pwl extraction -------------------------------------------------------

    def breakpoints(self) -> np.ndarray:
        """Kink locations ``-b1_j / w1_j`` clipped to the search range."""
        lo, hi = self.function.search_range
        with np.errstate(divide="ignore", invalid="ignore"):
            kinks = np.where(self.w1 != 0, -self.b1 / self.w1, lo)
        return np.sort(np.clip(kinks, lo, hi))

    def extract_pwl(self) -> PiecewiseLinear:
        """Convert the trained network into an exact :class:`PiecewiseLinear`.

        The slope/intercept of each segment is the analytic slope of the
        network at the segment midpoint, so the extracted pwl is identical
        to the network everywhere except at the (measure-zero) kinks.
        """
        lo, hi = self.function.search_range
        bp = self.breakpoints()
        edges = np.concatenate(([lo], bp, [hi]))
        mids = (edges[:-1] + edges[1:]) / 2.0
        active = (np.outer(mids, self.w1) + self.b1) > 0
        slopes = self.a + active @ (self.w1 * self.w2)
        values = self.forward(mids)
        intercepts = values - slopes * mids
        return PiecewiseLinear(breakpoints=bp, slopes=slopes, intercepts=intercepts)

    def extract_fxp_pwl(self, frac_bits: int = 5) -> PiecewiseLinear:
        """Extract the pwl and round slopes/intercepts to FXP (paper protocol)."""
        return self.extract_pwl().to_fixed_point(frac_bits)

    def fit(self, verbose: bool = False) -> PiecewiseLinear:
        """Train (if needed) and return the extracted FP pwl."""
        if not self._trained:
            self.train(verbose=verbose)
        return self.extract_pwl()

    def deploy(
        self,
        scale: float,
        spec: QuantSpec = QuantSpec(bits=8, signed=True),
        frac_bits: int = 5,
    ) -> DenseLUT:
        """Deploy the trained network as a quantization-aware LUT unit.

        This is the inference form NN-LUT actually ships: the extracted pwl
        behind the Fig. 1b pipeline at the runtime power-of-two ``scale``,
        materialised as the ``2^bits``-entry :class:`DenseLUT` gather table
        (built through :class:`QuantizedLUT`, so it is bit-identical to the
        comparer pipeline over every input code).  Trains first if the
        network has not been trained yet.
        """
        if not self._trained:
            self.train()
        pwl = self.extract_fxp_pwl(frac_bits=frac_bits)
        return QuantizedLUT(pwl=pwl, scale=scale, spec=spec, frac_bits=frac_bits).to_dense()
