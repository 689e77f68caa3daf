"""Functional operations built on :class:`repro.nn.tensor.Tensor`.

These mirror ``torch.nn.functional`` for the small set of operations the
miniature Transformer models need: activations, softmax, layer
normalisation, cross entropy and the LSQ fake-quantization primitives.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.nn.tensor import Tensor

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def gelu(x: Tensor) -> Tensor:
    """GELU (tanh approximation, differentiable through the graph)."""
    inner = (x + x * x * x * 0.044715) * _SQRT_2_OVER_PI
    return x * 0.5 * (inner.tanh() + 1.0)


def hswish(x: Tensor) -> Tensor:
    """Hard swish ``x * relu6(x + 3) / 6``."""
    return x * (x + 3.0).clip(0.0, 6.0) * (1.0 / 6.0)


def sigmoid(x: Tensor) -> Tensor:
    """Logistic sigmoid."""
    return 1.0 / ((-x).exp() + 1.0)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    exps = shifted.exp()
    return exps / exps.sum(axis=axis, keepdims=True)


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalisation over the last dimension."""
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    normalised = (x - mean) * ((var + eps) ** -0.5)
    return normalised * weight + bias


#: How far below the row minimum a masked attention score is pushed before
#: the stable-softmax max subtraction.  The value only has to keep masked
#: slots from winning the row max — exact zeroing of their probability is
#: done multiplicatively (the pwl EXP table clamps at its search-range
#: floor and never underflows to 0.0, so an additive mask alone would leak
#: ~exp(range_min) per masked slot).  Kept modest on purpose: the masked
#: scores pass through the EXP operator's input quantizer, and a huge
#: offset would blow up its calibrated power-of-two scale.
MASK_OFFSET = 30.0


def causal_mask(tokens: int) -> np.ndarray:
    """Lower-triangular ``(tokens, tokens)`` float mask (1.0 = attend)."""
    return np.tril(np.ones((tokens, tokens)))


def masked_softmax(scores: Tensor, mask, exp_fn=None, reciprocal_fn=None) -> Tensor:
    """Numerically stable softmax over the last axis, restricted to ``mask``.

    ``mask`` is a float array/Tensor broadcastable to ``scores`` with 1.0 at
    valid slots and 0.0 elsewhere.  Three properties the decode stack
    depends on:

    * **stable**: the row max is subtracted before EXP, and masked slots
      are first pushed :data:`MASK_OFFSET` below their own score so the
      max lands on a valid entry for any attention-scale input — ±30
      magnitude logits survive bit-exactly (pinned by the traced-softmax
      parity test);
    * **exactly zero outside the mask**: the numerator is multiplied by the
      mask, so masked probabilities are 0.0 bit-for-bit under the exact
      EXP *and* under the pwl LUT engines (whose tables never underflow);
    * **traceable**: every step is a registry op — the max/detach subtree
      traces into the compiled graph, and when ``scores`` is built from
      constants the whole subtree constant-folds.

    ``exp_fn`` / ``reciprocal_fn`` default to the exact operators; the
    attention layers pass their suite hooks so the pwl replacements
    intercept EXP and DIV here exactly as in the encoder softmax.
    """
    if not isinstance(mask, Tensor):
        mask = Tensor(mask)
    exp_fn = exp_fn or (lambda t: t.exp())
    reciprocal_fn = reciprocal_fn or (lambda t: 1.0 / t)
    shifted = scores - (1.0 - mask) * MASK_OFFSET
    shifted = shifted - shifted.max(axis=-1, keepdims=True).detach()
    numerator = exp_fn(shifted) * mask
    denominator = numerator.sum(axis=-1, keepdims=True)
    return numerator * reciprocal_fn(denominator)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Log-softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def cross_entropy(
    logits: Tensor, targets: np.ndarray, ignore_index: Optional[int] = None
) -> Tensor:
    """Mean cross-entropy over integer class targets.

    ``logits`` has shape ``(..., num_classes)`` and ``targets`` the matching
    leading shape.  Pixels equal to ``ignore_index`` are excluded from the
    mean (the usual semantic-segmentation convention).
    """
    targets = np.asarray(targets)
    num_classes = logits.shape[-1]
    flat_logits = logits.reshape(-1, num_classes)
    flat_targets = targets.reshape(-1)
    if ignore_index is not None:
        keep = flat_targets != ignore_index
        if not np.any(keep):
            raise ValueError("all targets are ignore_index; loss is undefined")
        flat_logits = flat_logits[np.where(keep)[0]]
        flat_targets = flat_targets[keep]
    log_probs = log_softmax(flat_logits, axis=-1)
    rows = np.arange(flat_targets.shape[0])
    picked = log_probs[rows, flat_targets]
    return -picked.mean()


def one_hot(targets: np.ndarray, num_classes: int) -> np.ndarray:
    """Float64 one-hot encoding of integer ``targets`` (flattened)."""
    flat = np.asarray(targets).reshape(-1)
    encoded = np.zeros((flat.shape[0], num_classes))
    encoded[np.arange(flat.shape[0]), flat] = 1.0
    return encoded


def cross_entropy_onehot(logits: Tensor, onehot: Tensor) -> Tensor:
    """Mean cross-entropy against a one-hot target tensor.

    The traceable-shape variant of :func:`cross_entropy` used by the
    compiled training step: integer labels select rows via fancy indexing,
    whose index array would be burned into a trace as a constant, so the
    compiled path feeds ``one_hot(labels)`` as a graph *input* instead and
    selects by multiply-and-reduce.  Losses and gradients are bit-identical
    to :func:`cross_entropy` for the same labels: the one-hot mask zeroes
    every non-target term exactly (``0.0 * x == ±0.0`` and the subsequent
    sum restores the picked value's bit pattern), and below the
    log-softmax both formulations propagate the identical cotangent.
    ``ignore_index`` filtering is data-dependent and stays eager-only.

    ``logits`` has shape ``(..., num_classes)``; ``onehot`` must be the
    matching flattened ``(pixels, num_classes)`` float encoding.
    """
    num_classes = logits.shape[-1]
    flat_logits = logits.reshape(-1, num_classes)
    log_probs = log_softmax(flat_logits, axis=-1)
    picked = (log_probs * onehot).sum(axis=-1)
    return -picked.mean()


# -- LSQ quantization primitives -------------------------------------------------


def lsq_quantize(
    x: Tensor, scale: Tensor, qmin: int, qmax: int, grad_scale: float = 1.0
) -> Tensor:
    """LSQ fake quantization [Esser et al., ICLR 2020].

    ``x`` is divided by the learnable ``scale``, clipped to ``[qmin, qmax]``
    with straight-through rounding, then multiplied back by the scale.  The
    LSQ gradient for ``scale`` emerges from this composition of STE ops
    (clip passes the gradient only inside the interval; outside, the
    gradient flows to the scale via the boundary terms), matching the
    published formulation closely enough for fine-tuning.
    """
    scaled = x / scale
    clipped = scaled.clip(qmin, qmax)
    # Pass-through rounding on the clipped value.
    rounded = clipped.round_ste()
    # Re-attach the clipping boundary contribution for out-of-range inputs:
    # where the input saturates, the quantized value is qmin/qmax * scale and
    # its derivative w.r.t. scale is qmin/qmax.  The composition below keeps
    # that dependence because `rounded` is multiplied by `scale` again.
    #
    # The recombination only exists to attenuate *scale's gradient* (the LSQ
    # sqrt(count) heuristic), so it is skipped when no gradient can flow to
    # the scale: the identity `s*g + s*(1-g) == s` holds in exact arithmetic
    # but not bitwise in floats, and since grad_scale depends on x.size the
    # 1-ulp perturbation would make no-grad inference batch-size dependent.
    if grad_scale != 1.0 and scale.requires_grad:
        scale = scale * grad_scale + scale.detach() * (1.0 - grad_scale)
    return rounded * scale


def power_of_two_scale(alpha: Tensor) -> Tensor:
    """Snap a learnable positive scale to the nearest power of two (STE).

    Implements ``S = 2^round(log2(alpha))`` of Section 3.1 with a
    straight-through gradient on the rounding.  The value is exactly
    ``2.0 ** e``, the scale the Fig. 1b shifter divides by.
    """
    log_alpha = alpha.abs().log() * (1.0 / math.log(2.0))
    return log_alpha.round_ste().exp2()
