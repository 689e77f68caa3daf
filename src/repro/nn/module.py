"""Module/Parameter system, a minimal mirror of ``torch.nn.Module``."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.nn.tensor import Tensor


class Parameter(Tensor):
    """A tensor registered as a trainable parameter."""

    def __init__(self, data, name: Optional[str] = None) -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class with parameter registration, train/eval mode and traversal."""

    def __init__(self) -> None:
        self._parameters: Dict[str, Parameter] = {}
        self._modules: Dict[str, "Module"] = {}
        self.training = True

    # -- registration ----------------------------------------------------------

    def __setattr__(self, key, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", {})[key] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[key] = value
        object.__setattr__(self, key, value)

    def register_module(self, name: str, module: "Module") -> None:
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # -- traversal ---------------------------------------------------------------

    def parameters(self) -> List[Parameter]:
        """All trainable parameters of this module and its children."""
        out: List[Parameter] = []
        seen = set()
        for _, param in self.named_parameters():
            if id(param) not in seen:
                seen.add(id(param))
                out.append(param)
        return out

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield prefix + name, param
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix + name + ".")

    def modules(self) -> Iterator["Module"]:
        yield self
        for child in self._modules.values():
            yield from child.modules()

    # -- state ---------------------------------------------------------------------

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for child in self._modules.values():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def state_dict(self, prefix: str = "") -> Dict[str, np.ndarray]:
        """Copy of every parameter's data, keyed by dotted name."""
        return {name: param.data.copy() for name, param in self.named_parameters(prefix)}

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        """Load parameter values by dotted name; shapes must match.

        With ``strict`` (the default) the key sets must match exactly: the
        error lists every missing and every unexpected key, so a renamed
        submodule is diagnosable from the message alone.  ``strict=False``
        loads the intersection and ignores the rest (the escape hatch for
        partial checkpoints, e.g. loading a float backbone into a quantized
        model).  A shape mismatch on a key being loaded always raises.
        """
        own = dict(self.named_parameters())
        if strict:
            missing = sorted(set(own) - set(state))
            unexpected = sorted(set(state) - set(own))
            if missing or unexpected:
                raise KeyError(
                    "state dict does not match the module: "
                    "missing keys %s, unexpected keys %s "
                    "(pass strict=False to load the matching subset)"
                    % (missing, unexpected)
                )
        for name, param in own.items():
            if name not in state:
                continue
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.data.shape:
                raise ValueError(
                    "shape mismatch for %s: %s vs %s" % (name, value.shape, param.data.shape)
                )
            param.data = value.copy()

    # -- calling ---------------------------------------------------------------------

    def forward(self, *args, **kwargs):  # pragma: no cover - interface
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Sequential(Module):
    """Chains modules in registration order.

    The layers are looked up from the registered children on every call, so
    in-place surgery such as
    :func:`repro.nn.quantization.quantize_linears_in_place` (which swaps a
    child for its quantized counterpart under the same name) takes effect
    immediately.
    """

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        for index, module in enumerate(modules):
            self.register_module("layer%d" % index, module)

    def forward(self, x):
        for module in self._modules.values():
            x = module(x)
        return x

    def __len__(self) -> int:
        return len(self._modules)

    def __iter__(self):
        return iter(self._modules.values())
