"""Registry mapping operator names to :class:`NonLinearFunction` records.

The registry is the single lookup point used by the search API, the
experiment runners and the neural-network substrate, so user code can refer
to operators by name ("gelu", "exp", ...) everywhere.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.functions.nonlinear import ALL_FUNCTIONS, NonLinearFunction


class FunctionRegistry:
    """A case-insensitive name → :class:`NonLinearFunction` mapping."""

    def __init__(self, functions: Iterable[NonLinearFunction] = ()) -> None:
        self._functions: Dict[str, NonLinearFunction] = {}
        for fn in functions:
            self.register(fn)

    def register(self, fn: NonLinearFunction, overwrite: bool = False) -> None:
        """Register ``fn`` under its canonical name.

        Raises ``ValueError`` if the name is already taken and ``overwrite``
        is false.
        """
        key = fn.name.lower()
        if key in self._functions and not overwrite:
            raise ValueError("function %r already registered" % (fn.name,))
        self._functions[key] = fn

    def get(self, name: str) -> NonLinearFunction:
        """Look up an operator by name (case-insensitive)."""
        key = name.lower()
        if key not in self._functions:
            raise KeyError(
                "unknown non-linear function %r; known: %s"
                % (name, ", ".join(sorted(self._functions)))
            )
        return self._functions[key]

    def names(self) -> List[str]:
        """Sorted list of registered operator names."""
        return sorted(self._functions)

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._functions

    def __iter__(self):
        return iter(self._functions.values())

    def __len__(self) -> int:
        return len(self._functions)


DEFAULT_REGISTRY = FunctionRegistry(ALL_FUNCTIONS)


def get_function(name: str) -> NonLinearFunction:
    """Return the registered operator called ``name``."""
    return DEFAULT_REGISTRY.get(name)


def list_functions() -> List[str]:
    """Return the names of all registered operators."""
    return DEFAULT_REGISTRY.names()
