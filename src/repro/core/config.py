"""Per-operator search configurations (Table 1 of the paper).

Table 1 lists, for each non-linear operator, the search range
``[R_n, R_p]``, the RM probability ``theta_r``, the RM grid-exponent ranges
``[m_a, m_b]`` for 8- and 16-entry LUTs, and the evaluation data size.  The
shared defaults are ``N_b = 7``, ``N_p = 50``, ``theta_c = 0.7``,
``theta_m = 0.2``, ``T = 500`` and ``lambda = 5``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

from repro.core.genetic import GASettings
from repro.functions.registry import get_function


@dataclasses.dataclass(frozen=True)
class GADefaults:
    """The caption defaults of Table 1."""

    num_breakpoints: int = 7
    population_size: int = 50
    crossover_prob: float = 0.7
    mutation_prob: float = 0.2
    generations: int = 500
    frac_bits: int = 5


GA_DEFAULTS = GADefaults()


@dataclasses.dataclass(frozen=True)
class OperatorSearchConfig:
    """Everything Table 1 specifies for one operator.

    Attributes
    ----------
    name:
        Operator name as registered in :mod:`repro.functions`.
    search_range:
        ``[R_n, R_p]``.
    theta_r:
        RM per-exponent probability (0 disables RM, as for DIV/RSQRT).
    rm_range_8, rm_range_16:
        ``[m_a, m_b]`` grid-exponent ranges for 8- and 16-entry LUTs.
        ``None`` means RM does not apply for that entry count.
    data_size:
        Approximate number of evaluation samples the paper reports using.
    frac_bits:
        Decimal bit-width ``lambda`` for the FXP conversion.
    """

    name: str
    search_range: Tuple[float, float]
    theta_r: float
    rm_range_8: Optional[Tuple[int, int]]
    rm_range_16: Optional[Tuple[int, int]]
    data_size: int
    frac_bits: int = GA_DEFAULTS.frac_bits

    @property
    def rm_fires(self) -> bool:
        """True when Rounding Mutation can change a breakpoint (``theta_r > 0``).

        Table 1 sets ``theta_r = 0`` for DIV and RSQRT, where a "with RM"
        search runs the same seeded Gaussian search as "w/o RM".
        """
        return self.theta_r > 0

    def rm_range(self, num_entries: int) -> Optional[Tuple[int, int]]:
        """RM grid-exponent range for the given LUT entry count."""
        if num_entries <= 8:
            return self.rm_range_8
        return self.rm_range_16

    def ga_settings(
        self,
        num_entries: int = 8,
        generations: Optional[int] = None,
        population_size: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> GASettings:
        """Build :class:`GASettings` for this operator.

        ``num_entries`` sets the breakpoint count to ``num_entries - 1``;
        ``generations`` / ``population_size`` override the Table 1 defaults
        (handy for fast tests).
        """
        return GASettings(
            num_breakpoints=num_entries - 1,
            population_size=population_size or GA_DEFAULTS.population_size,
            crossover_prob=GA_DEFAULTS.crossover_prob,
            mutation_prob=GA_DEFAULTS.mutation_prob,
            generations=generations or GA_DEFAULTS.generations,
            seed=seed,
        )

    def function(self):
        """The registered :class:`NonLinearFunction`, re-ranged to Table 1."""
        return get_function(self.name).with_range(*self.search_range)


# Table 1 of the paper, row by row.
DEFAULT_CONFIGS: Dict[str, OperatorSearchConfig] = {
    "gelu": OperatorSearchConfig(
        name="gelu",
        search_range=(-4.0, 4.0),
        theta_r=0.05,
        rm_range_8=(0, 6),
        rm_range_16=(0, 6),
        data_size=800,
    ),
    "hswish": OperatorSearchConfig(
        name="hswish",
        search_range=(-4.0, 4.0),
        theta_r=0.05,
        rm_range_8=(0, 6),
        rm_range_16=(2, 6),
        data_size=800,
    ),
    "exp": OperatorSearchConfig(
        name="exp",
        search_range=(-8.0, 0.0),
        theta_r=0.05,
        rm_range_8=(2, 6),
        rm_range_16=(0, 6),
        data_size=800,
    ),
    "div": OperatorSearchConfig(
        name="div",
        search_range=(0.5, 4.0),
        theta_r=0.0,
        rm_range_8=None,
        rm_range_16=None,
        data_size=350,
    ),
    "rsqrt": OperatorSearchConfig(
        name="rsqrt",
        search_range=(0.25, 4.0),
        theta_r=0.0,
        rm_range_8=None,
        rm_range_16=None,
        data_size=360,
    ),
}


def default_config(name: str) -> OperatorSearchConfig:
    """Return the Table 1 configuration for ``name``.

    Operators not listed in Table 1 (e.g. sigmoid, tanh) get a generic
    configuration derived from their registered search range, with RM over
    the full ``[0, 6]`` grid range.
    """
    key = name.lower()
    if key in DEFAULT_CONFIGS:
        return DEFAULT_CONFIGS[key]
    fn = get_function(key)
    return OperatorSearchConfig(
        name=key,
        search_range=fn.search_range,
        theta_r=0.05,
        rm_range_8=(0, 6),
        rm_range_16=(0, 6),
        data_size=800,
    )
