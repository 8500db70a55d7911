"""Exact, bounded, and sampled Shapley values for allocation games.

The game: agents are interested in subsets of indivisible valued goods, each
agent may hold at most ``k`` of them, and a coalition's worth is the best
total value it can secure.  This package computes each agent's fair share of
the grand-coalition worth (its Shapley value) exactly where feasible, and by
guaranteed intervals or randomized estimates where not, after shrinking the
instance with value-preserving simplifications.
"""

__version__ = "0.1.0"

from .model import (
    AgentsGraph,
    AllocationScenario,
    CharacteristicCache,
    Coalition,
    ScenarioError,
    build_agents_graph,
    char_value,
    component_of,
    connected_components,
    iter_bits,
    load_scenario,
    marginal_restricted,
    mask_from_indices,
    save_scenario,
)
from .matching import optimal_allocation, optimal_value_only
from .preprocess import (
    PreprocessReport,
    drop_empty_agents,
    prune_useless_goods,
    run_pipeline,
    separate_singletons,
    split_components,
    strip_null_goods,
)
from .exact import ComponentTooLarge, exact_shapley, shapley_weight
from .bounds import shapley_bounds
from .sampling import (
    FprasConfig,
    RangeSamplerConfig,
    fpras_shapley,
    hoeffding_sample_count,
    range_sampler_shapley,
)
from .generator import extract_subgraph, generate
from .report import AgentResult, ShapleyReport, merge_reports
from .pipeline import solve

__all__ = [
    "AgentResult",
    "AgentsGraph",
    "AllocationScenario",
    "CharacteristicCache",
    "Coalition",
    "ComponentTooLarge",
    "FprasConfig",
    "PreprocessReport",
    "RangeSamplerConfig",
    "ScenarioError",
    "ShapleyReport",
    "build_agents_graph",
    "char_value",
    "component_of",
    "connected_components",
    "drop_empty_agents",
    "exact_shapley",
    "extract_subgraph",
    "fpras_shapley",
    "generate",
    "iter_bits",
    "load_scenario",
    "hoeffding_sample_count",
    "marginal_restricted",
    "mask_from_indices",
    "merge_reports",
    "optimal_allocation",
    "optimal_value_only",
    "prune_useless_goods",
    "range_sampler_shapley",
    "run_pipeline",
    "save_scenario",
    "separate_singletons",
    "shapley_bounds",
    "shapley_weight",
    "solve",
    "split_components",
    "strip_null_goods",
]
