"""Exact Shapley values, and the fairness they buy.

The division rule splits the grand-coalition worth according to average
marginal contributions.  Two properties fall out and are checked here: the
shares exhaust the budget exactly, and nobody gets less than what the group
would lose by expelling them.
"""

import shapalloc as sa

scenario = sa.AllocationScenario(
    agents=["r1", "r2", "r3"],
    goods=[("p1", 7.0), ("p2", 10.0), ("p3", 6.0), ("p4", 7.0),
           ("p5", 6.0), ("p6", 7.0), ("p7", 8.0)],
    interest={
        "r1": ["p1", "p2", "p3"],
        "r2": ["p2", "p3", "p4", "p5"],
        "r3": ["p2", "p6", "p7"],
    },
    k=2,
)

report = sa.exact_shapley(scenario)
grand = sa.char_value(scenario, scenario.full_mask)

print(f"grand-coalition worth: {grand}")
for rec in report.agents:
    print(f"  shapley({rec.agent}) = {rec.value}")
print(f"shares sum to {sum(r.value for r in report.agents)} (budget balance)")

print("\nmarginal-contribution floor:")
for rec in report.agents:
    i = scenario.agent_index[rec.agent]
    marg = grand - sa.char_value(scenario, scenario.full_mask & ~(1 << i))
    print(f"  {rec.agent}: share {rec.value:.3f} >= marginal {marg:.3f}")

print("\nnote: r3's share exceeds an equal split of its own submissions;")
print("the rule rewards owning goods others compete for, not who happens")
print("to be handed which good in one particular optimal assignment.")
