"""A first allocation game: coalition worths and why they are a matching.

Three agents want pieces of a four-good pool under capacity one.  The worth
of a coalition is the best total value its members can grab without sharing
a good, which is a maximum-weight bipartite matching.
"""

import shapalloc as sa

scenario = sa.AllocationScenario(
    agents=["a1", "a2", "a3"],
    goods=[("g1", 3.0), ("g2", 2.0), ("g3", 1.0), ("g4", 0.0)],
    interest={
        "a1": ["g1", "g2", "g3"],
        "a2": ["g1", "g2", "g4"],
        "a3": ["g3", "g4"],
    },
    k=1,
)

print("agents:", scenario.agents)
print("goods :", dict(zip(scenario.good_ids, scenario.good_values)))

for ids in (["a1"], ["a2"], ["a3"], ["a1", "a2"], ["a1", "a3"], ["a2", "a3"],
            ["a1", "a2", "a3"]):
    mask = scenario.mask_of(ids)
    print(f"worth({'+'.join(ids):<10}) = {sa.char_value(scenario, mask)}")

allocation, value = sa.optimal_allocation(scenario, scenario.full_mask)
print("\none optimal grand-coalition allocation, total", value)
for agent, goods in allocation.items():
    print(f"  {agent} <- {sorted(goods) or '(nothing)'}")

print("\nagents graph adjacency (shared positive goods):")
for i, a in enumerate(scenario.agents):
    neigh = [scenario.agents[j] for j in scenario.graph.neighbor_lists[i]]
    print(f"  {a}: {neigh}")
