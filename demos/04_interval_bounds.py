"""Guaranteed Shapley intervals from neighborhood profiles.

Only an agent's graph neighbors can change its marginal contribution, so
coalitions are grouped by which neighbors they contain.  Evaluating each
group at its two extremes gives certified lower and upper bounds; when the
two meet, that agent's exact value has been computed without enumerating
anything else.  Sparse instances collapse almost everywhere.
"""

import shapalloc as sa

scenario = sa.generate(
    agents=26, goods_per_agent=1.7, coauthor_prob=0.45,
    value_weights=(0.3, 0.175, 0.175, 0.175, 0.175),
    k=2, seed=12, max_claimers=2,
)
scenario = sa.strip_null_goods(scenario)

intervals = sa.shapley_bounds(scenario)

# exact values for comparison: independent components can be solved one by
# one and pasted together
exact = {}
for comp in sa.split_components(scenario):
    exact.update((r.agent, r.value) for r in sa.exact_shapley(comp).agents)

collapsed = 0
print(f"{'agent':<8} {'lower':>9} {'upper':>9} {'exact':>9}")
for rec in intervals.agents:
    mark = ""
    if rec.lb == rec.ub:
        collapsed += 1
        mark = "  <- pinned exactly"
    print(f"{rec.agent:<8} {rec.lb:>9.4f} {rec.ub:>9.4f} {exact[rec.agent]:>9.4f}{mark}")

n = len(intervals.agents)
print(f"\nbounds coincide for {collapsed}/{n} agents "
      f"({collapsed / n:.0%}) on this sparse instance")
print("cost per agent is two marginals per subset of its neighborhood, each one")
print("greedy plus at most k augmentations on the agent's component, so")
print("low-degree agents are cheap no matter how large the game is.")
