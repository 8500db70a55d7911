"""Shrinking a large instance before solving anything.

Four value-preserving reductions: drop agents with nothing to allocate,
drop worthless goods (they never enter an allocation), resolve in one pass
the agents whose solo optimum equals their grand-coalition marginal, and
split the rest into independent connected components.  On assignment-market
shapes most of the instance melts away and one dominant component remains.
"""

import shapalloc as sa

scenario = sa.generate(
    agents=1200,
    goods_per_agent=1.659,
    coauthor_prob=0.35,
    value_weights=(0.39, 0.1525, 0.1525, 0.1525, 0.1525),
    k=2,
    seed=3,
    max_claimers=3,
)

report = sa.run_pipeline(scenario)
print("stage counts:")
for stage, count in report.stage_counts.items():
    print(f"  {stage}: {count}")

resolved = report.resolved_values()
print(f"\nagents resolved outright: {len(resolved)} of {scenario.n}")
sizes = sorted((c.n for c in report.components), reverse=True)
print(f"residual components: {len(sizes)}, sizes {sizes[:8]}{'...' if len(sizes) > 8 else ''}")

print("\nevery residual component is an independent game; solving each and")
print("pasting the resolved values back reproduces the original Shapley values.")

small = [c for c in report.components if c.n <= 12]
if small:
    comp = small[0]
    rep = sa.exact_shapley(comp)
    print(f"\nexample: exact values of a {comp.n}-agent component:")
    for rec in rep.agents[:6]:
        print(f"  {rec.agent}: {rec.value:.4f}")
