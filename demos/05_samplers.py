"""The two randomized estimators, head to head on one component.

The permutation sampler walks random agent orders and needs a number of
marginal contributions that grows like n^2 / (delta * eps^2) regardless of
the instance.  The range sampler fixes a per-agent budget from the spread
of that agent's marginal contributions (a Hoeffding bound), which on real
market shapes is dramatically cheaper for the same guarantee; pairing it
with lower bounds turns its absolute error target into a relative one.
"""

import shapalloc as sa

scenario = sa.generate(
    agents=40, goods_per_agent=1.7, coauthor_prob=0.55,
    value_weights=(0.2, 0.2, 0.2, 0.2, 0.2),
    k=2, seed=21, max_claimers=2,
)
report = sa.run_pipeline(scenario)
comp = max(report.components, key=lambda c: c.n)
print(f"component under study: {comp.n} agents, {len(comp.good_ids)} goods")

exact = {r.agent: r.value for r in sa.exact_shapley(comp).agents} if comp.n <= 20 else None

fpras = sa.fpras_shapley(comp, cfg=sa.FprasConfig(epsilon=0.3, delta=0.05, seed=1))
print(f"\npermutation sampler: {fpras.meta['contributions_per_run']} contributions/run, "
      f"{fpras.meta['runs']} runs, shortcut served {fpras.meta['shortcut_fraction']:.0%}")

rng = sa.range_sampler_shapley(
    comp, cfg=sa.RangeSamplerConfig(epsilon=0.1, delta=0.05, seed=1)
)
print(f"range sampler: {rng.meta['total_samples']} samples total from "
      f"{rng.meta['walks']} shared walks ({rng.meta['walk_steps']} steps); "
      f"{sum(1 for w in rng.meta['ranges'].values() if w == 0.0)} agents needed none")

print(f"\n{'agent':<8} {'fpras':>9} {'range':>9}" + ("  exact" if exact else ""))
for rec_f, rec_r in zip(fpras.agents[:10], rng.agents[:10]):
    line = f"{rec_f.agent:<8} {rec_f.value:>9.4f} {rec_r.value:>9.4f}"
    if exact:
        line += f" {exact[rec_f.agent]:>9.4f}"
    print(line)

if exact:
    worst_f = max(abs(r.value - exact[r.agent]) for r in fpras.agents)
    worst_r = max(abs(r.value - exact[r.agent]) for r in rng.agents)
    print(f"\nworst absolute error: permutation {worst_f:.4f}, range {worst_r:.4f}")
