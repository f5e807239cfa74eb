"""Balanced utilitarian welfare: the greedy round-by-round solver.

Each round, every unassigned agent demands the quota of top remaining items
that pins down their eventual bundle value; the agent with the highest
guaranteed value wins the round.  The result is within a factor
min(m/n + 1, n) of the balanced optimum, and exactly optimal when all agents
share one valuation row.
"""

import random

from quantile_alloc import demand_quota, goods, greedy_balanced_usw, opt_welfare
from quantile_alloc.cli import generate_instance
from quantile_alloc.core import Quantile

inst = goods(["1/2", "1/2"], [[5, 4, 1, 0], [5, 1, 3, 2]])
k = inst.items_per_agent()
quotas = tuple(demand_quota(q, k) for q in inst.quantiles)
print("values:", [list(r) for r in inst.values], "quantiles: 1/2, 1/2")
print("bundle size k =", k, "| demand quotas:", quotas)

report = greedy_balanced_usw(inst)
opt, _ = opt_welfare(inst, "usw", balanced=True)
print("greedy bundles:", report.allocation.bundles(inst.n))
print("greedy welfare:", report.welfare, "| balanced optimum:", opt)
print()

print("guarantee check over 200 random balanced instances (n = 2, m = 6):")
worst = 1.0
for seed in range(200):
    inst = generate_instance(2, 6, [Quantile.parse("1/2")] * 2, "goods", 9, seed=seed)
    alg = greedy_balanced_usw(inst).welfare
    opt = opt_welfare(inst, "usw", balanced=True)[0]
    if opt:
        worst = min(worst, alg / opt)
factor = min(6 // 2 + 1, 2)
print(f"  worst observed ratio {worst:.3f} vs proven floor 1/{factor} = {1 / factor:.3f}")
print()

print("identical valuations make greedy exact:")
rng = random.Random(1)
row = [rng.randint(0, 9) for _ in range(6)]
ident = goods(["2/3"] * 3, [row] * 3)
print("  shared row:", row)
print(
    "  greedy:", greedy_balanced_usw(ident).welfare,
    "| balanced optimum:", opt_welfare(ident, "usw", balanced=True)[0],
)
