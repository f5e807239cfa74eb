"""Chores: balanced egalitarian cost, greedy set-cover utilitarian cost, and
the two easy extreme quantiles.

A chore bundle is scored on the negated values, so a pessimist (tau = 0)
carries their worst chore and an optimist (tau = 1) only notices their best.
"""

from fractions import Fraction

from quantile_alloc import (
    balanced_esc,
    chores,
    esc_tau0,
    esc_tau1,
    opt_welfare,
    usc_tau0_setcover,
)

inst = chores(["1/2", "1/2"], [[0, 0, 1, 1], [1, 1, 0, 0]])
report = balanced_esc(inst)
print("balanced ESC, disutilities:", [list(r) for r in inst.values])
print("  min cost:", report.welfare, "| bundles:", report.allocation.bundles(2))
print()

cover = chores(["0/1", "0/1"], [[1, 1, 9], [9, 9, 2]])
report = usc_tau0_setcover(cover)
opt = opt_welfare(cover, "usc")[0]
print("greedy set-cover USC, disutilities:", [list(r) for r in cover.values])
h_m = sum(Fraction(1, j) for j in range(1, cover.m + 1))
print(
    f"  greedy cost {report.welfare} vs optimum {opt}; "
    f"proven ceiling H_m * opt = {h_m * opt} (H_m = 1 + 1/2 + ... + 1/m)"
)
print("  bundles:", report.allocation.bundles(2))
print()

pess = chores(["0/1", "0/1"], [[0, 1, 4], [2, 0, 0]])
report = esc_tau0(pess)
print("pessimists, disutilities:", [list(r) for r in pess.values])
print("  min ESC:", report.welfare, "| each chore goes to someone who shrugs it off")

opti = chores(["1/1", "1/1"], [[3, 3, 3], [3, 0, 3]])
report = esc_tau1(opti)
print("optimists, disutilities:", [list(r) for r in opti.values])
print(
    "  min ESC:", report.welfare,
    "| agent", report.allocation.owner[0], "takes everything for their free chore",
)
