"""The staircase weight: a connected vanishing region with no forward paths.

Two interlocking blocks leave a free region that is path-connected, yet any
route from the bottom of the cylinder to the top would have to move backwards
in time.  The hard-wall limit of the period map is then exactly the zero
matrix: no periodic eigenpair survives, and the finite-penalty eigenvalues
grow without saturating.

Run:  python3 demos/demo_degenerate_staircase.py
"""

import warnings

import numpy as np

import perevo

spec = perevo.builtin_scenario("counterexample")
mask = perevo.build_mask(spec.weight, spec.grid, spec.tgrid)
report = perevo.check_assumption(mask)

print("free region connected components:", report.components)
print("support topologically regular:   ", report.regular_support)
print("forward path condition holds:    ", report.assumption_holds)
print("first unreachable pair:          ", report.failing_pair)

lim = perevo.limit_monodromy(spec)
print(f"\nhard-wall period map max entry:   {np.abs(lim.Pinf).max():.1e} (exact zero)")

with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    records = perevo.sweep(spec, [0, 1, 10, 100, 1e3, 1e4, 1e5], eps=0.5)

print(f"\n{'penalty':>10} {'mu':>14} {'|P| max':>12}")
for r in records:
    print(f"{r.lam:10g} {r.mu:14.4f} {np.abs(r.monodromy).max():12.3e}")
print("\nhard-wall limit eigenvalue mu_inf:", lim.mu_inf)

# a compact picture of the weight: '#' = penalized, '.' = free
text = perevo.mask_text(mask).splitlines()
stride = max(1, len(text) // 24)
print("\nweight support (rows = time, downsampled):")
for line in text[::stride]:
    print("  " + line[:: max(1, len(line) // 62)])
