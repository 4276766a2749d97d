"""Penalty sweep on the two-cylinder weight and its hard-wall limit.

The weight vanishes on the whole interval before the switch time and on the
left half afterwards.  As the penalty grows the principal eigenvalue climbs
monotonically toward the eigenvalue of the limit problem, where the solution
is confined to the subinterval after the switch by hard Dirichlet walls.
The limit problem lives on the weight's vanishing set: a product of
implicit steps with hard walls at its edge, resolved by a dense
eigendecomposition rather than power iteration.

Run:  python3 demos/demo_penalty_limit.py
"""

import warnings

import perevo

spec = perevo.builtin_scenario("du_peng", n=64, M=512)

with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    oracle = perevo.limit_monodromy(spec)
    records = perevo.sweep(spec, [0, 1, 10, 100, 1e3, 1e4, 1e5], eps=0.5,
                           oracle=oracle)

print(f"hard-wall limit eigenvalue mu_inf = {oracle.mu_inf:.6f}\n")
print(f"{'penalty':>10} {'mu':>14} {'mu_inf - mu':>12} {'mass on supp':>14} {'eig dist':>10}")
for r in records:
    print(f"{r.lam:10g} {r.mu:14.6f} {oracle.mu_inf - r.mu:12.2e} "
          f"{r.s_eps_mass:14.3e} {r.dist_to_limit_L2:10.2e}")

rep = perevo.compare_to_limit(records, oracle)
rate = perevo.vanishing_rate(records)
print(f"\ntop-of-sweep gap |mu(1e5) - mu_inf| = {rep.mu_gap:.4f} "
      f"({100 * rep.mu_gap / oracle.mu_inf:.2f}% of mu_inf)")
print(f"eigenfunction distance at the worst level: {rep.eig_dist_max:.4f}")
print(f"mass on the penalized region decays like penalty^{rate.slope:.2f}")
