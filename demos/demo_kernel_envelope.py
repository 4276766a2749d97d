"""Gaussian envelope of the evolution kernels, uniform over the penalty.

The kernel of the unpenalized heat problem obeys a Gaussian bound
M exp(omega tau) tau^(-1/2) exp(-c dx^2 / tau); fitting the constants on a
ladder of time gaps should recover a decay rate c near the free-space value
1/4 (boundary images only push the kernel down).  Because kernels only
decrease entrywise as the penalty grows, the single fitted envelope covers
the whole penalty sweep.

Run:  python3 demos/demo_kernel_envelope.py
"""

import math
import warnings

import perevo
from perevo.evolve import prepare
from perevo.kernel import envelope_violation, fit_gaussian, kernel_matrix

spec = perevo.builtin_scenario("heat_baseline", n=127, M=800)
F = prepare(spec, 0.0)

kernels = [kernel_matrix(F, 0, g) for g in (80, 160, 320, 640)]
fit = fit_gaussian(kernels)
print(f"fitted envelope: M={fit.Mconst:.4f}  omega={fit.omega:.4f}  c={fit.cconst:.4f}")
print(f"worst signed violation on the fit data: {fit.max_violation:.2e} (<= 0 is good)")

K = kernel_matrix(F, 0, 40)  # time gap 0.05
mid = spec.grid.n // 2
print(f"\nkernel peak at gap 0.05: {K.entries[mid, mid]:.4f} "
      f"(free space: {(4 * math.pi * 0.05) ** -0.5:.4f})")

# the same envelope dominates every penalized kernel on the weighted problem
dp = perevo.builtin_scenario("du_peng")
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    F0 = prepare(dp, 0.0)
    fit_dp = fit_gaussian([kernel_matrix(F0, 0, g) for g in (64, 128, 256, 512)])
    print("\ntwo-cylinder weight, envelope from the unpenalized kernels:")
    for lam in (0, 10, 1e3, 1e5):
        Kl = kernel_matrix(prepare(dp, lam), 0, 256)
        print(f"  penalty {lam:>8g}: violation {envelope_violation(fit_dp, Kl):.3e}")
