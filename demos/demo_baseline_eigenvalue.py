"""Principal eigenvalue of the plain heat problem, checked against the
closed-form spectrum of the implicit stepper.

On (0, pi) with Dirichlet ends the slowest mode decays at rate 1, so the
principal eigenvalue of the period map should sit near 1.  The fully
implicit scheme admits an exact expression for the period-map spectrum,
which makes this the canonical smoke test for the whole pipeline.

Run:  python3 demos/demo_baseline_eigenvalue.py
"""

import math

import numpy as np

import perevo

spec = perevo.builtin_scenario("heat_baseline", n=128, M=512)
g, tg = spec.grid, spec.tgrid

P = perevo.monodromy(perevo.prepare(spec, 0.0))
res = perevo.spectral_radius(P)

# exact spectrum of the implicit period map: the second-difference matrix has
# eigenvalues (2/h^2)(1 - cos(k pi h / L)), each stepped M times
lam1 = 2.0 / g.h**2 * (1.0 - math.cos(math.pi * g.h / (g.x_hi - g.x_lo)))
r_exact = (1.0 + tg.dt * lam1) ** (-tg.M)

print(f"grid: n={g.n}, M={tg.M}, h={g.h:.5f}, dt={tg.dt:.5f}")
print(f"spectral radius     r = {res.r:.15f}")
print(f"closed form           = {r_exact:.15f}")
print(f"relative difference   = {abs(res.r - r_exact) / r_exact:.2e}")
print(f"principal eigenvalue mu = {res.mu:.10f}   (continuum value: 1)")
print(f"power iterations: {res.iterations}, residual {res.residual:.2e}, "
      f"spectral gap {perevo.eigengap(P):.4f}")

# the eigenvector is the first discrete sine mode
i = np.arange(1, g.n + 1)
mode = np.sin(math.pi * i / (g.n + 1))
mode /= math.sqrt(g.h * mode @ mode)
print(f"distance to first sine mode: {np.abs(res.w - mode).max():.2e}")
