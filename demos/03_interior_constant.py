"""
The interior constant
=====================

Two unit disks at centre distance x <= 2 overlap in a lens of area
2*arccos(x/2) - x*sqrt(1 - x^2/4). Averaging the relative complement over
a random neighbour position gives the expected normalized stress1 of a
deep-interior node:

    sigma = integral_0^1 2x * (pi - lens(x))/pi dx = 3*sqrt(3)/(4*pi)

Monte-Carlo sampling of finite-density neighbourhoods converges to the
same number as the density grows.
"""

import math

import numpy as np

import boundarykit as bk

sigma = bk.sigma_interior()  # the closed form
x, w = np.polynomial.legendre.leggauss(32)  # Gauss-Legendre on [0, 1]
x, w = (x + 1) / 2, w / 2
integral = float(w @ (2 * x * bk.m_area(x) / math.pi))
print(f"closed form: {sigma:.12f}")
print(f"quadrature:  {integral:.12f}")
print(f"difference: {abs(sigma - integral):.2e}")

print("\nlens areas:")
for x in (0.0, 0.5, 1.0, 1.5, 2.0):
    print(f"  x={x:.1f}  lens={bk.lens_area(x):.6f}  m={bk.m_area(x):.6f}")

# finite density: a node with Poisson(mu) neighbours in its unit disk
print("\nMonte-Carlo interior means (s >= 1, 20000 samples each):")
for mu in (20.0, 50.0, 100.0, 200.0):
    d = bk.sample_st(1.0, mu, 20_000, seed=int(mu))
    se = d.stddev / math.sqrt(d.samples)
    print(f"  mu={mu:5.0f}  mean={d.mean:.5f}  sd={d.stddev:.5f}  "
        f"off by {abs(d.mean - sigma) / se:4.1f} se "
        f"(bias ~ 1/mu: {abs(d.mean - sigma):.5f})")

print("\nthe finite-density mean sits slightly below sigma; the gap")
print("shrinks roughly like 1/mu while the spread shrinks like 1/sqrt(mu)")
