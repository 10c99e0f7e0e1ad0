"""Laplacian spectra of the built-in graph families and their geometry fits.

Eigenvalues of path graphs, grids, tori and small-world graphs follow a
power law lambda_i ~ (i/n)^(2/r) over a wide index range.  The exponent r
behaves like an effective dimension: 1 for paths, 2 for two-dimensional
grids, and a fractional value for rewired rings.

Run:  python demos/demo_spectra_and_geometry.py
"""
import numpy as np

import graphminimax as gm

print("=== closed form vs. a dense eigensolver (path graph) ===")
n = 256
g = gm.build_path(n)
closed = gm.eigendecompose(g)  # paths, grids and tori use their closed form
lams, vecs = np.linalg.eigh(gm.laplacian(g))
vecs = vecs * np.sqrt(n) * np.sign(np.sum(vecs * closed.basis, axis=0))  # align signs
print(f"path({n}): max eigenvalue deviation "
      f"{np.max(np.abs(lams - closed.lambdas)):.2e}")
print(f"path({n}): max eigenvector deviation "
      f"{np.max(np.abs(vecs - closed.basis)):.2e}")
print(f"basis sup norm {gm.sup_norm_bound(closed):.6f} "
      f"(bounded by sqrt(2) = {np.sqrt(2):.6f})")

print()
print("=== fitted geometry parameter r across families ===")
cases = [
    ("path(2048)", gm.build_path(2048), 1.0),
    ("grid 32x32", gm.build_grid([32, 32]), 2.0),
    ("torus 16x16", gm.build_torus([16, 16]), 2.0),
    ("small world (1000, k=4, p=0.03)", gm.build_small_world(1000, 4, 0.03, seed=1), 1.4),
]
for label, g, reference in cases:
    fit = gm.fit_geometry(gm.eigenvalues(g))
    print(f"{label:34s} r_hat = {fit.r_hat:.3f}   (reference {reference}), "
          f"envelope [{fit.c1_hat:.2f}, {fit.c2_hat:.2f}]")
print("the small-world reference value 1.4 is qualitative: it depends on")
print("the rewiring parameters, which interpolate between r = 1 and r = 2")

print()
print("=== grid spectra are sums of path spectra ===")
p8 = gm.path_spectrum_closed_form(8)
product = np.sort(np.add.outer(p8.lambdas, p8.lambdas).ravel())
grid = np.linalg.eigvalsh(gm.laplacian(gm.build_grid([8, 8])))
print(f"grid 8x8 eigenvalues (dense solver) vs pairwise sums: max dev "
      f"{np.max(np.abs(grid - product)):.2e}")
