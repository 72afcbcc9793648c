"""Ritz projection: the elliptic best approximation and its classical rates.

The projection of a smooth function, here the library's manufactured
solution `UNIT_SQUARE_SINE`, onto the Dirichlet P1 space is computed
from its gradient alone; the projection error decays like h^2
in L2 and like h in the H1 seminorm, the same rates the solver's error
analysis leans on.
"""

import numpy as np

from semifem import (UNIT_SQUARE_SINE, eoc, error_h1semi, error_l2, mesh_size,
                     preset_polygon, refine_uniform, ritz_project,
                     triangulate_convex_polygon)

value, grad = UNIT_SQUARE_SINE.value, UNIT_SQUARE_SINE.grad

mesh = triangulate_convex_polygon(preset_polygon("unit-square"))
for _ in range(2):
    mesh = refine_uniform(mesh)

print(f"{'level':>5} {'h':>9} {'L2 error':>11} {'H1 error':>11} "
      f"{'eoc L2':>7} {'eoc H1':>7}")
previous = None
for level in range(3, 7):
    mesh = refine_uniform(mesh)
    proj = ritz_project(mesh, grad)
    h = mesh_size(mesh)
    el2 = error_l2(proj, value)
    eh1 = error_h1semi(proj, grad)
    if previous is None:
        print(f"{level:>5} {h:>9.4f} {el2:>11.4e} {eh1:>11.4e}")
    else:
        ph, pl2, ph1 = previous
        print(f"{level:>5} {h:>9.4f} {el2:>11.4e} {eh1:>11.4e} "
              f"{eoc(pl2, el2, ph, h):>7.3f} {eoc(ph1, eh1, ph, h):>7.3f}")
    previous = (h, el2, eh1)

print("\nboundary values of the projection are exactly zero:",
      not np.any(proj.coeffs[proj.mesh.boundary_vertex]))
