"""Linear sanity check: -Laplace u = f on the unit square.

With the reaction weight set to zero the solver reduces to a single
Newton step on the Poisson problem. The errors against the closed-form
solution sin(pi x) sin(pi y), the library's `UNIT_SQUARE_SINE`, shrink
like h^2 in L2 and like h in H1.
"""

from semifem import (UNIT_SQUARE_SINE, PowerLaw, eoc, error_h1semi, error_l2,
                     mesh_size, preset_polygon, refine_uniform,
                     solve_semilinear, triangulate_convex_polygon)

no_reaction = PowerLaw(weight=0.0)
f = UNIT_SQUARE_SINE.rhs(no_reaction)

mesh = triangulate_convex_polygon(preset_polygon("unit-square"))
print(f"{'level':>5} {'h':>10} {'L2 error':>12} {'H1 error':>12} "
      f"{'eoc L2':>7} {'eoc H1':>7}")

previous = None
for level in range(1, 6):
    mesh = refine_uniform(mesh)
    u, stats = solve_semilinear(mesh, no_reaction, f)
    h = mesh_size(mesh)
    el2 = error_l2(u, UNIT_SQUARE_SINE.value)
    eh1 = error_h1semi(u, UNIT_SQUARE_SINE.grad)
    if previous is None:
        print(f"{level:>5} {h:>10.4f} {el2:>12.4e} {eh1:>12.4e}")
    else:
        ph, pl2, ph1 = previous
        print(f"{level:>5} {h:>10.4f} {el2:>12.4e} {eh1:>12.4e} "
              f"{eoc(pl2, el2, ph, h):>7.3f} {eoc(ph1, eh1, ph, h):>7.3f}")
    previous = (h, el2, eh1)

print(f"\nlast solve: {stats.newton_iterations} Newton iteration(s), "
      f"{stats.total_cg_iterations} CG iterations, "
      f"residual {stats.final_residual_norm:.2e}")
