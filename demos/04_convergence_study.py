"""Convergence studies: measured orders against the predicted rates.

Two studies are run. The manufactured study on the unit square has a
known solution, the library's `UNIT_SQUARE_SINE`, so the rates are
measured exactly; the expected orders are 2 in L2 and 1 in H1. The kink
study on the worst-angle pentagon has no closed form and measures
against a solve two levels finer; there the max-norm order is limited to
4/3 by the 3*pi/4 corner while L2 stays second order up to logarithmic
factors (which is what the log-corrected column estimates).
"""

import numpy as np

from semifem import UNIT_SQUARE_SINE, PowerLaw, run_convergence_study


def show(title, report):
    print(f"\n{title}")
    print(f"  reference: {report.reference}")
    print(f"  {'level':>5} {'h':>9} {'err_l2':>11} {'err_linf':>11} "
          f"{'eoc_l2':>7} {'eoc_h1':>7} {'eoc_linf':>8} {'logcorr':>8}")
    for r in report.records:
        if r.eoc_l2 is None:
            print(f"  {r.level:>5} {r.h:>9.4f} {r.err_l2:>11.3e} {r.err_linf:>11.3e}")
        else:
            print(f"  {r.level:>5} {r.h:>9.4f} {r.err_l2:>11.3e} {r.err_linf:>11.3e} "
                  f"{r.eoc_l2:>7.3f} {r.eoc_h1:>7.3f} {r.eoc_linf:>8.3f} "
                  f"{r.eoc_l2_logcorr:>8.3f}")


# Square-root reaction, exact solution known, kink along the boundary.
d_sqrt = PowerLaw(scale=1.0, exponent=0.5)
manufactured = run_convergence_study(
    "unit-square", d_sqrt, UNIT_SQUARE_SINE.rhs(d_sqrt), range(2, 6),
    exact=UNIT_SQUARE_SINE)
show("manufactured study, d = sgn(u)|u|^(1/2), unit square", manufactured)
manufactured.write_csv("study_manufactured.csv")

# Cube-root reaction on the pentagon, fine-grid reference.
d_kink = PowerLaw(scale=50.0, exponent=1 / 3, shift=-1.0)
kink = run_convergence_study(
    "pentagon", d_kink, lambda x, y: np.ones_like(x),
    range(2, 6), extra_refinements=2)
show("kink study, d = 50 sgn(u+1)|u+1|^(1/3), pentagon", kink)
kink.write_csv("study_kink.csv")

print("\nwrote study_manufactured.csv and study_kink.csv (gnuplot-ready)")
