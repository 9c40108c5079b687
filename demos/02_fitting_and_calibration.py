"""Walkthrough: estimating Laplace parameters and checking calibration.

The closed form (median / mean absolute deviation) is the exact minimizer
of the Laplace NLL; gradient descent on the same loss recovers it. A map
fitted from repeated noisy observations then goes through the coverage and
reliability analyses.

Run:  python demos/02_fitting_and_calibration.py
"""

import numpy as np

from uncmap import ElementClass, MapElement, Pose2, VectorMap
from uncmap.calibration import (
    coverage_arrays,
    laplace_interval,
    match_vertex_pairs,
    reliability,
)
from uncmap.fitting import fit_closed_form, fit_gradient, fit_map

rng = np.random.default_rng(1)

# --- 1D fits ---------------------------------------------------------------
samples = rng.laplace(loc=-1.2, scale=0.45, size=5000)
cf = fit_closed_form(samples)
gd = fit_gradient(samples)
print("true parameters       mu=-1.200  b=0.450")
print(f"closed form           mu={cf.mu_hat:+.3f}  b={cf.b_hat:.3f}")
print(f"gradient descent      mu={gd.mu_hat:+.3f}  b={gd.b_hat:.3f} "
      f"({gd.iterations} iterations, converged={gd.converged})")

# --- fitting a whole map from repeated observations -------------------------
pts = np.column_stack([np.zeros(10), np.linspace(0, 25, 10)])
template = VectorMap([MapElement(pts, ElementClass.LANE_CENTERLINE)],
                     Pose2.identity())

def observe_once(k):
    d = np.hypot(pts[:, 0], pts[:, 1])
    noise = rng.laplace(0.0, (0.05 + 0.02 * d)[:, None], pts.shape)
    return VectorMap([MapElement(pts + noise, ElementClass.LANE_CENTERLINE)],
                     Pose2.identity())

# The fitted map is a VectorMap like the template, whose elements now also
# carry per-vertex scales b and class logits.
fitted = fit_map([observe_once(k) for k in range(300)], template)
el = fitted.elements[0]
print("\nfitted per-vertex scales grow with distance from the ego:")
for i in (0, 4, 9):
    d = np.hypot(*pts[i])
    print(f"  vertex at {d:5.1f} m: b = {el.b[i].mean():.3f} "
          f"(generator used {0.05 + 0.02 * d:.3f})")

# --- interval coverage -------------------------------------------------------
lo, hi = laplace_interval(0.0, 1.0, 0.9)
print(f"\n90% interval of Laplace(0, 1): [{lo:.3f}, {hi:.3f}]")

matched = match_vertex_pairs(fitted, template)
n = matched.mu.size
levels = [0.5, 0.9]
cov = coverage_arrays(matched.mu, matched.b, matched.gt, levels)
print(f"coverage of the fitted map against the template ({n} coordinates):")
for lv, c in zip(cov.nominal_levels, cov.empirical_coverage):
    print(f"  nominal {lv:.1f} -> empirical {c:.3f}")
print("  (the template is the noiseless truth, so fitted intervals centered")
print("   near it over-cover; against fresh noisy draws they would match)")

# --- classification reliability ---------------------------------------------
n = 50_000
probs = rng.dirichlet(np.ones(4) * 2.0, size=n)
labels_calibrated = np.array([rng.choice(4, p=p) for p in probs])
rep = reliability(probs, labels_calibrated, bins=10)
print(f"\nECE with labels drawn from the predicted distributions: {rep.ece:.4f}")

overconfident = np.tile([0.9, 0.1 / 3, 0.1 / 3, 0.1 / 3], (1000, 1))
labels_half_right = np.array([0] * 500 + [1] * 500)
rep_bad = reliability(overconfident, labels_half_right)
print(f"ECE claiming 0.9 while scoring 0.5:                     {rep_bad.ece:.4f}")
