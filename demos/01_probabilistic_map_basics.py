"""Walkthrough: probabilistic map vertices and what you can do with them.

Builds a tiny two-element map whose vertices carry Laplace location/scale
pairs and class logits (a ``VectorMap`` of ``MapElement``s given ``b`` and
``class_logits``; the same types without them hold a plain map), evaluates
densities and the NLL training loss, converts scales to
standard deviations, re-expresses the whole map in a rotated ego frame, and
builds the per-vertex feature rows a downstream encoder consumes.

Run:  python demos/01_probabilistic_map_basics.py
"""

import numpy as np

from uncmap import (
    ElementClass,
    MapElement,
    Pose2,
    VectorMap,
    density,
    log_density,
    mean_map,
    nll_loss,
    rotate_uncertainty,
    sample_map,
    sigma_from_b,
    standardize_map,
    vertex_features,
)

rng = np.random.default_rng(0)

# A lane divider running ahead of the ego, confident near, fuzzy far.
mu = np.column_stack([np.full(6, 1.75), np.linspace(2.0, 27.0, 6)])
b = np.column_stack([np.linspace(0.05, 0.6, 6), np.linspace(0.08, 0.9, 6)])
logits = np.tile([0.0, -3.0, 4.0, -1.0], (6, 1))
divider = MapElement(mu, ElementClass.LANE_DIVIDER, confidence=0.95, b=b, class_logits=logits)

# A crosswalk with uniform moderate uncertainty.
quad = np.array([[-3.5, 10.0], [3.5, 10.0], [3.5, 13.0], [-3.5, 13.0]])
crossing = MapElement(quad, ElementClass.PED_CROSSING, confidence=0.8, closed=True,
                      b=np.full((4, 2), 0.35), class_logits=np.zeros((4, 4)))

pmap = VectorMap([divider, crossing], Pose2.identity())
print(f"map with {len(pmap.elements)} elements, "
      f"{sum(e.n_vertices for e in pmap.elements)} probabilistic vertices")

# Joint density of a candidate vertex placement under the divider's model.
candidate = mu + rng.normal(scale=0.1, size=mu.shape)
print(f"log-density of a jittered divider sample: {log_density(mu, b, candidate):+.3f}")
print(f"  (direct product form: {density(mu, b, candidate):.3e})")

# The NLL loss a probabilistic regression head trains against, with its
# analytic gradients.
loss, grad_mu, grad_b = nll_loss(mu, b, candidate)
print(f"NLL loss: {loss:.3f}; gradient norms "
      f"|d/dmu|={np.hypot(*grad_mu.T).max():.2f} "
      f"|d/db|={np.abs(grad_b).max():.2f}")

# Scales to standard deviations and back through a quarter-turn rotation.
sx, sy = sigma_from_b(b[:, 0]), sigma_from_b(b[:, 1])
rx, ry = rotate_uncertainty(sx, sy, np.pi / 2)
print("sigma before quarter turn:", np.round(sx, 3))
print("sigma after  quarter turn:", np.round(ry, 3), "(axes swapped)")

# Standardize the map into a frame 40 degrees off axis: locations rotate
# rigidly, scales rotate by moment matching.
frame = Pose2(2.0, 5.0, np.deg2rad(40))
standardized = standardize_map(pmap, frame)
print("\nafter standardizing into a rotated frame:")
print("  first divider vertex:", np.round(standardized.elements[0].mu[0], 3))
print("  its scales:          ", np.round(standardized.elements[0].b[0], 3))

# The feature rows a downstream vertex encoder would consume, one per vertex.
feats = vertex_features(divider)
print(f"\nvertex feature rows {feats.shape}, first [mu_x mu_y b_x b_y c1..c4]:")
print(" ", np.round(feats[0], 4).tolist())
print("  class blocks sum to", np.round(feats[:, 4:].sum(axis=1), 12))

# Strip uncertainty or draw a plausible map realization: both are maps of
# the same type whose elements carry no scales.
plain = mean_map(pmap)
draw = sample_map(pmap, seed=7)
print(f"\nmean map element scales: {plain.elements[0].b}, "
      f"sampled map element logits: {draw.elements[0].class_logits}")
shift = np.abs(draw.elements[0].vertices - plain.elements[0].vertices)
print(f"\nsampled realization differs from the mean map by up to "
      f"{shift.max():.2f} m (largest where b is largest)")
