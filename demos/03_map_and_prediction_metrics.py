"""Walkthrough: the evaluation metrics.

Chamfer distance between point sets, element matching and AP at the three
standard thresholds, and the trajectory metrics with their endpoint-based
mode selection.

Run:  python demos/03_map_and_prediction_metrics.py
"""

import numpy as np

from uncmap import ElementClass, MapElement, Pose2, VectorMap
from uncmap.map_eval import APConfig, average_precision, chamfer, evaluate_map
from uncmap.pred_eval import TrajectorySet, evaluate_trajectories, min_ade, min_fde

# --- Chamfer distance --------------------------------------------------------
s1 = np.array([[0.0, 0.0], [2.0, 0.0]])
s2 = np.array([[1.0, 0.0]])
print(f"chamfer({s1.tolist()}, {s2.tolist()}) = {chamfer(s1, s2)}")
print(f"symmetric: {chamfer(s2, s1)}")

# --- AP at one threshold -----------------------------------------------------
def lane(x, conf=1.0):
    return MapElement(np.array([[x, -10.0], [x, 10.0]]),
                      ElementClass.LANE_DIVIDER, confidence=conf)

gts = [lane(0.0), lane(5.0)]
preds = [lane(0.1, conf=0.9),   # true positive
         lane(20.0, conf=0.8),  # false positive
         lane(5.1, conf=0.7)]   # true positive, ranked last
ap = average_precision(preds, gts, ElementClass.LANE_DIVIDER, threshold=1.0)
print(f"\nAP with a mid-ranked false positive: {ap:.4f} (envelope area 5/6)")

# --- full map evaluation -----------------------------------------------------
# Predicted and ground-truth maps are both VectorMaps; scales, when an
# estimated map carries them, play no part in Chamfer distance or AP.
gt_map = VectorMap(gts + [MapElement(np.array([[-8, -8], [8, 8.0]]),
                                     ElementClass.ROAD_BOUNDARY)], Pose2.identity())
pred_map = VectorMap(
    [MapElement(el.vertices + np.array([0.0, 0.6]), el.element_class,
                el.confidence, el.closed) for el in gt_map.elements],
    Pose2.identity())
report = evaluate_map(pred_map, gt_map, APConfig())
print("\nAP per class/threshold for a 0.6 m shifted map:")
for ci, cls in enumerate(report.classes):
    row = ["   -  " if np.isnan(v) else f"{v:.3f}" for v in report.ap[ci]]
    print(f"  {cls.value:16s} @ {report.thresholds}: {row}")
print(f"  mAP = {report.map_score:.4f} (cells without predictions or truth "
      "are excluded)")

# --- trajectory metrics --------------------------------------------------------
gt = np.zeros((10, 2))
sharp_end = np.column_stack([[19.5 / 9] * 9 + [0.5], np.zeros(10)])
steady = np.column_stack([[0.0] * 9 + [1.0], np.zeros(10)])
ts = TrajectorySet(np.stack([sharp_end, steady]), gt)
print(f"\nmode A: endpoint error 0.5 m, average error 2.0 m")
print(f"mode B: endpoint error 1.0 m, average error 0.1 m")
print(f"min_fde = {min_fde(ts)} (best endpoint)")
print(f"min_ade = {min_ade(ts)} (average error of the endpoint-best mode,"
      " not the best average)")

agents = [ts, TrajectorySet((gt + np.array([3.0, 0.0]))[None], gt)]
rep = evaluate_trajectories(agents)
print(f"\naggregate over {rep.n_agents} agents: minADE={rep.minADE:.2f} "
      f"minFDE={rep.minFDE:.2f} MR={rep.MR:.2f} "
      "(second agent misses: endpoint error 3 m > 2 m)")
