#!/usr/bin/env python3
"""Orbit growth: word balls, the critical-exponent estimate, cone growth curves,
limit-cone directions, subadditivity defects, and the root-growth slope.
"""

import math

import numpy as np

from slnlab import (
    GroupElement,
    anosov_slope,
    cartan_projection,
    enumerate_ball,
    estimate_delta,
    growth_indicator_estimate,
    limit_cone_sample,
    poincare_partial_sum,
    subadditivity_defect,
)
from slnlab.orbits import barycentric_axis

d = GroupElement.from_exact([["148", "0"], ["0", "1/148"]])
s = GroupElement.from_exact([["4/5", "-3/5"], ["3/5", "4/5"]])
pair = [d, s.matmul(d).matmul(s.inverse())]

ball = enumerate_ball(pair, 10, dedup="none")
print(f"ball of radius 10: {len(ball)} words")

l_bar = float(np.mean([cartan_projection(g).norm for g in pair]))
rep = estimate_delta(ball, bins=2.0)
print(f"delta_hat = {rep.delta_hat:.4f}   log(2)/mean-generator-norm = {math.log(2) / l_bar:.4f}")
print(f"fit window {tuple(round(x, 1) for x in rep.fit_window)}, residual {rep.fit_residual:.3f}")

print("\npartial sums of the orbit series:")
for sval in (0.0, 0.05, rep.delta_hat, 0.2):
    print(f"  s={sval:.3f} -> {poincare_partial_sum(ball, sval):.2f}")

curve = growth_indicator_estimate(ball, barycentric_axis(2), [0.2, 0.4, 0.8], bins=2.0)
print("\ncone growth curve (half-angle, rate):")
for c in curve:
    print(f"  {c.cone.half_angle:.2f}  {c.tau_hat if c.tau_hat is not None else c.error}")

sample = limit_cone_sample(ball, floor=20.0)
dirs = np.unique(np.round(sample.kappa_directions, 3), axis=0)
print(f"\nlimit-cone sample: {len(sample.kappa_directions)} directions, "
      f"{len(dirs)} distinct at 3 decimals (n=2 collapses them to the chamber ray)")

mx, mean, _ = subadditivity_defect(ball[ball.lengths <= 3].elements(), pair_budget=300)
print(f"\nsubadditivity defect over sampled short-word pairs: max {mx:.3f}, mean {mean:.3f}")

C, c, ratio = anosov_slope(ball)
print(f"root-growth slope: min_root(kappa) >= {C:.2f} * length - {c:.2f}; "
      f"worst ratio {ratio:.2f}")
