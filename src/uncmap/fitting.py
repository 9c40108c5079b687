"""Laplace maximum-likelihood estimation on raw samples and on map stacks.

The closed form (median location, found by selection, and mean absolute
deviation scale) is the exact minimizer of the Laplace NLL; :func:`fit_map`
applies it to a whole map's columns in one pass. It is the reference for
the gradient-descent fit, which minimizes the same loss numerically over
(mu, log b). The descent sorts the samples once and evaluates the loss and
its gradient from prefix sums in O(log n) per point. It reports
``converged`` only with an optimality certificate: 0 lies in the
subdifferential in mu, and the derivative in log b is within tolerance
or b rests on the scale floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import CLASS_INDEX
from .probmap import B_FLOOR, VectorMap, one_hot_logits

_LOG2 = math.log(2.0)
# Largest rise of log b in one step. Below the optimum the loss grows like
# exp(-log b), so an unbounded step there overshoots b by orders of magnitude.
_MAX_LOG_B_RISE = 1.0
# The convergence certificate's bound on |d loss / d log b| (its mu half is
# exact), and each line search's first trial step and Armijo constant.
_TOL = 1e-10
_STEP_SIZE = 1.0
_ARMIJO_C = 1e-4


@dataclass
class FitResult:
    """Outcome of a univariate Laplace fit."""

    mu_hat: float
    b_hat: float
    iterations: int
    final_loss: float
    converged: bool = True
    clamped: bool = False
    loss_trace: np.ndarray | None = None


@dataclass
class FitConfig:
    """Gradient-descent settings for :func:`fit_gradient`."""

    max_iters: int = 10_000
    init_mu: float | None = None
    init_b: float | None = None


def _samples(samples) -> np.ndarray:
    """``samples`` as a flat float array, if it holds at least 2 values, all finite."""
    x = np.asarray(samples, dtype=float).ravel()
    if len(x) < 2:
        raise ValueError("need at least 2 samples")
    if not np.all(np.isfinite(x)):
        raise ValueError("samples must be finite")
    return x


def _mean_nll(samples: np.ndarray, mu: float, b: float) -> float:
    return float(np.log(2.0 * b) + np.abs(samples - mu).mean() / b)


def fit_closed_form(samples) -> FitResult:
    """Exact Laplace MLE: mu = sample median, b = mean |x - mu|.

    Even counts use the lower median, found by selection (``np.partition``,
    which leaves the caller's array as it is). All-identical samples would
    give b = 0, so b is clamped to the scale floor and the result flagged.
    """
    x = _samples(samples)
    k = (len(x) - 1) // 2
    mu = float(np.partition(x, k)[k])
    dev = float(np.abs(x - mu).mean())
    b = max(dev, B_FLOOR)
    return FitResult(mu, b, iterations=0, final_loss=float(np.log(2.0 * b) + dev / b),
                     converged=True, clamped=dev < B_FLOOR)


def _sorted_prefix(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Sorted samples, their prefix sums about the lower median, and that median.

    Centring on the lower median keeps the prefix sums, and the differences
    :func:`_abs_sum` and :func:`_mu_step` take of them, small next to the
    loss.
    """
    xs = np.sort(x)
    centre = float(xs[(len(xs) - 1) // 2])
    return xs, np.concatenate(([0.0], np.cumsum(xs - centre))), centre


def _abs_sum(sorted_x: np.ndarray, prefix: np.ndarray, centre: float,
             mu: float) -> tuple[float, int, int]:
    """``sum |x - mu|`` with the counts of samples ``< mu`` and ``<= mu``.

    ``prefix[k]`` is the sum of the ``k`` smallest samples minus ``centre``
    each, so the sum takes two binary searches and O(1) arithmetic.
    """
    n = len(sorted_x)
    below = int(sorted_x.searchsorted(mu))
    upto = below
    if below < n and sorted_x.item(below) == mu:
        upto = int(sorted_x.searchsorted(mu, "right"))
    t = mu - centre
    total = (t * (below + upto - n) - prefix.item(below) - prefix.item(upto)
             + prefix.item(n))
    return total, below, upto


def _sorted_oracle(sorted_x: np.ndarray, prefix: np.ndarray, centre: float, mu: float,
                   s: float) -> tuple[float, float, float, int, int]:
    """Mean Laplace NLL at (mu, log b = s) from sorted samples, in O(log n).

    Returns ``(loss, g_mu, g_s, below, upto)``: ``g_mu`` is the
    minimum-norm subgradient in mu (0 exactly when 0 lies in the
    subdifferential), ``g_s`` the derivative in s, and ``below``/``upto``
    the counts of samples ``< mu`` and ``<= mu``.
    """
    n = len(sorted_x)
    total, below, upto = _abs_sum(sorted_x, prefix, centre, mu)
    r = total / n * math.exp(-s)  # mean |x - mu| / b
    # The subdifferential of sum |x - mu| is [2 below - n, 2 upto - n].
    lo, hi = 2 * below - n, 2 * upto - n
    g = lo if lo > 0 else hi if hi < 0 else 0
    return s + _LOG2 + r, g * math.exp(-s) / n, 1.0 - r, below, upto


def _mu_step(sorted_x: np.ndarray, prefix: np.ndarray, centre: float, target: float,
             g_mu: float, below: int, upto: int) -> tuple[float, float]:
    """Where a mu step towards ``target`` stops, and how far it passed samples.

    A step that would cross samples stops on the farthest of them, so a
    step past the optimum lands exactly on a kink of the loss. Returns the
    new mu and the summed distance from it of the samples strictly passed.
    """
    if g_mu > 0.0:  # moving down past samples below..j
        j = int(sorted_x.searchsorted(target))
        if j == below:
            return target, 0.0
        mu = sorted_x.item(j)
        k = int(sorted_x.searchsorted(mu, "right"))
        return mu, prefix.item(below) - prefix.item(k) - (below - k) * (mu - centre)
    if g_mu < 0.0:  # moving up past samples upto..j - 1
        j = int(sorted_x.searchsorted(target, "right"))
        if j == upto:
            return target, 0.0
        mu = sorted_x.item(j - 1)
        k = int(sorted_x.searchsorted(mu))
        return mu, (k - upto) * (mu - centre) - (prefix.item(k) - prefix.item(upto))
    return target, 0.0


def fit_gradient(samples, config: FitConfig | None = None) -> FitResult:
    """Minimize the mean per-sample Laplace NLL by gradient descent.

    Optimizes over (mu, log b), so b stays positive by construction. The
    samples are sorted once, with prefix sums centred on the lower median,
    so the loss and gradient at any point cost two binary searches
    (:func:`_sorted_oracle`).

    Each step descends along the minimum-norm subgradient in mu times b²,
    the inverse Fisher information of a Laplace location, so a start far
    from the data, where b is large, does not crawl in mu. A mu move
    that would cross samples stops on the farthest of them
    (:func:`_mu_step`), so a step past the optimum lands exactly on a kink
    of the loss. A backtracking (halving) line search applies the Armijo
    sufficient-decrease test to the step actually taken. A trial's loss
    change follows from the slope at mu and the samples it passes, not from
    the difference of two rounded losses, so the test resolves decreases
    far below the rounding of the loss itself. ``loss_trace`` starts at the
    initial loss and adds each accepted change, so it never rises.

    log b stays at or above ``log(B_FLOOR)`` and rises by at most
    ``_MAX_LOG_B_RISE`` per step.

    ``converged`` is a certificate, not a stall test. It holds when 0 lies
    in the mu subdifferential (the counts of samples below and above mu
    differ by at most the count at mu) and ``|d loss / d log b| <=
    1e-10``, or when b sits on the floor and the loss still falls
    towards smaller b; that result is flagged ``clamped``, as in
    :func:`fit_closed_form`.
    """
    cfg = config or FitConfig()
    x = _samples(samples)
    sorted_x, prefix, centre = _sorted_prefix(x)
    if sorted_x[0] == sorted_x[-1]:
        # NLL is unbounded below in b for identical samples; report the
        # floored closed form instead of iterating.
        res = fit_closed_form(x)
        return FitResult(res.mu_hat, res.b_hat, 0, res.final_loss,
                         converged=True, clamped=True,
                         loss_trace=np.array([res.final_loss]))

    n = len(x)
    mu = centre + prefix.item(n) / n if cfg.init_mu is None else float(cfg.init_mu)
    b0 = _abs_sum(sorted_x, prefix, centre, mu)[0] / n if cfg.init_b is None \
        else float(cfg.init_b)
    s_floor = math.log(B_FLOOR)
    s = max(math.log(b0), s_floor) if b0 > 0.0 else s_floor

    loss, gmu, gs, below, upto = _sorted_oracle(sorted_x, prefix, centre, mu, s)
    trace = [loss]
    iterations = 0
    converged = False
    for _ in range(cfg.max_iters):
        if gmu == 0.0 and (abs(gs) <= _TOL or (s == s_floor and gs > 0.0)):
            converged = True
            break
        r = 1.0 - gs  # mean |x - mu| / b
        w = math.exp(-s) / n  # d loss / d sum |x - mu|
        alpha = _STEP_SIZE
        accepted = False
        while alpha > 1e-20:
            mu_new, crossed = _mu_step(sorted_x, prefix, centre,
                                       mu - alpha * gmu * math.exp(2.0 * s), gmu, below, upto)
            s_new = min(max(s - alpha * gs, s_floor), s + _MAX_LOG_B_RISE)
            dmu, ds = mu_new - mu, s_new - s
            if dmu == 0.0 and ds == 0.0:
                break  # the step is below float resolution
            # sum |x - mu| changes by its slope at mu times dmu, plus twice
            # the distances of the samples passed from the new mu.
            change = (ds + r * math.expm1(-ds)
                      + (gmu * dmu + 2.0 * w * crossed) * math.exp(-ds))
            if change <= _ARMIJO_C * (gmu * dmu + gs * ds):
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            break
        iterations += 1
        mu, s = mu_new, s_new
        _, gmu, gs, below, upto = _sorted_oracle(sorted_x, prefix, centre, mu, s)
        loss += change
        trace.append(loss)
    clamped = s == s_floor and gs > 0.0  # the optimal b lies below the floor
    b = B_FLOOR if clamped else math.exp(s)
    return FitResult(mu, b, iterations, _mean_nll(x, mu, b),
                     converged=converged, clamped=clamped,
                     loss_trace=np.asarray(trace))


def fit_map(observations: list[VectorMap], template: VectorMap) -> VectorMap:
    """Fit one probabilistic map from repeated observations of a true map.

    Every observation must share the template's element and vertex counts;
    correspondence is positional, so no matching is performed. Each vertex
    coordinate is fitted with the closed-form estimator, in one pass over the
    whole map's (N, V, 2) column stack: the lower median, copied out of the
    sorted stack so that the map does not keep it alive, and the mean
    absolute deviation about it, scale floored.
    """
    if not observations:
        raise ValueError("need at least one observation")
    classes = [el.element_class for el in template.elements]
    rows = template.offsets.tolist()
    for obs in observations:
        if obs.offsets.tolist() != rows:
            raise ValueError("observation element or vertex counts differ from template")
        if [el.element_class for el in obs.elements] != classes:
            raise ValueError("observation classes differ from template")
    if not classes:
        return VectorMap([], template.ego_pose, template.perception_range)

    stack = np.stack([obs.mu for obs in observations])  # (N, V, 2)
    mu = np.sort(stack, axis=0)[(len(stack) - 1) // 2].copy()
    stack -= mu
    b = np.maximum(np.abs(stack, out=stack).mean(axis=0), B_FLOOR)
    index = np.repeat([CLASS_INDEX[c] for c in classes], np.diff(template.offsets))
    return VectorMap.from_columns(template.elements, template.offsets, mu, b,
                                  one_hot_logits(index), template.ego_pose,
                                  template.perception_range)
