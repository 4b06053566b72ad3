"""Attack-success metric: can the adversary distinguish two secrets?

A timing attack yields a *measurement* per trial.  The defense evaluation
(DESIGN.md §6) declares the attack successful when either adversary
wins: a threshold classifier, trained and evaluated on held-out halves
of the trial measurements for secret A vs secret B, reaches accuracy
≥ :data:`SUCCESS_ACCURACY`, or Welch's t between the two samples reaches
|t| ≥ :data:`SUCCESS_T_STAT`.

The second test matches how the paper argues: "an adversary can still
average the results of 25 runs and differentiate two images" — a mean
separation that averaging exposes is what Welch's t measures.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple


#: Classifier accuracy at which we call an attack successful.
SUCCESS_ACCURACY = 0.75


def best_threshold_accuracy(samples_a: Sequence[float], samples_b: Sequence[float]) -> float:
    """Best achievable accuracy of a single-threshold classifier.

    Considers both orientations (A below/above the threshold) and every
    midpoint between adjacent distinct values.
    """
    if not samples_a or not samples_b:
        raise ValueError("need samples for both secrets")
    points: List[Tuple[float, int]] = [(v, 0) for v in samples_a] + [
        (v, 1) for v in samples_b
    ]
    points.sort(key=lambda p: p[0])
    total = len(points)
    count_a = len(samples_a)
    best = 0.5
    # sweep thresholds: below-threshold classified as A (then as B).
    # A threshold is only realisable BETWEEN two distinct values, so ties
    # must be skipped — otherwise identical samples score accuracy 1.0.
    a_below = 0
    b_below = 0
    for i, (value, label) in enumerate(points):
        if label == 0:
            a_below += 1
        else:
            b_below += 1
        if i + 1 < total and points[i + 1][0] == value:
            continue  # cannot cut between equal values
        if i + 1 == total:
            break  # threshold above everything classifies all one way
        correct_a_below = a_below + (len(samples_b) - b_below)
        correct_b_below = b_below + (count_a - a_below)
        best = max(best, correct_a_below / total, correct_b_below / total)
    return best


def held_out_accuracy(samples_a: Sequence[float], samples_b: Sequence[float]) -> float:
    """Cross-validated threshold accuracy (guards against overfitting).

    The threshold and orientation are chosen on the even-indexed trials
    and scored on the odd-indexed trials.  Pure noise therefore scores
    near 0.5 instead of the inflated in-sample optimum.
    """
    train_a, test_a = samples_a[0::2], samples_a[1::2]
    train_b, test_b = samples_b[0::2], samples_b[1::2]
    if not train_a or not train_b or not test_a or not test_b:
        return best_threshold_accuracy(samples_a, samples_b)
    threshold, a_is_below = _fit_threshold(train_a, train_b)
    correct = 0
    for value in test_a:
        correct += 1 if (value <= threshold) == a_is_below else 0
    for value in test_b:
        correct += 1 if (value <= threshold) != a_is_below else 0
    return correct / (len(test_a) + len(test_b))


def _fit_threshold(samples_a: Sequence[float], samples_b: Sequence[float]) -> Tuple[float, bool]:
    points = sorted([(v, 0) for v in samples_a] + [(v, 1) for v in samples_b],
                    key=lambda p: p[0])
    total = len(points)
    count_a = len(samples_a)
    best = (points[0][0] - 1.0, True, 0.5)
    a_below = 0
    b_below = 0
    for i, (value, label) in enumerate(points):
        if label == 0:
            a_below += 1
        else:
            b_below += 1
        if i + 1 >= total or points[i + 1][0] == value:
            continue
        cut = (value + points[i + 1][0]) / 2
        acc_a_below = (a_below + (len(samples_b) - b_below)) / total
        acc_b_below = (b_below + (count_a - a_below)) / total
        if acc_a_below > best[2]:
            best = (cut, True, acc_a_below)
        if acc_b_below > best[2]:
            best = (cut, False, acc_b_below)
    return best[0], best[1]


def welch_t(samples_a: Sequence[float], samples_b: Sequence[float]) -> float:
    """Welch's t-statistic — the averaging adversary's test.

    Averaging over repeated runs defeats zero-mean noise but not
    determinism: a genuine mean separation yields a large |t|, identical
    deterministic measurements yield 0, and pure noise stays small.
    Degenerate zero-variance cases: equal constants -> 0, different
    constants -> infinity.
    """
    from .stats import mean as _mean, stdev as _stdev

    mu_a, mu_b = _mean(samples_a), _mean(samples_b)
    var_a = _stdev(samples_a) ** 2
    var_b = _stdev(samples_b) ** 2
    se = math.sqrt(var_a / len(samples_a) + var_b / len(samples_b))
    if se == 0:
        return 0.0 if mu_a == mu_b else float("inf")
    return abs(mu_a - mu_b) / se


#: |t| at which the averaging adversary wins.
SUCCESS_T_STAT = 4.0


def distinguishable(samples_a: Sequence[float], samples_b: Sequence[float]) -> bool:
    """The Table I success criterion for timing attacks.

    Success if EITHER the single-trial adversary wins (held-out threshold
    classifier accuracy >= :data:`SUCCESS_ACCURACY`) OR the averaging
    adversary wins (Welch |t| >= :data:`SUCCESS_T_STAT`) — mirroring the
    paper's "an adversary can still average the results of 25 runs".
    """
    accuracy = held_out_accuracy(samples_a, samples_b)
    t_stat = welch_t(samples_a, samples_b)
    return accuracy >= SUCCESS_ACCURACY or t_stat >= SUCCESS_T_STAT
