"""Medians and correlation statistics for the evaluation harness."""

from __future__ import annotations

import math
from statistics import median_low  # noqa: F401  element (n-1)//2 of the sorted values, never interpolated

import numpy as np


def rankdata(values) -> np.ndarray:
    """1-based ranks with ties sharing their average rank."""
    v = np.asarray(values, dtype=float)
    order = np.argsort(v, kind="mergesort")
    ranks = np.empty(v.size, dtype=float)
    i = 0
    while i < v.size:
        j = i
        while j + 1 < v.size and v[order[j + 1]] == v[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def pearson(x, y) -> float | None:
    """Pearson correlation, or None when either input is constant."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise ValueError(f"inputs must be equal-length vectors, got {xa.shape} and {ya.shape}")
    if xa.size < 2:
        return None
    dx = xa - xa.mean()
    dy = ya - ya.mean()
    vx = float(dx @ dx)
    vy = float(dy @ dy)
    if vx <= 0.0 or vy <= 0.0:
        return None
    return float((dx @ dy) / math.sqrt(vx * vy))


def spearman(x, y) -> float | None:
    """Spearman rank correlation, or None when either input is constant."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise ValueError(f"inputs must be equal-length vectors, got {xa.shape} and {ya.shape}")
    if xa.size < 2:
        return None
    return pearson(rankdata(xa), rankdata(ya))
