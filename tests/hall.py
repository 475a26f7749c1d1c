"""Uniform witnesses decided by Hall's theorem, at any k.

A window-w listing of a k-prefix is a permutation σ of 0..k-1 with
σ(t) < t + w for every output t, and its pattern is ρ∘σ, where ρ is the
native prefix's pattern.  Equal patterns force B's listing to be τ∘σ_A,
with τ = ρ_B⁻¹∘ρ_A, so A's index j, paired with B's index τ(j), cannot be
output before r_j = max(j, τ(j)) - w + 1.  A witness is a bijection from
indices to outputs with t >= r_j; by Hall (1935) one exists iff, for every
T, at most k - T indices have r_j >= T.  Taking a released index never
changes any later output's count, so the least witness takes, at each
output, the least unused index already released: a heap, O(k log k).
"""

from __future__ import annotations

import heapq

from eolab.patterns import pattern_of
from eolab.search import _ranks


def uniform_witness(native_a, native_b, w: int):
    """A's and B's choice vectors of the lexicographically least uniform
    window-w witness over two native k-prefixes of distinct values, or None
    when there is none."""
    k = len(native_a)
    rank_a, rank_b = pattern_of(native_a).ranks, pattern_of(native_b).ranks
    index_b = {r: i for i, r in enumerate(rank_b)}
    tau = [index_b[r] for r in rank_a]
    release = [max(j, tau[j]) - w + 1 for j in range(k)]
    released = sorted(range(k), key=release.__getitem__)
    ready, picks, n = [], [], 0
    for t in range(k):
        while n < k and release[released[n]] <= t:
            heapq.heappush(ready, released[n])
            n += 1
        if not ready:  # more than k - t - 1 indices are released after t
            return None
        picks.append(heapq.heappop(ready))
    limits = [min(t + w, k) for t in range(k)]
    return _ranks(picks, limits), _ranks([tau[j] for j in picks], limits)
