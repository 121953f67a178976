"""Max-min OFDMA subcarrier and power allocation.

The max-min assignment problem is a mixed-integer program, so it is solved
with a two-stage heuristic:

  stage 1  greedy subcarrier assignment: repeatedly give the currently
           worst-off user the unassigned tone on which its channel advantage
           over the best other user is largest, tracking provisional rates
           under an equal power split across all tones. A user takes only
           tones it can use; tones no user can use go to user 0. Each user's
           tone preference order is static, so it is sorted once (one
           argsort, with an exact lexsort when keys tie); a heap of
           (provisional, index) picks the worst-off user and each user walks
           its order lazily, so the stage costs O(K log K + K log M);
  stage 2  with the assignment fixed, each user water-fills an equal share
           of the power budget over its own tones; all users in one call.

Only the greedy increments and the water-filling read the transmit power;
the rest is a ToneTerms record shared by all power levels on one channel.
The greedy runs once per level, stage 2 once over the users of all levels.

A brute-force enumerator over all assignments, on the same water-filling
and rate code, is the optimality reference for small instances.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import ChannelGrid
from .frame import FrameDesign
from .geometry import Scenario

__all__ = [
    "Allocation",
    "user_rate",
    "greedy_assign",
    "waterfill",
    "allocate",
    "min_rate",
    "exhaustive_oracle",
]

# Largest instance exhaustive_oracle enumerates: 3^12 = 531441 assignments.
ORACLE_MAX_USERS = 3
ORACLE_MAX_TONES = 12


@dataclass
class Allocation:
    """Subcarrier assignment, power loads and resulting per-user rates.

    assignment[m, k] is 1 iff tone k belongs to user m (columns sum to 1),
    power[m, k] is the load in watts (positive only where assigned), rates
    are bits/s. unusable_budget[m] flags a user whose power share could not
    be spent because every assigned tone had zero gain.
    """

    assignment: np.ndarray  # (M, K) int8
    power: np.ndarray  # (M, K) watts
    rates: np.ndarray  # (M,) bits/s
    unusable_budget: np.ndarray  # (M,) bool


def _per_watt(gains_sq, frame: FrameDesign, scenario: Scenario) -> np.ndarray:
    """Per-watt SNR slope of every (user, tone) from its |H|^2:
    |H|^2 / (N * delta_f * N0).

    The transmit power of each tone is spread uniformly over the N apertures,
    hence the extra N in the denominator. Units are 1/W, so gain * power is
    the tone SNR.
    """
    return gains_sq / (scenario.n_pas * frame.subcarrier_spacing * scenario.noise_psd)


def user_rate(
    assign_row: np.ndarray,
    power_row: np.ndarray,
    gain_row: np.ndarray,
    frame: FrameDesign,
):
    """Achievable rate over the assigned tones, bits/s.

    cp_efficiency * delta_f * sum over assigned tones of log2(1 + gain * power).
    (K,) rows give a float, (..., K) rows a (...) array.
    """
    spectral = np.log2(1.0 + gain_row * power_row)
    rate = frame.cp_efficiency * frame.subcarrier_spacing * np.sum(assign_row * spectral, axis=-1)
    return float(rate) if np.ndim(rate) == 0 else rate


def _channel_advantage(gains_sq: np.ndarray) -> np.ndarray:
    """Ratio of each user's tone gain to the best other user's, +inf when
    no other user has any gain on the tone.

    The best other gain is the column maximum, except on the row holding it,
    where it is the largest of the rest; zeroing that one entry gives the
    rest, since gains are >= 0 (a tied row still sees the maximum).
    """
    best = gains_sq.max(axis=0)
    others = gains_sq.copy()
    others[gains_sq.argmax(axis=0), np.arange(gains_sq.shape[1])] = 0.0
    denom = np.where(gains_sq == best, others.max(axis=0), best)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gamma = gains_sq / denom
    gamma[denom == 0.0] = np.inf
    return gamma


class ToneTerms(NamedTuple):
    """The power-free terms of the allocation on one channel."""

    gains_sq: np.ndarray  # (M, K) |H|^2
    gains: np.ndarray  # (M, K) per-watt SNR slopes, from _per_watt
    prefs: list  # per user, its positive-gain tones in greedy's preference order


def _tone_terms(gains_sq: np.ndarray, frame: FrameDesign, scenario: Scenario) -> ToneTerms:
    """ToneTerms of a channel from its squared magnitudes; reads no tx_power."""
    # Per user: usable tones by advantage desc, own gain desc, index asc. With
    # unusable tones keyed +inf, one argsort gives that order whatever the
    # kernel, unless two usable tones of a row tie on the key (np.sort finds
    # ties faster than a gather of the argsorted keys); then the stable
    # lexsort on (key, -own gain) decides. Only the usable prefix is kept.
    usable = gains_sq > 0.0
    keys = np.where(usable, -_channel_advantage(gains_sq), np.inf)
    order = np.argsort(keys, axis=-1)
    ranked = np.sort(keys, axis=-1)
    if (ranked[:, 1:] == ranked[:, :-1])[ranked[:, 1:] < np.inf].any():
        order = np.lexsort((-gains_sq, keys), axis=-1)
    prefs = [memoryview(row[:n]) for row, n in zip(order, usable.sum(axis=1).tolist())]
    return ToneTerms(gains_sq, _per_watt(gains_sq, frame, scenario), prefs)


def greedy_assign(
    gains_sq: np.ndarray, frame: FrameDesign, scenario: Scenario
) -> np.ndarray:
    """Stage-1 greedy subcarrier assignment from squared channel magnitudes.

    Parameters
    ----------
    gains_sq : (M, K) array
        |H|^2 of every user on every tone.
    frame, scenario
        Supply delta_f, cp_efficiency, power budget and noise level for the
        provisional equal-power rate updates.

    Returns
    -------
    (M, K) int8 assignment matrix with every column summing to 1.

    Ties are broken deterministically: the worst-off user by lowest index,
    the tone by largest advantage, then largest own gain, then lowest index.
    A user takes only tones it can use (positive gain) and drops out for
    good once none is left, so a blocked user never absorbs tones at zero
    benefit. Tones no user can use go to user 0: they get zero power
    whoever owns them, but every tone must have exactly one owner.
    """
    return _greedy(_tone_terms(gains_sq, frame, scenario), frame, scenario, scenario.tx_power)


def _greedy(terms: ToneTerms, frame: FrameDesign, scenario: Scenario, tx_power: float):
    """greedy_assign on a channel's ToneTerms at tx_power watts."""
    gains_sq, prefs = terms.gains_sq, terms.prefs
    m_users, k_tones = gains_sq.shape
    # Equal-power provisional SNR per unit |H|^2: P_t / (N0 delta_f N K)
    snr_slope = tx_power / (
        scenario.noise_psd * frame.subcarrier_spacing * scenario.n_pas * k_tones
    )
    eff_df = frame.cp_efficiency * frame.subcarrier_spacing
    increments = eff_df * np.log2(1.0 + gains_sq * snr_slope)
    # Each user's lazy walk over its (tone, increment) pairs in its order.
    walks = [zip(pref, memoryview(row.take(pref))) for row, pref in zip(increments, prefs)]
    # (provisional rate, user): the heap's head is the worst-off user, lowest
    # index on ties. Increments are >= 0 and never nan, so the order is total.
    heap = [(0.0, m) for m in range(m_users)]
    owner = np.full(k_tones, -1, dtype=np.intp)  # -1 until a user takes the tone
    owned = memoryview(owner)  # per-step access skips numpy's scalar conversion

    while heap:
        provisional, m_star = heap[0]
        for k_star, inc in walks[m_star]:
            if owned[k_star] < 0:
                owned[k_star] = m_star
                heapq.heapreplace(heap, (provisional + inc, m_star))
                break
        else:
            heapq.heappop(heap)
    assignment = np.zeros((m_users, k_tones), dtype=np.int8)
    assignment[np.maximum(owner, 0), np.arange(k_tones)] = 1  # tones no user can use go to user 0
    return assignment


def waterfill(gains, budget):
    """Classical water-filling over parallel channels.

    Maximizes sum log2(1 + gain_k * p_k) subject to sum p_k = budget, p >= 0,
    via the exact sorted-breakpoint water level (no iterative bisection):
    with breakpoints 1/gain sorted ascending, the level for an active set of
    size j is mu_j = (budget + sum of the j smallest breakpoints) / j, and
    the optimal set is the largest j with mu_j above its own breakpoint.

    Parameters
    ----------
    gains : (K,) per-watt SNR slopes, 1/W, entries >= 0, or (R, K) rows of
        them, each water-filled on its own.
    budget : total power to spend per row, watts, >= 0: one for every row,
        or an (R,) array with one per row.

    Returns
    -------
    (powers, level) : loads per channel summing to the budget on the
        positive-gain channels, and the water level mu (a float, or (R,)
        for (R, K) gains). Channels with zero gain always get zero power. If
        no channel can carry power the loads are all zero and the level is
        nan (budget unusable).
    """
    gains = np.asarray(gains, dtype=float)
    budget = np.asarray(budget, dtype=float)
    if (budget < 0).any():
        raise ValueError("budget must be >= 0")
    if (gains < 0).any():
        raise ValueError("gains must be >= 0")
    rows = np.atleast_2d(gains)
    powers = np.zeros_like(rows)
    counts = (rows > 0).sum(axis=1)
    width = counts.max(initial=0)
    level = np.full(rows.shape[0], np.nan)
    if width:
        # Each row's largest gains, descending: its positive channels first,
        # then zeros. Their breakpoints ascend, and a zero's is +inf and never
        # feasible, so a row's cumsum sums over its own channels alone.
        desc = np.sort(rows, axis=1)[:, : -width - 1 : -1]
        with np.errstate(divide="ignore"):
            sorted_bp = 1.0 / desc
        levels = (budget[..., None] + np.cumsum(sorted_bp, axis=1)) / np.arange(1, width + 1)
        j = np.where(levels > sorted_bp, np.arange(width), -1).max(axis=1)
        r = np.arange(rows.shape[0])
        # Without a feasible j (zero budget) water sits at the lowest breakpoint.
        lowest = np.where(j >= 0, levels[r, j], sorted_bp[:, 0])
        level = np.where(counts > 0, lowest, np.nan)
        active = rows >= np.where(j >= 0, desc[r, j], np.inf)[:, None]
        np.divide(1.0, rows, out=powers, where=active)
        np.subtract(level[:, None], powers, out=powers, where=active)
    if gains.ndim == 1:
        return powers[0], float(level[0])
    return powers, level


def allocate(grid: ChannelGrid, frame: FrameDesign, scenario: Scenario) -> Allocation:
    """Run both stages on a channel grid: greedy assignment, then per-user
    water-filling of an equal share P_t / M of the power budget."""
    terms = _tone_terms(np.abs(grid.h) ** 2, frame, scenario)
    return _allocate_levels(terms, frame, scenario, np.array([scenario.tx_power]))[0]


def _allocate_levels(terms: ToneTerms, frame: FrameDesign, scenario: Scenario, tx_powers):
    """allocate on a channel's ToneTerms at each of the (L,) tx_powers: a
    list of L Allocations. Every user of every level water-fills its share
    over its own tones in one call: another user's tones get zero gain."""
    assignments = np.array([_greedy(terms, frame, scenario, p) for p in tx_powers.tolist()])
    n_levels, m_users, k_tones = assignments.shape
    budgets = (tx_powers / m_users).repeat(m_users)  # one per (level, user) row
    power, levels = waterfill((assignments * terms.gains).reshape(-1, k_tones), budgets)
    power = power.reshape(assignments.shape)
    rates = user_rate(assignments, power, terms.gains, frame)
    unusable = ((budgets > 0) & np.isnan(levels)).reshape(n_levels, m_users)
    return [Allocation(*level) for level in zip(assignments, power, rates, unusable)]


def min_rate(allocation: Allocation) -> float:
    """Worst per-user rate of an allocation, bits/s."""
    return float(np.min(allocation.rates))


def exhaustive_oracle(grid: ChannelGrid, frame: FrameDesign, scenario: Scenario):
    """Brute-force max-min reference over every tone-to-user assignment.

    Enumerates all M^K assignments (each tone owned by exactly one user),
    water-fills the same per-user budget P_t / M the heuristic uses, and
    returns the assignment with the largest minimum rate. Ties are broken by
    the lexicographically smallest assignment vector. This is optimal for
    the problem restricted to the heuristic's equal per-user power split, so
    comparisons against the greedy stage isolate assignment quality.

    Each user's rates on all 2^K tone subsets come from one waterfill and
    one user_rate call over the subsets as rows: the allocator's own code.

    Raises ValueError past ORACLE_MAX_USERS users or ORACLE_MAX_TONES tones.
    """
    m_users, k_tones = grid.n_users, grid.n_subcarriers
    if k_tones > ORACLE_MAX_TONES or m_users > ORACLE_MAX_USERS:
        raise ValueError(
            f"instance {m_users} users x {k_tones} tones exceeds enumeration "
            f"limits ({ORACLE_MAX_USERS} x {ORACLE_MAX_TONES})"
        )
    gains = _per_watt(np.abs(grid.h) ** 2, frame, scenario)
    budget = scenario.tx_power / m_users

    # Row s of subsets holds the tones of bitmask s (tone k is bit k); row 0
    # is the empty subset, whose rate is zero.
    subsets = (np.arange(1 << k_tones)[:, None] >> np.arange(k_tones) & 1).astype(np.int8)
    table = np.empty((m_users, 1 << k_tones))
    for m in range(m_users):
        power, _ = waterfill(subsets * gains[m], budget)
        table[m] = user_rate(subsets, power, gains[m], frame)

    # Every user's tone bitmask under all assignments in lexicographic order:
    # each tone appends a base-M digit, so tone 0 is the most significant
    # and index order equals assignment-vector order.
    masks = np.zeros((m_users, 1), dtype=np.intp)
    owns = np.eye(m_users, dtype=np.intp)
    for k in range(k_tones):
        masks = (masks[:, :, None] | owns[:, None, :] << k).reshape(m_users, -1)
    worst = np.take_along_axis(table, masks, axis=1).min(axis=0)
    best_idx = int(np.argmax(worst))  # first maximum = lexicographically smallest
    return subsets[masks[:, best_idx]], float(worst[best_idx])
