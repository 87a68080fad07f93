"""Event-report clustering heuristic (§3.2, steps 1-5).

After ``T_out`` elapses, the cluster head groups the collected location
reports into *event clusters* of radius ``r_error`` -- each a candidate
event location.  The heuristic is K-means-like but chooses its own K:

1. find the two mutually farthest reports (the paper phrases this as
   computing the pairwise distances and taking the extreme pair);
2. seed two clusters at that farthest pair;
3. any report farther than ``r_error`` from every existing centre seeds
   a new cluster, until all remaining reports are within ``r_error`` of
   some centre;
4. assign every remaining report to its nearest centre and update each
   cluster's centre of gravity;
5. if two or more centres fall within ``r_error`` of one another, merge
   them at the weighted average of the centres and repeat the rounds
   until no membership changes.

Reports whose location is off by more than ``r_error`` end up in their
own (small) clusters and are naturally out-voted -- "this design
successfully throws out event reports from nodes that make a
localization error of more than r_error" (§3.2).

One algorithm, two routes over the same flat coordinates:

* the **flat float-list route** (:func:`cluster_reports_flat`) runs
  the steps as plain Python loops -- below ``_FLAT_MIN_NUMPY`` reports
  numpy's per-ufunc dispatch costs more than the arithmetic;
* the **numpy route** precomputes the full pairwise distance matrix
  once and reuses it across farthest-pair selection, coverage seeding,
  and the first assignment round (the initial centres *are* report
  rows, so their distance columns already exist in the matrix).

:func:`cluster_reports_xy` dispatches between them on window size;
:func:`cluster_reports` is the ``Point``-sequence adapter onto it.
Both routes produce bit-identical output: every distance is evaluated
as ``sqrt(dx*dx + dy*dy)`` (each step correctly rounded, scalar and
vectorised alike -- see
:meth:`repro.network.geometry.Point.distance_to`), ``np.argmin`` breaks
ties at the lowest index exactly like the scalar scan, and centres of
gravity are accumulated in ascending report order.  The original
per-``Point`` implementation is kept as a test oracle in
``tests/oracles/clustering.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.network.geometry import Point

_MAX_ROUNDS = 100

#: Window size below which the flat float-list route beats numpy.
#: Sub-microsecond Python float arithmetic wins against per-ufunc
#: dispatch overhead (~1-2us each) until the O(n^2) distance work
#: dominates; the routes cross near 12-16 reports (coherent blobs
#: cross later than uniform scatter, and post-gate windows are
#: blob-shaped, so the threshold leans high).
_FLAT_MIN_NUMPY = 16


@dataclass(frozen=True)
class ReportCluster:
    """One event cluster: member report indices and the centre of gravity.

    ``indices`` refer to positions in the report sequence passed to
    :func:`cluster_reports`, so callers can map members back to the
    original reports (and thus reporting nodes).
    """

    indices: Tuple[int, ...]
    center: Point

    def __len__(self) -> int:
        return len(self.indices)


def cluster_reports(
    locations: Sequence[Point], r_error: float
) -> List[ReportCluster]:
    """Group report locations into event clusters of radius ``r_error``.

    Parameters
    ----------
    locations:
        Absolute event locations implied by the reports (the CH resolves
        each node's ``(r, theta)`` offset before calling this).
    r_error:
        The application's localisation error bound.

    Returns
    -------
    list of :class:`ReportCluster`
        Clusters sorted by descending size then ascending first index,
        so the dominant candidate event comes first.
    """
    xs = np.array([p.x for p in locations], dtype=np.float64)
    ys = np.array([p.y for p in locations], dtype=np.float64)
    return cluster_reports_xy(xs, ys, r_error)


def cluster_reports_xy(
    xs: np.ndarray, ys: np.ndarray, r_error: float
) -> List[ReportCluster]:
    """Array-native clustering entry: coordinates as flat float arrays.

    The decision kernel's window rows arrive as ``(xs, ys)`` float64
    arrays.  Windows below ``_FLAT_MIN_NUMPY`` reports run the flat
    float-list route, larger ones the numpy route; the output bits are
    the same either way.
    """
    if r_error <= 0:
        raise ValueError(f"r_error must be positive, got {r_error}")
    n = len(xs)
    if n == 0:
        return []
    if n == 1:
        return [
            ReportCluster(
                indices=(0,), center=Point(float(xs[0]), float(ys[0]))
            )
        ]
    if n < _FLAT_MIN_NUMPY:
        # .tolist() yields plain Python floats -- np.float64 elements
        # leaking into Point would change reprs (and thus fingerprints).
        return _cluster_reports_flat(xs.tolist(), ys.tolist(), r_error)
    return _cluster_reports_xy(xs, ys, r_error)


def cluster_reports_flat(
    xs: List[float], ys: List[float], r_error: float
) -> List[ReportCluster]:
    """Clustering entry over plain float lists (no numpy, no ``Point``).

    The decision kernel's small-window route already holds the window
    as Python float lists; this entry skips even the array wrapping.
    Output is bit-identical to :func:`cluster_reports_xy` over the same
    coordinates.
    """
    if r_error <= 0:
        raise ValueError(f"r_error must be positive, got {r_error}")
    n = len(xs)
    if n == 0:
        return []
    if n == 1:
        return [ReportCluster(indices=(0,), center=Point(xs[0], ys[0]))]
    return _cluster_reports_flat(xs, ys, r_error)


# ----------------------------------------------------------------------
# Flat float-list route (small windows)
# ----------------------------------------------------------------------
def _cluster_reports_flat(
    xs: List[float], ys: List[float], r_error: float
) -> List[ReportCluster]:
    """Scalar clustering over parallel float lists (``n >= 2``).

    Steps 1-5 as plain loops: the farthest-pair scan keeps the first
    pair with strict ``>``, seeds are taken in index order, the
    nearest-centre tie-break keeps the lower index, and centroids
    accumulate left to right -- so the output bits match the numpy
    route.
    """
    n = len(xs)
    sqrt = math.sqrt
    # Bounding-box pre-check: rounding is monotone, so every pairwise
    # distance is <= the bbox diagonal even in floating point, and a
    # diagonal within r_error guarantees the farthest-pair scan below
    # would land in the single-cluster exit.  The nominal TIBFIT
    # window -- every correct reporter of one event, claims within the
    # error radius -- hits this in O(n) instead of O(n^2).
    wx = max(xs) - min(xs)
    wy = max(ys) - min(ys)
    if sqrt(wx * wx + wy * wy) <= r_error:
        single = True
        bi, bj = 0, 1
    else:
        best_d = -1.0
        bi, bj = 0, 1
        for i in range(n):
            xi = xs[i]
            yi = ys[i]
            for j in range(i + 1, n):
                dx = xi - xs[j]
                dy = yi - ys[j]
                d = sqrt(dx * dx + dy * dy)
                if d > best_d:
                    best_d = d
                    bi, bj = i, j
        single = best_d <= r_error
    if single:
        # Single-cluster early exit: the window's diameter is within
        # r_error, so the rounds would converge to one all-member
        # cluster (both seed centroids lie inside the window's hull,
        # and step 5 merges them at once).
        sx = 0.0
        sy = 0.0
        for k in range(n):
            sx += xs[k]
            sy += ys[k]
        return [
            ReportCluster(
                indices=tuple(range(n)),
                center=Point(sx / float(n), sy / float(n)),
            )
        ]

    # Steps 2-3: farthest-pair seeds, then coverage seeds.
    cxl = [xs[bi], xs[bj]]
    cyl = [ys[bi], ys[bj]]
    for k in range(n):
        if k == bi or k == bj:
            continue
        xk = xs[k]
        yk = ys[k]
        for c in range(len(cxl)):
            dx = xk - cxl[c]
            dy = yk - cyl[c]
            if sqrt(dx * dx + dy * dy) <= r_error:
                break
        else:
            cxl.append(xk)
            cyl.append(yk)

    assignment: List[int] = []
    current = _assign_flat(xs, ys, cxl, cyl)
    for _ in range(_MAX_ROUNDS):
        cxl, cyl = _recenter_flat(xs, ys, current, len(cxl))
        cxl, cyl, current = _merge_close_flat(xs, ys, cxl, cyl, r_error)
        if current == assignment:
            break
        assignment = current

    return _build_clusters_arrays(xs, ys, assignment)


def _assign_flat(
    xs: List[float],
    ys: List[float],
    cxl: List[float],
    cyl: List[float],
) -> List[int]:
    """Step 4 on float lists; ties keep the lower centre index."""
    assignment = []
    append = assignment.append
    sqrt = math.sqrt
    k = len(cxl)
    for idx in range(len(xs)):
        x = xs[idx]
        y = ys[idx]
        dx = x - cxl[0]
        dy = y - cyl[0]
        best_d = sqrt(dx * dx + dy * dy)
        best_c = 0
        for c in range(1, k):
            dx = x - cxl[c]
            dy = y - cyl[c]
            d = sqrt(dx * dx + dy * dy)
            if d < best_d:
                best_d = d
                best_c = c
        append(best_c)
    return assignment


def _recenter_flat(
    xs: List[float],
    ys: List[float],
    assignment: List[int],
    k: int,
) -> Tuple[List[float], List[float]]:
    """Centres of gravity, sequential left-to-right accumulation."""
    sx = [0.0] * k
    sy = [0.0] * k
    counts = [0] * k
    for idx, cluster_idx in enumerate(assignment):
        sx[cluster_idx] += xs[idx]
        sy[cluster_idx] += ys[idx]
        counts[cluster_idx] += 1
    cxl = [sx[a] / float(counts[a]) for a in range(k) if counts[a]]
    cyl = [sy[a] / float(counts[a]) for a in range(k) if counts[a]]
    return cxl, cyl


def _merge_close_flat(
    xs: List[float],
    ys: List[float],
    cxl: List[float],
    cyl: List[float],
    r_error: float,
) -> Tuple[List[float], List[float], List[int]]:
    """Step 5 on float lists, assignment rounds included."""
    assignment = _assign_flat(xs, ys, cxl, cyl)
    cxl, cyl, any_merge = _merge_centers(cxl, cyl, assignment, r_error)
    if any_merge:
        assignment = _assign_flat(xs, ys, cxl, cyl)
    return cxl, cyl, assignment


def _merge_centers(
    cxl: List[float],
    cyl: List[float],
    assignment: List[int],
    r_error: float,
) -> Tuple[List[float], List[float], bool]:
    """Step 5's merge loop, shared by both routes.

    Merges the first pair of centres within ``r_error`` at their
    member-weighted average, appends the merged centre, and rescans
    until no pair is that close.  Member counts come from
    ``assignment`` (the round's opening assignment against these very
    centres).  Returns the new centres and whether any merge fired --
    without one, the closing assignment equals the opening one.
    """
    counts = [0] * len(cxl)
    for cluster_idx in assignment:
        counts[cluster_idx] += 1

    any_merge = False
    merged = True
    while merged and len(cxl) > 1:
        merged = False
        for a in range(len(cxl)):
            for b in range(a + 1, len(cxl)):
                ddx = cxl[a] - cxl[b]
                ddy = cyl[a] - cyl[b]
                if math.sqrt(ddx * ddx + ddy * ddy) <= r_error:
                    weight_a = max(counts[a], 1)
                    weight_b = max(counts[b], 1)
                    total = float(weight_a + weight_b)
                    new_x = (cxl[a] * weight_a + cxl[b] * weight_b) / total
                    new_y = (cyl[a] * weight_a + cyl[b] * weight_b) / total
                    cxl = [
                        c for idx, c in enumerate(cxl) if idx not in (a, b)
                    ] + [new_x]
                    cyl = [
                        c for idx, c in enumerate(cyl) if idx not in (a, b)
                    ] + [new_y]
                    counts = [
                        n for idx, n in enumerate(counts) if idx not in (a, b)
                    ] + [weight_a + weight_b]
                    merged = True
                    any_merge = True
                    break
            if merged:
                break
    return cxl, cyl, any_merge


# ----------------------------------------------------------------------
# Numpy route (larger windows)
# ----------------------------------------------------------------------
#: Memoised pairwise-distance workspace keyed on window size -- the
#: decision kernel clusters thousands of small same-sized windows per
#: sweep point, and with preallocated ``(n, n)`` scratch buffers every
#: ufunc in the pipeline writes through ``out=`` instead of allocating.
#: The same two buffers back the farthest-pair matrix and (as ``(n,
#: k)`` views) every assignment round.  Bounded like the other pure
#: caches in this repo.
_WS_MEMO: dict = {}
_WS_MEMO_MAX = 512


def _pair_workspace(n: int) -> Tuple[np.ndarray, np.ndarray]:
    ws = _WS_MEMO.get(n)
    if ws is None:
        if len(_WS_MEMO) >= _WS_MEMO_MAX:
            _WS_MEMO.clear()
        ws = (
            np.empty((n, n), dtype=np.float64),
            np.empty((n, n), dtype=np.float64),
        )
        _WS_MEMO[n] = ws
    return ws


def _cluster_reports_xy(
    xs: np.ndarray, ys: np.ndarray, r_error: float
) -> List[ReportCluster]:
    """Numpy implementation over flat ``(xs, ys)`` arrays (``n >= 2``).

    Bit-identical to the flat route: distances are the same
    correctly-rounded ``sqrt(dx*dx + dy*dy)`` expression evaluated
    elementwise, argmin/argmax tie-break at the lowest index exactly
    like the scalar scans, and centroids are accumulated sequentially
    in ascending report order.
    """
    n = len(xs)
    xs_list = xs.tolist()
    ys_list = ys.tolist()

    # Step 1: the full pairwise distance matrix, computed once in the
    # memoised per-size workspace (no allocations) and reused for
    # farthest-pair selection, coverage seeding, and the first
    # assignment round.
    work_a, work_b = _pair_workspace(n)
    np.subtract(xs[:, None], xs[None, :], out=work_a)
    np.subtract(ys[:, None], ys[None, :], out=work_b)
    np.multiply(work_a, work_a, out=work_a)
    np.multiply(work_b, work_b, out=work_b)
    np.add(work_a, work_b, out=work_a)
    dmat = np.sqrt(work_a, out=work_a)

    # The farthest pair is the first row-major maximum of the full
    # matrix -- the same (i, j) the scalar double loop keeps with its
    # strict ``>``: for any i < j the flat position i*n + j precedes
    # its mirror j*n + i, so the first occurrence of the maximum is
    # always the lexicographically-first upper-triangle pair.  (The
    # all-coincident window lands on the zero diagonal, which the
    # single-cluster exit below absorbs exactly like the flat route.)
    m = int(np.argmax(dmat))
    i, j = divmod(m, n)
    if float(dmat[i, j]) <= r_error:
        # Single-cluster early exit, mirroring the flat route: the
        # centre is accumulated left-to-right exactly as
        # _build_clusters_arrays would.
        sx = 0.0
        sy = 0.0
        for k in range(n):
            sx += xs_list[k]
            sy += ys_list[k]
        return [
            ReportCluster(
                indices=tuple(range(n)),
                center=Point(sx / float(n), sy / float(n)),
            )
        ]

    center_idx = _seed_center_indices(dmat, n, r_error, i, j)
    k = len(center_idx)
    # Carry each round's closing assignment into the next round (see
    # the flat route).  The initial centres are report rows, so their
    # distance columns already sit in ``dmat`` -- the opening
    # assignment is a gather, not a recompute (same bits: dmat[a, c]
    # was produced by the very expression _assign_arrays evaluates).
    assignment: List[int] = []
    current = np.argmin(dmat[:, center_idx], axis=1).tolist()
    for _ in range(_MAX_ROUNDS):
        cxl, cyl = _recenter_flat(xs_list, ys_list, current, k)
        cxl, cyl, current = _merge_close_arrays(xs, ys, cxl, cyl, r_error)
        k = len(cxl)
        if current == assignment:
            break
        assignment = current

    return _build_clusters_arrays(xs_list, ys_list, assignment)


def _seed_center_indices(
    dmat: np.ndarray,
    n: int,
    r_error: float,
    i: int,
    j: int,
) -> List[int]:
    """Steps 2-3 on the precomputed distance matrix.

    Greedy coverage seeding tracks a ``covered`` mask: a report is
    covered once any existing centre lies within ``r_error``, which is
    exactly the flat route's "no centre within ``r_error``" test,
    applied in the same index order.
    """
    center_idx = [i, j]
    covered = (dmat[i] <= r_error) | (dmat[j] <= r_error)
    for k in range(n):
        if k == i or k == j:
            continue
        if not covered[k]:
            center_idx.append(k)
            covered |= dmat[k] <= r_error
    return center_idx


def _assign_arrays(
    xs: np.ndarray, ys: np.ndarray, cxl: List[float], cyl: List[float]
) -> List[int]:
    """Step 4 vectorised; ``np.argmin`` keeps the lowest tied index.

    Runs in ``(n, k)`` views of the same pairwise workspace the
    farthest-pair matrix used (``k <= n`` always: centres start as
    report rows and only merge).  The matrix is never read after the
    opening assignment, so clobbering it here is safe.
    """
    cx = np.array(cxl, dtype=np.float64)
    cy = np.array(cyl, dtype=np.float64)
    k = len(cx)
    work_a, work_b = _pair_workspace(len(xs))
    da = work_a[:, :k]
    db = work_b[:, :k]
    np.subtract(xs[:, None], cx[None, :], out=da)
    np.subtract(ys[:, None], cy[None, :], out=db)
    np.multiply(da, da, out=da)
    np.multiply(db, db, out=db)
    np.add(da, db, out=da)
    d = np.sqrt(da, out=da)
    return np.argmin(d, axis=1).tolist()


def _merge_close_arrays(
    xs: np.ndarray,
    ys: np.ndarray,
    cxl: List[float],
    cyl: List[float],
    r_error: float,
) -> Tuple[List[float], List[float], List[int]]:
    """Step 5 with vectorised assignment rounds.

    The merge loop itself runs on plain float lists: centre counts are
    small after seeding.
    """
    assignment = _assign_arrays(xs, ys, cxl, cyl)
    cxl, cyl, any_merge = _merge_centers(cxl, cyl, assignment, r_error)
    if any_merge:
        assignment = _assign_arrays(xs, ys, cxl, cyl)
    return cxl, cyl, assignment


def _build_clusters_arrays(
    xs_list: List[float],
    ys_list: List[float],
    assignment: List[int],
) -> List[ReportCluster]:
    # Group by centre index with a dense list (centre indices are small
    # ints).  Iteration order differs from the old first-appearance
    # dict, but the closing sort key (-size, first member) is unique
    # per cluster, so the sorted output is identical.
    groups: List[List[int]] = [[] for _ in range(max(assignment) + 1)]
    for report_idx, cluster_idx in enumerate(assignment):
        groups[cluster_idx].append(report_idx)
    clusters = []
    for indices in groups:
        if not indices:
            continue
        sx = 0.0
        sy = 0.0
        for i in indices:
            sx += xs_list[i]
            sy += ys_list[i]
        size = float(len(indices))
        clusters.append(
            ReportCluster(
                indices=tuple(indices), center=Point(sx / size, sy / size)
            )
        )
    clusters.sort(key=lambda c: (-len(c.indices), c.indices[0]))
    return clusters
