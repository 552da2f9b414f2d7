"""Robust scalar statistics: MAD and Qn scales, bounded weight functions.

The downweighting functions map a standardized distance to a weight in
[0, 1].  Hampel's piecewise function keeps full weight up to ``a``, decays
hyperbolically to ``b``, redescends linearly to zero at ``r``; the bisquare
weight is the rescaled derivative of the bounded bisquare loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DataError, _floats, _number

MAD_CONSISTENCY = 1.4826

# Asymptotic normal-consistency factor for the pairwise-difference scale.
QN_CONSISTENCY = 2.2219

# Finite-sample corrections for the pairwise-difference scale, n <= 9.
_QN_SMALL_SAMPLE = {
    2: 0.399,
    3: 0.994,
    4: 0.512,
    5: 0.844,
    6: 0.611,
    7: 0.857,
    8: 0.669,
    9: 0.872,
}

# Standard-normal quantiles at 0.95 / 0.975 / 0.99: the default Hampel cutoffs.
HAMPEL_A = 1.6449
HAMPEL_B = 1.9600
HAMPEL_R = 2.3263

# Conventional 95%-efficiency tuning constant for the bisquare family.
BISQUARE_K = 4.685


@dataclass(frozen=True)
class WeightFunctionSpec:
    """Choice of the case-downweighting function: ``"hampel"`` or ``"bisquare"``.

    The cutoffs are the module constants ``HAMPEL_A/B/R`` and ``BISQUARE_K``.
    """

    kind: str = "hampel"

    def __post_init__(self) -> None:
        if self.kind not in ("hampel", "bisquare"):
            raise DataError(f"unknown weight function kind: {self.kind!r}")

    def weight(self, x):
        """Downweighting function value(s) for standardized distance ``x``."""
        if self.kind == "hampel":
            return hampel_weight(x)
        return bisquare_weight(x)


def _median(v: np.ndarray):
    """Median along axis 0 of a non-empty float array, as ``np.median`` computes it.

    One ``np.partition`` at the upper middle rank ``n // 2`` puts that value
    in place with every smaller one before it, so for even n the lower
    middle value is the maximum of the front half, and the two are averaged
    as numpy averages them.  NaN sorts last, so the back half holds any NaN
    of a slice and one maximum over it finds it; such a slice gets a NaN
    median, as in numpy.  The floats are numpy's, except that a zero median
    may carry the other sign.
    """
    half = v.shape[0] // 2
    part = np.partition(v, half, axis=0)
    mid = part[half]
    if v.shape[0] % 2 == 0:
        mid = (part[:half].max(axis=0) + mid) / 2
    back = part[half:]
    if np.isnan(back.max()):  # NaN sorts last, so a slice holding one holds it here
        last = back.max(axis=0)
        return last if last.ndim == 0 else np.where(np.isnan(last), last, mid)
    return mid


def _mad(v: np.ndarray):
    """Absolute deviations from the median along axis 0, with their normal-consistent MAD."""
    dev = np.abs(v - _median(v))
    return dev, MAD_CONSISTENCY * _median(dev)


def mad_scale(values, axis: int | None = None):
    """Normal-consistent median absolute deviation; with ``axis``, one per slice along it."""
    v = _floats(values, "values")
    v = v.ravel() if axis is None else np.moveaxis(v, _number(axis, "axis", ge=-v.ndim, lt=v.ndim, integer=True), 0)
    if v.shape[0] < 2 or not v.size:
        raise DataError("degenerate sample")
    mad = _mad(v)[1]
    return float(mad) if axis is None else mad


def _qn_correction(n: int) -> float:
    if n <= 9:
        return _QN_SMALL_SAMPLE[n]
    if n % 2 == 1:
        return n / (n + 1.4)
    return n / (n + 3.8)


def qn_scale(values) -> float:
    """High-breakdown scale from an order statistic of pairwise differences.

    Returns ``d * c_n * {|v_i - v_j| : i < j}_(k)`` with ``k = C(h, 2)``,
    ``h = n // 2 + 1``, ``d = 2.2219`` and ``c_n`` the finite-sample
    correction (Rousseeuw & Croux 1993, "Alternatives to the median
    absolute deviation", JASA 88:1273).  A zero scale is ``+0.0``.

    The pairs are never built.  On the sorted sample, row ``i`` of the
    implicit matrix ``y[j] - y[i]`` (``j > i``) is nondecreasing in ``j``,
    so the k-th value is selected as in Croux & Rousseeuw (1992,
    "Time-efficient algorithms for two highly robust estimators of scale"):
    each row keeps a window of candidate columns, and each trial value,
    once every row's entries below or at it are counted, cuts all windows
    to the side that holds rank k.  A round reads a low and a high trial
    off an evenly spaced sample of the remaining candidates, a few standard
    errors either side of rank k, so one round usually keeps only the few
    percent of candidates between them, and two rounds leave few enough to
    gather.  Above 2048 values the first round instead puts its trials
    about n ranks either side of rank k, from counts over about 256 evenly
    spaced rows and the entries of those rows near rank k, so that one
    round usually leaves few enough, on a price grid too; where those
    counts cannot be trusted, as on heavily tied samples, it keeps the
    sampled trials.  A round that keeps more than half is
    followed by a pass whose trial is the weighted median of the row
    medians, which removes at least a quarter (Johnson & Mizoguchi 1978).
    Once at most ``max(4n, 8192)`` remain they are gathered and finished
    with ``np.partition``; up to 128 values, all pairs go straight there.
    Memory is O(n) and time O(n log^2 n).

    A row count is one ``np.searchsorted`` of ``y[i] + trial`` over the
    sample, which guesses every row's boundary.  A guess stands only when
    the computed differences ``y[j] - y[i]`` just before it and at it fall
    on the two sides of the trial; rows whose guess fails are bisected on
    the computed differences.  No pair is classified by ``y[i] + trial``,
    whose rounding can misplace it.  Since ``fl(a - b) = -fl(b - a)``, the
    result is the same float a full enumeration of ``|v_i - v_j|`` selects.
    """
    y = _floats(values, "values").ravel()
    y.sort()  # in place: np.sort(axis=None) would copy it once more
    n = y.size
    if n < 2:
        raise DataError("degenerate sample")
    if not np.all(np.isfinite(y)):
        raise DataError("non-finite sample")
    h = n // 2 + 1
    kth = _kth_pairwise_difference(y, h * (h - 1) // 2)
    # -0.0 - 0.0 keeps its sign where np.sort leaves -0.0 after 0.0
    return QN_CONSISTENCY * _qn_correction(n) * (float(kth) + 0.0)


# At most max(4n, _GATHER) candidates are gathered and partitioned: below that,
# one partition of them all costs less than a round's sample and two row counts.
_GATHER = 8192
# A round samples max(n, _SAMPLE_FLOOR) candidates, so that a round on a small
# sample still leaves few enough for the gather.
_SAMPLE_FLOOR = 1024
# Where the gather budget is 4n (above 2048 values), the first round's trials come
# from counts over about _ROWS rows, narrowed in at most _STEPS steps.
_ROWS = 256
_STEPS = 8


def _kth_pairwise_difference(y: np.ndarray, k: int) -> float:
    """The k-th smallest (1-based) ``y[j] - y[i]`` over ``j > i`` of sorted ``y``.

    Each round counts a low trial with ``<=``.  If rank k lies above that
    count, the high trial is counted with ``<``; if not, the low trial is
    counted again with ``<``, and rank k between its two counts makes it
    the k-th value.  Each count cuts the windows on whichever side of rank
    k it falls, so a trial that misses rank k still cuts, and a round that
    does not return removes at least the candidates equal to one trial.
    """
    n = y.size
    rows = np.arange(n - 1)
    lo = rows + 1  # first candidate column of each row
    hi = np.full(n - 1, n)  # one past its last candidate column
    below = 0  # entries left of the windows, all smaller than the k-th
    fallback = False
    counted = 4 * n > _GATHER  # the first round's trials may come from row counts
    while True:
        keep = lo < hi
        rows, lo, hi = rows[keep], lo[keep], hi[keep]
        width = hi - lo
        candidates = int(width.sum())
        if candidates <= max(4 * n, _GATHER):
            break
        trials = counted and _counted_trials(y, rows, lo, width, candidates, k)
        counted = False
        if fallback:
            low = high = _row_median_trial(y, rows, lo, width)
        elif trials:
            low, high = trials
        else:
            size = max(n, _SAMPLE_FLOOR)
            low, high = _sampled_trials(y, rows, lo, width, candidates, k - below, size)
        cut = _first_column(y, rows, lo, hi, low, strict=False)
        count = below + int((cut - lo).sum())
        low_hit = count < k  # every entry left of the cut ranks below k
        if low_hit:
            below, lo = count, cut
        else:  # rank k lies left of the cut
            hi = cut
        if not low_hit or high > low:
            cut = _first_column(y, rows, lo, hi, high if low_hit else low, strict=True)
            count = below + int((cut - lo).sum())
            if count >= k:
                hi = cut
            elif low_hit:
                below, lo = count, cut
            else:  # count(< low) < k <= count(<= low)
                return low
        fallback = 2 * int((hi - lo).sum()) > candidates
    return np.partition(_window_entries(y, rows, lo, width), k - below - 1)[k - below - 1]


def _window_entries(y, rows, lo, width) -> np.ndarray:
    """The entries ``y[j] - y[i]`` of every row's window ``[lo, lo + width)``, laid end to end."""
    cols = np.arange(int(width.sum())) + np.repeat(lo - (np.cumsum(width) - width), width)
    return y[cols] - np.repeat(y[rows], width)


def _row_ends(y, origin, trial, side: str = "right") -> np.ndarray:
    """Per row, ``np.searchsorted(y, origin + trial, side)``: a guess, which rounding can
    misplace, at the end of its entries ``y[j] - origin`` at most (right) or below (left)
    ``trial``.  An overflowed key guesses the whole row, every entry's true side."""
    with np.errstate(over="ignore"):
        return np.searchsorted(y, origin + trial, side=side)


def _sampled_trials(y, rows, lo, width, candidates: int, rank: int, size: int):
    """A low and a high trial around the rank-th smallest (1-based) candidate.

    The sample is ``size < candidates`` evenly spaced positions in the
    windows laid end to end, each mapped to its row by a ``searchsorted``
    of the running window ends.  With ``q = rank / candidates`` the trials
    sit at sample ranks ``q * size -/+ (3 sigma + 1)``, sigma the binomial
    standard error of a quantile estimated from ``size`` draws.
    """
    end = np.cumsum(width)
    position = ((np.arange(size) + 0.5) * (candidates / size)).astype(np.int64)
    t = np.searchsorted(end, position, side="right")
    sample = y[lo[t] + position - (end[t] - width[t])] - y[rows[t]]
    q = rank / candidates
    centre = q * size
    spread = 3.0 * np.sqrt(q * (1.0 - q) * size) + 1.0
    ranks = [  # 0-based
        max(int(np.floor(centre - spread)), 1) - 1,
        min(int(np.ceil(centre + spread)), size) - 1,
    ]
    low, high = np.partition(sample, ranks)[ranks]
    return low, high


def _counted_trials(y, rows, lo, width, candidates: int, rank: int):
    """The first round's low and high trials, n candidates either side of rank;
    None where the counts cannot place them.

    Every m-th row, about _ROWS in all, is counted against ``y[i] + trial``
    by one ``searchsorted``, and m times the sum estimates the count over all
    rows.  A bracket from ``_sampled_trials`` over _ROWS candidates is
    narrowed by Illinois regula falsi on the estimate, its ends kept at least
    n / 2 from rank; a step that lands nearer is replaced by two, n either
    side of it at the bracket's width per count.  Once the ends are at most
    16n apart, the counted rows' entries between them are gathered, each
    standing for m candidates, and the trials are the entries n either side
    of rank (a high trial whose ties start within n / 2 of rank moves past
    them, as the round counts it with ``<``).  Where the estimate jumps
    across rank, as between differences of prices on a grid, the trials are
    the values at and beside the jump.

    Equal sampled ends are the trials.  There are none where a value fills
    more than m places (a run of ties moves single rows' counts by its
    length), where the sampled ends are not n / 2 from rank, where _STEPS
    steps leave the ends more than 16n apart, or where the rows midway
    between the counted ones estimate a count at either end more than 2n
    off, as where a few rows dominate the count.
    """
    n = y.size
    step = rows.size // _ROWS
    a, b = _sampled_trials(y, rows, lo, width, candidates, rank, _ROWS)
    if a == b:
        return a, b
    if (y[step:] == y[:-step]).any():
        return None
    counted, checked = slice(step // 2, None, step), slice(0, None, step)

    def ends(trial, pick=counted):  # per row, one past its last column at most trial; the count
        first = lo[pick]
        end = np.maximum(_row_ends(y, y[rows[pick]], trial), first)
        return trial, end, step * int((end - first).sum())

    (a, ea, ca), (b, eb, cb) = ends(a), ends(b)
    if not ca <= rank - n // 2 < rank + n // 2 <= cb:
        return None
    fa, fb, side = ca - rank, cb - rank, 0
    for _ in range(_STEPS):
        if cb - ca <= 16 * n:  # about 16 * _ROWS entries to gather
            break
        t, et, c = ends(a + (b - a) * (fa / (fa - fb)))
        steps = [(t, et, c)]
        if abs(c - rank) < n // 2:
            spacing = (b - a) / (cb - ca)  # a count density could overflow
            steps = [ends(t + (rank - n - c) * spacing), ends(t + (rank + n - c) * spacing)]
        for t, et, c in steps:
            if a < t < b and c <= rank - n // 2:
                a, ea, ca, fa = t, et, c, c - rank
                fb, side = (fb / 2 if side < 0 else fb), -1
            elif a < t < b and c >= rank + n // 2:
                b, eb, cb, fb = t, et, c, c - rank
                fa, side = (fa / 2 if side > 0 else fa), 1
    else:
        return None
    if abs(ends(a, checked)[2] - ca) > 2 * n or abs(ends(b, checked)[2] - cb) > 2 * n:
        return None
    entries = np.sort(np.r_[a, _window_entries(y, rows[counted], ea, eb - ea), b])
    at, r = -(-(rank - ca) // step), n // step  # rank's place among them, and n counts
    high = min(at + r, entries.size - 1)
    if np.searchsorted(entries, entries[high]) <= at + r // 2:  # ties start within n / 2 of rank
        high = min(np.searchsorted(entries, entries[high], side="right"), entries.size - 1)
    return entries[max(at - r, 0)], entries[high]


def _row_median_trial(y, rows, lo, width):
    """The median of the row medians, each weighted by its window's width.

    At least a quarter of the candidates are at most it and a quarter at
    least it, so its counts remove a quarter whichever side rank k is on.
    """
    medians = y[lo + (width - 1) // 2] - y[rows]
    order = np.argsort(medians)
    cumulative = np.cumsum(width[order])
    return medians[order[np.searchsorted(cumulative, cumulative[-1] / 2)]]


def _first_column(y, rows, lo, hi, trial, strict: bool) -> np.ndarray:
    """Per row, the first column in ``[lo, hi)`` whose difference is not below
    (``strict``) or not at most ``trial``; ``hi`` when there is none.

    One ``searchsorted`` of ``y[i] + trial`` guesses every row's boundary.
    A guess stands only when the computed differences just before it and at
    it lie on either side of ``trial``, a window edge counting as on its
    side.  ``fl(y[j] - y[i])`` never decreases in j, so a checked guess is
    the exact boundary; rows whose guess fails are bisected.
    """
    origin = y[rows]
    guess = np.clip(_row_ends(y, origin, trial, "left" if strict else "right"), lo, hi)
    before = y[guess - 1] - origin  # guess >= lo > row, so the index is in range
    at = y[np.minimum(guess, y.size - 1)] - origin
    under = np.less if strict else np.less_equal
    ok = ((guess == lo) | under(before, trial)) & ((guess == hi) | ~under(at, trial))
    failed = np.flatnonzero(~ok)
    if failed.size:
        guess[failed] = _bisect_columns(y, rows[failed], lo[failed], hi[failed], trial, strict)
    return guess


def _bisect_columns(y, rows, lo, hi, trial, strict: bool) -> np.ndarray:
    """``_first_column`` by a vectorised binary search over every row's window."""
    a, b = lo, hi
    origin = y[rows]
    last = y.size - 1
    for _ in range(int((hi - lo).max()).bit_length()):
        mid = (a + b) >> 1
        diff = y[np.minimum(mid, last)] - origin
        under = diff < trial if strict else diff <= trial
        a = np.where(under & (a < b), mid + 1, a)
        b = np.where(under, b, mid)
    return a


def _like_input(x, out):
    """``out`` as a float where ``x`` is a scalar, else as the array it is."""
    return float(out) if np.ndim(x) == 0 else out


def hampel_weight(x):
    """Redescending three-part weight: 1, a/|x|, linear decay, then 0 beyond r."""
    ax = np.abs(_floats(x, "x"))
    # min(1, a/|x|) and the linear decay clipped to [0, 1], with no divide by 0 or overflow
    decay = (HAMPEL_R - np.minimum(ax, HAMPEL_R)) / (HAMPEL_R - HAMPEL_B)
    return _like_input(x, HAMPEL_A / np.maximum(ax, HAMPEL_A) * np.minimum(decay, 1.0))


def bisquare_loss(x, k: float = BISQUARE_K):
    """Bounded bisquare loss, flat at k^2/6 beyond the cutoff."""
    _number(k, "k", gt=0)
    xa = _floats(x, "x")
    inside = (k * k / 6.0) * (1.0 - (1.0 - xa * xa / (k * k)) ** 3)
    return _like_input(x, np.where(np.abs(xa) <= k, inside, k * k / 6.0))


def bisquare_weight(x):
    """Rescaled derivative of the bisquare loss: (1 - (x/k)^2)^2 inside, 0 outside."""
    u = np.minimum(np.abs(_floats(x, "x")) / BISQUARE_K, 1.0)
    return _like_input(x, (1.0 - u**2) ** 2)
