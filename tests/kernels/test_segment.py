"""Segmented CSR fold: plan invariants + byte-identity with the padded
(ELL) tree.

The contract (:mod:`repro.kernels.segment`): the compact O(nnz) fold
must reproduce the padded-row rounded pairwise reduction **bit for
bit** — on every sparsity shape, every format family, and every edge
product (NaR, ±0, infinities).  These tests hold the CSR matvec to the
explicit padded-row reference (:mod:`tests.sparse_reference`) once per
summation order: a pairwise context always folds segmented, a
sequential one on the padded view.  :class:`TestRaggedLanes`
holds a block-diagonal stack's plan (a width and a pad slot per row)
to each lane's own plan.  :class:`TestPlanInvariants` checks the fold
tape against a row-by-row walk of the padded tree (:func:`_tree`), and
:class:`TestRoundedPairs` that the rounder sees only live-live pairs
while a collector still counts every pair the padded tree rounds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arith import CSRMatrix, FPContext
from repro.arith.context import LaneContext
from repro.arith.sparse import CSRStack
from repro.arith.summation import rounded_sum_last_axis
from repro.kernels.segment import LaneSegments, SegmentPlan, segmented_fold
from repro.telemetry import Collector
from tests.sparse_reference import padded_row_matvec

FORMATS = ("fp16", "bf16", "fp32", "posit16es2", "posit32es2",
           "takum16", "takum32", "takum_log16")


def _ragged_spd(rng, n=40, skew=False):
    """A symmetric matrix with ragged row lengths (possibly empty rows)."""
    A = np.zeros((n, n))
    if skew:
        A[0, :] = rng.standard_normal(n)
        A[:, 0] = A[0, :]
    for i in range(n):
        deg = int(rng.integers(0, 6))
        if deg:
            js = rng.choice(n, size=deg, replace=False)
            A[i, js] += rng.standard_normal(deg)
            A[js, i] = A[i, js]
    A += np.diag(np.abs(A).sum(axis=1) + 1.0)
    return A


def _tree(count, width):
    """Walk one row of the padded tree: per level, its live-live pairs,
    its live-pad pairs whose live value has not met the pad since it
    was last rounded (fresh), and its other live-pad pairs (stale)."""
    met = [False] * count
    levels = []
    while width > 1:
        m = width // 2
        both = fresh = stale = 0
        after = []
        for j in range(min(len(met), m)):
            if j + m < len(met):
                both += 1
                after.append(False)
            else:
                fresh += not met[j]
                stale += met[j]
                after.append(True)
        if width % 2 and len(met) == width:
            after.append(met[-1])
        met, width = after, width - m
        levels.append((both, fresh, stale))
    return levels


def _tree_totals(counts, widths):
    """Per level, the (live-live, fresh live-pad, stale live-pad) pair
    counts of every row's padded tree, summed."""
    totals = []
    for count, width in zip(counts, widths):
        for level, row in enumerate(_tree(int(count), int(width))):
            if level == len(totals):
                totals.append([0, 0, 0])
            totals[level] = [t + r for t, r in zip(totals[level], row)]
    return totals


def _products(ctx, C, x):
    """The quantized products of ``ctx.matvec(C, x)``, pad slot last."""
    ext = np.empty(C.nnz + 1)
    np.take(x, C.indices, out=ext[:-1])
    with np.errstate(invalid="ignore", over="ignore"):
        np.multiply(C.data, ext[:-1], out=ext[:-1])
        ext[-1] = 0.0 * x[0] if x.size else 0.0
    return np.asarray(ctx.round(ext))


def _stack_products(ctx, stack, x):
    """The quantized products of ``ctx.matvec(stack, x)``: each lane's
    stored entries, then each lane's pad slot."""
    ext = np.empty(stack.nnz + len(stack.lanes))
    with np.errstate(invalid="ignore", over="ignore"):
        np.multiply(stack.data, x[stack.indices], out=ext[:stack.nnz])
        np.multiply(0.0, x[stack.segments.offsets[:-1]],
                    out=ext[stack.nnz:])
        return np.asarray(ctx._quantize("matvec.csr.mul", ext,
                                        stack.product_runs))


class TestPlanInvariants:
    def _check_plan(self, indptr, k):
        plan = SegmentPlan.from_csr(indptr, k)
        nnz = int(indptr[-1])
        n = len(indptr) - 1
        assert plan.n == n
        # the tape: the products and pad slots, then every level's slice
        written = np.zeros(plan.size, dtype=bool)
        written[:nnz + 1] = True
        pad = np.zeros(plan.size, dtype=bool)
        pad[nnz] = True
        at = nnz + 1
        widths = np.broadcast_to(k, (n,))
        want = _tree_totals(np.diff(indptr), widths)
        assert len(plan.levels) == len(want)
        for lvl, (both, fresh, stale) in zip(plan.levels, want):
            left, right = lvl.pairs
            assert lvl.out == slice(at, at + left.size)
            # every slot is written once, before it is read
            assert written[lvl.pairs].all()
            assert not written[lvl.out].any()
            written[lvl.out] = True
            at += left.size
            # the rounder's slice holds only live-live pairs; the rest
            # add a live value to its row's pad slot
            assert not pad[left].any()
            assert not pad[right[:lvl.live]].any()
            assert pad[right[lvl.live:]].all()
            # every live value is read once, and no stale pair is added
            reads = np.concatenate([left, right[:lvl.live]])
            assert np.unique(reads).size == reads.size
            assert (lvl.live, left.size - lvl.live) == (both, fresh)
            assert lvl.runs is None
            assert lvl.padded.tolist() == [fresh + stale]
        assert at == plan.size
        assert plan.final_src.shape == (n,)
        assert written[plan.final_src].all()
        return plan

    def test_random_patterns(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 30))
            counts = rng.integers(0, 9, size=n)
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            k = max(1, int(counts.max(initial=0)))
            self._check_plan(indptr, k)
            # wider than every row, as a stack's short lanes are
            self._check_plan(indptr, k + int(rng.integers(1, 40)))

    def test_every_count_of_every_width(self):
        """One row per count at each width: every shape a row can take."""
        for k in range(1, 70):
            counts = np.arange(k + 1)
            indptr = np.zeros(k + 2, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            self._check_plan(indptr, k)

    def test_width_one_has_no_levels(self):
        plan = SegmentPlan.from_csr(np.array([0, 1, 2, 3]), 1)
        assert plan.levels == []
        assert np.array_equal(plan.final_src, [0, 1, 2])

    def test_empty_rows_hit_the_sentinel(self):
        plan = SegmentPlan.from_csr(np.array([0, 0, 2, 2]), 2)
        # rows 0 and 2 are empty: their final gather reads the pad slot
        # where the products left it
        assert plan.final_src[0] == plan.final_src[2] == 2
        assert plan.final_src[1] == plan.levels[-1].out.start

    def test_plan_storage_is_compact_on_skewed_shapes(self, rng):
        A = _ragged_spd(rng, n=200, skew=True)
        C = CSRMatrix.from_dense(A)
        plan = C.segment_plan()
        padded = C.n * C.row_width * 8  # the (n, k) float64 view
        assert plan.nbytes < padded
        # and the padded view really is mostly padding here
        assert C.n * C.row_width > 2 * C.nnz


class TestFoldByteIdentity:
    """segmented_fold and the padded scatter of one products array,
    both against the padded-row reference."""

    def _assert_fold_identical(self, A, x, formats=FORMATS):
        C = CSRMatrix.from_dense(A)
        plan = C.segment_plan()
        for fname in formats:
            ctx = FPContext(fname)
            Cq = ctx.asarray(C)
            products = _products(ctx, Cq, x)
            rnd = ctx._rnd_for("matvec.csr.sum")
            with np.errstate(invalid="ignore", over="ignore"):
                got = segmented_fold(products, plan, rnd)
                padded = rounded_sum_last_axis(products[Cq.slot_map()],
                                               rnd, "pairwise")
            want = padded_row_matvec(ctx, A, x)
            assert got.tobytes() == want.tobytes(), \
                f"segmented != reference bitwise for {fname}"
            assert padded.tobytes() == want.tobytes(), \
                f"padded != reference bitwise for {fname}"

    def test_random_ragged(self, rng):
        for trial in range(5):
            A = _ragged_spd(rng, n=int(rng.integers(5, 50)))
            self._assert_fold_identical(A, rng.standard_normal(len(A)))

    def test_arrow_skew(self, rng):
        A = _ragged_spd(rng, n=60, skew=True)
        self._assert_fold_identical(A, rng.standard_normal(60))

    def test_nan_poisoning(self, rng):
        """NaN products (NaR for posits) must propagate identically."""
        A = _ragged_spd(rng, n=25, skew=True)
        x = rng.standard_normal(25)
        x[0] = np.nan
        self._assert_fold_identical(A, x)

    def test_signed_zero_padding(self, rng):
        """x[0] < 0 makes the shared pad product -0.0 — sign matters."""
        A = _ragged_spd(rng, n=25, skew=True)
        x = -np.abs(rng.standard_normal(25)) - 0.1
        self._assert_fold_identical(A, x)

    def test_infinite_products(self, rng):
        """Narrow formats overflow products to ±inf before the fold."""
        A = _ragged_spd(rng, n=20)
        x = rng.standard_normal(20) * 1e30
        self._assert_fold_identical(A, x, formats=("fp16", "bf16"))

    def test_single_row(self, rng):
        A = np.abs(rng.standard_normal((1, 1))) + 1.0
        self._assert_fold_identical(A, rng.standard_normal(1))

    def test_diagonal_width_one(self, rng):
        A = np.diag(np.abs(rng.standard_normal(12)) + 1.0)
        self._assert_fold_identical(A, rng.standard_normal(12))


class TestMatvecRouting:
    """The full FPContext.matvec path in each summation order."""

    def _assert_orders_match_reference(self, A, x, fname, folds):
        """Each order's matvec gives the reference's bits, pairwise
        through one segmented fold and sequential through none."""
        csr = CSRMatrix.from_dense(A)
        for order, taken in (("pairwise", 1), ("sequential", 0)):
            ctx = FPContext(fname, sum_order=order)
            ye = padded_row_matvec(ctx, A, x)
            before = len(folds)
            yc = ctx.matvec(ctx.asarray(csr), x)
            assert len(folds) == before + taken, order
            assert ye.tobytes() == yc.tobytes(), \
                f"{order} diverges from the reference for {fname}"

    @pytest.mark.parametrize("fname", FORMATS)
    def test_modes_bit_identical_to_ell(self, rng, fname, folds):
        A = _ragged_spd(rng, n=35, skew=True)
        self._assert_orders_match_reference(A, rng.standard_normal(35),
                                            fname, folds)

    def test_sequential_order_uses_padded_path(self, rng, monkeypatch):
        """Sequential folds cannot skip padding: they scatter through
        the slot map on every fill; pairwise ones never build it, full
        rows included."""
        maps = []
        slot_map = CSRMatrix.slot_map
        monkeypatch.setattr(CSRMatrix, "slot_map", lambda self: (
            maps.append(1) or slot_map(self)))
        full = rng.standard_normal((12, 12)) + 12.0 * np.eye(12)
        for A in (_ragged_spd(rng, n=30, skew=True), full):
            x = rng.standard_normal(len(A))
            for fname in ("fp16", "posit16es2"):
                for order, uses in (("pairwise", 0), ("sequential", 1)):
                    ctx = FPContext(fname, sum_order=order)
                    ye = padded_row_matvec(ctx, A, x)
                    before = len(maps)
                    yc = ctx.matvec(ctx.asarray(CSRMatrix.from_dense(A)), x)
                    assert len(maps) == before + uses, order
                    assert ye.tobytes() == yc.tobytes()

    def test_extra_suite_arrow_matrix(self, rng, folds):
        """The arrow_496 extra is bit-exact in both orders."""
        from repro.matrices import load_matrix
        A = load_matrix("arrow_496")
        self._assert_orders_match_reference(
            A, rng.standard_normal(A.shape[0]), "posit32es2", folds)


def _lanes(rng):
    """CSR lanes of different orders and widths: full rows (no padding
    at all), an arrow, a diagonal (width 1), empty rows and a 1 × 1
    system."""
    dense = rng.standard_normal((7, 7)) + 10.0 * np.eye(7)
    holes = _ragged_spd(rng, n=13)
    holes[[2, 9], :] = 0.0
    return [CSRMatrix.from_dense(dense),
            CSRMatrix.from_dense(_ragged_spd(rng, n=31, skew=True)),
            CSRMatrix.from_dense(np.diag(np.abs(rng.standard_normal(5))
                                         + 1.0)),
            CSRMatrix.from_dense(holes),
            CSRMatrix.from_dense(np.array([[3.0]]))]


#: each lane's padding product, cycled over the lanes
PADS = {"+0": (0.0,), "-0": (-0.0,), "nan": (np.nan,),
        "mixed": (0.0, -0.0, np.nan, -0.0, 0.0)}


class TestRaggedLanes:
    """One plan with a width and a pad slot per row folds every lane of
    a block-diagonal stack through its own tree."""

    @pytest.mark.parametrize("fname", FORMATS)
    @pytest.mark.parametrize("pads", sorted(PADS))
    def test_stacked_plan_matches_each_lanes_plan(self, rng, fname, pads):
        lanes = _lanes(rng)
        ctx = FPContext(fname)
        rnd = ctx._rnd_for("matvec.csr.sum")
        pad = [PADS[pads][k % len(PADS[pads])] for k in range(len(lanes))]
        with np.errstate(invalid="ignore", over="ignore"):
            live = [np.asarray(ctx.round(rng.standard_normal(lane.nnz)
                                         * 4.0 ** rng.integers(-3, 4)))
                    for lane in lanes]
            ext = [np.append(v, p) for v, p in zip(live, pad)]
            want = np.concatenate([segmented_fold(e, lane.segment_plan(),
                                                  rnd)
                                   for e, lane in zip(ext, lanes)])
            padded = np.concatenate([
                rounded_sum_last_axis(e[lane.slot_map()], rnd, "pairwise")
                for e, lane in zip(ext, lanes)])
            plan = CSRStack.of(lanes).segment_plan()
            got = segmented_fold(np.concatenate(live + [pad]), plan, rnd)
        assert plan.pads == len(lanes)
        assert got.tobytes() == want.tobytes()
        assert got.tobytes() == padded.tobytes()

    def test_builder_rejects_rows_past_their_width(self):
        with pytest.raises(ValueError):
            SegmentPlan.from_csr(np.array([0, 3, 4]), [2, 2])
        with pytest.raises(ValueError):
            SegmentPlan.from_csr(np.array([0, 1, 3]), [2, 2], pads=0)

    @pytest.mark.parametrize("fname", FORMATS)
    def test_lane_dots_match_single_sums(self, rng, fname):
        ctx = FPContext(fname)
        segments = LaneSegments([1, 2, 7, 64, 3, 33])
        x = rng.standard_normal(segments.total)
        x[[0, 5, 40]] = [-0.0, np.nan, -0.0]
        y = rng.standard_normal(segments.total)
        got = ctx.dot(x, y, segments=segments)
        for k in range(len(segments)):
            alone = ctx.dot(segments.lane(x, k), segments.lane(y, k))
            assert got[k].hex() == alone.hex()

    @pytest.mark.parametrize("fname", FORMATS + ("fp64",))
    def test_stacked_matvec_and_dots_match_each_lane(self, rng, fname):
        ctx = FPContext(fname)
        lanes = [ctx.asarray(lane) for lane in _lanes(rng)]
        stack = CSRStack.of(lanes)
        x = rng.standard_normal(stack.n)
        starts = stack.segments.offsets[:-1]
        x[starts[1]] = -2.0     # a -0.0 pad
        x[starts[3]] = np.nan   # a NaN pad
        with np.errstate(invalid="ignore"):
            got = ctx.matvec(stack, x)
            for k, lane in enumerate(lanes):
                alone = ctx.matvec(lane, stack.segments.lane(x, k).copy())
                assert stack.segments.lane(got, k).tobytes() == \
                    alone.tobytes(), k
            dots = ctx.dot(x, got, segments=stack.segments)
            for k in range(len(lanes)):
                alone = ctx.dot(stack.segments.lane(x, k),
                                stack.segments.lane(got, k))
                assert np.float64(dots[k]).tobytes() == \
                    np.float64(alone).tobytes(), k

    def test_stacks_are_built_from_quantized_lanes(self, rng):
        with pytest.raises(TypeError, match="each lane"):
            FPContext("posit16es2").asarray(CSRStack.of(_lanes(rng)))

    def test_sequential_contexts_reject_stacks(self, rng):
        ctx = FPContext("posit16es2", sum_order="sequential")
        stack = CSRStack.of(_lanes(rng))
        with pytest.raises(ValueError, match="pairwise"):
            ctx.matvec(stack, np.ones(stack.n))
        with pytest.raises(ValueError, match="pairwise"):
            ctx.dot(np.ones(stack.n), np.ones(stack.n),
                    segments=stack.segments)


#: table formats for the lanes of a format-mixed stack, cycled
MIXED = ("posit16es2", "bf16", "takum16", "posit16es1")


def _mixed_stack(rng):
    """The :func:`_lanes` stack with each lane quantized in its own
    table format, its :class:`LaneContext` and an operand."""
    fmts = [MIXED[k % len(MIXED)] for k in range(5)]
    stack = CSRStack.of([FPContext(f).asarray(lane)
                         for f, lane in zip(fmts, _lanes(rng))])
    x = rng.standard_normal(stack.n)
    x[stack.segments.offsets[1]] = -1.0  # a -0.0 pad
    return fmts, stack, LaneContext(fmts, stack.segments), x


def _padded_fold_counts(collector, site, fmt, live, width, pad):
    """Record one row of the padded tree as the padded fold rounds it:
    every pair that holds a live value, each level in one call."""
    values = np.append(live, np.full(width - live.size, pad))
    count = live.size
    while values.size > 1:
        m = values.size // 2
        sums = values[:m] + values[m:2 * m]
        rounded = np.asarray(fmt.round(sums))
        held = min(count, m)
        collector.record(site, sums[:held], rounded[:held], fmt)
        leftover = values.size % 2 and count == values.size
        values = np.append(rounded, values[2 * m:])
        count = held + leftover


class TestRoundedPairs:
    """The rounder sees exactly the padded tree's live-live pairs, and a
    collector counts the live-pad pairs the fold skips as exact."""

    def _counting(self, rnd):
        seen = []

        def counting(pairs, runs=None):
            seen.append(pairs.size)
            if runs is None:
                return rnd(pairs)
            assert int(np.sum(runs)) == pairs.size
            return rnd(pairs, runs)
        return counting, seen

    def test_skewed_pattern_rounds_only_live_live_pairs(self, rng):
        A = _ragged_spd(rng, n=60, skew=True)
        x = rng.standard_normal(60)
        ctx = FPContext("posit16es2")
        C = ctx.asarray(CSRMatrix.from_dense(A))
        rnd, seen = self._counting(ctx._rnd_for("matvec.csr.sum"))
        with np.errstate(invalid="ignore", over="ignore"):
            got = segmented_fold(_products(ctx, C, x), C.segment_plan(), rnd)
        want = _tree_totals(np.diff(C.indptr), [C.row_width] * C.n)
        assert seen == [both for both, _, _ in want]
        assert got.tobytes() == padded_row_matvec(ctx, A, x).tobytes()

    def test_mixed_stack_rounds_only_live_live_pairs(self, rng):
        fmts, stack, ctx, x = _mixed_stack(rng)
        rnd, seen = self._counting(ctx._rnd_for("matvec.csr.sum"))
        with np.errstate(invalid="ignore", over="ignore"):
            got = segmented_fold(_stack_products(ctx, stack, x),
                                 stack.segment_plan(), rnd, lanes=True)
        widths = np.repeat([lane.row_width for lane in stack.lanes],
                           stack.segments.sizes)
        want = _tree_totals(np.diff(stack.indptr), widths)
        assert seen == [both for both, _, _ in want]
        for k, (f, lane) in enumerate(zip(fmts, stack.lanes)):
            alone = FPContext(f).matvec(lane,
                                        stack.segments.lane(x, k).copy())
            assert stack.segments.lane(got, k).tobytes() == alone.tobytes()

    @pytest.mark.parametrize("mixed", [False, True])
    def test_collector_counts_every_pair_of_the_padded_tree(self, rng,
                                                            mixed):
        """A ``matvec.csr.sum`` snapshot over a stack of short rows (an
        arrow lane, a diagonal, empty rows) is what the padded fold
        records: every pair holding a live value, exact or not."""
        fmts, stack, quiet, x = _mixed_stack(rng)
        got, want = Collector(), Collector()
        if mixed:
            ctx = LaneContext(fmts, stack.segments, collector=got)
        else:
            fmts = ["posit16es2"] * len(fmts)
            stack = CSRStack.of([FPContext(fmts[0]).asarray(lane)
                                 for lane in _lanes(rng)])
            ctx, quiet = (FPContext(fmts[0], collector=got),
                          FPContext(fmts[0]))
        with np.errstate(invalid="ignore", over="ignore"):
            y = ctx.matvec(stack, x)
            products = _stack_products(quiet, stack, x)
        for k, lane in enumerate(stack.lanes):
            fmt = FPContext(fmts[k]).fmt
            rows = stack.segments.offsets[k] + np.arange(lane.n)
            for i in rows:
                live = products[stack.indptr[i]:stack.indptr[i + 1]]
                _padded_fold_counts(want, "matvec.csr.sum", fmt, live,
                                    lane.row_width,
                                    products[stack.nnz + k])
        snap = got.snapshot()["matvec.csr.sum"]
        assert snap == want.snapshot()["matvec.csr.sum"]
        assert all(c.exact < c.total for c in snap.values())
        for k, lane in enumerate(stack.lanes):
            alone = FPContext(fmts[k]).matvec(
                lane, stack.segments.lane(x, k).copy())
            assert stack.segments.lane(y, k).tobytes() == alone.tobytes()


def _signed_zero_lanes():
    """Three 9 × 9 arrow lanes (row 0 is full, so every row pads to 9)
    whose rows 3 and 6 hold only two products, both -0.0 (a positive
    entry times -0.0, a negative one times +0.0).  Lane 0 pads with
    +0.0, lane 1 with -0.0 and lane 2 with NaN."""
    A = np.diag(np.full(9, 4.0))
    A[0, :] = A[:, 0] = 1.0
    for i, j in ((3, 5), (6, 8)):
        A[0, i] = A[i, 0] = 0.0
        A[i, j] = A[j, i] = -1.5
    xs = []
    for first in (2.0, -3.0, np.nan):
        x = np.linspace(1.0, 2.0, 9)
        x[[0, 3, 6, 5, 8]] = [first, -0.0, -0.0, 0.0, 0.0]
        xs.append(x)
    return [A] * 3, xs


@pytest.mark.parametrize("fname", FORMATS)
def test_signed_zero_and_nan_pads_match_the_reference(fname):
    ctx = FPContext(fname)
    dense, xs = _signed_zero_lanes()
    stack = CSRStack.of([ctx.asarray(CSRMatrix.from_dense(A))
                         for A in dense])
    with np.errstate(invalid="ignore"):
        got = ctx.matvec(stack, np.concatenate(xs))
        for k, (A, xk) in enumerate(zip(dense, xs)):
            want = padded_row_matvec(ctx, A, xk)
            assert stack.segments.lane(got, k).tobytes() == \
                want.tobytes(), k
    lanes = [stack.segments.lane(got, k) for k in range(3)]
    # two -0.0 products meet the +0.0 pad in fresh live-pad pairs, which
    # the fold adds: +0.0; the -0.0 pad leaves them -0.0; NaN poisons
    assert lanes[0][[3, 6]].tobytes() == np.zeros(2).tobytes()
    assert lanes[1][[3, 6]].tobytes() == np.full(2, -0.0).tobytes()
    assert np.isnan(lanes[2]).all()
