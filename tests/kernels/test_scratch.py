"""ScratchPool: keying, LIFO reuse, reentrancy, bounds."""

from __future__ import annotations

import threading

import numpy as np

from repro.kernels.scratch import SCRATCH_BUDGET, ScratchPool, _MAX_PER_KEY


class TestScratchPool:
    def test_take_returns_requested_shape_dtype(self):
        pool = ScratchPool()
        buf = pool.take((3, 4), np.int32)
        assert buf.shape == (3, 4) and buf.dtype == np.int32

    def test_give_take_reuses_the_same_buffer(self):
        pool = ScratchPool()
        buf = pool.take((8,))
        pool.give(buf)
        assert pool.take((8,)) is buf

    def test_keying_separates_shape_and_dtype(self):
        pool = ScratchPool()
        f = pool.take((4,), np.float64)
        pool.give(f)
        assert pool.take((4,), np.bool_) is not f
        assert pool.take((2, 2), np.float64) is not f
        assert pool.take((4,), np.float64) is f

    def test_reentrancy_never_hands_out_a_taken_buffer(self):
        pool = ScratchPool()
        a = pool.take((16,))
        b = pool.take((16,))     # nested take while `a` is out
        assert a is not b
        pool.give(a)
        pool.give(b)

    def test_pool_is_bounded_per_key(self):
        pool = ScratchPool()
        bufs = [pool.take((5,)) for _ in range(_MAX_PER_KEY + 3)]
        for buf in bufs:
            pool.give(buf)
        stack = pool._buffers()[((5,), "d")]
        assert len(stack) == _MAX_PER_KEY

    def test_clear_drops_buffers(self):
        pool = ScratchPool()
        buf = pool.take((6,))
        pool.give(buf)
        pool.clear()
        assert pool.take((6,)) is not buf

    def test_buffers_are_thread_local(self):
        pool = ScratchPool()
        mine = pool.take((7,))
        pool.give(mine)
        seen = {}

        def worker():
            seen["theirs"] = pool.take((7,))

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        assert seen["theirs"] is not mine


class TestByteBudget:
    """Distinct shapes (a lane stack shrinking as lanes finish makes a
    new one each time) must not grow a pool without bound."""

    @staticmethod
    def _held(pool: ScratchPool) -> int:
        return sum(buf.nbytes for stack in pool._buffers().values()
                   for buf in stack)

    def test_many_distinct_shapes_stay_under_the_budget(self):
        pool = ScratchPool()
        for n in range(1, 2001):
            pool.give(pool.take((n, 3)))
            assert self._held(pool) == pool.nbytes <= SCRATCH_BUDGET
        # 2000 shapes of up to 48 KB would hold ~48 MB unbounded
        assert len(pool._buffers()) < 2000

    def test_warm_shape_keeps_its_buffer(self):
        pool = ScratchPool()
        warm = pool.take((64,))
        pool.give(warm)
        for n in range(1, 2001):
            pool.give(pool.take((n, 7)))
            buf = pool.take((64,))
            assert buf is warm
            pool.give(buf)

    def test_least_recently_returned_shape_goes_first(self):
        pool = ScratchPool()
        half = SCRATCH_BUDGET // 2 // 8        # float64 elements
        old, new = pool.take((half,)), pool.take((half - 1,))
        pool.give(old)
        pool.give(new)
        pool.give(pool.take((16,)))             # over budget: drop `old`
        assert pool.take((half,)) is not old
        assert pool.take((half - 1,)) is new

    def test_buffer_over_the_budget_is_not_kept(self):
        pool = ScratchPool()
        big = pool.take((SCRATCH_BUDGET // 8 + 1,))
        pool.give(big)
        assert pool.nbytes == 0
        assert pool.take(big.shape) is not big
