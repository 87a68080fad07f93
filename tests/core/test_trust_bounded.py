"""Trust state stays bounded by the node count, and clones are isolated.

A cluster head votes for as long as its cluster lives, so the memory a
trust table retains must depend on how many nodes it tracks, never on
how many votes it has taken.  Shadow cluster heads vote on a
:meth:`~repro.core.trust.TrustTable.clone` of the CH table, so a clone
and its source must never see each other's updates.
"""

import gc
import random
import tracemalloc

import repro.core.trust as trust_module
from repro.core.trust import TrustParameters, TrustTable

PARAMS = TrustParameters(lam=0.25, fault_rate=0.1)
NODES = range(10)

#: Slack over the 100-vote table.  Report counters past 256 and
#: accumulators off the reward floor become heap objects instead of
#: interned constants: a few dozen bytes per row, never per vote.
SLACK_BYTES = 2048


def retained_after(votes, seed=7):
    """Bytes allocated by the trust module and still alive after
    ``votes`` random votes over partitions of changing shape."""
    rng = random.Random(seed)
    gc.collect()
    tracemalloc.start()
    try:
        table = TrustTable(PARAMS, NODES)
        for _ in range(votes):
            pool = rng.sample(NODES, rng.randint(2, len(NODES)))
            cut = rng.randint(1, len(pool) - 1)
            table.cti_vote(pool[:cut], pool[cut:])
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert len(table) == len(NODES)
    mine = snapshot.filter_traces(
        [tracemalloc.Filter(True, trust_module.__file__)]
    )
    return sum(stat.size for stat in mine.statistics("filename"))


class TestBoundedState:
    def test_retained_memory_does_not_grow_with_votes(self):
        small = retained_after(100)
        large = retained_after(10_000)
        assert small > 0
        assert large <= small + SLACK_BYTES, (small, large)

    def test_distinct_accumulators_bounded_by_rows(self):
        table = TrustTable(PARAMS, NODES)
        rng = random.Random(3)
        for _ in range(2_000):
            pool = rng.sample(NODES, rng.randint(2, len(NODES)))
            cut = rng.randint(1, len(pool) - 1)
            table.cti_vote(pool[:cut], pool[cut:])
        assert table.code_table_size() <= len(table)


class TestCloneIsolation:
    @staticmethod
    def observe(table):
        return (
            table.tis(),
            {
                n: (table.entry(n).correct_reports,
                    table.entry(n).faulty_reports)
                for n in NODES
            },
        )

    def make_source(self):
        table = TrustTable(PARAMS, NODES)
        for _ in range(5):
            table.cti_vote([0, 1, 2, 3, 4, 5], [6, 7, 8, 9])
        table.penalize(3)
        return table

    def test_updates_on_clone_leave_source_unchanged(self):
        source = self.make_source()
        clone = source.clone()
        before = self.observe(source)
        clone.cti_vote([6, 7, 8, 9], [0, 1, 2])
        clone.penalize_many([0, 1])
        clone.reward(6)
        clone.set_v(5, 3.0)
        clone.forget(9)
        assert self.observe(source) == before

    def test_updates_on_source_leave_clone_unchanged(self):
        source = self.make_source()
        clone = source.clone()
        before = self.observe(clone)
        source.cti_vote([6, 7, 8, 9], [0, 1, 2])
        source.reward_many([6, 7])
        source.penalize(4)
        source.set_v(5, 3.0)
        source.forget(9)
        assert self.observe(clone) == before
