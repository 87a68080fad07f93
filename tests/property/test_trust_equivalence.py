"""Hypothesis equivalence: random op interleavings vs. the dict oracle.

Drives the flat-array `TrustTable` and the retained `TrustTableReference`
through identical random interleavings of penalize / reward / batch
updates / set_v / forget / votes / import_state / clone and asserts
every observable -- `ti`, `cti`, `tis`, `below_threshold`,
`export_state` -- stays *bit-identical* (plain ``==``, no tolerance).
Hypothesis shrinks any divergence to a minimal op sequence.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.trust import TrustParameters, TrustTable
from tests.oracles.trust import TrustTableReference

NODE_IDS = st.integers(min_value=0, max_value=15)

params_strategy = st.builds(
    TrustParameters,
    lam=st.floats(min_value=0.01, max_value=5.0, allow_nan=False),
    fault_rate=st.floats(min_value=0.0, max_value=0.99, allow_nan=False),
)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("penalize"), NODE_IDS),
        st.tuples(st.just("reward"), NODE_IDS),
        st.tuples(
            st.just("penalize_many"), st.lists(NODE_IDS, max_size=6)
        ),
        st.tuples(st.just("reward_many"), st.lists(NODE_IDS, max_size=6)),
        st.tuples(
            st.just("set_v"),
            NODE_IDS,
            st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
        ),
        st.tuples(st.just("forget"), NODE_IDS),
        st.tuples(
            st.just("vote"),
            st.lists(NODE_IDS, min_size=1, max_size=6, unique=True),
            st.lists(NODE_IDS, min_size=1, max_size=6, unique=True),
        ),
        st.tuples(st.just("import_state"), st.just(None)),
        st.tuples(st.just("clone"), st.just(None)),
    ),
    max_size=60,
)


def apply_op(table, op, snapshot):
    """Apply one op tuple to a table; returns the (possibly new) table."""
    kind = op[0]
    if kind == "penalize":
        return table.penalize(op[1]), table
    if kind == "reward":
        return table.reward(op[1]), table
    if kind == "penalize_many":
        table.penalize_many(op[1])
        return None, table
    if kind == "reward_many":
        table.reward_many(op[1])
        return None, table
    if kind == "set_v":
        table.set_v(op[1], op[2])
        return None, table
    if kind == "forget":
        table.forget(op[1])
        return None, table
    if kind == "vote":
        reporters = [n for n in op[1] if n not in set(op[2])]
        if not reporters:
            return None, table
        return table.cti_vote(reporters, op[2]), table
    if kind == "import_state":
        table.import_state(snapshot)
        return None, table
    # clone: continue on the copy so divergence would accumulate there.
    return None, table.clone()


def observables(table, probe_ids):
    return (
        len(table),
        list(table),
        table.tis(),
        table.export_state(),
        [table.ti(n) for n in probe_ids],
        [n in table for n in probe_ids],
        [
            table.below_threshold(t)
            for t in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0)
        ],
        table.cti(sorted(table)),
        table.total_ti(),
    )


@given(
    params=params_strategy,
    initial=st.lists(NODE_IDS, max_size=8, unique=True),
    ops=operations,
)
@settings(max_examples=120, deadline=None)
def test_engine_bit_identical_to_oracle(params, initial, ops):
    engine = TrustTable(params, initial)
    oracle = TrustTableReference(params, initial)
    # A mid-stream import source: a fixed non-trivial state.
    snapshot = {3: 1.5, 9: 0.0, 14: 4.25}
    probe_ids = list(range(16)) + [99]
    for op in ops:
        got, engine = apply_op(engine, op, snapshot)
        want, oracle = apply_op(oracle, op, snapshot)
        assert got == want
        assert observables(engine, probe_ids) == observables(
            oracle, probe_ids
        )


@given(
    params=params_strategy,
    ops=st.lists(st.booleans(), min_size=1, max_size=120),
)
@settings(max_examples=80, deadline=None)
def test_single_node_walk_bit_identical(params, ops):
    """Every prefix of a penalty/reward walk agrees exactly, including
    the `_V_EPSILON` snap back to TI = 1.0."""
    engine = TrustTable(params, [0])
    oracle = TrustTableReference(params, [0])
    for rewarded in ops:
        if rewarded:
            assert engine.reward(0) == oracle.reward(0)
        else:
            assert engine.penalize(0) == oracle.penalize(0)
        assert engine.entry(0).v == oracle.entry(0).v
        assert engine.ti(0) == oracle.ti(0)
