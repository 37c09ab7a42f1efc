"""FaultPlan unit tests: determinism, grammar, filters, payload helpers."""

import numpy as np
import pytest

from repro.federated.faults import (
    CORRUPT,
    CRASH,
    DROP,
    FAULT_KINDS,
    STRAGGLER,
    FaultPlan,
    FaultSpec,
    corrupt_payload,
    payload_is_finite,
)


class TestDeterminism:
    def test_event_is_pure(self):
        plan = FaultPlan([FaultSpec(DROP, 0.3)], seed=7)
        for r in range(5):
            for c in range(5):
                assert plan.event(r, c) == plan.event(r, c)

    def test_query_order_independent(self):
        plan = FaultPlan([FaultSpec(DROP, 0.3), FaultSpec(CRASH, 0.3)], seed=7)
        cells = [(r, c) for r in range(6) for c in range(6)]
        forward = {cell: plan.event(*cell) for cell in cells}
        backward = {cell: plan.event(*cell) for cell in reversed(cells)}
        assert forward == backward

    def test_same_seed_same_schedule(self):
        a = FaultPlan([FaultSpec(k, 0.25) for k in FAULT_KINDS], seed=3)
        b = FaultPlan([FaultSpec(k, 0.25) for k in FAULT_KINDS], seed=3)
        for r in range(8):
            assert a.events_for_round(r, 5) == b.events_for_round(r, 5)

    def test_different_seed_different_schedule(self):
        a = FaultPlan([FaultSpec(DROP, 0.5)], seed=0)
        b = FaultPlan([FaultSpec(DROP, 0.5)], seed=1)
        tables = [
            {(r, c): p.event(r, c) for r in range(10) for c in range(10)}
            for p in (a, b)
        ]
        assert tables[0] != tables[1]

    def test_cells_aligned_across_spec_lists(self):
        # Appending a lower-priority spec must not perturb the cells the
        # first spec already claims (each spec draws from the cell RNG in
        # order, firing or not).
        first = FaultSpec(DROP, 0.4)
        alone = FaultPlan([first], seed=11)
        extended = FaultPlan([first, FaultSpec(CRASH, 0.9)], seed=11)
        for r in range(10):
            for c in range(5):
                ev = alone.event(r, c)
                if ev is not None:
                    assert extended.event(r, c) == ev

    def test_first_matching_spec_wins(self):
        plan = FaultPlan([FaultSpec(STRAGGLER, 1.0), FaultSpec(CRASH, 1.0)], seed=0)
        for c in range(4):
            assert plan.event(0, c).kind == STRAGGLER

    def test_prob_extremes(self):
        never = FaultPlan([FaultSpec(DROP, 0.0)], seed=0)
        always = FaultPlan([FaultSpec(DROP, 1.0)], seed=0)
        assert never.events_for_round(0, 10) == {}
        assert set(always.events_for_round(0, 10)) == set(range(10))


class TestFilters:
    def test_round_range_inclusive(self):
        plan = FaultPlan([FaultSpec(DROP, 1.0, rounds=(2, 4))], seed=0)
        fired = [r for r in range(8) if plan.event(r, 0) is not None]
        assert fired == [2, 3, 4]

    def test_client_set(self):
        plan = FaultPlan([FaultSpec(DROP, 1.0, clients=frozenset({1, 3}))], seed=0)
        assert set(plan.events_for_round(0, 5)) == {1, 3}

    def test_filtered_spec_leaves_cell_to_later_specs(self):
        plan = FaultPlan(
            [
                FaultSpec(DROP, 1.0, clients=frozenset({0})),
                FaultSpec(CRASH, 1.0),
            ],
            seed=0,
        )
        assert plan.event(0, 0).kind == DROP
        assert plan.event(0, 1).kind == CRASH


class TestSpecGrammar:
    def test_simple_clause(self):
        plan = FaultPlan.from_spec("drop=0.2", seed=5)
        assert plan.seed == 5
        (spec,) = plan.specs
        assert (spec.kind, spec.prob) == (DROP, 0.2)

    def test_full_grammar(self):
        plan = FaultPlan.from_spec(
            "straggler=0.5:delay=0.02,corrupt=0.3:mode=zero:rounds=2-5,"
            "drop=1.0:clients=0|3:rounds=4"
        )
        s, c, d = plan.specs
        assert (s.kind, s.prob, s.delay) == (STRAGGLER, 0.5, 0.02)
        assert (c.kind, c.mode, c.rounds) == (CORRUPT, "zero", (2, 5))
        assert (d.kind, d.rounds, d.clients) == (DROP, (4, 4), frozenset({0, 3}))

    def test_describe_mentions_every_clause(self):
        plan = FaultPlan.from_spec("straggler=0.5:delay=0.02,corrupt=0.3:mode=zero", seed=9)
        text = plan.describe()
        assert "straggler=0.5" in text and "delay=0.02" in text
        assert "corrupt=0.3" in text and "mode=zero" in text
        assert "seed=9" in text

    @pytest.mark.parametrize(
        "bad",
        [
            "nonsense",
            "explode=0.5",
            "drop=1.5",
            "drop=0.5:wat=1",
            "straggler=0.5:delay=-1",
            "corrupt=0.5:mode=flip",
            "drop=0.5:rounds=5-2",
            "",
        ],
    )
    def test_bad_specs_raise(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.from_spec(bad)

    def test_empty_plan_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan([])


class TestPayloadHelpers:
    def payload(self):
        return {
            "w": np.ones((2, 3)),
            "idx": np.arange(4),
            "nested": [np.full(3, 2.0), {"b": np.float32(1.5)}],
        }

    def test_corrupt_nan_fills_floats_only(self):
        out = corrupt_payload(self.payload(), "nan")
        assert np.isnan(out["w"]).all()
        assert np.isnan(out["nested"][0]).all()
        np.testing.assert_array_equal(out["idx"], np.arange(4))

    def test_corrupt_zero(self):
        out = corrupt_payload(self.payload(), "zero")
        assert (out["w"] == 0).all()
        assert payload_is_finite(out)

    def test_corrupt_does_not_mutate_input(self):
        p = self.payload()
        corrupt_payload(p, "nan")
        assert np.isfinite(p["w"]).all()

    def test_corrupt_bad_mode(self):
        with pytest.raises(ValueError):
            corrupt_payload({}, "flip")

    def test_payload_is_finite(self):
        assert payload_is_finite(self.payload())
        assert payload_is_finite({"i": np.arange(3)})
        assert not payload_is_finite({"w": np.array([1.0, np.nan])})
        assert not payload_is_finite([np.zeros(2), (np.array([np.inf]),)])
        assert not payload_is_finite(float("nan"))
        assert payload_is_finite(None)


NAN, INF = float("nan"), float("inf")
FINITE_TABLE = [
    # (payload, finite)
    *[(np.array([1.0, -2.0], dtype=dt), True) for dt in (np.float16, np.float32, np.float64)],
    *[(np.array([1.0, v], dtype=dt), False) for dt in (np.float16, np.float32, np.float64)
      for v in (NAN, INF, -INF)],
    (np.array([1 + 2j, -3j]), True),
    (np.array([1 + 2j, complex(NAN, 0)]), False),
    (np.array([1 + 2j, complex(0, INF)]), False),
    (np.array([complex(-INF, 1)], dtype=np.complex64), False),
    (complex(NAN), False),
    (complex(0, -INF), False),
    (np.complex128(INF), False),
    (np.complex64(1 + 1j), True),
    (1 + 1j, True),
    (np.array([2**62, -(2**62)], dtype=np.int64), True),
    (np.array([True, False]), True),
    (np.array(NAN), False),
    (np.array(3.0), True),
    (np.array(complex(0, NAN)), False),
    (np.zeros(0), True),
    (np.zeros((0, 5), dtype=np.complex128), True),
    ({"a": [complex(NAN)]}, False),
    ({"a": {"b": (np.ones(2), [np.float32(NAN)])}}, False),
    ({"a": {"b": (np.ones(2), [np.float32(1.0)])}, "c": ()}, True),
    ([np.zeros(1), (np.array([-INF]),)], False),
    (np.array([0.0, -0.0]), True),
    (-0.0, True),
    # Finite values whose sum overflows are still finite.
    (np.array([1e308, 1e308, 1e308]), True),
    (np.array([-1e308, -1e308], dtype=np.float64), True),
    (np.array([6e4, 6e4], dtype=np.float16), True),
    (NAN, False),
    (np.float16(INF), False),
    (3, True),
    (None, True),
]


@pytest.mark.parametrize("payload,finite", FINITE_TABLE, ids=repr)
def test_payload_is_finite_table(payload, finite):
    assert payload_is_finite(payload) is finite


class TestFaultyCommunicatorKinds:
    """`by_kind` attribution must stay exact through drop/corrupt faults."""

    def _comm(self, specs):
        from repro.federated.faults import FaultInjector, FaultyCommunicator

        injector = FaultInjector(FaultPlan(specs, seed=0))
        comm = FaultyCommunicator(3, injector)
        injector.begin_round(0, 3)
        return comm

    def test_default_kind_is_other_constant(self):
        from repro.federated.comm import KIND_OTHER

        comm = self._comm([FaultSpec(DROP, 0.0)])
        comm.send_to_server(0, np.zeros(4))
        assert comm.stats.by_kind[KIND_OTHER]["uplink_bytes"] == 32
        assert set(comm.stats.by_kind) == {KIND_OTHER}

    def test_corrupt_preserves_kind_attribution(self):
        from repro.federated.comm import KIND_WEIGHTS

        comm = self._comm([FaultSpec(CORRUPT, 1.0, clients=frozenset({0}))])
        out = comm.send_to_server(0, {"w": np.zeros(4)}, kind=KIND_WEIGHTS)
        assert np.isnan(out["w"]).all()  # the bytes moved, but garbled
        cell = comm.stats.by_kind[KIND_WEIGHTS]
        assert cell["uplink_bytes"] == 32 and cell["uplink_messages"] == 1
        assert comm.stats.uplink_bytes == 32

    def test_corrupt_leaves_statistics_kinds_intact(self):
        from repro.federated.comm import KIND_MEANS

        comm = self._comm([FaultSpec(CORRUPT, 1.0, clients=frozenset({0}))])
        out = comm.send_to_server(0, np.ones(3), kind=KIND_MEANS)
        assert np.isfinite(out).all()  # corrupt only garbles weight uploads
        assert comm.stats.by_kind[KIND_MEANS]["uplink_bytes"] == 24

    def test_drop_meters_nothing_under_any_kind(self):
        from repro.federated.comm import KIND_MEANS
        from repro.federated.faults import ClientDropped

        comm = self._comm([FaultSpec(DROP, 1.0, clients=frozenset({1}))])
        with pytest.raises(ClientDropped):
            comm.send_to_server(1, np.zeros(8), kind=KIND_MEANS)
        assert comm.stats.uplink_bytes == 0 and not comm.stats.by_kind

    def test_kind_cells_sum_to_aggregate(self):
        from repro.federated.comm import KIND_MEANS, KIND_WEIGHTS

        comm = self._comm([FaultSpec(CORRUPT, 1.0, clients=frozenset({0}))])
        comm.send_to_server(0, np.zeros(2), kind=KIND_MEANS)
        comm.send_to_server(2, np.zeros(4), kind=KIND_WEIGHTS)
        comm.send_to_server(2, np.zeros(1))
        total = sum(c["uplink_bytes"] for c in comm.stats.by_kind.values())
        assert total == comm.stats.uplink_bytes == 56
