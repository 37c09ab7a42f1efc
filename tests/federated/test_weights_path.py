"""The copy-free weights path against the straightforward one it replaced.

Two fast paths move the model each round:

* :func:`fedavg` accumulates large parameters block by block through one
  scratch buffer.  The reference below is the plain loop (a zero
  accumulator, then ``acc += λ_i * s_i`` per state, one full-size
  temporary each), kept verbatim as the specification.  The two must
  agree bitwise, compared as uint64 words: sizes around the block edge
  and the 3703×64 Citeseer first layer, one and nine states, uniform and
  sample-count weights, ``±0.0``/NaN/``±inf`` values.
* ``Communicator.broadcast`` / ``send_to_client`` with ``into=`` write
  the payload straight into each receiver's live parameter arrays.  The
  reference is the copy-returning form followed by ``load_state_dict``
  (what ``Client.set_state`` does).  Parameters, traffic counters and
  monitor events must be identical; no receiver may share memory with
  the payload or with another receiver; and a bad key, shape or dtype
  must raise before any receiver, counter or monitor sees anything.
"""

import tracemalloc
from typing import Dict, List

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.federated import server as server_mod
from repro.federated.comm import KIND_WEIGHTS, Communicator
from repro.federated.faults import payload_is_finite
from repro.federated.server import fedavg
from repro.nn import Adam, Linear, Module

B = server_mod._BLOCK
SIZES = [(1,), (7,), (B - 1,), (B,), (B + 1,), (3703, 64)]
SPECIALS = np.array([0.0, -0.0, np.nan, np.inf, -np.inf])


# ---------------------------------------------------------------------------
# reference: the plain FedAvg loop, verbatim
# ---------------------------------------------------------------------------
def reference_fedavg(states, weights=None):
    if not states:
        raise ValueError("no states to aggregate")
    keys = set(states[0])
    for s in states[1:]:
        if set(s) != keys:
            raise KeyError("state dicts disagree on parameter names")
    if weights is None:
        n_contributing = len(states)  # uniform λ over who actually uploaded
        lam = np.full(n_contributing, 1.0 / n_contributing)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if len(w) != len(states):
            raise ValueError("one weight per state required")
        if np.any(w < 0) or w.sum() <= 0:
            raise ValueError("weights must be non-negative and sum positive")
        lam = w / w.sum()
    out = {}
    for k in states[0]:
        acc = np.zeros_like(states[0][k])
        for lam_i, s in zip(lam, states):
            if s[k].shape != acc.shape:
                raise ValueError(f"shape mismatch for {k}")
            acc += lam_i * s[k]
        out[k] = acc
    return out


def _words(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).reshape(-1).view(np.uint64)


def _states(rng, shapes, n_states, specials, dtype=np.float64) -> List[Dict[str, np.ndarray]]:
    states = []
    for _ in range(n_states):
        state = {}
        for i, shape in enumerate(shapes):
            v = rng.standard_normal(shape).astype(dtype)
            if specials:
                flat = v.reshape(-1)
                idx = rng.integers(0, flat.size, size=min(flat.size, 4))
                flat[idx] = rng.choice(SPECIALS, size=idx.size)
            state[f"p{i}"] = v
        states.append(state)
    return states


@settings(max_examples=40, deadline=None)
@given(
    shapes=st.lists(st.sampled_from(SIZES), min_size=1, max_size=3),
    n_states=st.sampled_from([1, 9]),
    sample_weights=st.booleans(),
    specials=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_fedavg_matches_reference_bitwise(shapes, n_states, sample_weights, specials, seed):
    rng = np.random.default_rng(seed)
    states = _states(rng, shapes, n_states, specials)
    weights = rng.integers(1, 500, n_states).tolist() if sample_weights else None
    with np.errstate(invalid="ignore"):  # inf + -inf
        got, want = fedavg(states, weights), reference_fedavg(states, weights)
    assert list(got) == list(want)
    for k in want:
        assert got[k].shape == want[k].shape and got[k].dtype == want[k].dtype
        assert np.array_equal(_words(got[k]), _words(want[k])), k


@pytest.mark.parametrize("shape", [(7,), (B + 1,)])
def test_fedavg_float32_states_match_reference(shape):
    states = _states(np.random.default_rng(0), [shape, (3,)], 9, specials=True, dtype=np.float32)
    weights = list(range(1, 10))
    with np.errstate(invalid="ignore"):
        got, want = fedavg(states, weights), reference_fedavg(states, weights)
    for k in want:
        assert got[k].dtype == want[k].dtype == np.float32
        assert got[k].tobytes() == want[k].tobytes()


def test_fedavg_rejects_shape_mismatch_past_the_block():
    a = {"w": np.zeros(B + 1)}
    with pytest.raises(ValueError, match="shape mismatch for w"):
        fedavg([a, {"w": np.zeros(B + 2)}])


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fedavg_allocates_no_per_state_temporary():
    states = _states(np.random.default_rng(0), [(3703, 64)], 9, specials=False)
    out_bytes = states[0]["p0"].nbytes
    # The result plus one scratch block; the plain loop peaks at two
    # full-size arrays (result and one λ_i·s_i temporary).
    assert _peak_bytes(lambda: fedavg(states)) < out_bytes + 2 * B * 8


def test_payload_is_finite_allocates_nothing_full_size():
    big = np.random.default_rng(0).standard_normal((3703, 64))
    payload = {"w": big, "z": big.astype(np.complex128)}
    assert payload_is_finite(payload)
    assert _peak_bytes(lambda: payload_is_finite(payload)) < big.size // 64


# ---------------------------------------------------------------------------
# receive-into downlink vs copy + load_state_dict
# ---------------------------------------------------------------------------
class Net(Module):
    def __init__(self, rng):
        super().__init__()
        self.fc1 = Linear(4, 5, rng=rng)
        self.fc2 = Linear(5, 3, rng=rng)


class Recorder:
    """Monitor stand-in: what the channel reported, and in which order."""

    def __init__(self):
        self.events = []

    def on_event(self, direction, kind, payload, client=None):
        self.events.append((direction, kind, client, id(payload)))

    def on_round_end(self):
        self.events.append(("round_end",))


def _fleet(n, seed):
    """Models whose parameters are views of an optimizer's flat buffer, as in a client."""
    models, flats = [], []
    for i in range(n):
        m = Net(np.random.default_rng(seed + i))
        models.append(m)
        flats.append(Adam(m.parameters(), lr=0.01).flat)
    return models, flats


def _live(m: Module) -> Dict[str, np.ndarray]:
    return {name: p.data for name, p in m.named_parameters()}


def _comm(n):
    comm = Communicator(num_clients=n)
    comm._monitor = Recorder()
    return comm


def _assert_bitwise_equal(a_flats, b_flats):
    for a, b in zip(a_flats, b_flats):
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 5), seed=st.integers(0, 10_000), specials=st.booleans())
def test_broadcast_into_matches_copy_then_load(n, seed, specials):
    payload = {k: v.copy() for k, v in _live(_fleet(1, seed + 100)[0][0]).items()}
    if specials:
        payload["fc1.weight"].reshape(-1)[:5] = SPECIALS
    ref_models, ref_flats = _fleet(n, seed)
    models, flats = _fleet(n, seed)
    ref_comm, comm = _comm(n), _comm(n)

    for model, state in zip(ref_models, ref_comm.broadcast(payload, KIND_WEIGHTS)):
        model.load_state_dict(state)
    assert comm.broadcast(payload, KIND_WEIGHTS, into=[_live(m) for m in models]) is None
    ref_comm.end_round()
    comm.end_round()

    _assert_bitwise_equal(flats, ref_flats)
    assert comm.stats == ref_comm.stats
    assert comm.stats.by_kind == ref_comm.stats.by_kind
    assert comm._monitor.events == ref_comm._monitor.events
    for i, flat in enumerate(flats):
        for arr in payload.values():
            assert not np.may_share_memory(flat, arr)
        for other in flats[i + 1 :]:
            assert not np.may_share_memory(flat, other)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 5), seed=st.integers(0, 10_000), data=st.data())
def test_send_to_client_into_matches_copy_then_load(n, seed, data):
    cid = data.draw(st.integers(0, n - 1))
    payload = {k: v.copy() for k, v in _live(_fleet(1, seed + 100)[0][0]).items()}
    ref_models, ref_flats = _fleet(n, seed)
    models, flats = _fleet(n, seed)
    ref_comm, comm = _comm(n), _comm(n)

    ref_models[cid].load_state_dict(ref_comm.send_to_client(cid, payload, KIND_WEIGHTS))
    assert comm.send_to_client(cid, payload, KIND_WEIGHTS, into=_live(models[cid])) is None

    _assert_bitwise_equal(flats, ref_flats)
    assert comm.stats == ref_comm.stats
    assert comm._monitor.events == ref_comm._monitor.events
    for arr in payload.values():
        assert not np.may_share_memory(flats[cid], arr)


def _bad_receivers():
    """Mutations that each break one receiver's state dict."""

    def extra_key(d):
        d["ghost"] = np.zeros(1)

    def missing_key(d):
        del d["fc2.bias"]

    def wrong_shape(d):
        d["fc2.bias"] = np.zeros(4)

    def wrong_dtype(d):
        d["fc2.bias"] = np.zeros(3, dtype=np.float32)

    return [extra_key, missing_key, wrong_shape, wrong_dtype]


@pytest.mark.parametrize("mutate", _bad_receivers(), ids=lambda f: f.__name__)
def test_bad_receiver_raises_before_anything_changes(mutate):
    n = 4
    payload = {k: v + 1.0 for k, v in _live(_fleet(1, 99)[0][0]).items()}
    models, flats = _fleet(n, 0)
    before = [f.copy() for f in flats]
    comm = _comm(n)
    into = [_live(m) for m in models]
    mutate(into[-1])  # only the last receiver is bad
    with pytest.raises((KeyError, ValueError)):
        comm.broadcast(payload, KIND_WEIGHTS, into=into)
    with pytest.raises((KeyError, ValueError)):
        comm.send_to_client(n - 1, payload, KIND_WEIGHTS, into=into[-1])
    _assert_bitwise_equal(flats, before)
    assert comm.stats == Communicator(num_clients=n).stats
    assert comm._monitor.events == []


def test_broadcast_into_needs_one_receiver_per_client():
    models, _ = _fleet(2, 0)
    comm = _comm(3)
    with pytest.raises(ValueError, match="3 receivers"):
        comm.broadcast(_live(models[0]), KIND_WEIGHTS, into=[_live(m) for m in models])
    assert comm._monitor.events == []
