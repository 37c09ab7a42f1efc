"""Grouped evaluation against the per-party reference ``Client.evaluate``.

``FederatedTrainer.evaluate`` groups clients whose parameters are
bitwise identical and scores each group from one forward over the
disjoint union of its members' graphs (``GraphUnion``).  The simple
reference scores every party alone.  For every model family, on random
parties (empty masks, one-node and edgeless graphs, all-zero feature
rows) holding k distinct weight states (including ``±0.0`` and NaN
weights), the per-party accuracies must be bitwise equal to the
reference and the number of forwards must equal the number of distinct
states among the scored parties.  The union's logits themselves may
differ from the per-party ones in the last bit (a dense BLAS product
blocks by row count); the generated weights are generic, so no node's
top class scores tie within that rounding.

The trainer stacks the whole fleet once and slices each group's union
out of it (``GraphUnion.select``); the slices are checked field by field
against ``GraphUnion`` of the same parts, and the cached evaluation
index against weights changed between evaluations.
"""

import threading
import time

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.autograd import Tensor, no_grad
from repro.baselines.fedlit import FedLITTrainer
from repro.federated import FederatedTrainer, TrainerConfig
from repro.federated import trainer as trainer_mod
from repro.gnn import APPNP, GAT, GCN, MLP, SAGE, SGC, OrthoGCN
from repro.graphs import Graph, GraphUnion
from repro.graphs import union as union_mod
from repro.nn import accuracy

NUM_FEATURES = 5
NUM_CLASSES = 3
SPLITS = ("val", "test")

FAMILIES = {
    "gcn": lambda d, c, rng: GCN(d, c, hidden=4, rng=rng),
    "orthogcn": lambda d, c, rng: OrthoGCN(d, c, hidden=4, num_hidden=2, rng=rng),
    "mlp": lambda d, c, rng: MLP(d, c, hidden=4, rng=rng),
    "sage": lambda d, c, rng: SAGE(d, c, hidden=4, rng=rng),
    "gat": lambda d, c, rng: GAT(d, c, hidden=4, rng=rng),
    "appnp": lambda d, c, rng: APPNP(d, c, hidden=4, k=3, rng=rng),
    "sgc": lambda d, c, rng: SGC(d, c, k=2, rng=rng),
}


def _party(rng, n, density, zero_rows, masks, num_features=NUM_FEATURES):
    upper = np.triu(rng.random((n, n)) < density, 1)
    x = rng.standard_normal((n, num_features)) * (rng.random((n, num_features)) < 0.6)
    x[sorted(zero_rows)] = 0.0
    return Graph(
        x=x,
        adj=sp.csr_matrix((upper | upper.T).astype(float)),
        y=rng.integers(0, NUM_CLASSES, n),
        num_classes=NUM_CLASSES,
        train_mask=masks[0],
        val_mask=masks[1],
        test_mask=masks[2],
    )


@st.composite
def parties(draw, max_parties=5):
    """1–5 small parties; edgeless, one-node, zero-row and empty-mask ones included."""
    graphs = []
    for _ in range(draw(st.integers(1, max_parties))):
        n = draw(st.integers(1, 6))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        density = draw(st.sampled_from([0.0, 0.4, 0.8]))
        zero_rows = draw(st.sets(st.integers(0, n - 1)))
        masks = [np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n))) for _ in range(3)]
        graphs.append(_party(rng, n, density, zero_rows, masks))
    return graphs


#: How a weight state is derived from the shared initial model W₀.
STATE_KINDS = ("perturbed", "plus_zero", "minus_zero", "nan")


def _state(w0, kind, seed):
    state = {k: v.copy() for k, v in w0.items()}
    first = next(iter(state))
    if kind == "perturbed":
        rng = np.random.default_rng(seed)
        for k in state:
            state[k] += 0.5 * rng.standard_normal(state[k].shape)
    else:
        state[first].flat[0] = {"plus_zero": 0.0, "minus_zero": -0.0, "nan": np.nan}[kind]
    return state


@st.composite
def weight_states(draw, num_clients):
    """A state index per client and the kind of each of up to 4 states."""
    kinds = draw(st.lists(st.sampled_from(STATE_KINDS), min_size=1, max_size=4))
    assign = draw(
        st.lists(st.integers(0, len(kinds) - 1), min_size=num_clients, max_size=num_clients)
    )
    return kinds, assign


class _FamilyTrainer(FederatedTrainer):
    family = "gcn"

    def build_model(self, graph, rng):
        return FAMILIES[self.family](graph.num_features, graph.num_classes, rng)


def _trainer(parts, family, num_workers=1):
    cfg = TrainerConfig(max_rounds=1, hidden=4, num_workers=num_workers)
    if family == "fedlit":
        return FedLITTrainer(parts, cfg, seed=0)
    cls = type(f"{family}Trainer", (_FamilyTrainer,), {"family": family})
    return cls(parts, cfg, seed=0)


def _load_states(tr, kinds, assign):
    w0 = tr.clients[0].get_state()
    states = [_state(w0, kind, seed) for seed, kind in enumerate(kinds)]
    for client, idx in zip(tr.clients, assign):
        client.set_state(states[idx])


def _reference(tr, split):
    """Per-party (accuracy, count), every party alone."""
    if not isinstance(tr, FedLITTrainer):
        return [c.evaluate(split) for c in tr.clients]
    scores = []
    for c in tr.clients:
        mask = getattr(c.graph, f"{split}_mask")
        if not mask.any():
            scores.append((float("nan"), 0))
            continue
        with no_grad():
            logits = c.model(tr._typed_adjs[c.cid], Tensor(c.graph.x))
        scores.append((accuracy(logits, c.graph.y, mask), int(mask.sum())))
    return scores


def _bits(scores):
    return np.array(scores, dtype=np.float64).tobytes()


def _distinct_states(tr, scored):
    return len({b"".join(p.data.tobytes() for p in c.model.parameters()) for c in scored})


class _Recorder:
    """Counts model forwards and captures the per-party scores of ``evaluate``."""

    def __init__(self, tr):
        self.model_cls = type(tr.clients[0].model)
        self.forwards = []
        self.scores = []

    def __enter__(self):
        real_forward = self.model_cls.forward
        real_weighted = trainer_mod._node_weighted

        def forward(model, *args, **kwargs):
            self.forwards.append(args[-1] if args else None)
            return real_forward(model, *args, **kwargs)

        def node_weighted(accs, counts):
            self.scores.append(list(zip(accs.tolist(), counts.tolist())))
            return real_weighted(accs, counts)

        self._restore = [(self.model_cls, "forward", real_forward),
                         (trainer_mod, "_node_weighted", real_weighted)]
        self.model_cls.forward = forward
        trainer_mod._node_weighted = node_weighted
        return self

    def __exit__(self, *exc):
        for owner, name, value in self._restore:
            setattr(owner, name, value)


def _check(tr):
    with _Recorder(tr) as rec:
        got = tr.evaluate(SPLITS)
    refs = [_reference(tr, split) for split in SPLITS]
    for scores, ref in zip(rec.scores, refs):
        assert _bits(scores) == _bits(ref)
    want = tuple(trainer_mod._node_weighted(*map(np.array, zip(*ref))) for ref in refs)
    assert np.array(got).tobytes() == np.array(want).tobytes()
    scored = [c for c, *counts in zip(tr.clients, *refs) if any(n for _, n in counts)]
    expected = len(scored) if isinstance(tr, FedLITTrainer) else _distinct_states(tr, scored)
    assert len(rec.forwards) == expected


@pytest.mark.parametrize("family", [*FAMILIES, "fedlit"])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_grouped_evaluate_matches_per_party_reference(family, data):
    parts = data.draw(parties())
    tr = _trainer(parts, family, num_workers=data.draw(st.sampled_from([1, 2])))
    kinds, assign = data.draw(weight_states(len(parts)))
    _load_states(tr, kinds, assign)
    _check(tr)


def test_large_parameters_are_compared_word_for_word():
    # conv1.weight is 1200×4 float64 (38 kB) and the ±0.0 and NaN states
    # differ only in its first word, far from the bucket key (the last
    # real bytes of the flat buffer): the word comparison must split them.
    rng = np.random.default_rng(5)
    parts = [_party(rng, 4, 0.5, (), [np.ones(4, dtype=bool)] * 3, num_features=1200)
             for _ in range(6)]
    tr = _trainer(parts, "gcn")
    _load_states(tr, ["plus_zero", "minus_zero", "nan", "perturbed"], [0, 1, 2, 2, 1, 3])
    layouts = {}
    assert trainer_mod._weight_groups(tr.clients, layouts) == [[0], [1, 4], [2, 3], [5]]
    assert len({layouts[c][1].tobytes() for c in tr.clients[:5]}) == 1
    _check(tr)


@pytest.mark.parametrize("family", [*FAMILIES, "fedlit"])
def test_missing_split_mask_raises_before_any_forward(family):
    rng = np.random.default_rng(0)
    masks = [np.ones(4, dtype=bool)] * 3
    parts = [_party(rng, 4, 0.5, (), masks) for _ in range(3)]
    tr = _trainer(parts, family)
    tr.clients[2].graph.val_mask = None
    with _Recorder(tr) as rec, pytest.raises(ValueError, match="val_mask"):
        tr.evaluate(SPLITS)
    assert rec.forwards == []
    assert tr.evaluate("test") == tr.evaluate(("test",))[0]


def test_empty_mask_party_runs_no_forward():
    rng = np.random.default_rng(7)
    full = [np.ones(5, dtype=bool)] * 3
    empty = [np.zeros(5, dtype=bool)] * 3
    parts = [_party(rng, 5, 0.5, (), full), _party(rng, 5, 0.5, (), empty),
             _party(rng, 5, 0.5, (), full)]
    tr = _trainer(parts, "gcn")
    with _Recorder(tr) as rec:
        tr.evaluate(SPLITS)
    # One forward, over the two scored parties only: the empty one adds no rows.
    [graph] = rec.forwards
    assert graph.num_nodes == 10 and graph.parts == (parts[0], parts[2])
    assert rec.scores[0][1] == (rec.scores[0][1][0], 0)

    lonely = _trainer([_party(rng, 5, 0.5, (), empty)], "gcn")
    with _Recorder(lonely) as rec:
        val, test = lonely.evaluate(SPLITS)
    assert rec.forwards == [] and np.isnan(val) and np.isnan(test)


# ----------------------------------------------------------------------
# the stacked view
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family", list(FAMILIES))
@settings(max_examples=30, deadline=None)
@given(parts=parties())
def test_union_forward_matches_per_party_forwards(family, parts):
    model = FAMILIES[family](NUM_FEATURES, NUM_CLASSES, np.random.default_rng(0))
    model.eval()
    with no_grad():
        stacked = model(GraphUnion(parts)).data
        alone = np.vstack([model(g).data for g in parts])
    assert stacked.shape == alone.shape
    assert np.max(np.abs(stacked - alone)) <= 1e-12 * max(np.max(np.abs(alone)), 1.0)


def _same_csr(got, want):
    got, want = sp.csr_matrix(got), sp.csr_matrix(want)
    assert got.shape == want.shape and got.nnz == want.nnz
    assert got.toarray().tobytes() == want.toarray().tobytes()


@settings(max_examples=40, deadline=None)
@given(parts=parties())
def test_union_operators_equal_block_diag_of_parts(parts):
    union = GraphUnion(parts)
    _same_csr(union.s_op.to_scipy(), sp.block_diag([g.s_op.to_scipy() for g in parts]))
    _same_csr(union.mean_op.to_scipy(), sp.block_diag([g.mean_op.to_scipy() for g in parts]))
    _same_csr(union.x_op.to_scipy(), sp.vstack([g.x_op.to_scipy() for g in parts]))
    assert union.x.tobytes() == np.vstack([g.x for g in parts]).tobytes()
    src, dst = union.edge_index
    loops = sp.block_diag([g.adj + sp.eye(g.num_nodes) for g in parts])
    _same_csr(sp.coo_matrix((np.ones(src.size), (src, dst)), shape=loops.shape), loops)
    assert np.array_equal(union.y, np.concatenate([g.y for g in parts]))
    assert np.array_equal(union.val_mask, np.concatenate([g.val_mask for g in parts]))
    assert np.array_equal(union.owner, np.repeat(np.arange(len(parts)), [g.num_nodes for g in parts]))
    assert union.num_nodes == sum(g.num_nodes for g in parts)


def test_one_part_union_is_the_graph_itself():
    g = _party(np.random.default_rng(1), 6, 0.5, (0,), [np.ones(6, dtype=bool)] * 3)
    union = GraphUnion([g])
    for name in ("s_op", "x_op", "mean_op", "x", "edge_index", "y", "test_mask"):
        assert getattr(union, name) is getattr(g, name)
    assert np.array_equal(union.owner, np.zeros(6, dtype=int))


def test_stacked_fields_are_built_on_first_access_only():
    rng = np.random.default_rng(2)
    parts = [_party(rng, 4, 0.5, (), [np.ones(4, dtype=bool)] * 3) for _ in range(2)]
    union = GraphUnion(parts)
    assert union.s_op is union.s_op and union.x_op is union.x_op
    assert "x" not in union._cache


def test_union_missing_mask_is_none():
    rng = np.random.default_rng(3)
    parts = [_party(rng, 4, 0.5, (), [np.ones(4, dtype=bool)] * 3) for _ in range(2)]
    parts[1].val_mask = None
    assert GraphUnion(parts).val_mask is None


@pytest.mark.parametrize("field", ["num_features", "num_classes"])
def test_stacking_mismatched_parties_raises(field):
    rng = np.random.default_rng(4)
    masks = [np.ones(4, dtype=bool)] * 3
    a = _party(rng, 4, 0.5, (), masks)
    if field == "num_features":
        b = _party(rng, 4, 0.5, (), masks, num_features=NUM_FEATURES + 1)
    else:
        b = Graph(x=a.x, adj=a.adj, y=a.y, num_classes=NUM_CLASSES + 1)
    with pytest.raises(ValueError, match=field):
        GraphUnion([a, b])


# ----------------------------------------------------------------------
# slicing groups out of the fleet union
# ----------------------------------------------------------------------
CSR_FIELDS = ("s_op", "mean_op", "x_op")
DENSE_FIELDS = ("x", "y", "train_mask", "val_mask", "test_mask", "owner")


def _same_array(got, want):
    if want is None:
        assert got is None
        return
    assert got.dtype == want.dtype and got.shape == want.shape
    if got.dtype == np.float64:
        got, want = got.view(np.uint64), want.view(np.uint64)
    assert np.array_equal(got, want)


def _same_union(got, want, fleet, pos):
    """Every field of ``got`` equals ``want``'s exactly (CSR data as uint64 words)."""
    assert got.parts == want.parts
    assert np.array_equal(got.offsets, want.offsets) and got.num_nodes == want.num_nodes
    assert (got.num_features, got.num_classes) == (want.num_features, want.num_classes)
    for name in CSR_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape
        for arr in ("data", "indices", "indptr"):
            _same_array(getattr(a, arr), getattr(b, arr))
    for name in DENSE_FIELDS:
        _same_array(getattr(got, name), getattr(want, name))
    for a, b in zip(got.edge_index, want.edge_index):
        _same_array(a, b)
    rows = np.concatenate([np.arange(fleet.offsets[i], fleet.offsets[i + 1]) for i in pos])
    assert np.array_equal(got.rows, rows)
    assert fleet.x[got.rows].tobytes() == want.x.tobytes()


@st.composite
def fleets(draw):
    """Parties (some lacking a val mask) and a random ascending subset of them."""
    parts = draw(parties(max_parties=7))
    for i in draw(st.sets(st.integers(0, len(parts) - 1), max_size=2)):
        parts[i].val_mask = None
    pos = sorted(draw(st.sets(st.integers(0, len(parts) - 1), min_size=1)))
    return parts, pos


@settings(max_examples=60, deadline=None)
@given(case=fleets(), warm=st.booleans())
def test_select_equals_union_of_the_selected_parts(case, warm):
    parts, pos = case
    fleet = GraphUnion(parts)
    if warm:  # the fleet's fields already built, as after the first evaluation
        for name in (*CSR_FIELDS, *DENSE_FIELDS, "edge_index"):
            getattr(fleet, name)
    got = fleet.select(pos)
    _same_union(got, GraphUnion([parts[i] for i in pos]), fleet, pos)
    # Selecting from a selection cuts from the fleet, so rows stay fleet rows.
    sub = pos[::2]
    _same_union(
        got.select(list(range(0, len(pos), 2))), GraphUnion([parts[i] for i in sub]), fleet, sub
    )


def test_select_one_part_is_the_part_and_all_parts_the_fleet():
    rng = np.random.default_rng(8)
    parts = [_party(rng, 4, 0.5, (), [np.ones(4, dtype=bool)] * 3) for _ in range(3)]
    fleet = GraphUnion(parts)
    one = fleet.select([1])
    for name in ("s_op", "x_op", "mean_op", "x", "edge_index", "y", "test_mask"):
        assert getattr(one, name) is getattr(parts[1], name)
    assert np.array_equal(one.rows, np.arange(4, 8)) and np.array_equal(one.owner, np.zeros(4))
    assert fleet.select([0, 1, 2]) is fleet
    assert fleet.select(np.arange(3)) is fleet


@pytest.mark.parametrize(
    "positions",
    [[], [2, 0], [0, 0], [1, 1, 2], [-1], [3], [0, 5], [0.0, 1.0], [True, False], [[0, 1]]],
    ids=["empty", "unsorted", "duplicate", "duplicate-tail", "negative", "past-end",
         "out-of-range", "float", "bool", "2d"],
)
def test_select_rejects_bad_positions(positions):
    rng = np.random.default_rng(9)
    parts = [_party(rng, 3, 0.5, (), [np.ones(3, dtype=bool)] * 3) for _ in range(3)]
    with pytest.raises(ValueError):
        GraphUnion(parts).select(positions)


@pytest.mark.parametrize("num_workers", [1, 2])
def test_cached_index_sees_weights_changed_between_evaluations(num_workers):
    # The fleet, the split counts and each client's parameter arrays are
    # cached on the first evaluation; weights then change in place
    # through every path that writes them, and each evaluation must
    # still match the per-party reference with one forward per state.
    rng = np.random.default_rng(10)
    masks = [np.ones(5, dtype=bool)] * 3
    parts = [_party(rng, 5, 0.5, (), masks) for _ in range(5)]
    tr = _trainer(parts, "orthogcn", num_workers=num_workers)
    _check(tr)  # one state
    w0 = tr.clients[0].get_state()
    for c in tr.clients[2:]:
        c.set_state(_state(w0, "perturbed", 1))
    _check(tr)  # two states
    tr.clients[0].train_step(tr.local_loss)
    _check(tr)  # three
    tr.clients[1].model.project_orthogonal()  # Newton–Schulz, in place
    _check(tr)  # four
    for c in tr.clients:
        c.set_state(w0)
    _check(tr)  # one again


def test_fleet_fields_are_built_once_under_parallel_groups(monkeypatch):
    # Two multi-party groups slice the fleet's operators on two worker
    # threads at once; a slow stack makes an unguarded build race.
    calls = []
    real = union_mod._stack_csr

    def slow_stack(*args):
        calls.append(threading.get_ident())
        time.sleep(0.05)
        return real(*args)

    monkeypatch.setattr(union_mod, "_stack_csr", slow_stack)
    rng = np.random.default_rng(11)
    parts = [_party(rng, 4, 0.5, (), [np.ones(4, dtype=bool)] * 3) for _ in range(4)]
    tr = _trainer(parts, "gcn", num_workers=2)
    _load_states(tr, ["perturbed", "plus_zero"], [0, 1, 0, 1])
    _check(tr)
    assert len(calls) == 2  # the fleet's s_op and x_op, once each
    _check(tr)
    assert len(calls) == 2
