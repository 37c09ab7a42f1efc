"""Tensor-IR verifier tests.

Three layers of evidence that the static interpreter is faithful:

* Dim algebra unit tests (the symbolic substrate).
* Shape parity: every registered model spec, interpreted on concrete
  dims, derives exactly the output shapes a *real* forward produces on a
  tiny DC-SBM graph — on every available kernel backend.
* Cost-oracle equality: an instrumented two-client smoke run's
  CostCollector counters equal the symbolic predictions key-for-key
  (op, dir, phase, client, layer, backend) and value-for-value.
"""

import importlib

import numpy as np
import pytest

from repro.analysis import costs, shapes
from repro.analysis.shapes import Dim, as_dim, dim_eq, dim_le, dim_lt
from repro.autograd import Tensor
from repro.autograd.backends import use_backend
from repro.graphs.data import Graph
from repro.graphs.sbm import dc_sbm
from repro.obs import cost
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer


def _have_numba() -> bool:
    try:
        import numba  # noqa: F401
    except ImportError:
        return False
    return True


BACKENDS = [
    "numpy",
    pytest.param(
        "numba", marks=pytest.mark.skipif(not _have_numba(), reason="numba not installed")
    ),
]


# ----------------------------------------------------------------------
# Dim algebra
# ----------------------------------------------------------------------
class TestDimAlgebra:
    def test_arithmetic_and_simplification(self):
        n = Dim.sym("n")
        assert (n + n) == 2 * n
        assert (n + 2) * (n + 2) == n * n + 4 * n + 4
        assert (3 * n - n) == 2 * n
        assert (n - n) == Dim.const(0)

    def test_evaluate(self):
        n, d = Dim.sym("n"), Dim.sym("d_in")
        expr = 2 * n * d + n + 4
        assert expr.evaluate({"n": 16, "d_in": 12}) == 2 * 16 * 12 + 16 + 4

    def test_const_round_trip(self):
        assert int(Dim.const(3)) == 3
        assert as_dim(7).evaluate({}) == 7
        with pytest.raises(TypeError):
            int(Dim.sym("n"))

    def test_tri_state_comparisons(self):
        n, d = Dim.sym("n"), Dim.sym("d_in")
        assert dim_le(n, n + 1) is True
        assert dim_lt(n + 1, n) is False
        assert dim_eq(2 * n, n + n) is True
        assert dim_eq(n, d) is None  # genuinely undecidable symbolically
        assert dim_le(Dim.const(1), n) is True  # symbols are >= 1

    def test_repr_is_sorted_and_stable(self):
        n, d = Dim.sym("n"), Dim.sym("d_in")
        assert repr(2 * n * d + 4) == "2*d_in*n + 4"


# ----------------------------------------------------------------------
# shape parity against real forwards
# ----------------------------------------------------------------------
#: Concrete stand-ins for every symbol the specs use (kept small so the
#: real forwards are cheap; distinct values so transposed dims cannot
#: alias).
CONCRETE = {"n": 16, "d_in": 12, "d_hidden": 8, "d_out": 6, "c": 2}


@pytest.fixture(scope="module")
def tiny_graph():
    rng = np.random.default_rng(7)
    adj, y = dc_sbm(np.array([8, 8]), 0.6, 0.15, rng)
    x = rng.standard_normal((CONCRETE["n"], CONCRETE["d_in"]))
    return Graph(x=x, adj=adj, y=y, num_classes=CONCRETE["c"])


def graph_bindings(g: Graph) -> dict:
    return {
        "n": g.num_nodes,
        "d_in": g.num_features,
        "d_hidden": CONCRETE["d_hidden"],
        "d_out": CONCRETE["d_out"],
        "c": g.num_classes,
        "nnz": int(g.s_op.nnz),
        "nnz_mean": int(g.mean_op.nnz),
        "nnz_adj": int(g.adj.nnz),
        "nnz_x": int(g.x_op.nnz),
        "edges": int(g.edge_index[0].shape[0]),
    }


def _resolve_class(qualname: str):
    module, _, name = qualname.rpartition(".")
    return getattr(importlib.import_module(module), name)


def real_model(spec: shapes.ModelSpec, bindings: dict):
    cls = _resolve_class(spec.qualname)
    kwargs = {}
    for key, value in spec.init:
        if value == "rng":
            kwargs[key] = np.random.default_rng(1)
        elif isinstance(value, str) and value.startswith("sym:"):
            kwargs[key] = bindings[value[4:]]
        else:
            kwargs[key] = value
    return cls(**kwargs)


def real_forward_args(builder: str, g: Graph, bindings: dict):
    rng = np.random.default_rng(2)
    x = Tensor(g.x)
    h = Tensor(rng.standard_normal((bindings["n"], bindings["d_hidden"])))
    if builder == "graph":
        return (g,)
    if builder == "x":
        return (x,)
    if builder == "sparse_x":
        return (g.s_op, x)
    if builder == "sparse_h":
        return (g.s_op, h)
    if builder == "mean_x":
        return (g.mean_op, x)
    if builder == "edges_x":
        return (g.edge_index, x)
    if builder == "slist_x":
        return ([g.s_norm, g.s_norm], x)
    raise AssertionError(f"unknown builder {builder!r}")


def _flatten_real(value):
    if isinstance(value, Tensor):
        return [value]
    if isinstance(value, (tuple, list)):
        out = []
        for v in value:
            out.extend(_flatten_real(v))
        return out
    return []


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(shapes.SPECS), ids=sorted(shapes.SPECS))
def test_derived_shapes_match_real_forward(name, backend, tiny_graph):
    spec = shapes.SPECS[name]
    bindings = graph_bindings(tiny_graph)

    report = shapes.interpret_spec(
        spec,
        dims={k: Dim.const(v) for k, v in bindings.items()},
        backend=backend,
        backward=False,
    )
    assert report.error is None, report.error
    assert report.unknown_ops == []
    derived = [
        tuple(as_dim(d).evaluate({}) for d in shape) for shape in report.outputs
    ]

    model = real_model(spec, bindings)
    args = real_forward_args(spec.builder, tiny_graph, bindings)
    with use_backend(backend):
        out = model(*args)
    real = [t.shape for t in _flatten_real(out)]

    assert derived == real


@pytest.mark.parametrize("name", sorted(shapes.SPECS), ids=sorted(shapes.SPECS))
def test_symbolic_interpretation_is_closed(name):
    """Fully symbolic runs: no shape error, no unknown-op escapes, and a
    non-empty cost table for every model in the registry."""
    report = shapes.interpret_spec(name)
    assert report.error is None, report.error
    assert report.unknown_ops == []
    assert report.outputs
    assert report.records


# ----------------------------------------------------------------------
# cost oracle vs instrumented run
# ----------------------------------------------------------------------
def client_graphs():
    """Two differently-sized client subgraphs (distinct dims per client)."""
    out = []
    for cid, sizes in enumerate(([6, 6], [8, 8])):
        rng = np.random.default_rng(10 + cid)
        adj, y = dc_sbm(np.array(sizes), 0.7, 0.2, rng)
        n = int(sum(sizes))
        x = rng.standard_normal((n, CONCRETE["d_in"]))
        out.append(Graph(x=x, adj=adj, y=y, num_classes=CONCRETE["c"]))
    return out


@pytest.mark.parametrize("name", ["gcn", "orthogcn", "gat"])
def test_cost_oracle_equals_instrumented_run(name):
    graphs = client_graphs()
    registry = MetricsRegistry()
    tracer = Tracer()
    with cost.collecting(registry, tracer):
        for cid, g in enumerate(graphs):
            model = real_model(shapes.SPECS[name], graph_bindings(g))
            with tracer.span("round", phase="local_train", client=str(cid)):
                out = model(g)
                out.backward(np.ones_like(out.data))

    predicted = {}
    for cid, g in enumerate(graphs):
        bindings = graph_bindings(g)
        report = shapes.interpret_spec(
            name, backward=True, decide_bindings=bindings
        )
        assert report.error is None, report.error
        predicted.update(
            costs.evaluate_aggregate(
                costs.aggregate(report.records, phase="local_train", client=str(cid)),
                bindings,
            )
        )

    measured = costs.measured_cost_table(registry)
    assert costs.compare(predicted, measured) == []
    # The equality is per-(op, layer) key, not just in aggregate.
    assert any(key[4] not in ("-",) for key in measured)
    assert any(key[1] == "bwd" for key in measured)


def test_compare_reports_divergence():
    key = ("matmul", "fwd", "-", "-", "L", "-")
    assert costs.compare({key: (10, 80)}, {key: (12, 80)})
    assert costs.compare({key: (10, 80)}, {}) != []
    assert costs.compare({key: (0, 0)}, {}) == []  # all-zero rows forgiven


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestShapesCLI:
    def test_clean_model_exits_zero(self, capsys):
        assert shapes.main(["orthogcn"]) == 0
        out = capsys.readouterr().out
        assert "OrthoGCN" in out
        assert "TOTAL" in out

    def test_concrete_dims(self, capsys):
        assert shapes.main(["gcn", "--dims", "n=16,d_in=12,c=2"]) == 0
        capsys.readouterr()

    def test_list_models(self, capsys):
        assert shapes.main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in shapes.SPECS:
            assert name in out

    def test_unknown_model_is_usage_error(self, capsys):
        assert shapes.main(["definitely-not-a-model"]) == 2
        capsys.readouterr()
