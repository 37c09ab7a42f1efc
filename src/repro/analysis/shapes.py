"""Static tensor-IR verifier: a shape/dtype/cost abstract interpreter.

Symbolically executes the ``forward`` bodies of the project's
``nn.Module`` subclasses over the AST (via
:class:`repro.analysis.dataflow.ProjectIndex` — the interpreter never
imports the code under analysis), propagating three abstract domains at
once:

* **Shape algebra** — dimensions are integer polynomials over positive
  symbols (``n``, ``d_in``, ``d_hidden``, ``c``, ``nnz``, …), so
  ``matmul``/``spmm``/broadcasting/reduction/concat compatibility is
  *proved*, not spot-checked.  Comparisons are tri-state: with every
  symbol ≥ 1, a polynomial whose non-constant coefficients share a sign
  has a computable bound, which decides most guards (``d_in ≤ 0`` is
  decidably false); genuinely undecidable branches (``d_out ≤ d_in``)
  are decided under a concrete *regime* binding and recorded as an
  :class:`Assumption` so the report shows which way the analysis went.
* **Dtype lattice** — float64 is the substrate contract
  (``repro.autograd.tensor._DEFAULT_DTYPE``); narrowing below it
  (``astype(float32)``) or silently coercing a raw int/bool array into
  a gradient-requiring op is flagged (surfaced as RL014).
* **Symbolic cost** — every abstract op emits a :class:`Record` whose
  FLOP/byte expressions come from the *same*
  :mod:`repro.autograd.signatures` formulas the runtime
  ``CostCollector`` evaluates on real ndarrays.  The formulas are
  generic over ``.shape``/``.size``/``.nbytes``, so static and measured
  costs agree term-for-term by construction; the cost-oracle test
  evaluates both sides on concrete dims and asserts exact equality.

The recording model mirrors the runtime exactly:

* ``Tensor._make`` calls ``forward_op`` unconditionally → every
  non-``spmm`` op records a forward cost even when untracked.
* ``spmm`` self-reports (``EXPLICIT_OPS``) — forward always, backward
  only when the dense operand requires grad — tagged with the kernel
  backend (the configured backend for fused ``CSRMatrix`` operands,
  ``"scipy"`` for raw matrices).
* Backward costs attach to layer ``"-"`` (the runtime backward pass
  runs outside any ``Module.__call__`` scope); forward costs attach to
  the innermost module label, ``_obs_name`` falling back to the class
  name, exactly like ``CostCollector.layer``.

CLI::

    python -m repro.analysis.shapes MODEL [--dims n=2708,...] [--backend NAME] [--backward]
    python -m repro.analysis.shapes --list

prints the symbolic shape and per-(layer, op, dir) cost table for one
of the registered model specs (see ``SPECS``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.autograd import signatures as sig
from repro.analysis.dataflow import ClassInfo, FunctionInfo, ProjectIndex
from repro.analysis.lint import FileContext, iter_python_files

# ----------------------------------------------------------------------
# symbolic dimensions: integer polynomials over positive symbols
# ----------------------------------------------------------------------
#: Monomial = sorted tuple of (symbol, power); the empty tuple is the
#: constant term.  A Dim maps monomials to integer coefficients.
_Monomial = Tuple[Tuple[str, int], ...]


class Dim:
    """An integer polynomial over symbols constrained to be ≥ 1.

    Supports ``+``, ``-``, ``*`` against other ``Dim``s and ints, exact
    structural equality, and *tri-state* order comparison through
    :func:`dim_le` / :func:`dim_eq` (True / False / unprovable-``None``).
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[_Monomial, int]) -> None:
        self.terms: Dict[_Monomial, int] = {m: c for m, c in terms.items() if c != 0}

    # -- constructors ---------------------------------------------------
    @staticmethod
    def const(value: int) -> "Dim":
        return Dim({(): int(value)})

    @staticmethod
    def sym(name: str) -> "Dim":
        return Dim({((name, 1),): 1})

    # -- queries --------------------------------------------------------
    @property
    def is_const(self) -> bool:
        return all(m == () for m in self.terms)

    def const_value(self) -> Optional[int]:
        """The integer value when constant, else ``None``."""
        if self.is_const:
            return self.terms.get((), 0)
        return None

    def lower_bound(self) -> Optional[int]:
        """A valid lower bound over symbols ≥ 1, when one is computable.

        When every non-constant coefficient is ≥ 0 the polynomial is
        monotone non-decreasing in each symbol, so its minimum is the
        value at all-symbols = 1: the coefficient sum.
        """
        if all(c >= 0 for m, c in self.terms.items() if m != ()):
            return sum(self.terms.values())
        return None

    def upper_bound(self) -> Optional[int]:
        """A valid upper bound over symbols ≥ 1 (mirror of lower_bound)."""
        if all(c <= 0 for m, c in self.terms.items() if m != ()):
            return sum(self.terms.values())
        return None

    def evaluate(self, bindings: Dict[str, int], default: int = 2) -> int:
        """Concrete value under ``bindings`` (missing symbols → default)."""
        total = 0
        for mono, coeff in self.terms.items():
            val = coeff
            for name, power in mono:
                val *= int(bindings.get(name, default)) ** power
            total += val
        return total

    def symbols(self) -> List[str]:
        out = sorted({name for mono in self.terms for name, _ in mono})
        return out

    # -- arithmetic -----------------------------------------------------
    def _coerce(self, other) -> Optional["Dim"]:
        if isinstance(other, Dim):
            return other
        if isinstance(other, int):
            return Dim.const(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        merged = dict(self.terms)
        for m, c in o.terms.items():
            merged[m] = merged.get(m, 0) + c
        return Dim(merged)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (o * -1)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out: Dict[_Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in o.terms.items():
                powers: Dict[str, int] = {}
                for name, p in m1 + m2:
                    powers[name] = powers.get(name, 0) + p
                mono = tuple(sorted(powers.items()))
                out[mono] = out.get(mono, 0) + c1 * c2
        return Dim(out)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    # -- equality / hashing / rendering --------------------------------
    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __int__(self) -> int:
        v = self.const_value()
        if v is None:
            raise TypeError(f"Dim {self} is not constant")
        return v

    def __repr__(self) -> str:
        if not self.terms:
            return "0"

        def mono_key(item):
            mono, _ = item
            degree = sum(p for _, p in mono)
            return (-degree, tuple(name for name, _ in mono))

        parts: List[str] = []
        for mono, coeff in sorted(self.terms.items(), key=mono_key):
            body = "*".join(
                name if p == 1 else f"{name}^{p}" for name, p in mono
            )
            if not body:
                text = str(coeff)
            elif coeff == 1:
                text = body
            elif coeff == -1:
                text = f"-{body}"
            else:
                text = f"{coeff}*{body}"
            parts.append(text)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


DimLike = Union[Dim, int]


def as_dim(x: DimLike) -> Dim:
    return x if isinstance(x, Dim) else Dim.const(int(x))


def dim_le(a: DimLike, b: DimLike) -> Optional[bool]:
    """Tri-state ``a <= b`` over positive symbols."""
    d = as_dim(b) - as_dim(a)
    lb = d.lower_bound()
    if lb is not None and lb >= 0:
        return True
    ub = d.upper_bound()
    if ub is not None and ub < 0:
        return False
    return None


def dim_lt(a: DimLike, b: DimLike) -> Optional[bool]:
    """Tri-state ``a < b``: ``a <= b - 1`` for integer polynomials."""
    return dim_le(as_dim(a) + 1, b)


def dim_eq(a: DimLike, b: DimLike) -> Optional[bool]:
    """Tri-state ``a == b``: True only when provable for *all* bindings."""
    d = as_dim(a) - as_dim(b)
    if not d.terms:
        return True
    if d.is_const:
        return False
    lb = d.lower_bound()
    if lb is not None and lb > 0:
        return False
    ub = d.upper_bound()
    if ub is not None and ub < 0:
        return False
    return None


def render_dim(d: DimLike) -> str:
    return repr(d) if isinstance(d, Dim) else str(d)


#: Concrete values used to decide genuinely undecidable branches (each
#: decision is logged as an Assumption).  Mirrors the small-but-typical
#: regime of the repo's smoke runs.
DEFAULT_REGIME: Dict[str, int] = {
    "n": 256,
    "d_in": 128,
    "d_hidden": 64,
    "d_out": 32,
    "c": 16,
    "nnz": 1024,
    "nnz_mean": 1280,
    "nnz_adj": 768,
    "nnz_x": 2048,
    "edges": 1280,
}


# ----------------------------------------------------------------------
# diagnostics
# ----------------------------------------------------------------------
Loc = Tuple[str, int]  # (display path, 1-based line)


class ShapeError(Exception):
    """A shape contract the interpreter could not prove (RL013)."""

    def __init__(self, message: str, loc: Optional[Loc] = None) -> None:
        super().__init__(message)
        self.message = message
        self.loc = loc


class Unsupported(Exception):
    """Code outside the interpreter's fragment — the class is skipped."""


class _Return(Exception):
    def __init__(self, value) -> None:
        self.value = value


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


@dataclass(frozen=True)
class Assumption:
    """One undecidable branch decided under the concrete regime."""

    loc: Loc
    text: str


@dataclass(frozen=True)
class Narrowing:
    """One dtype hazard entering a gradient path (RL014)."""

    loc: Loc
    text: str


@dataclass(frozen=True)
class UnknownOp:
    """A call into ``repro.autograd`` with no declared signature (RL015)."""

    loc: Loc
    name: str


@dataclass(frozen=True)
class Record:
    """One abstract op cost, mirroring a runtime ``CostCollector.record``."""

    op: str
    direction: str  # "fwd" | "bwd"
    layer: str
    backend: str  # "-" for non-spmm ops
    flops: DimLike
    bytes_moved: DimLike


# ----------------------------------------------------------------------
# abstract values
# ----------------------------------------------------------------------
_ITEMSIZE = {"float64": 8, "float32": 4, "int64": 8, "int32": 4, "bool": 1}


class AbstractArray:
    """An ndarray abstracted to (symbolic shape, dtype, narrowing tag)."""

    __slots__ = ("shape", "dtype", "narrowed")

    def __init__(
        self,
        shape: Tuple[DimLike, ...],
        dtype: str = "float64",
        narrowed: Optional[Loc] = None,
    ) -> None:
        self.shape = tuple(shape)
        self.dtype = dtype
        #: Source location where float precision was first lost (a
        #: narrowing ``astype``/``asarray``); survives re-widening
        #: because the lost bits do not come back.
        self.narrowed = narrowed

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> DimLike:
        total: DimLike = 1
        for d in self.shape:
            total = as_dim(d) * total if isinstance(d, Dim) or isinstance(total, Dim) else total * d
        return total

    @property
    def nbytes(self) -> DimLike:
        return self.size * _ITEMSIZE[self.dtype]

    def with_shape(self, shape: Tuple[DimLike, ...]) -> "AbstractArray":
        return AbstractArray(shape, self.dtype, self.narrowed)

    def ravel(self) -> "AbstractArray":
        return self.with_shape((self.size,))

    def __repr__(self) -> str:
        shape = ", ".join(render_dim(d) for d in self.shape)
        return f"array(({shape}), {self.dtype})"


class SymScalar:
    """An opaque runtime float (e.g. ``float(np.sqrt(d))``) — shapeless."""

    __slots__ = ()

    def _binop(self, other):
        if isinstance(other, (int, float, SymScalar, Dim)):
            return SymScalar()
        return NotImplemented

    __add__ = __radd__ = __sub__ = __rsub__ = _binop
    __mul__ = __rmul__ = __truediv__ = __rtruediv__ = _binop
    __pow__ = __rpow__ = _binop

    def __neg__(self):
        return SymScalar()

    def __float__(self) -> float:
        raise TypeError("SymScalar has no concrete value")

    def __repr__(self) -> str:
        return "<sym float>"


class AbstractTensor:
    """Mirror of ``repro.autograd.Tensor``: value + grad-graph metadata."""

    __slots__ = ("data", "requires_grad", "op", "parents", "spmm_info", "is_param", "loc")

    def __init__(
        self,
        data: AbstractArray,
        requires_grad: bool = False,
        op: str = "",
        parents: Tuple["AbstractTensor", ...] = (),
        spmm_info: Optional[Tuple[DimLike, str]] = None,
        is_param: bool = False,
        loc: Optional[Loc] = None,
    ) -> None:
        self.data = data
        self.requires_grad = requires_grad
        self.op = op
        self.parents = parents
        #: (nnz, backend) for spmm nodes — backward self-reporting needs both.
        self.spmm_info = spmm_info
        self.is_param = is_param
        self.loc = loc

    @property
    def shape(self) -> Tuple[DimLike, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> DimLike:
        return self.data.size

    def __repr__(self) -> str:
        shape = ", ".join(render_dim(d) for d in self.data.shape)
        rg = ", requires_grad=True" if self.requires_grad else ""
        return f"tensor(({shape}){rg}, op={self.op!r})"


class AbstractSparse:
    """A constant sparse operand: shape, symbolic nnz, kernel-path flag."""

    __slots__ = ("shape", "nnz", "fused", "dtype")

    def __init__(
        self, shape: Tuple[DimLike, DimLike], nnz: DimLike, fused: bool, dtype: str = "float64"
    ) -> None:
        self.shape = tuple(shape)
        self.nnz = nnz
        self.fused = fused
        self.dtype = dtype

    @property
    def is_kernel_operator(self) -> bool:
        return self.fused

    @property
    def rev(self) -> "AbstractSparse":
        return AbstractSparse((self.shape[1], self.shape[0]), self.nnz, self.fused, self.dtype)

    def __repr__(self) -> str:
        kind = "csr" if self.fused else "scipy"
        shape = ", ".join(render_dim(d) for d in self.shape)
        return f"sparse[{kind}](({shape}), nnz={render_dim(self.nnz)})"


class AbstractModule:
    """Mirror of ``nn.Module``: attrs plus the registration dicts."""

    __slots__ = ("cls", "attrs", "params", "modules", "obs_name", "training")

    def __init__(self, cls: ClassInfo) -> None:
        self.cls = cls
        self.attrs: Dict[str, Any] = {}
        self.params: Dict[str, AbstractTensor] = {}
        self.modules: Dict[str, "AbstractModule"] = {}
        self.obs_name: Optional[str] = None
        self.training = True

    def register(self, name: str, value) -> None:
        """The ``Module.__setattr__`` mirror."""
        if isinstance(value, AbstractTensor) and value.is_param:
            self.params[name] = value
        elif isinstance(value, AbstractModule):
            self.modules[name] = value
            value.obs_name = name
        self.attrs[name] = value

    def __repr__(self) -> str:
        return f"<module {self.cls.name}>"


class AbstractGraph:
    """The ``repro.graphs.data.Graph`` surface the models consume."""

    __slots__ = ("attrs",)

    def __init__(self, dims: Dict[str, DimLike]) -> None:
        n, d_in, c = dims["n"], dims["d_in"], dims["c"]
        nnz, nnz_mean, nnz_adj = dims["nnz"], dims["nnz_mean"], dims["nnz_adj"]
        nnz_x, edges = dims["nnz_x"], dims["edges"]
        int_arr = AbstractArray((edges,), "int64")
        self.attrs: Dict[str, Any] = {
            "x": AbstractArray((n, d_in)),
            "x_op": AbstractSparse((n, d_in), nnz_x, fused=True),
            "y": AbstractArray((n,), "int64"),
            "train_mask": AbstractArray((n,), "bool"),
            "val_mask": AbstractArray((n,), "bool"),
            "test_mask": AbstractArray((n,), "bool"),
            "s_op": AbstractSparse((n, n), nnz, fused=True),
            "mean_op": AbstractSparse((n, n), nnz_mean, fused=True),
            "s_norm": AbstractSparse((n, n), nnz, fused=False),
            "mean_adj": AbstractSparse((n, n), nnz_mean, fused=False),
            "adj": AbstractSparse((n, n), nnz_adj, fused=False),
            "edge_index": (int_arr, AbstractArray((edges,), "int64")),
            "num_nodes": n,
            "num_features": d_in,
            "num_classes": c,
            "name": "<abstract>",
        }

    def __repr__(self) -> str:
        return "<abstract graph>"


class OpaqueRNG:
    """A ``numpy.random.Generator`` stand-in (values never matter here)."""

    def __repr__(self) -> str:
        return "<rng>"


class NamespaceVal:
    """An unresolved dotted name; attribute access extends the path."""

    __slots__ = ("qualname",)

    def __init__(self, qualname: str) -> None:
        self.qualname = qualname

    def __repr__(self) -> str:
        return f"<namespace {self.qualname}>"


class DtypeConst:
    """A dtype literal (``np.float32`` etc.) used as an astype argument."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return f"<dtype {self.name}>"


class ClassVal:
    """A project class usable as a constructor."""

    __slots__ = ("info",)

    def __init__(self, info: ClassInfo) -> None:
        self.info = info

    def __repr__(self) -> str:
        return f"<class {self.info.qualname}>"


class FuncVal:
    """A project function interpreted on call."""

    __slots__ = ("info",)

    def __init__(self, info: FunctionInfo) -> None:
        self.info = info

    def __repr__(self) -> str:
        return f"<function {self.info.qualname}>"


class BoundMethod:
    """A project method bound to an abstract receiver."""

    __slots__ = ("obj", "info", "cls")

    def __init__(self, obj, info: FunctionInfo, cls: Optional[ClassInfo]) -> None:
        self.obj = obj
        self.info = info
        self.cls = cls

    def __repr__(self) -> str:
        return f"<bound {self.info.qualname}>"


class NativeFunc:
    """A python-callable intrinsic (numpy/init/builtin shims)."""

    __slots__ = ("name", "fn")

    def __init__(self, name: str, fn: Callable) -> None:
        self.name = name
        self.fn = fn

    def __repr__(self) -> str:
        return f"<native {self.name}>"


class OpVal:
    """A declared autograd op as a first-class callable."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return f"<op {self.name}>"


class UnknownOpVal:
    """A ``repro.autograd`` name with no signature — RL015 on call."""

    __slots__ = ("qualname",)

    def __init__(self, qualname: str) -> None:
        self.qualname = qualname

    def __repr__(self) -> str:
        return f"<unknown-op {self.qualname}>"


class ModuleBaseVal:
    """The native ``repro.nn.Module`` base class (not instantiable here)."""

    def __repr__(self) -> str:
        return "<nn.Module base>"


class SuperVal:
    """Result of ``super()`` inside an interpreted method."""

    __slots__ = ("cls", "obj")

    def __init__(self, cls: Optional[ClassInfo], obj) -> None:
        self.cls = cls
        self.obj = obj


@dataclass
class Frame:
    """One interpreted call frame."""

    env: Dict[str, Any]
    func: FunctionInfo
    cls: Optional[ClassInfo] = None


# ----------------------------------------------------------------------
# the abstract interpreter
# ----------------------------------------------------------------------
_NUMERIC = (int, float)
_MAX_LOOP = 64
_MAX_DEPTH = 48

#: repro.autograd names that alias a declared op (runtime re-exports).
_OP_ALIASES = {
    "tsum": "sum",
    "tmean": "mean",
    "tmax": "max",
    "frobenius_norm": "l2_norm",
    "absolute": "abs",
    "power": "pow",
}


def _is_scalar(x) -> bool:
    return isinstance(x, _NUMERIC) or isinstance(x, SymScalar)


class Interpreter:
    """Symbolic executor for Module ``forward``/``__init__`` bodies."""

    def __init__(
        self,
        index: ProjectIndex,
        decide_bindings: Optional[Dict[str, int]] = None,
        backend: str = "numpy",
    ) -> None:
        self.index = index
        self.decide_bindings = dict(DEFAULT_REGIME)
        if decide_bindings:
            self.decide_bindings.update(decide_bindings)
        self.backend = backend
        self.records: List[Record] = []
        self.assumptions: List[Assumption] = []
        self.narrowings: List[Narrowing] = []
        self.unknown_ops: List[UnknownOp] = []
        self.layer_stack: List[str] = []
        self.loc: Loc = ("<unknown>", 0)
        self._depth = 0
        self._fresh = 0

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------
    def instantiate(self, info: ClassInfo, args: Sequence, kwargs: Dict[str, Any]) -> AbstractModule:
        """Construct an abstract Module instance by interpreting __init__."""
        if not self.is_module_class(info):
            raise Unsupported(f"{info.qualname} is not an nn.Module subclass")
        obj = AbstractModule(info)
        init = self._find_method(info, "__init__")
        if init is not None:
            fi, owner = init
            self.invoke(fi, [obj, *args], dict(kwargs), cls=owner)
        return obj

    def call_module(self, mod: AbstractModule, args: Sequence, kwargs: Dict[str, Any]):
        """``Module.__call__``: push the cost-attribution layer label."""
        found = self._find_method(mod.cls, "forward")
        if found is None:
            raise Unsupported(f"{mod.cls.qualname} has no forward method")
        fi, owner = found
        label = mod.obs_name or mod.cls.name
        self.layer_stack.append(label)
        try:
            return self.invoke(fi, [mod, *args], dict(kwargs), cls=owner)
        finally:
            self.layer_stack.pop()

    def is_module_class(self, info: ClassInfo) -> bool:
        for c in info.mro():
            if c.qualname in ("repro.nn.module.Module", "repro.nn.Module"):
                return True
            # Fallback when the base file is outside the indexed set
            # (e.g. linting tests/ alone): trust the base name.
            if any(b == "Module" or b.endswith(".Module") for b in c.base_names):
                return True
        return False

    def _find_method(self, info: ClassInfo, name: str) -> Optional[Tuple[FunctionInfo, ClassInfo]]:
        for c in info.mro():
            if name in c.methods:
                return c.methods[name], c
        return None

    # ------------------------------------------------------------------
    # function invocation
    # ------------------------------------------------------------------
    def invoke(
        self,
        fi: FunctionInfo,
        args: Sequence,
        kwargs: Dict[str, Any],
        cls: Optional[ClassInfo] = None,
    ):
        if self._depth >= _MAX_DEPTH:
            raise Unsupported("interpretation depth limit exceeded")
        node = fi.node
        if not isinstance(node, ast.FunctionDef):
            raise Unsupported(f"{fi.qualname} is not a plain function")
        env = self._bind_params(node, fi, list(args), kwargs)
        frame = Frame(env=env, func=fi, cls=cls)
        self._depth += 1
        caller_loc = self.loc  # diagnostics after return attribute here
        try:
            self.exec_block(node.body, frame)
        except _Return as r:
            return r.value
        finally:
            self._depth -= 1
            self.loc = caller_loc
        return None

    def _bind_params(
        self, node: ast.FunctionDef, fi: FunctionInfo, args: List, kwargs: Dict[str, Any]
    ) -> Dict[str, Any]:
        a = node.args
        pos_params = [*a.posonlyargs, *a.args]
        env: Dict[str, Any] = {}
        if len(args) > len(pos_params):
            raise Unsupported(f"too many positional args for {fi.qualname}")
        for param, value in zip(pos_params, args):
            env[param.arg] = value
        # Defaults right-align over the positional params.
        defaults = a.defaults
        offset = len(pos_params) - len(defaults)
        for i, param in enumerate(pos_params):
            if param.arg in env:
                continue
            if param.arg in kwargs:
                env[param.arg] = kwargs.pop(param.arg)
            elif i >= offset:
                env[param.arg] = self.eval_expr(defaults[i - offset], Frame({}, fi))
            else:
                raise Unsupported(f"missing argument {param.arg!r} for {fi.qualname}")
        for param, default in zip(a.kwonlyargs, a.kw_defaults):
            if param.arg in kwargs:
                env[param.arg] = kwargs.pop(param.arg)
            elif default is not None:
                env[param.arg] = self.eval_expr(default, Frame({}, fi))
            else:
                raise Unsupported(f"missing kwonly argument {param.arg!r}")
        if kwargs:
            raise Unsupported(f"unexpected kwargs {sorted(kwargs)} for {fi.qualname}")
        return env

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def exec_block(self, stmts: Sequence[ast.stmt], frame: Frame) -> None:
        for stmt in stmts:
            self.exec_stmt(stmt, frame)

    def exec_stmt(self, stmt: ast.stmt, frame: Frame) -> None:
        self.loc = (frame.func.ctx.display, getattr(stmt, "lineno", 0))
        if isinstance(stmt, ast.Assign):
            value = self.eval_expr(stmt.value, frame)
            for target in stmt.targets:
                self.assign(target, value, frame)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self.assign(stmt.target, self.eval_expr(stmt.value, frame), frame)
        elif isinstance(stmt, ast.AugAssign):
            current = self.eval_expr(
                ast.copy_location(
                    {
                        ast.Name: lambda t: ast.Name(id=t.id, ctx=ast.Load()),
                        ast.Attribute: lambda t: ast.Attribute(value=t.value, attr=t.attr, ctx=ast.Load()),
                    }.get(type(stmt.target), lambda t: (_ for _ in ()).throw(Unsupported("augassign target")))(stmt.target),
                    stmt.target,
                ),
                frame,
            )
            value = self.binop(current, stmt.op, self.eval_expr(stmt.value, frame))
            self.assign(stmt.target, value, frame)
        elif isinstance(stmt, ast.Expr):
            self.eval_expr(stmt.value, frame)
        elif isinstance(stmt, ast.If):
            if self.truth(self.eval_expr(stmt.test, frame), stmt):
                self.exec_block(stmt.body, frame)
            else:
                self.exec_block(stmt.orelse, frame)
        elif isinstance(stmt, ast.For):
            self._exec_for(stmt, frame)
        elif isinstance(stmt, ast.Return):
            raise _Return(self.eval_expr(stmt.value, frame) if stmt.value else None)
        elif isinstance(stmt, ast.Break):
            raise _Break()
        elif isinstance(stmt, ast.Continue):
            raise _Continue()
        elif isinstance(stmt, ast.Pass):
            pass
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            self._exec_import(stmt, frame)
        elif isinstance(stmt, ast.Assert):
            pass  # assertions are runtime guards, not shape semantics
        elif isinstance(stmt, ast.Raise):
            raise Unsupported(f"explicit raise reached at {self.loc}")
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            raise Unsupported(f"nested definition at {self.loc}")
        else:
            raise Unsupported(f"unsupported statement {type(stmt).__name__} at {self.loc}")

    def _exec_for(self, stmt: ast.For, frame: Frame) -> None:
        if stmt.orelse:
            raise Unsupported("for/else")
        iterable = self.eval_expr(stmt.iter, frame)
        items = self._as_iterable(iterable)
        if len(items) > _MAX_LOOP:
            raise Unsupported(f"loop over {len(items)} items exceeds bound {_MAX_LOOP}")
        for item in items:
            self.assign(stmt.target, item, frame)
            try:
                self.exec_block(stmt.body, frame)
            except _Break:
                break
            except _Continue:
                continue

    def _as_iterable(self, value) -> List:
        if isinstance(value, range):
            return list(value)
        if isinstance(value, (list, tuple)):
            return list(value)
        raise Unsupported(f"cannot iterate over {type(value).__name__}")

    def _exec_import(self, stmt, frame: Frame) -> None:
        if isinstance(stmt, ast.ImportFrom):
            base = stmt.module or ""
            for alias in stmt.names:
                if alias.name == "*":
                    raise Unsupported("star import")
                q = f"{base}.{alias.name}" if base else alias.name
                frame.env[alias.asname or alias.name] = self.resolve_qualname(q)
        else:
            for alias in stmt.names:
                name = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                frame.env[name] = self.resolve_qualname(target)

    def assign(self, target: ast.AST, value, frame: Frame) -> None:
        if isinstance(target, ast.Name):
            frame.env[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            items = self._as_iterable(value)
            if len(items) != len(target.elts):
                raise Unsupported("tuple unpack arity mismatch")
            for t, v in zip(target.elts, items):
                self.assign(t, v, frame)
        elif isinstance(target, ast.Attribute):
            obj = self.eval_expr(target.value, frame)
            if isinstance(obj, AbstractModule):
                obj.register(target.attr, value)
            else:
                raise Unsupported(f"attribute assignment on {type(obj).__name__}")
        elif isinstance(target, ast.Subscript):
            raise Unsupported("subscript assignment")
        else:
            raise Unsupported(f"assignment target {type(target).__name__}")

    # ------------------------------------------------------------------
    # truth / comparisons (tri-state → regime decision + assumption)
    # ------------------------------------------------------------------
    def truth(self, value, node: ast.AST) -> bool:
        if value is None:
            return False
        if isinstance(value, bool):
            return value
        if isinstance(value, _NUMERIC):
            return bool(value)
        if isinstance(value, str):
            return bool(value)
        if isinstance(value, (list, tuple, dict)):
            return bool(value)
        if isinstance(value, Dim):
            c = value.const_value()
            if c is not None:
                return bool(c)
            # Symbols are ≥ 1, so any nonnegative-coefficient polynomial
            # with a nonzero term is truthy.
            lb = value.lower_bound()
            if lb is not None and lb >= 1:
                return True
            return self._decide(value, node, f"treating dim {value!r} as truthy")
        if isinstance(value, _Undecided):
            decided = value.decide(self.decide_bindings)
            self.assumptions.append(
                Assumption(self.loc, f"assumed {value.describe()} → {decided} (regime {self._regime_note(value)})")
            )
            return decided
        if isinstance(
            value,
            (AbstractTensor, AbstractArray, AbstractSparse, AbstractModule, AbstractGraph, OpaqueRNG),
        ):
            return True
        raise Unsupported(f"truthiness of {type(value).__name__}")

    def _decide(self, dim: Dim, node: ast.AST, text: str) -> bool:
        val = dim.evaluate(self.decide_bindings)
        self.assumptions.append(Assumption(self.loc, f"{text}: {val} under regime"))
        return bool(val)

    def _regime_note(self, und: "_Undecided") -> str:
        syms = sorted(und.symbols())
        return ", ".join(f"{s}={self.decide_bindings.get(s, 2)}" for s in syms)

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
    def eval_expr(self, node: ast.AST, frame: Frame):
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.Name):
            return self.lookup_name(node.id, frame)
        if isinstance(node, ast.Attribute):
            return self.get_attr(self.eval_expr(node.value, frame), node.attr)
        if isinstance(node, ast.Call):
            return self.eval_call(node, frame)
        if isinstance(node, ast.BinOp):
            return self.binop(
                self.eval_expr(node.left, frame), node.op, self.eval_expr(node.right, frame)
            )
        if isinstance(node, ast.UnaryOp):
            return self._unaryop(node, frame)
        if isinstance(node, ast.BoolOp):
            return self._boolop(node, frame)
        if isinstance(node, ast.Compare):
            return self._compare(node, frame)
        if isinstance(node, ast.IfExp):
            if self.truth(self.eval_expr(node.test, frame), node):
                return self.eval_expr(node.body, frame)
            return self.eval_expr(node.orelse, frame)
        if isinstance(node, ast.Tuple):
            return tuple(self.eval_expr(e, frame) for e in node.elts)
        if isinstance(node, ast.List):
            return [self.eval_expr(e, frame) for e in node.elts]
        if isinstance(node, ast.Dict):
            return {
                self.eval_expr(k, frame): self.eval_expr(v, frame)
                for k, v in zip(node.keys, node.values)
                if k is not None
            }
        if isinstance(node, ast.Subscript):
            return self._subscript(node, frame)
        if isinstance(node, ast.JoinedStr):
            return self._joined_str(node, frame)
        if isinstance(node, ast.ListComp):
            return self._list_comp(node, frame)
        if isinstance(node, ast.Starred):
            raise Unsupported("starred expression")
        raise Unsupported(f"unsupported expression {type(node).__name__} at {self.loc}")

    def _unaryop(self, node: ast.UnaryOp, frame: Frame):
        operand = self.eval_expr(node.operand, frame)
        if isinstance(node.op, ast.Not):
            return not self.truth(operand, node)
        if isinstance(node.op, ast.USub):
            if isinstance(operand, (Dim, SymScalar)) or isinstance(operand, _NUMERIC):
                return -operand
            if isinstance(operand, AbstractTensor):
                return self.apply_op("neg", [operand], {})
            raise Unsupported("unary minus operand")
        if isinstance(node.op, ast.UAdd):
            return operand
        raise Unsupported(f"unary op {type(node.op).__name__}")

    def _boolop(self, node: ast.BoolOp, frame: Frame):
        is_and = isinstance(node.op, ast.And)
        result = None
        for sub in node.values:
            result = self.eval_expr(sub, frame)
            t = self.truth(result, node)
            if is_and and not t:
                return result
            if not is_and and t:
                return result
        return result

    def _compare(self, node: ast.Compare, frame: Frame):
        left = self.eval_expr(node.left, frame)
        for op, rhs_node in zip(node.ops, node.comparators):
            right = self.eval_expr(rhs_node, frame)
            result = self._compare_one(left, op, right)
            if isinstance(result, _Undecided):
                if len(node.ops) > 1:
                    raise Unsupported("undecidable chained comparison")
                return result
            if not result:
                return False
            left = right
        return True

    def _compare_one(self, left, op, right):
        if isinstance(op, ast.Is):
            return left is right or (left is None and right is None)
        if isinstance(op, ast.IsNot):
            return not self._compare_one(left, ast.Is(), right)
        if isinstance(left, str) or isinstance(right, str):
            if isinstance(op, ast.Eq):
                return left == right
            if isinstance(op, ast.NotEq):
                return left != right
            raise Unsupported("string ordering comparison")
        if isinstance(left, SymScalar) or isinstance(right, SymScalar):
            raise Unsupported("comparison on opaque runtime float")
        if isinstance(left, Dim) or isinstance(right, Dim):
            return self._compare_dims(left, op, right)
        if isinstance(left, _NUMERIC) and isinstance(right, _NUMERIC):
            return {
                ast.Eq: lambda: left == right,
                ast.NotEq: lambda: left != right,
                ast.Lt: lambda: left < right,
                ast.LtE: lambda: left <= right,
                ast.Gt: lambda: left > right,
                ast.GtE: lambda: left >= right,
            }[type(op)]()
        if isinstance(op, ast.Eq):
            return left is right
        if isinstance(op, ast.NotEq):
            return left is not right
        raise Unsupported(f"comparison on {type(left).__name__}")

    def _compare_dims(self, left, op, right):
        if not isinstance(left, (Dim, int)) or not isinstance(right, (Dim, int)):
            raise Unsupported("dim compared against non-integer")
        table = {
            ast.LtE: (dim_le, left, right, False),
            ast.Lt: (dim_lt, left, right, False),
            ast.GtE: (dim_le, right, left, False),
            ast.Gt: (dim_lt, right, left, False),
            ast.Eq: (dim_eq, left, right, False),
            ast.NotEq: (dim_eq, left, right, True),
        }
        entry = table.get(type(op))
        if entry is None:
            raise Unsupported(f"dim comparison {type(op).__name__}")
        fn, a, b, negate = entry
        verdict = fn(a, b)
        if verdict is None:
            return _Undecided(as_dim(a), as_dim(b), fn.__name__, negate)
        return (not verdict) if negate else verdict

    def _subscript(self, node: ast.Subscript, frame: Frame):
        obj = self.eval_expr(node.value, frame)
        idx = self.eval_expr(node.slice, frame)
        if isinstance(obj, (tuple, list)):
            if isinstance(idx, Dim):
                idx = int(idx)
            if isinstance(idx, int):
                return obj[idx]
            raise Unsupported("non-integer sequence subscript")
        if isinstance(obj, dict):
            return obj[idx]
        if isinstance(obj, AbstractTensor):
            return self.op_getitem(obj, idx)
        if isinstance(obj, AbstractArray):
            return self._array_subscript(obj, idx)
        raise Unsupported(f"subscript on {type(obj).__name__}")

    def _array_subscript(self, arr: AbstractArray, idx) -> AbstractArray:
        if isinstance(idx, AbstractArray):
            if idx.dtype.startswith("int") and idx.ndim == 1:
                return arr.with_shape((idx.shape[0],) + arr.shape[1:])
            if idx.dtype == "bool":
                return arr.with_shape((self._fresh_sym("sel"),) + arr.shape[1:])
            raise Unsupported("array fancy-index dtype")
        if isinstance(idx, (int, Dim)):
            return arr.with_shape(arr.shape[1:])
        raise Unsupported("array subscript kind")

    def _fresh_sym(self, prefix: str) -> Dim:
        self._fresh += 1
        return Dim.sym(f"{prefix}{self._fresh}")

    def _joined_str(self, node: ast.JoinedStr, frame: Frame) -> str:
        parts: List[str] = []
        for value in node.values:
            if isinstance(value, ast.Constant):
                parts.append(str(value.value))
            elif isinstance(value, ast.FormattedValue):
                v = self.eval_expr(value.value, frame)
                if isinstance(v, (str, int, float)):
                    parts.append(str(v))
                elif isinstance(v, Dim) and v.is_const:
                    parts.append(str(int(v)))
                else:
                    raise Unsupported("f-string over symbolic value")
            else:
                raise Unsupported("f-string component")
        return "".join(parts)

    def _list_comp(self, node: ast.ListComp, frame: Frame) -> List:
        if len(node.generators) != 1:
            raise Unsupported("multi-generator comprehension")
        gen = node.generators[0]
        if gen.is_async:
            raise Unsupported("async comprehension")
        items = self._as_iterable(self.eval_expr(gen.iter, frame))
        out = []
        for item in items:
            self.assign(gen.target, item, frame)
            if all(self.truth(self.eval_expr(cond, frame), node) for cond in gen.ifs):
                out.append(self.eval_expr(node.elt, frame))
        return out

    # ------------------------------------------------------------------
    # binary operators
    # ------------------------------------------------------------------
    def binop(self, left, op, right):
        if isinstance(left, AbstractTensor) or isinstance(right, AbstractTensor):
            return self._tensor_binop(left, op, right)
        if isinstance(op, ast.MatMult):
            if isinstance(left, AbstractSparse):
                return self.op_spmm(left, right)
            raise Unsupported("matmul on non-tensor operands")
        if isinstance(left, SymScalar) or isinstance(right, SymScalar):
            return SymScalar()
        if isinstance(left, (Dim, int)) and isinstance(right, (Dim, int)) and (
            isinstance(left, Dim) or isinstance(right, Dim)
        ):
            if isinstance(op, ast.Add):
                return as_dim(left) + right
            if isinstance(op, ast.Sub):
                return as_dim(left) - right
            if isinstance(op, ast.Mult):
                return as_dim(left) * right
            if isinstance(op, (ast.Div, ast.Pow, ast.FloorDiv, ast.Mod)):
                return SymScalar() if isinstance(op, ast.Div) else self._dim_intdiv(left, op, right)
            raise Unsupported(f"dim operator {type(op).__name__}")
        if isinstance(left, _NUMERIC) and isinstance(right, _NUMERIC):
            return {
                ast.Add: lambda: left + right,
                ast.Sub: lambda: left - right,
                ast.Mult: lambda: left * right,
                ast.Div: lambda: left / right,
                ast.FloorDiv: lambda: left // right,
                ast.Mod: lambda: left % right,
                ast.Pow: lambda: left**right,
            }[type(op)]()
        if isinstance(left, str) and isinstance(right, str) and isinstance(op, ast.Add):
            return left + right
        if isinstance(left, list) and isinstance(right, list) and isinstance(op, ast.Add):
            return left + right
        if isinstance(left, list) and isinstance(right, (int, Dim)) and isinstance(op, ast.Mult):
            return left * int(as_dim(right))
        raise Unsupported(
            f"binop {type(op).__name__} on {type(left).__name__}/{type(right).__name__}"
        )

    def _dim_intdiv(self, left, op, right) -> DimLike:
        lc = as_dim(left).const_value()
        rc = as_dim(right).const_value()
        if lc is None or rc is None:
            raise Unsupported("integer division on symbolic dim")
        if isinstance(op, ast.FloorDiv):
            return lc // rc
        if isinstance(op, ast.Mod):
            return lc % rc
        return lc**rc

    def _tensor_binop(self, left, op, right):
        ops = {
            ast.Add: "add",
            ast.Sub: "sub",
            ast.Mult: "mul",
            ast.Div: "div",
            ast.Pow: None,
            ast.MatMult: None,
        }
        if type(op) not in ops:
            raise Unsupported(f"tensor operator {type(op).__name__}")
        if isinstance(op, ast.Pow):
            if not isinstance(right, _NUMERIC):
                raise Unsupported("tensor ** non-constant exponent")
            return self.apply_op(f"pow{float(right)}", [left], {})
        if isinstance(op, ast.MatMult):
            if isinstance(left, AbstractSparse):
                return self.op_spmm(left, right)
            if isinstance(right, AbstractSparse):
                raise ShapeError("dense @ sparse is not a supported operand order", self.loc)
            return self.op_matmul(left, right)
        return self.apply_op(ops[type(op)], [left, right], {})

    # ------------------------------------------------------------------
    # attribute access
    # ------------------------------------------------------------------
    def get_attr(self, obj, attr: str):
        if isinstance(obj, AbstractModule):
            if attr in obj.attrs:
                return obj.attrs[attr]
            if attr == "training":
                return obj.training
            # The native Module surface (add_module / train / eval) wins
            # over the indexed repro.nn.module source: its bodies use
            # object.__setattr__ and dict subscripts we model directly.
            if attr in _MODULE_NATIVES:
                return NativeFunc(attr, lambda *a, _m=obj, _n=attr, **k: _MODULE_NATIVES[_n](self, _m, *a, **k))
            found = self._find_method(obj.cls, attr)
            if found is not None:
                fi, owner = found
                if owner.qualname == "repro.nn.module.Module":
                    raise Unsupported(f"native Module method {attr!r} has no intrinsic")
                return BoundMethod(obj, fi, owner)
            raise Unsupported(f"module attribute {attr!r} on {obj.cls.qualname}")
        if isinstance(obj, AbstractGraph):
            if attr in obj.attrs:
                return obj.attrs[attr]
            raise Unsupported(f"graph attribute {attr!r}")
        if isinstance(obj, AbstractTensor):
            return self._tensor_attr(obj, attr)
        if isinstance(obj, AbstractArray):
            return self._array_attr(obj, attr)
        if isinstance(obj, AbstractSparse):
            if attr == "shape":
                return obj.shape
            if attr == "nnz":
                return obj.nnz
            if attr == "dtype":
                return DtypeConst(obj.dtype)
            if attr == "rev":
                return obj.rev
            if attr == "is_kernel_operator":
                return obj.fused
            raise Unsupported(f"sparse attribute {attr!r}")
        if isinstance(obj, NamespaceVal):
            return self.resolve_qualname(f"{obj.qualname}.{attr}")
        if isinstance(obj, SuperVal):
            return self._super_attr(obj, attr)
        if isinstance(obj, ClassVal):
            found = self._find_method(obj.info, attr)
            if found is not None:
                fi, owner = found
                return BoundMethod(None, fi, owner)
            raise Unsupported(f"class attribute {obj.info.qualname}.{attr}")
        if isinstance(obj, tuple) and attr in ("count", "index"):
            raise Unsupported("tuple method")
        if isinstance(obj, list) and attr == "append":
            return NativeFunc("append", lambda item, _l=obj: _l.append(item))
        if isinstance(obj, OpaqueRNG):
            # Any generator method yields opaque data we cannot shape
            # without more context; the initializer intrinsics cover the
            # paths models actually take.
            raise Unsupported(f"rng method {attr!r}")
        raise Unsupported(f"attribute {attr!r} on {type(obj).__name__}")

    def _super_attr(self, sup: SuperVal, attr: str):
        if sup.cls is None:
            raise Unsupported("super() outside a method")
        if attr == "__init__":
            bases = sup.cls.bases
            if not bases or all(
                b.qualname in ("repro.nn.module.Module", "repro.nn.Module") for b in bases
            ):
                # Native Module.__init__: registration dicts are already
                # initialized by instantiate(); nothing else to do.
                return NativeFunc("Module.__init__", lambda *a, **k: None)
            found = self._find_method(bases[0], "__init__")
            if found is None:
                return NativeFunc("Module.__init__", lambda *a, **k: None)
            fi, owner = found
            return BoundMethod(sup.obj, fi, owner)
        for base in sup.cls.bases:
            found = self._find_method(base, attr)
            if found is not None:
                fi, owner = found
                return BoundMethod(sup.obj, fi, owner)
        raise Unsupported(f"super().{attr}")

    def _tensor_attr(self, t: AbstractTensor, attr: str):
        if attr == "data":
            return t.data
        if attr == "shape":
            return t.shape
        if attr == "ndim":
            return t.ndim
        if attr == "size":
            return t.size
        if attr == "requires_grad":
            return t.requires_grad
        if attr == "grad":
            return None
        if attr == "T":
            return self.op_transpose(t)
        if attr in _TENSOR_METHOD_OPS:
            op = _TENSOR_METHOD_OPS[attr]
            return NativeFunc(attr, lambda *a, _t=t, _op=op, **k: self.apply_op(_op, [_t, *a], k))
        if attr == "reshape":
            return NativeFunc("reshape", lambda *a, _t=t: self.op_reshape(_t, a))
        if attr == "matmul":
            return NativeFunc("matmul", lambda other, _t=t: self.op_matmul(_t, other))
        if attr == "item":
            return NativeFunc("item", lambda _t=t: SymScalar())
        if attr == "numpy":
            return NativeFunc("numpy", lambda _t=t: _t.data)
        if attr == "detach":
            return NativeFunc("detach", lambda _t=t: AbstractTensor(_t.data))
        if attr == "copy":
            return NativeFunc(
                "copy", lambda _t=t: AbstractTensor(_t.data, requires_grad=_t.requires_grad)
            )
        raise Unsupported(f"tensor attribute {attr!r}")

    def _array_attr(self, arr: AbstractArray, attr: str):
        if attr == "shape":
            return arr.shape
        if attr == "ndim":
            return arr.ndim
        if attr == "size":
            return arr.size
        if attr == "nbytes":
            return arr.nbytes
        if attr == "dtype":
            return DtypeConst(arr.dtype)
        if attr == "T":
            if arr.ndim != 2:
                raise Unsupported("array .T on non-matrix")
            return arr.with_shape((arr.shape[1], arr.shape[0]))
        if attr == "ravel":
            return NativeFunc("ravel", lambda _a=arr: _a.ravel())
        if attr == "astype":
            return NativeFunc("astype", lambda dtype, _a=arr, **k: self._astype(_a, dtype))
        if attr == "copy":
            return NativeFunc("copy", lambda _a=arr: AbstractArray(_a.shape, _a.dtype, _a.narrowed))
        if attr in ("sum", "mean", "max", "min"):
            return NativeFunc(
                attr, lambda *a, _a=arr, **k: self._array_reduce(_a, a, k)
            )
        raise Unsupported(f"array attribute {attr!r}")

    def _array_reduce(self, arr: AbstractArray, args, kwargs) -> AbstractArray:
        axis = kwargs.get("axis", args[0] if args else None)
        keepdims = bool(kwargs.get("keepdims", False))
        return arr.with_shape(reduce_shape(arr.shape, axis, keepdims, self.loc))

    def _astype(self, arr: AbstractArray, dtype) -> AbstractArray:
        name = dtype.name if isinstance(dtype, DtypeConst) else str(dtype)
        if name not in _ITEMSIZE:
            raise Unsupported(f"astype to {name!r}")
        narrowed = arr.narrowed
        if name == "float32" and arr.dtype == "float64":
            narrowed = self.loc
        return AbstractArray(arr.shape, name, narrowed)

    # ------------------------------------------------------------------
    # calls
    # ------------------------------------------------------------------
    def eval_call(self, node: ast.Call, frame: Frame):
        self.loc = (frame.func.ctx.display, node.lineno)
        # super() needs the lexical frame, not just the callee value.
        if (
            isinstance(node.func, ast.Name)
            and node.func.id == "super"
            and not node.args
        ):
            self_obj = frame.env.get("self")
            return SuperVal(frame.cls, self_obj)
        callee = self.eval_expr(node.func, frame)
        args = [self.eval_expr(a, frame) for a in node.args]
        kwargs = {}
        for kw in node.keywords:
            if kw.arg is None:
                raise Unsupported("**kwargs call")
            kwargs[kw.arg] = self.eval_expr(kw.value, frame)
        return self.call_value(callee, args, kwargs)

    def call_value(self, callee, args: List, kwargs: Dict[str, Any]):
        if isinstance(callee, AbstractModule):
            return self.call_module(callee, args, kwargs)
        if isinstance(callee, OpVal):
            return self.apply_op(callee.name, args, kwargs)
        if isinstance(callee, UnknownOpVal):
            self.unknown_ops.append(UnknownOp(self.loc, callee.qualname))
            raise Unsupported(f"unknown autograd op {callee.qualname}")
        if isinstance(callee, NativeFunc):
            return callee.fn(*args, **kwargs)
        if isinstance(callee, BoundMethod):
            if callee.obj is not None:
                return self.invoke(callee.info, [callee.obj, *args], kwargs, cls=callee.cls)
            return self.invoke(callee.info, args, kwargs, cls=callee.cls)
        if isinstance(callee, FuncVal):
            qual = callee.info.qualname
            if qual.startswith("repro.autograd."):
                return self.call_value(self._autograd_name(qual), args, kwargs)
            return self.invoke(callee.info, args, kwargs)
        if isinstance(callee, ClassVal):
            return self.instantiate(callee.info, args, kwargs)
        if isinstance(callee, ModuleBaseVal):
            raise Unsupported("direct nn.Module() instantiation")
        if isinstance(callee, NamespaceVal):
            raise Unsupported(f"call into opaque namespace {callee.qualname}")
        raise Unsupported(f"call on {type(callee).__name__}")

    # ------------------------------------------------------------------
    # name resolution
    # ------------------------------------------------------------------
    def lookup_name(self, name: str, frame: Frame):
        if name in frame.env:
            return frame.env[name]
        module = frame.func.module
        funcs = self.index.module_funcs.get(module, {})
        if name in funcs:
            fi = funcs[name]
            if fi.qualname.startswith("repro.autograd."):
                return self._autograd_name(fi.qualname)
            return FuncVal(fi)
        classes = self.index.module_classes.get(module, {})
        if name in classes:
            return ClassVal(classes[name])
        imports = self.index.imports.get(module, {})
        if name in imports:
            return self.resolve_qualname(imports[name])
        if name in _BUILTINS:
            return _BUILTINS[name](self)
        raise Unsupported(f"unresolved name {name!r} in {module}")

    def resolve_qualname(self, qualname: str):
        q = qualname
        for _ in range(8):
            if q.startswith("numpy.") or q == "numpy":
                return self._numpy_name(q)
            if q.startswith("repro.autograd.") or q == "repro.autograd":
                return self._autograd_name(q)
            intrinsic = _QUALNAME_INTRINSICS.get(q)
            if intrinsic is not None:
                return intrinsic(self)
            if q == "typing.TYPE_CHECKING":
                return False
            if q in self.index.classes:
                info = self.index.classes[q]
                if info.qualname in ("repro.nn.module.Module",):
                    return ModuleBaseVal()
                return ClassVal(info)
            if q in self.index.functions:
                return FuncVal(self.index.functions[q])
            # Re-exports: follow the intermediate module's import table
            # (repro.nn.Linear → repro.nn.linear.Linear).
            mod, _, last = q.rpartition(".")
            target = self.index.imports.get(mod, {}).get(last)
            if target is None or target == q:
                break
            q = target
        if q.startswith("repro.nn.init."):
            return self._init_name(q.rsplit(".", 1)[-1])
        return NamespaceVal(qualname)

    def _autograd_name(self, qualname: str):
        last = qualname.rsplit(".", 1)[-1]
        if last in ("repro", "autograd") or last.startswith("ops_") or last in (
            "tensor", "backends", "signatures",
        ):
            return NamespaceVal(qualname)
        canonical = _OP_ALIASES.get(last, last)
        if sig.has_signature(canonical) and canonical not in ("spmm",):
            return OpVal(canonical)
        if canonical == "spmm":
            return NativeFunc("spmm", lambda s, x: self.op_spmm(s, x))
        table = {
            "Tensor": lambda: NativeFunc("Tensor", self._make_tensor),
            "as_tensor": lambda: NativeFunc("as_tensor", lambda x, **k: self._coerce_tensor(x, track=False)),
            "Parameter": lambda: NativeFunc("Parameter", self._make_parameter),
            "zeros": lambda: NativeFunc(
                "zeros", lambda *shape, **k: AbstractTensor(AbstractArray(tuple(shape)), requires_grad=bool(k.get("requires_grad")))
            ),
            "ones": lambda: NativeFunc(
                "ones", lambda *shape, **k: AbstractTensor(AbstractArray(tuple(shape)), requires_grad=bool(k.get("requires_grad")))
            ),
            "randn": lambda: NativeFunc(
                "randn", lambda *shape, **k: AbstractTensor(AbstractArray(tuple(shape)), requires_grad=bool(k.get("requires_grad")))
            ),
            "is_grad_enabled": lambda: NativeFunc("is_grad_enabled", lambda: True),
            "no_grad": lambda: NamespaceVal(qualname),
        }
        maker = table.get(last)
        if maker is not None:
            return maker()
        return UnknownOpVal(qualname)

    def _numpy_name(self, qualname: str):
        rest = qualname[len("numpy"):].lstrip(".")
        if rest in ("float64", "float32", "int64", "int32", "bool_"):
            return DtypeConst(rest.rstrip("_"))
        if rest == "inf":
            return float("inf")
        if rest == "pi":
            return 3.141592653589793
        table = {
            "sqrt": lambda x: SymScalar() if isinstance(x, (Dim, SymScalar)) else float(x) ** 0.5,
            "asarray": self._np_asarray,
            "array": self._np_asarray,
            "full": lambda shape, value, **k: AbstractArray(
                tuple(shape) if isinstance(shape, (tuple, list)) else (shape,)
            ),
            "zeros": lambda shape, **k: AbstractArray(
                tuple(shape) if isinstance(shape, (tuple, list)) else (shape,)
            ),
            "ones": lambda shape, **k: AbstractArray(
                tuple(shape) if isinstance(shape, (tuple, list)) else (shape,)
            ),
            "zeros_like": lambda x, **k: AbstractArray(_data_of(x).shape, _data_of(x).dtype),
            "ones_like": lambda x, **k: AbstractArray(_data_of(x).shape, _data_of(x).dtype),
            "arange": lambda stop, **k: AbstractArray((as_dim(stop),), "int64"),
            "maximum.at": lambda *a, **k: None,
            "add.at": lambda *a, **k: None,
            "random.default_rng": lambda *a, **k: OpaqueRNG(),
        }
        fn = table.get(rest)
        if fn is not None:
            return NativeFunc(f"np.{rest}", fn)
        return NamespaceVal(qualname)

    def _np_asarray(self, x, dtype=None, **kwargs):
        if isinstance(x, AbstractTensor):
            x = x.data
        if isinstance(x, AbstractArray):
            if dtype is not None:
                return self._astype(x, dtype)
            return x
        if _is_scalar(x):
            name = dtype.name if isinstance(dtype, DtypeConst) else "float64"
            return AbstractArray((), name)
        raise Unsupported(f"np.asarray of {type(x).__name__}")

    def _init_name(self, name: str):
        if name == "zeros":
            return NativeFunc("init.zeros", lambda *shape: AbstractArray(tuple(shape)))
        if name == "get":
            return NativeFunc("init.get", lambda key: self._init_name(key if isinstance(key, str) else "xavier_uniform"))
        if name == "INITIALIZERS":
            return {k: self._init_name(k) for k in (
                "xavier_uniform", "xavier_normal", "he_normal", "he_uniform", "orthogonal",
            )}
        if name in ("xavier_uniform", "xavier_normal", "he_normal", "he_uniform", "orthogonal"):
            return NativeFunc(
                f"init.{name}", lambda fan_in, fan_out, rng=None: AbstractArray((fan_in, fan_out))
            )
        raise Unsupported(f"initializer {name!r}")

    # ------------------------------------------------------------------
    # tensor construction / coercion
    # ------------------------------------------------------------------
    def _make_tensor(self, data, requires_grad: bool = False, **kwargs) -> AbstractTensor:
        arr = self._as_array(data)
        # Explicit Tensor(...) construction is the sanctioned widening
        # route: int/bool data becomes float64 deliberately.  A prior
        # float32 narrowing still taints — the precision is already gone.
        out = AbstractArray(arr.shape, "float64", arr.narrowed)
        return AbstractTensor(out, requires_grad=bool(requires_grad), loc=self.loc)

    def _make_parameter(self, data, **kwargs) -> AbstractTensor:
        t = self._make_tensor(data, requires_grad=True)
        return AbstractTensor(t.data, requires_grad=True, is_param=True, loc=self.loc)

    def _as_array(self, data) -> AbstractArray:
        if isinstance(data, AbstractArray):
            return data
        if isinstance(data, AbstractTensor):
            return data.data
        if _is_scalar(data):
            return AbstractArray(())
        raise Unsupported(f"cannot shape {type(data).__name__} as an array")

    def _coerce_tensor(self, x, track: bool) -> AbstractTensor:
        """``as_tensor`` inside an op: silent coercion of raw operands."""
        if isinstance(x, AbstractTensor):
            return x
        if _is_scalar(x):
            return AbstractTensor(AbstractArray(()))
        if isinstance(x, AbstractArray):
            if track and (x.dtype.startswith("int") or x.dtype == "bool"):
                self.narrowings.append(
                    Narrowing(
                        self.loc,
                        f"raw {x.dtype} array silently coerced into a gradient-path op; "
                        "wrap it in Tensor(...) to widen deliberately",
                    )
                )
            return AbstractTensor(AbstractArray(x.shape, "float64", x.narrowed))
        raise Unsupported(f"cannot coerce {type(x).__name__} to tensor")

    # ------------------------------------------------------------------
    # op application (the runtime Tensor._make mirror)
    # ------------------------------------------------------------------
    def apply_op(self, op: str, args: List, kwargs: Dict[str, Any]):
        canonical = sig.canonical_op(op)
        handler = _OP_HANDLERS.get(canonical)
        if handler is None:
            self.unknown_ops.append(UnknownOp(self.loc, op))
            raise Unsupported(f"op {op!r} has no shape handler")
        return handler(self, op, args, kwargs)

    def make_op(
        self,
        op: str,
        out: AbstractArray,
        parents: Sequence[AbstractTensor],
    ) -> AbstractTensor:
        """Create a result node and record the forward cost — mirroring
        ``Tensor._make`` + ``CostCollector.forward_op`` exactly (the
        runtime hook fires unconditionally, tracked or not)."""
        track = any(p.requires_grad for p in parents)
        node = AbstractTensor(
            out, requires_grad=track, op=op, parents=tuple(parents), loc=self.loc
        )
        if op not in sig.EXPLICIT_OPS and op:
            parent_datas = tuple(p.data for p in parents)
            flops = sig.forward_flops(op, out, parent_datas)
            moved = sig.forward_bytes(out, parent_datas)
            self.records.append(
                Record(op, "fwd", self._layer(), "-", flops, moved)
            )
        if track:
            self._check_narrowed(parents)
        return node

    def _layer(self) -> str:
        return self.layer_stack[-1] if self.layer_stack else "-"

    def _check_narrowed(self, parents: Sequence[AbstractTensor]) -> None:
        for p in parents:
            if p.data.narrowed is not None:
                event = Narrowing(
                    p.data.narrowed,
                    "float32-narrowed value feeds a gradient-requiring op; "
                    "the autograd substrate contract is float64",
                )
                if event not in self.narrowings:
                    self.narrowings.append(event)

    # -- op intrinsics --------------------------------------------------
    def _binary_operands(self, args) -> Tuple[AbstractTensor, AbstractTensor]:
        a, b = args
        track_hint = any(
            isinstance(x, AbstractTensor) and x.requires_grad for x in (a, b)
        )
        return (
            self._coerce_tensor(a, track=track_hint),
            self._coerce_tensor(b, track=track_hint),
        )

    def op_elementwise_binary(self, op: str, args, kwargs):
        a, b = self._binary_operands(args)
        shape = broadcast_shapes(a.shape, b.shape, self.loc)
        return self.make_op(op, AbstractArray(shape), (a, b))

    def op_elementwise_unary(self, op: str, args, kwargs):
        a = self._coerce_tensor(args[0], track=False)
        return self.make_op(op, AbstractArray(a.shape), (a,))

    def op_clip(self, op: str, args, kwargs):
        a = self._coerce_tensor(args[0], track=False)
        return self.make_op("clip", AbstractArray(a.shape), (a,))

    def op_pow(self, op: str, args, kwargs):
        a = self._coerce_tensor(args[0], track=False)
        if len(args) > 1:
            exponent = args[1]
            if not isinstance(exponent, _NUMERIC):
                raise Unsupported("symbolic pow exponent")
            op = f"pow{float(exponent)}"
        return self.make_op(op, AbstractArray(a.shape), (a,))

    def op_matmul(self, a, b) -> AbstractTensor:
        a = self._coerce_tensor(a, track=False)
        b = self._coerce_tensor(b, track=False)
        if a.ndim != 2 or b.ndim != 2:
            raise ShapeError(
                f"matmul expects 2-D operands, got {a.shape} @ {b.shape}", self.loc
            )
        verdict = dim_eq(a.shape[1], b.shape[0])
        if verdict is not True:
            why = "mismatched" if verdict is False else "unprovable"
            raise ShapeError(
                f"matmul inner dimensions {why}: "
                f"{render_dim(a.shape[1])} vs {render_dim(b.shape[0])}",
                self.loc,
            )
        out = AbstractArray((a.shape[0], b.shape[1]))
        return self.make_op("matmul", out, (a, b))

    def op_transpose(self, t) -> AbstractTensor:
        t = self._coerce_tensor(t, track=False)
        if t.ndim != 2:
            raise ShapeError(f"transpose expects 2-D, got {t.shape}", self.loc)
        return self.make_op("transpose", AbstractArray((t.shape[1], t.shape[0])), (t,))

    def op_spmm(self, s, x) -> AbstractTensor:
        if not isinstance(s, AbstractSparse):
            raise ShapeError(
                f"spmm first operand must be sparse, got {type(s).__name__}", self.loc
            )
        x = self._coerce_tensor(x, track=False)
        if s.dtype != "float64":
            raise ShapeError(f"spmm requires a float64 sparse operand, got {s.dtype}", self.loc)
        if x.ndim != 2:
            raise ShapeError(f"spmm dense operand must be 2-D, got {x.shape}", self.loc)
        verdict = dim_eq(s.shape[1], x.shape[0])
        if verdict is not True:
            why = "mismatched" if verdict is False else "unprovable"
            raise ShapeError(
                f"spmm inner dimensions {why}: "
                f"{render_dim(s.shape[1])} vs {render_dim(x.shape[0])}",
                self.loc,
            )
        out = AbstractArray((s.shape[0], x.shape[1]))
        backend = self.backend if s.fused else "scipy"
        # spmm self-reports (EXPLICIT_OPS): forward fires regardless of
        # requires_grad, exactly like the runtime op site.
        self.records.append(
            Record(
                "spmm",
                "fwd",
                self._layer(),
                backend,
                sig.spmm_flops(s.nnz, x.shape[1]),
                sig.spmm_bytes(s.nnz, x.data.nbytes, out.nbytes),
            )
        )
        node = AbstractTensor(
            out,
            requires_grad=x.requires_grad,
            op="spmm",
            parents=(x,),
            spmm_info=(s.nnz, backend),
            loc=self.loc,
        )
        if x.requires_grad:
            self._check_narrowed((x,))
        return node

    def op_softmax_family(self, op: str, args, kwargs):
        a = self._coerce_tensor(args[0], track=False)
        return self.make_op(op, AbstractArray(a.shape), (a,))

    def op_dropout(self, op: str, args, kwargs):
        a = self._coerce_tensor(args[0], track=False)
        p = kwargs.get("p", args[1] if len(args) > 1 else None)
        training = kwargs.get("training", args[3] if len(args) > 3 else True)
        if isinstance(training, _Undecided):
            training = self.truth(training, ast.Constant(value=None))
        p_positive = isinstance(p, _NUMERIC) and p > 0.0
        if not training or not p_positive:
            return a  # runtime no-op path: no node, no record
        return self.make_op("dropout", AbstractArray(a.shape), (a,))

    def op_reduce(self, op: str, args, kwargs):
        a = self._coerce_tensor(args[0], track=False)
        axis = kwargs.get("axis", args[1] if len(args) > 1 else None)
        keepdims = bool(kwargs.get("keepdims", args[2] if len(args) > 2 else False))
        shape = reduce_shape(a.shape, axis, keepdims, self.loc)
        return self.make_op(op, AbstractArray(shape), (a,))

    def op_l2_norm(self, op: str, args, kwargs):
        a = self._coerce_tensor(args[0], track=False)
        return self.make_op("l2_norm", AbstractArray(()), (a,))

    def op_reshape(self, t, shape_args) -> AbstractTensor:
        t = self._coerce_tensor(t, track=False)
        return self.op_reshape_impl(t, shape_args)

    def op_reshape_impl(self, t: AbstractTensor, shape_args) -> AbstractTensor:
        if len(shape_args) == 1 and isinstance(shape_args[0], (tuple, list)):
            shape_args = tuple(shape_args[0])
        dims = []
        minus_one = False
        for d in shape_args:
            if isinstance(d, int) and d == -1:
                if minus_one:
                    raise ShapeError("reshape with multiple -1 dims", self.loc)
                minus_one = True
                dims.append(-1)
            elif isinstance(d, (int, Dim)):
                dims.append(d)
            else:
                raise Unsupported("non-integer reshape dim")
        if minus_one:
            known: DimLike = 1
            for d in dims:
                if not (isinstance(d, int) and d == -1):
                    known = as_dim(known) * d
            total = as_dim(t.size)
            kc, tc = as_dim(known).const_value(), total.const_value()
            if kc is not None and tc is not None:
                if kc == 0 or tc % kc:
                    raise ShapeError(f"cannot reshape size {tc} into {dims}", self.loc)
                dims = [tc // kc if isinstance(d, int) and d == -1 else d for d in dims]
            elif dim_eq(known, total) is True:
                dims = [1 if isinstance(d, int) and d == -1 else d for d in dims]
            else:
                raise Unsupported("symbolic reshape with -1")
        else:
            new_size: DimLike = 1
            for d in dims:
                new_size = as_dim(new_size) * d
            if dim_eq(new_size, t.size) is not True:
                raise ShapeError(
                    f"reshape size mismatch: {render_dim(t.size)} -> {render_dim(new_size)}",
                    self.loc,
                )
        return self.make_op("reshape", AbstractArray(tuple(dims)), (t,))

    def op_getitem(self, t: AbstractTensor, idx) -> AbstractTensor:
        if isinstance(idx, AbstractTensor):
            idx = idx.data
        if isinstance(idx, AbstractArray):
            if idx.dtype == "bool":
                out_shape = (self._fresh_sym("sel"),) + t.shape[1:]
            elif idx.dtype.startswith("int") and idx.ndim == 1:
                out_shape = (idx.shape[0],) + t.shape[1:]
            else:
                raise Unsupported("tensor fancy-index dtype")
        elif isinstance(idx, (int, Dim)):
            if t.ndim < 1:
                raise ShapeError("index into a scalar tensor", self.loc)
            out_shape = t.shape[1:]
        else:
            raise Unsupported(f"tensor index {type(idx).__name__}")
        return self.make_op("getitem", AbstractArray(out_shape), (t,))

    def op_scatter_add(self, op: str, args, kwargs):
        src = self._coerce_tensor(args[0], track=False)
        idx = kwargs.get("idx", args[1] if len(args) > 1 else None)
        num_rows = kwargs.get("num_rows", args[2] if len(args) > 2 else None)
        if isinstance(idx, AbstractTensor):
            idx = idx.data
        if not isinstance(idx, AbstractArray) or idx.ndim != 1:
            raise ShapeError("scatter_add idx must be a 1-D array", self.loc)
        if src.ndim < 1 or dim_eq(idx.shape[0], src.shape[0]) is not True:
            raise ShapeError(
                "scatter_add idx length must equal src rows: "
                f"{render_dim(idx.shape[0])} vs {render_dim(src.shape[0] if src.ndim else 0)}",
                self.loc,
            )
        if not isinstance(num_rows, (int, Dim)):
            raise Unsupported("scatter_add num_rows kind")
        out = AbstractArray((num_rows,) + src.shape[1:])
        return self.make_op("scatter_add", out, (src,))

    def op_concat(self, op: str, args, kwargs):
        tensors = args[0]
        axis = kwargs.get("axis", args[1] if len(args) > 1 else 0)
        if not isinstance(tensors, (list, tuple)) or not tensors:
            raise Unsupported("concat of non-sequence")
        ts = [self._coerce_tensor(t, track=False) for t in tensors]
        if not isinstance(axis, int):
            raise Unsupported("symbolic concat axis")
        ndim = ts[0].ndim
        axis = axis % ndim if ndim else 0
        total: DimLike = 0
        for t in ts:
            if t.ndim != ndim:
                raise ShapeError("concat rank mismatch", self.loc)
            for i in range(ndim):
                if i == axis:
                    continue
                if dim_eq(t.shape[i], ts[0].shape[i]) is not True:
                    raise ShapeError(
                        f"concat non-axis dim mismatch at axis {i}: "
                        f"{render_dim(t.shape[i])} vs {render_dim(ts[0].shape[i])}",
                        self.loc,
                    )
            total = as_dim(total) + t.shape[axis]
        shape = tuple(
            total if i == axis else ts[0].shape[i] for i in range(ndim)
        )
        return self.make_op("concat", AbstractArray(shape), tuple(ts))

    def op_stack(self, op: str, args, kwargs):
        tensors = args[0]
        axis = kwargs.get("axis", args[1] if len(args) > 1 else 0)
        if not isinstance(tensors, (list, tuple)) or not tensors:
            raise Unsupported("stack of non-sequence")
        ts = [self._coerce_tensor(t, track=False) for t in tensors]
        if not isinstance(axis, int):
            raise Unsupported("symbolic stack axis")
        for t in ts[1:]:
            if t.ndim != ts[0].ndim or any(
                dim_eq(a, b) is not True for a, b in zip(t.shape, ts[0].shape)
            ):
                raise ShapeError("stack shape mismatch", self.loc)
        base = list(ts[0].shape)
        axis = axis % (len(base) + 1)
        base.insert(axis, len(ts))
        return self.make_op("stack", AbstractArray(tuple(base)), tuple(ts))

    # ------------------------------------------------------------------
    # backward simulation (the Tensor.backward mirror)
    # ------------------------------------------------------------------
    def simulate_backward(self, root: AbstractTensor) -> None:
        """Emit backward cost records for one ``backward()`` call.

        Mirrors the runtime walk: every grad-requiring op node reachable
        from ``root`` through grad-requiring parents runs its backward
        hook once per call; ``spmm`` self-reports, everything else goes
        through the shared ``backward_flops``/``backward_bytes``
        formulas; all backward costs land on layer ``"-"`` (the pass
        runs outside any Module.__call__ scope).
        """
        if not isinstance(root, AbstractTensor) or not root.requires_grad:
            return
        seen: set = set()
        stack = [root]
        order: List[AbstractTensor] = []
        while stack:
            node = stack.pop()
            # Transient id-keys, exactly like Tensor.backward's walk: the
            # graph keeps every node alive until the walk ends, so ids
            # cannot be recycled mid-walk.
            if id(node) in seen:  # repro-lint: disable=RL002
                continue
            seen.add(id(node))  # repro-lint: disable=RL002
            order.append(node)
            for p in node.parents:
                if p.requires_grad:
                    stack.append(p)
        for node in order:
            op = node.op
            if not op:
                continue
            if op == "spmm":
                x = node.parents[0]
                if not x.requires_grad:
                    continue
                nnz, backend = node.spmm_info
                self.records.append(
                    Record(
                        "spmm",
                        "bwd",
                        "-",
                        backend,
                        sig.spmm_flops(nnz, node.shape[1]),
                        sig.spmm_bytes(nnz, node.data.nbytes, x.data.nbytes),
                    )
                )
                continue
            grad_parents = tuple(p.data for p in node.parents if p.requires_grad)
            if not grad_parents:
                continue
            parent_datas = tuple(p.data for p in node.parents)
            flops = sig.backward_flops(op, node.data, parent_datas, grad_parents)
            moved = sig.backward_bytes(node.data, grad_parents)
            self.records.append(Record(op, "bwd", "-", "-", flops, moved))


class _Undecided:
    """A tri-state comparison that neither bound could decide."""

    __slots__ = ("left", "right", "kind", "negate")

    def __init__(self, left: Dim, right: Dim, kind: str, negate: bool) -> None:
        self.left = left
        self.right = right
        self.kind = kind
        self.negate = negate

    def symbols(self) -> List[str]:
        return sorted(set(self.left.symbols()) | set(self.right.symbols()))

    def describe(self) -> str:
        rel = {"dim_le": "<=", "dim_lt": "<", "dim_eq": "=="}[self.kind]
        if self.negate:
            rel = {"==": "!="}.get(rel, f"not {rel}")
        return f"{self.left!r} {rel} {self.right!r}"

    def decide(self, bindings: Dict[str, int]) -> bool:
        lv = self.left.evaluate(bindings)
        rv = self.right.evaluate(bindings)
        verdict = {
            "dim_le": lv <= rv,
            "dim_lt": lv < rv,
            "dim_eq": lv == rv,
        }[self.kind]
        return (not verdict) if self.negate else verdict


# ----------------------------------------------------------------------
# shared shape algebra helpers
# ----------------------------------------------------------------------
def broadcast_shapes(
    a: Tuple[DimLike, ...], b: Tuple[DimLike, ...], loc: Optional[Loc]
) -> Tuple[DimLike, ...]:
    """NumPy broadcasting over symbolic dims; unprovable pairs error."""
    out: List[DimLike] = []
    ra, rb = list(reversed(a)), list(reversed(b))
    for i in range(max(len(ra), len(rb))):
        da = ra[i] if i < len(ra) else 1
        db = rb[i] if i < len(rb) else 1
        if dim_eq(da, db) is True:
            out.append(da)
        elif as_dim(da).const_value() == 1:
            out.append(db)
        elif as_dim(db).const_value() == 1:
            out.append(da)
        else:
            raise ShapeError(
                f"cannot prove broadcast compatibility: {render_dim(da)} vs {render_dim(db)}",
                loc,
            )
    return tuple(reversed(out))


def reduce_shape(
    shape: Tuple[DimLike, ...], axis, keepdims: bool, loc: Optional[Loc]
) -> Tuple[DimLike, ...]:
    """Result shape of a sum/mean/max reduction."""
    if axis is None:
        return tuple(1 for _ in shape) if keepdims else ()
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    if not all(isinstance(ax, int) for ax in axes):
        raise Unsupported("symbolic reduction axis")
    norm = {ax % len(shape) for ax in axes}
    out: List[DimLike] = []
    for i, d in enumerate(shape):
        if i in norm:
            if keepdims:
                out.append(1)
        else:
            out.append(d)
    return tuple(out)


def _data_of(x) -> AbstractArray:
    if isinstance(x, AbstractTensor):
        return x.data
    if isinstance(x, AbstractArray):
        return x
    raise Unsupported(f"no array view of {type(x).__name__}")


# -- op handler table (canonical op name → intrinsic) -------------------
_OP_HANDLERS: Dict[str, Callable] = {
    "add": Interpreter.op_elementwise_binary,
    "sub": Interpreter.op_elementwise_binary,
    "mul": Interpreter.op_elementwise_binary,
    "div": Interpreter.op_elementwise_binary,
    "maximum": Interpreter.op_elementwise_binary,
    "neg": Interpreter.op_elementwise_unary,
    "exp": Interpreter.op_elementwise_unary,
    "log": Interpreter.op_elementwise_unary,
    "sqrt": Interpreter.op_elementwise_unary,
    "abs": Interpreter.op_elementwise_unary,
    "relu": Interpreter.op_elementwise_unary,
    "leaky_relu": lambda self, op, args, kwargs: self.op_elementwise_unary("leaky_relu", args[:1], {}),
    "sigmoid": Interpreter.op_elementwise_unary,
    "tanh": Interpreter.op_elementwise_unary,
    "clip": Interpreter.op_clip,
    "pow": Interpreter.op_pow,
    "matmul": lambda self, op, args, kwargs: self.op_matmul(args[0], args[1]),
    "transpose": lambda self, op, args, kwargs: self.op_transpose(args[0]),
    "softmax": Interpreter.op_softmax_family,
    "log_softmax": Interpreter.op_softmax_family,
    "dropout": Interpreter.op_dropout,
    "sum": Interpreter.op_reduce,
    "mean": Interpreter.op_reduce,
    "max": Interpreter.op_reduce,
    "l2_norm": Interpreter.op_l2_norm,
    "reshape": lambda self, op, args, kwargs: self.op_reshape(args[0], args[1:]),
    "getitem": lambda self, op, args, kwargs: self.op_getitem(
        self._coerce_tensor(args[0], track=False), args[1]
    ),
    "scatter_add": Interpreter.op_scatter_add,
    "concat": Interpreter.op_concat,
    "stack": Interpreter.op_stack,
}

#: Tensor methods that map straight onto an op intrinsic.
_TENSOR_METHOD_OPS = {
    "exp": "exp",
    "log": "log",
    "sqrt": "sqrt",
    "abs": "abs",
    "clip": "clip",
    "relu": "relu",
    "sigmoid": "sigmoid",
    "tanh": "tanh",
    "softmax": "softmax",
    "log_softmax": "log_softmax",
    "sum": "sum",
    "mean": "mean",
    "max": "max",
}


def _native_add_module(interp: Interpreter, mod: AbstractModule, name, module):
    if not isinstance(name, str) or not isinstance(module, AbstractModule):
        raise Unsupported("add_module arguments")
    mod.modules[name] = module
    module.obs_name = name
    mod.attrs[name] = module
    return module


def _native_train(interp: Interpreter, mod: AbstractModule, mode: bool = True):
    mod.training = bool(mode)
    for sub in mod.modules.values():
        _native_train(interp, sub, mode)
    return mod


_MODULE_NATIVES: Dict[str, Callable] = {
    "add_module": _native_add_module,
    "train": _native_train,
    "eval": lambda interp, mod: _native_train(interp, mod, False),
}


_BUILTINS: Dict[str, Callable[[Interpreter], Any]] = {
    "len": lambda interp: NativeFunc("len", lambda x: _builtin_len(x)),
    "range": lambda interp: NativeFunc("range", lambda *a: range(*[int(as_dim(v)) if isinstance(v, Dim) else v for v in a])),
    "zip": lambda interp: NativeFunc("zip", lambda *seqs: list(zip(*[interp._as_iterable(s) for s in seqs]))),
    "enumerate": lambda interp: NativeFunc(
        "enumerate", lambda seq, start=0: list(enumerate(interp._as_iterable(seq), start))
    ),
    "float": lambda interp: NativeFunc("float", _builtin_float),
    "int": lambda interp: NativeFunc("int", _builtin_int),
    "bool": lambda interp: NativeFunc("bool", lambda x: bool(x) if isinstance(x, (bool, int, float)) else True),
    "str": lambda interp: NativeFunc("str", lambda x: str(x)),
    "list": lambda interp: NativeFunc("list", lambda x=(): list(interp._as_iterable(x))),
    "tuple": lambda interp: NativeFunc("tuple", lambda x=(): tuple(interp._as_iterable(x))),
    "print": lambda interp: NativeFunc("print", lambda *a, **k: None),
    "isinstance": lambda interp: NativeFunc("isinstance", lambda *a: _unsupported("isinstance")),
    "getattr": lambda interp: NativeFunc(
        "getattr", lambda obj, name, *default: _builtin_getattr(interp, obj, name, default)
    ),
    "min": lambda interp: NativeFunc("min", lambda *a: _unsupported("min")),
    "max": lambda interp: NativeFunc("max", lambda *a: _unsupported("max")),
    "ValueError": lambda interp: NamespaceVal("builtins.ValueError"),
    "TypeError": lambda interp: NamespaceVal("builtins.TypeError"),
    "KeyError": lambda interp: NamespaceVal("builtins.KeyError"),
    "RuntimeError": lambda interp: NamespaceVal("builtins.RuntimeError"),
    "NotImplementedError": lambda interp: NamespaceVal("builtins.NotImplementedError"),
}


def _unsupported(what: str):
    raise Unsupported(what)


def _builtin_len(x):
    if isinstance(x, (list, tuple, dict, str)):
        return len(x)
    if isinstance(x, (AbstractArray, AbstractTensor)):
        if not _data_of(x).shape:
            raise Unsupported("len() of scalar")
        return _data_of(x).shape[0]
    raise Unsupported(f"len() of {type(x).__name__}")


def _builtin_float(x):
    if isinstance(x, SymScalar):
        return x
    if isinstance(x, _NUMERIC):
        return float(x)
    if isinstance(x, Dim):
        c = x.const_value()
        return float(c) if c is not None else SymScalar()
    raise Unsupported(f"float() of {type(x).__name__}")


def _builtin_int(x):
    if isinstance(x, _NUMERIC):
        return int(x)
    if isinstance(x, Dim):
        c = x.const_value()
        if c is not None:
            return c
        return x
    raise Unsupported(f"int() of {type(x).__name__}")


def _builtin_getattr(interp: Interpreter, obj, name, default):
    if not isinstance(name, str):
        raise Unsupported("dynamic getattr name")
    try:
        return interp.get_attr(obj, name)
    except Unsupported:
        if default:
            return default[0]
        raise


#: Non-numpy, non-autograd qualnames with dedicated intrinsics.
_QUALNAME_INTRINSICS: Dict[str, Callable[[Interpreter], Any]] = {
    "repro.nn.module.Parameter": lambda interp: NativeFunc("Parameter", interp._make_parameter),
    "repro.nn.Parameter": lambda interp: NativeFunc("Parameter", interp._make_parameter),
    "repro.nn.module.Module": lambda interp: ModuleBaseVal(),
    "repro.nn.Module": lambda interp: ModuleBaseVal(),
    "repro.nn.init": lambda interp: NamespaceVal("repro.nn.init"),
    "repro.nn.init.get": lambda interp: interp._init_name("get"),
    "repro.nn.init.zeros": lambda interp: interp._init_name("zeros"),
    "repro.nn.init.xavier_uniform": lambda interp: interp._init_name("xavier_uniform"),
    "repro.nn.init.xavier_normal": lambda interp: interp._init_name("xavier_normal"),
    "repro.nn.init.he_normal": lambda interp: interp._init_name("he_normal"),
    "repro.nn.init.he_uniform": lambda interp: interp._init_name("he_uniform"),
    "repro.nn.init.orthogonal": lambda interp: interp._init_name("orthogonal"),
    "repro.nn.init.INITIALIZERS": lambda interp: interp._init_name("INITIALIZERS"),
}


# ----------------------------------------------------------------------
# model specs: how to instantiate + call each verified Module
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ModelSpec:
    """Recipe for verifying one Module: qualname + init dims + inputs."""

    name: str
    qualname: str
    #: __init__ kwargs as (name → "sym:<s>" | int | "rng")
    init: Tuple[Tuple[str, Any], ...]
    #: key into BUILDERS for the forward arguments
    builder: str


def _spec(name: str, qualname: str, builder: str, **init) -> ModelSpec:
    return ModelSpec(name, qualname, tuple(sorted(init.items())), builder)


_GRAPH_MODEL_INIT = {"in_features": "sym:d_in", "num_classes": "sym:c", "rng": "rng"}

SPECS: Dict[str, ModelSpec] = {
    s.name: s
    for s in (
        _spec("mlp", "repro.gnn.models.MLP", "graph", **_GRAPH_MODEL_INIT),
        _spec("gcn", "repro.gnn.models.GCN", "graph", **_GRAPH_MODEL_INIT),
        _spec("sgc", "repro.gnn.models.SGC", "graph",
              in_features="sym:d_in", num_classes="sym:c", k=2, rng="rng"),
        _spec("sage", "repro.gnn.models.SAGE", "graph", **_GRAPH_MODEL_INIT),
        _spec("appnp", "repro.gnn.models.APPNP", "graph", **_GRAPH_MODEL_INIT),
        _spec("gat", "repro.gnn.models.GAT", "graph", **_GRAPH_MODEL_INIT),
        _spec("orthogcn", "repro.gnn.models.OrthoGCN", "graph", **_GRAPH_MODEL_INIT),
        _spec("linear", "repro.nn.linear.Linear", "x",
              in_features="sym:d_in", out_features="sym:c", rng="rng"),
        _spec("gcnconv", "repro.gnn.gcn_conv.GCNConv", "sparse_x",
              in_features="sym:d_in", out_features="sym:d_hidden", rng="rng"),
        # Exercises the propagate-then-transform branch (d_out > d_in
        # under the regime: 128 > 64).
        _spec("gcnconv_expand", "repro.gnn.gcn_conv.GCNConv", "sparse_h",
              in_features="sym:d_hidden", out_features="sym:d_in", rng="rng"),
        _spec("orthoconv", "repro.gnn.ortho.OrthoConv", "sparse_h",
              features="sym:d_hidden", rng="rng"),
        _spec("sageconv", "repro.gnn.sage_conv.SAGEConv", "mean_x",
              in_features="sym:d_in", out_features="sym:d_hidden", rng="rng"),
        _spec("gatconv", "repro.gnn.gat_conv.GATConv", "edges_x",
              in_features="sym:d_in", out_features="sym:d_hidden", rng="rng"),
        _spec("neighgen", "repro.baselines.fedsage.NeighGen", "mean_x",
              in_features="sym:d_in", hidden="sym:d_hidden", rng="rng"),
        _spec("typedgcn", "repro.baselines.fedlit._TypedGCN", "slist_x",
              in_features="sym:d_in", num_classes="sym:c",
              hidden="sym:d_hidden", k=2, rng="rng"),
    )
}


def _dims_table(dims: Optional[Dict[str, DimLike]]) -> Dict[str, DimLike]:
    table: Dict[str, DimLike] = {k: Dim.sym(k) for k in DEFAULT_REGIME}
    if dims:
        table.update(dims)
    return table


def _build_graph(dims: Dict[str, DimLike]):
    return (AbstractGraph(dims),)


def _build_x(dims: Dict[str, DimLike]):
    return (AbstractTensor(AbstractArray((dims["n"], dims["d_in"]))),)


def _build_sparse_x(dims: Dict[str, DimLike]):
    s = AbstractSparse((dims["n"], dims["n"]), dims["nnz"], fused=True)
    return (s, AbstractTensor(AbstractArray((dims["n"], dims["d_in"]))))


def _build_sparse_h(dims: Dict[str, DimLike]):
    s = AbstractSparse((dims["n"], dims["n"]), dims["nnz"], fused=True)
    return (s, AbstractTensor(AbstractArray((dims["n"], dims["d_hidden"]))))


def _build_mean_x(dims: Dict[str, DimLike]):
    m = AbstractSparse((dims["n"], dims["n"]), dims["nnz_mean"], fused=True)
    return (m, AbstractTensor(AbstractArray((dims["n"], dims["d_in"]))))


def _build_edges_x(dims: Dict[str, DimLike]):
    idx = AbstractArray((dims["edges"],), "int64")
    return (
        (idx, AbstractArray((dims["edges"],), "int64")),
        AbstractTensor(AbstractArray((dims["n"], dims["d_in"]))),
    )


def _build_slist_x(dims: Dict[str, DimLike]):
    s = AbstractSparse((dims["n"], dims["n"]), dims["nnz"], fused=False)
    return ([s, s], AbstractTensor(AbstractArray((dims["n"], dims["d_in"]))))


BUILDERS: Dict[str, Callable[[Dict[str, DimLike]], tuple]] = {
    "graph": _build_graph,
    "x": _build_x,
    "sparse_x": _build_sparse_x,
    "sparse_h": _build_sparse_h,
    "mean_x": _build_mean_x,
    "edges_x": _build_edges_x,
    "slist_x": _build_slist_x,
}


@dataclass
class ModelReport:
    """The verifier's result for one model spec."""

    name: str
    qualname: str
    outputs: List[Tuple[DimLike, ...]] = field(default_factory=list)
    records: List[Record] = field(default_factory=list)
    assumptions: List[Assumption] = field(default_factory=list)
    narrowings: List[Narrowing] = field(default_factory=list)
    unknown_ops: List[UnknownOp] = field(default_factory=list)
    dims: Dict[str, DimLike] = field(default_factory=dict)
    error: Optional[ShapeError] = None


def _flatten_tensors(value) -> List[AbstractTensor]:
    if isinstance(value, AbstractTensor):
        return [value]
    if isinstance(value, (tuple, list)):
        out: List[AbstractTensor] = []
        for v in value:
            out.extend(_flatten_tensors(v))
        return out
    return []


def _top_level_outputs(value) -> List[AbstractTensor]:
    """The tensors a training loop would call ``backward()`` on.

    Multi-output models (NeighGen) return a tuple; the runtime runs one
    backward per head, so each top-level tensor gets its own simulated
    walk (shared-subgraph nodes re-record, matching the runtime)."""
    if isinstance(value, AbstractTensor):
        return [value]
    if isinstance(value, (tuple, list)):
        # Only the direct tensor heads; hidden lists ride along as
        # diagnostics, not separate losses.
        out: List[AbstractTensor] = []
        for v in value:
            if isinstance(v, AbstractTensor):
                out.append(v)
        return out
    return []


def interpret_spec(
    spec: Union[str, ModelSpec],
    index: Optional[ProjectIndex] = None,
    dims: Optional[Dict[str, DimLike]] = None,
    backend: str = "numpy",
    backward: bool = True,
    decide_bindings: Optional[Dict[str, int]] = None,
) -> ModelReport:
    """Symbolically execute one registered model end to end.

    Raises :class:`Unsupported` when the model leaves the interpreted
    fragment; a :class:`ShapeError` is *captured* on the report (mirroring
    the runtime raise aborting the forward), not raised.
    """
    if isinstance(spec, str):
        if spec not in SPECS:
            raise KeyError(f"unknown model spec {spec!r}; known: {sorted(SPECS)}")
        spec = SPECS[spec]
    index = index if index is not None else default_index()
    table = _dims_table(dims)
    interp = Interpreter(index, decide_bindings=decide_bindings, backend=backend)
    report = ModelReport(name=spec.name, qualname=spec.qualname, dims=dict(table))

    info = index.classes.get(spec.qualname)
    if info is None:
        raise Unsupported(f"class {spec.qualname} not in the project index")
    kwargs: Dict[str, Any] = {}
    for key, value in spec.init:
        if value == "rng":
            kwargs[key] = OpaqueRNG()
        elif isinstance(value, str) and value.startswith("sym:"):
            kwargs[key] = table[value[4:]]
        else:
            kwargs[key] = value
    args = BUILDERS[spec.builder](table)

    try:
        module = interp.instantiate(info, (), kwargs)
        result = interp.call_module(module, list(args), {})
        report.outputs = [t.shape for t in _flatten_tensors(result)]
        if backward:
            for head in _top_level_outputs(result):
                interp.simulate_backward(head)
    except ShapeError as err:
        report.error = err
    report.records = interp.records
    report.assumptions = interp.assumptions
    report.narrowings = interp.narrowings
    report.unknown_ops = interp.unknown_ops
    return report


# ----------------------------------------------------------------------
# project index over src/repro (cached per process)
# ----------------------------------------------------------------------
_INDEX_CACHE: List[ProjectIndex] = []


def default_index() -> ProjectIndex:
    """Parse every file under ``src/repro`` once and cache the index."""
    if _INDEX_CACHE:
        return _INDEX_CACHE[0]
    root = Path(__file__).resolve().parents[1]  # .../src/repro
    contexts = []
    for path in iter_python_files(root):
        try:
            source = path.read_text()
            tree = ast.parse(source)
        except (OSError, SyntaxError):
            continue
        contexts.append(FileContext(path, str(path), source, tree))
    _INDEX_CACHE.append(ProjectIndex(contexts))
    return _INDEX_CACHE[0]


def index_for_files(contexts: Sequence[FileContext]) -> ProjectIndex:
    """An index over an explicit file set (the lint rules' path)."""
    return ProjectIndex(list(contexts))


# ----------------------------------------------------------------------
# CLI: python -m repro.analysis.shapes MODEL [--dims k=v,...] ...
# ----------------------------------------------------------------------
def _parse_dims(text: str) -> Dict[str, DimLike]:
    out: Dict[str, DimLike] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"bad --dims entry {part!r} (expected name=int)")
        key, _, val = part.partition("=")
        out[key.strip()] = int(val)
    return out


def format_report(report: ModelReport) -> str:
    lines: List[str] = []
    lines.append(f"model {report.name} ({report.qualname})")
    dims = ", ".join(f"{k}={render_dim(v)}" for k, v in sorted(report.dims.items()))
    lines.append(f"dims: {dims}")
    if report.error is not None:
        loc = f" at {report.error.loc[0]}:{report.error.loc[1]}" if report.error.loc else ""
        lines.append(f"SHAPE ERROR{loc}: {report.error.message}")
        return "\n".join(lines)
    for i, shape in enumerate(report.outputs):
        rendered = ", ".join(render_dim(d) for d in shape)
        lines.append(f"output[{i}]: ({rendered})")
    for a in report.assumptions:
        lines.append(f"assume {a.loc[0]}:{a.loc[1]}: {a.text}")
    for w in report.narrowings:
        lines.append(f"narrowing {w.loc[0]}:{w.loc[1]}: {w.text}")
    for u in report.unknown_ops:
        lines.append(f"unknown op {u.loc[0]}:{u.loc[1]}: {u.name}")

    # Aggregate per (layer, op, dir, backend) in first-seen order.
    keys: List[Tuple[str, str, str, str]] = []
    agg: Dict[Tuple[str, str, str, str], Tuple[Dim, Dim]] = {}
    for r in report.records:
        key = (r.layer, r.op, r.direction, r.backend)
        if key not in agg:
            keys.append(key)
            agg[key] = (Dim.const(0), Dim.const(0))
        f, b = agg[key]
        agg[key] = (f + r.flops, b + r.bytes_moved)
    rows = [("layer", "op", "dir", "backend", "flops", "bytes")]
    total_f, total_b = Dim.const(0), Dim.const(0)
    for key in keys:
        f, b = agg[key]
        total_f, total_b = total_f + f, total_b + b
        rows.append((key[0], key[1], key[2], key[3], repr(f), repr(b)))
    rows.append(("TOTAL", "", "", "", repr(total_f), repr(total_b)))
    widths = [max(len(r[i]) for r in rows) for i in range(6)]
    lines.append("")
    for r in rows:
        lines.append("  ".join(col.ljust(w) for col, w in zip(r, widths)).rstrip())
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    import sys

    args = list(argv) if argv is not None else sys.argv[1:]
    usage = (
        "usage: python -m repro.analysis.shapes MODEL "
        "[--dims k=v,...] [--backend NAME] [--no-backward]\n"
        "       python -m repro.analysis.shapes --list"
    )
    model: Optional[str] = None
    dims: Optional[Dict[str, DimLike]] = None
    backend = "numpy"
    backward = True
    i = 0
    while i < len(args):
        arg = args[i]
        if arg == "--list":
            for name in sorted(SPECS):
                print(f"{name}\t{SPECS[name].qualname}")
            return 0
        if arg == "--dims":
            i += 1
            if i >= len(args):
                print(usage)
                return 2
            try:
                dims = _parse_dims(args[i])
            except ValueError as err:
                print(err)
                return 2
        elif arg == "--backend":
            i += 1
            if i >= len(args):
                print(usage)
                return 2
            backend = args[i]
        elif arg == "--no-backward":
            backward = False
        elif arg.startswith("-"):
            print(usage)
            return 2
        elif model is None:
            model = arg
        else:
            print(usage)
            return 2
        i += 1
    if model is None:
        print(usage)
        return 2
    if model not in SPECS:
        print(f"unknown model {model!r}; known: {', '.join(sorted(SPECS))}")
        return 2
    try:
        report = interpret_spec(model, dims=dims, backend=backend, backward=backward)
    except Unsupported as err:
        print(f"unsupported construct: {err}")
        return 2
    print(format_report(report))
    return 0 if report.error is None and not report.unknown_ops else 1


if __name__ == "__main__":
    raise SystemExit(main())

