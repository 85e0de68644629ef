"""Run the a2l2 command line once, in this process, with its layers traced.

    python3 bench/traced_cli.py OUT -- verify --l 5 --format json

Every module of the `a2l2` package is one layer.  The modules are imported
leaf first, each inside a span of its own layer, so import-time work is
charged to the module that does it.  Then the public functions, methods,
static methods and properties of each module are wrapped, and every
`from .x import y` alias that another module holds is rebound to the
wrapper.  A wrapper opens a span only when the call enters its layer from
another one; calls inside a layer run unwrapped, or pass straight through
when they go through a wrapped method, so the per-call cost stays small.
The functions in COUNTED and TIMED are wrapped in their home module too,
so calls from inside their layer reach the wrapper; those in COUNTED are
counted on every call.

The command line output goes to stdout and the exit code is the command's.
Spans are kept in memory and written to OUT with `marshal` when the command
ends: a dict with

    spans   list of (name, start, end, parent index or None)
    counts  {metric name: count}
    cache   {cached function: [hits, misses]}
    wall    seconds from the first import to the end of the command

Span names are `<layer>.<function>`, `<layer>.<Class>.<method>` or
`<layer>.<import>`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import marshal
import sys
import time
import traceback
import types

# Import order: every module comes after the modules it imports.
LAYERS = (
    "linalg", "liealg", "affroots", "envelope", "vacuum",
    "classify", "twzhu", "checks", "cli",
)

# Wrapped name -> metric prefix.  These are counted on every call, from
# inside their layer too.
COUNTED = {
    "affroots.ip": "affroots.ip",
    "affroots.check_admissible": "affroots.check_admissible",
    "envelope.PBWAlgebra.normal_form": "envelope.normal_form",
    "envelope.PBWAlgebra.mul": "envelope.mul",
    "envelope.PBWAlgebra.ad": "envelope.ad",
    "linalg.SpanSolver.add": "linalg.span_add",
    "vacuum.mode_action": "vacuum.mode_action",
    "vacuum.singular_vector": "vacuum.singular_vector",
    "twzhu.projection_context": "twzhu.projection_context",
    "twzhu.lowered_polynomials": "twzhu.lowered_polynomials",
}
# Counted functions whose calls that return True are counted too.
COUNTED_TRUE = {"linalg.SpanSolver.add": "linalg.span_add.new"}

# Functions whose inclusive time is reported (not as a metric: each is 0 by
# design on one workload).  They always open a span, so their time is found
# even when they are called from inside their layer.
TIMED = ("affroots.check_admissible", "twzhu.r0_basis")

# Methods left unwrapped: each is called tens or hundreds of thousands of
# times per command, only from inside its own layer, so a wrapper would
# cost time and show nothing.
UNWRAPPED = (
    "affroots.AffineWeight.rank",
    "affroots.AffineWeight.scale",
    "affroots.RealRootFamily.delta_coefficient",
    "affroots.RealRootFamily.root_at",
    "envelope.PBWAlgebra.bracket_coords",
    "vacuum.ModeBasis.bracket_coords",
    "vacuum.ModeBasis.gram",
)


class Tracer:
    """Spans and counts of one command, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.layers: list[str] = [""]
        self.parents: list[int | None] = [None]
        self.counts: dict[str, int] = {}

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        """A span opened by the tracer itself."""
        record = [name, 0.0, 0.0, self.parents[-1]]
        self.parents.append(len(self.spans))
        self.spans.append(record)
        self.layers.append(layer)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self.layers.pop()
            self.parents.pop()

    def wrap(self, fn, layer: str, name: str):
        spans, layers, parents, counts = self.spans, self.layers, self.parents, self.counts
        clock = time.perf_counter
        counted = COUNTED.get(name)
        calls_key = counted and counted + ".calls"
        always = name in TIMED
        if counted:
            counts[calls_key] = 0
        true_key = COUNTED_TRUE.get(name)
        if true_key:
            counts[true_key] = 0
            inner = fn

            def fn(*args, **kwargs):
                result = inner(*args, **kwargs)
                if result is True:
                    counts[true_key] += 1
                return result

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counted:
                counts[calls_key] += 1
            if layers[-1] == layer and not always:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, parents[-1]]
            parents.append(len(spans))
            spans.append(span)
            layers.append(layer)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                layers.pop()
                parents.pop()

        return wrapper


def _is_function(obj, module_name: str) -> bool:
    plain = isinstance(obj, types.FunctionType)
    cached = hasattr(obj, "cache_info")
    return (plain or cached) and getattr(obj, "__module__", None) == module_name


def install(tracer: Tracer, modules: dict) -> dict:
    """Wrap every layer's public callables; return the `lru_cache` functions
    by name."""
    wrappers: dict[int, object] = {}
    cached: dict[str, object] = {}
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{attr}"
            if _is_function(obj, mod.__name__):
                wrapper = tracer.wrap(obj, layer, name)
                wrappers[id(obj)] = (wrapper, mod)
                if hasattr(obj, "cache_info"):
                    cached[name] = obj
                if name in COUNTED or name in TIMED:
                    setattr(mod, attr, wrapper)
            elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                _wrap_class(tracer, obj, layer, name)
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            wrapper, home = wrappers.get(id(obj), (None, mod))
            if home is not mod:
                setattr(mod, attr, wrapper)
    return cached


def _wrap_class(tracer: Tracer, cls: type, layer: str, prefix: str) -> None:
    for attr, obj in list(vars(cls).items()):
        name = f"{prefix}.{attr}"
        if attr.startswith("_") or name in UNWRAPPED:
            continue
        if isinstance(obj, types.FunctionType):
            setattr(cls, attr, tracer.wrap(obj, layer, name))
        elif isinstance(obj, staticmethod):
            setattr(cls, attr, staticmethod(tracer.wrap(obj.__func__, layer, name)))
        elif isinstance(obj, property) and obj.fset is None and obj.fget is not None:
            setattr(cls, attr, property(tracer.wrap(obj.fget, layer, name)))


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    start = time.perf_counter()
    modules = {}
    for layer in LAYERS:
        with tracer.span(f"{layer}.<import>", layer):
            modules[layer] = importlib.import_module(f"a2l2.{layer}")
    cached = install(tracer, modules)
    code = 0
    with tracer.span("cli.main", "cli"):
        try:
            modules["cli"].main(args=cli_args, prog_name="a2l2")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:
            traceback.print_exc()
            code = 1
    wall = time.perf_counter() - start
    sys.stdout.flush()
    cache = {}
    for name, fn in cached.items():
        info = fn.cache_info()
        cache[name] = [info.hits, info.misses]
    payload = {
        "spans": [tuple(s) for s in tracer.spans],
        "counts": tracer.counts,
        "cache": cache,
        "wall": wall,
    }
    with open(out_path, "wb") as handle:
        marshal.dump(payload, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
