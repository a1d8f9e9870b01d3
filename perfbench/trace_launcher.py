"""Run one ``irrtypes`` CLI request with spans around every layer call.

Usage: ``python trace_launcher.py SPANS_FILE REQUEST_ID -- ARGV...``

The launcher imports ``irrtypes.cli``, wraps the public functions of
each ``irrtypes.*`` module at every module that binds them by name, then
calls ``irrtypes.cli.run(ARGV)`` exactly as ``python -m irrtypes.cli``
would.  Spans (name, start, end, parent, result size) stay in memory and
are written to SPANS_FILE at exit: one JSON header line, then the spans
as native 64-bit integers, five per span.  Nothing in the library is
changed on disk.
"""

from __future__ import annotations

import sys
import time

# Taken before any other import, so that cli.import_s pays for every
# module irrtypes needs, as an untraced process does.
IMPORT_START = time.perf_counter_ns()
import irrtypes.cli  # noqa: E402

IMPORT_END = time.perf_counter_ns()

import inspect  # noqa: E402
import json  # noqa: E402
from array import array  # noqa: E402

# Per-element helpers: a span per scalar or per root pairing would cost
# more than the work it measures, so their time lands in the caller.
UNTRACED = {
    "cli.main",
    "errors.exit_code_for",
    "irregular.root_pairing",
    "linalg.mat_copy",
    "linalg.sum_",
    "scalars.gauss",
    "scalars.rat_from_str",
    "scalars.rat_to_str",
    "serialization.scalar_from_json",
    "serialization.scalar_to_json",
}
PRIVATE_TRACED = {"cli._read_document", "cli._emit", "connections._qi_eigenvalues"}
TRACED_CLASSES = {"rootsystems.LeviFiltration"}
SIZED = {"rootsystems.enumerate_levi", "strata.enumerate_strata"}


def span_name(fn) -> str | None:
    """Span name of a library function, or None when it is not traced.

    All decoders of ``serialization`` share one name, all encoders another.
    """
    module = fn.__module__.rpartition(".")[2]
    qualified = f"{module}.{fn.__name__}"
    if fn.__name__.startswith("_"):
        return qualified if qualified in PRIVATE_TRACED else None
    if qualified in UNTRACED:
        return None
    if module == "serialization":
        for suffix in ("_from_json", "_to_json"):
            if fn.__name__.endswith(suffix):
                return "serialization" + suffix.replace("_", ".", 1)
    return qualified


class Tracer:
    def __init__(self) -> None:
        self.spans = array("q")
        self.stack = [-1]
        self.names: list[str] = []
        self.created = 0

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        nid, sized = self.name_id(name), name in SIZED

        def traced(*args, **kwargs):
            at = len(spans)
            spans.extend((nid, 0, 0, stack[-1], -1))
            stack.append(at)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[at + 2] = clock()
                spans[at + 1] = start
                stack.pop()
            if sized:
                spans[at + 4] = len(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function at every binding site."""
        modules = [m for n, m in sys.modules.items() if n == "irrtypes" or n.startswith("irrtypes.")]
        wrappers = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value.__module__.startswith("irrtypes"):
                    if id(value) not in wrappers:
                        name = span_name(value)
                        wrappers[id(value)] = self.wrap(value, name) if name else value
                    setattr(module, attr, wrappers[id(value)])
        for qualified in TRACED_CLASSES:
            module, _, cls_name = qualified.partition(".")
            cls = getattr(sys.modules[f"irrtypes.{module}"], cls_name)
            cls.__init__ = self.wrap(cls.__init__, qualified)
        scalars = sys.modules["irrtypes.scalars"]
        post_init = scalars.GaussianRational.__post_init__

        def counted(obj):
            self.created += 1
            post_init(obj)

        scalars.GaussianRational.__post_init__ = counted


def main() -> int:
    spans_file, request_id = sys.argv[1], sys.argv[2]
    argv = sys.argv[sys.argv.index("--") + 1:]
    t1 = time.perf_counter_ns()
    tracer = Tracer()
    tracer.install()
    t2 = time.perf_counter_ns()
    try:
        code = irrtypes.cli.run(argv)
    finally:
        sys.stdout.flush()
        header = {
            "request": request_id,
            "names": tracer.names,
            "import_ns": IMPORT_END - IMPORT_START,
            "instrument_ns": t2 - t1,
            "created": tracer.created,
            "sympy_loaded": "sympy" in sys.modules,
        }
        with open(spans_file, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            tracer.spans.tofile(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
