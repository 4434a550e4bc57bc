"""Run `zeenoise.cli.main` with a span recorded around every layer call.

    python3 trace_cli.py --spans FILE -- run --preset fig2 --out DIR

The program itself is not modified. The names that `zeenoise.runner`,
`zeenoise.cli` and `zeenoise.propagation` look up at call time are
replaced by timing wrappers for the duration of one CLI call and restored
afterwards. Spans stay in memory and are written to FILE, as one JSON
object, when the call returns. The process exits with the CLI's own code.

A span is [name, start_s, end_s, span_id, parent_id, thread_id, attrs].
A span opened in a worker thread whose own stack is empty takes as parent
the innermost span open on the thread that called the CLI: that thread
sits inside `compute_point` while the pool runs, so partition chunks nest
under the point that spawned them.
"""

import argparse
import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
import uuid
from contextlib import contextmanager

WRAPPED = {
    "zeenoise.runner": (
        "build_generator",
        "steady_state",
        "diffusion_matrix",
        "propagate",
        "optical_spectrum",
        "quadrature_noise",
        "qrt_spectrum",
        "mollow_spectrum",
        "compute_point",
        "write_point",
    ),
    "zeenoise.cli": ("run_scenario", "load_scenario", "validate_scenario"),
    "zeenoise.propagation": ("atomic_response",),
}


def _kernel_attrs(args, kwargs, result):
    liouvillian = kwargs.get("liouvillian", args[0] if args else None)
    return {"n2": int(liouvillian.drift.shape[0])}


def _propagate_attrs(args, kwargs, result):
    return {"grid_points": int(result.grid.size)}


def _write_attrs(args, kwargs, result):
    return {"bytes": sum(os.path.getsize(p) for p in result)}


# Counts taken where the work happens, so ratios have an exact base.
ATTRS = {
    "atomic_response": _kernel_attrs,
    "propagate": _propagate_attrs,
    "write_point": _write_attrs,
}


class Tracer:
    """In-memory span recorder for one CLI call."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_thread = threading.get_ident()
        self._root_stack = []
        self._originals = {}

    def _stack(self):
        if threading.get_ident() == self._root_thread:
            return self._root_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name, fn):
        attrs_of = ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                root = self._root_stack
                parent = root[-1] if root else None
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            attrs = attrs_of(args, kwargs, result) if attrs_of else {}
            self.spans.append(
                [name, start, end, span_id, parent, threading.get_ident(), attrs]
            )
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Swap the wrappers in; always put the originals back."""
        try:
            for module_name, names in WRAPPED.items():
                module = importlib.import_module(module_name)
                for name in names:
                    original = getattr(module, name)
                    self._originals[(module_name, name)] = original
                    setattr(module, name, self.wrap(name, original))
            yield self
        finally:
            for (module_name, name), original in self._originals.items():
                setattr(importlib.import_module(module_name), name, original)

    def restored(self):
        """True when every wrapped attribute is the original object again."""
        return all(
            getattr(importlib.import_module(module_name), name) is original
            for (module_name, name), original in self._originals.items()
        )


def traced_main(cli_args, spans_path):
    """Import the CLI, run it under the tracer, write spans; returns rc."""
    t0 = time.perf_counter()
    cli = importlib.import_module("zeenoise.cli")
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    t1 = time.perf_counter()
    with tracer.installed():
        rc = cli.main(cli_args)
    cli_s = time.perf_counter() - t1
    record = {
        "run_id": tracer.run_id,
        "pid": os.getpid(),
        "rc": rc,
        "import_s": import_s,
        "cli_s": cli_s,
        "restored": tracer.restored(),
        "spans": tracer.spans,
    }
    with open(spans_path, "w") as fh:
        json.dump(record, fh)
    return rc


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="span output file")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args
    if cli_args and cli_args[0] == "--":
        cli_args = cli_args[1:]
    return traced_main(cli_args, args.spans)


if __name__ == "__main__":
    sys.exit(main())
