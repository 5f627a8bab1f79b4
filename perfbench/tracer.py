"""In-process run of one CLI operation, with a span around every package call.

Run as ``python3 tracer.py JOB.json`` in a fresh interpreter, so that the
package's caches start cold exactly as in a CLI invocation.  The job names
the ``src`` directory to import ``treebalance`` from, the operation's id
and argv, a mode and the files to write.  Every mode runs the program's own
``treebalance.cli.main(argv)`` with stdout going to a file; the benchmark
never repeats a command's call sequence itself.  ``os.cpu_count`` reports 1,
so ``verify`` scores serially in this process.

* ``traced``: every package function that ``treebalance.cli`` imports is
  replaced, on the ``cli`` module, by a wrapper that records a span around
  it; so are the shape enumeration and the family builders that
  ``extremal`` imports, which ``verify`` reaches only through it.  The
  command itself is the ``cli.render`` span, whose self time is what the
  CLI does between package calls: argument parsing and rendering.
* ``plain``: the same call with nothing wrapped, to measure tracing
  overhead.
* ``aux``: measurements that must not sit inside the timed operation,
  made by other wrappers around the same calls: tracemalloc peaks,
  distinct internal nodes, and ``canonical()`` timed on a fresh parse of
  every parsed input.

Spans stay in memory as ``[id, parent, op_id, name, start, end]`` and are
written out with the counters when the operation ends.  The package source
is not touched.
"""

import contextlib
import functools
import inspect
import io
import json
import os
import sys
import time
import tracemalloc
import traceback

_clock = time.perf_counter

# Span name per wrapped function; a package function without an entry gets
# "<module>.<function>", which counts towards coverage but no layer metric.
SPAN_NAMES = {
    "parse_newick": "newick.parse",
    "write_newick": "newick.write",
    "canonical": "tree.canonical",
    "stairs2_direct": "stairs2.direct",
    "stairs2_recursive": "stairs2.recursive",
    "enumerate_shapes": "shapes.enumerate",
    "verify_extremal": "extremal.score",
    "max_value_recursive": "extremal.max_recursive",
    "max_value_closed": "extremal.max_closed",
    "max_value_even_recursion": "extremal.max_even",
    "echelon": "families.build",
    "caterpillar": "families.build",
    "fully_balanced": "families.build",
}
# Functions wrapped on ``extremal`` as well: reached through verify_extremal only.
EXTREMAL_WRAPPED = ("enumerate_shapes", "echelon", "caterpillar")
COMMAND_SPAN = "cli.render"
# Spans whose calls the aux mode measures; an operation without them needs no aux run.
AUX_SPANS = frozenset(("newick.parse", "stairs2.direct", "stairs2.recursive", "tree.canonical"))

# Counters that keep their largest value; every other counter adds up.
PEAKS = frozenset(("stairs2.den_bits", "stairs2.peak_mb", "tree.canonical_peak_mb"))


def merge_counters(into: dict, new: dict) -> None:
    for name, value in new.items():
        into[name] = max(into.get(name, 0), value) if name in PEAKS else into.get(name, 0) + value


class Tracer:
    """In-memory span recorder plus a dict of counters."""

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.spans: list = []
        self.counters: dict = {}
        self._open: list[int] = []
        self._next = 0

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def count(self, name: str, value: float) -> None:
        merge_counters(self.counters, {name: value})


class _Span:
    __slots__ = ("tracer", "name", "id", "parent", "start")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.id = tr._next
        tr._next += 1
        self.parent = tr._open[-1] if tr._open else None
        tr._open.append(self.id)
        self.start = _clock()
        return self

    def __exit__(self, *exc):
        end = _clock()
        tr = self.tracer
        tr._open.pop()
        tr.spans.append([self.id, self.parent, tr.op_id, self.name, self.start, end])
        return False


def self_times(spans: list) -> "dict[int, float]":
    """Span id -> its duration less the time covered by its children.

    Children of one span run one after another, so their durations add up
    to the part of the parent's interval they cover.
    """
    own = {s[0]: s[5] - s[4] for s in spans}
    for s in spans:
        if s[1] is not None:
            own[s[1]] -= s[5] - s[4]
    return own


def _internal_nodes(t) -> int:
    """Distinct internal nodes under ``t``, by identity."""
    seen = set()
    stack = [t]
    while stack:
        node = stack.pop()
        if node.left is None or id(node) in seen:
            continue
        seen.add(id(node))
        stack.append(node.left)
        stack.append(node.right)
    return len(seen)


def _peak_mb(fn):
    """(result of ``fn()``, peak traced memory in MB while it ran)."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _package_functions(module) -> "list[tuple[str, object]]":
    """Functions from other treebalance modules that ``module`` looks up by name."""
    return [
        (name, obj) for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__.startswith("treebalance.")
        and obj.__module__ != module.__name__
    ]


def _span_name(name: str, fn) -> str:
    return SPAN_NAMES.get(name) or f"{fn.__module__.rsplit('.', 1)[-1]}.{name}"


def _traced(tr: Tracer, name: str, fn):
    """``fn`` inside a span, with the counters its layer reports."""
    span = _span_name(name, fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tr.span(span):
            result = fn(*args, **kwargs)
            if inspect.isgenerator(result):
                # Drain a lazy producer inside its own span, so its work is not
                # billed to whoever iterates it.
                result = list(result)
        if span == "newick.parse":
            tr.count("newick.bytes_parsed", len(args[0].encode()))
        elif span == "newick.write":
            tr.count("newick.lines_written", 1)
        elif span == "shapes.enumerate":
            tr.count("shapes.enumerated", len(result))
            return iter(result)
        elif span.startswith("stairs2."):
            tr.count("stairs2.den_bits", result.denominator.bit_length())
        return result

    return wrapper


class _Aux:
    """Wrappers of the aux mode; each measures what sits in its layer."""

    def __init__(self, tr: Tracer):
        self.tr = tr
        self.sorting = False

    def wrap(self, name: str, fn):
        span = _span_name(name, fn)
        if span == "newick.parse":
            return functools.wraps(fn)(lambda text, *a, **k: self.parse(fn, text, *a, **k))
        if span.startswith("stairs2."):
            return functools.wraps(fn)(lambda t, *a, **k: self.stairs2(fn, t, *a, **k))
        if span == "tree.canonical":
            return functools.wraps(fn)(lambda t: self.canonical(fn, t))
        return fn

    def parse(self, fn, text, *args, **kwargs):
        # Codes are cached on the nodes, so each measurement gets a fresh parse.
        from treebalance.tree import canonical

        shape = fn(text, *args, **kwargs).shape
        with self.tr.span("tree.canonical"):
            canonical(shape)
        shape = fn(text, *args, **kwargs).shape
        self.tr.count("tree.canonical_peak_mb", _peak_mb(lambda: canonical(shape))[1])
        return fn(text, *args, **kwargs)

    def stairs2(self, fn, t, *args, **kwargs):
        self.tr.count("stairs2.internal_nodes", _internal_nodes(t))
        result, peak = _peak_mb(lambda: fn(t, *args, **kwargs))
        self.tr.count("stairs2.peak_mb", peak)
        return result

    def canonical(self, fn, t):
        # Called as a sort key: trace memory from the first call to the end
        # of the command, so the peak covers every key the sort holds.
        if not self.sorting:
            self.sorting = True
            tracemalloc.start()
        return fn(t)

    def finish(self) -> None:
        if self.sorting:
            self.tr.count("tree.canonical_peak_mb", tracemalloc.get_traced_memory()[1] / 2**20)
            tracemalloc.stop()


def instrument(mode: str, tr: Tracer):
    """Wrap the package functions for ``mode``; return the aux measurer or None."""
    import treebalance.cli as cli
    import treebalance.extremal as extremal

    os.cpu_count = lambda: 1
    if mode == "plain":
        return None
    aux = _Aux(tr) if mode == "aux" else None
    targets = [(cli, name, fn) for name, fn in _package_functions(cli)]
    targets += [(extremal, name, getattr(extremal, name))
                for name in EXTREMAL_WRAPPED if hasattr(extremal, name)]
    for module, name, fn in targets:
        setattr(module, name, aux.wrap(name, fn) if aux else _traced(tr, name, fn))
    return aux


def run_command(tr: Tracer, argv: "list[str]", sink) -> "tuple[int, str]":
    """``treebalance.cli.main(argv)`` with stdout to ``sink``; (exit code, stderr)."""
    import treebalance.cli as cli

    err = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
        try:
            with tr.span(COMMAND_SPAN):
                rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            # As the interpreter would print it before exiting 1.
            traceback.print_exc()
            rc = 1
    return rc, err.getvalue()


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    tr = Tracer(job["op_id"])
    sys.path.insert(0, job["src"])
    with tr.span("cli.import"):
        import treebalance.cli  # noqa: F401
    aux = instrument(job["mode"], tr)
    with open(job["sink"], "w", encoding="utf-8") as sink:
        start = _clock()
        rc, err = run_command(tr, job["argv"], sink)
        op_s = _clock() - start
    if aux:
        aux.finish()
    with open(job["out"], "w", encoding="utf-8") as fh:
        json.dump({"rc": rc, "stderr": err, "op_s": op_s, "spans": tr.spans,
                   "counters": tr.counters}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
