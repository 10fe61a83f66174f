"""In-memory spans around the calls between motzkinlab modules.

A traced pass swaps each cross-module reference for a wrapper that records a
span (function, parent span, start, end, failed) and swaps the originals back
afterwards.  References are patched where the caller looks them up:
``checks.classify_mod8`` (imported by name), ``cli.engines`` and
``density.bulk`` (imported as modules, replaced by a proxy whose functions
are wrapped), and the benchmark's own calls, which go through the same
proxies.  Calls inside one module stay unwrapped: they belong to that
module's self time anyway, and wrapping them would only add overhead.

Generators are traced per resumption, so a span around
``checks.iter_motzkin_exact`` covers the work of producing each value.

Untraced passes install nothing: they call the real modules directly.
"""

import inspect
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from types import FunctionType, ModuleType, SimpleNamespace

MODULES = ("engines", "classify", "checks", "bulk", "density", "cli")

_INT64_MAX = 2**63 - 1


def _meter_mod_stream(counts, args, kwargs):
    modulus = args[0] if args else kwargs["modulus"]
    count = args[1] if len(args) > 1 else kwargs["count"]
    counts["engines.terms"] += count
    # The same test motzkin_mod_stream uses to pick its convolution path.
    return "large_m" if (modulus - 1) ** 2 * (count + 1) > _INT64_MAX else "small_m"


def _meter_exact_stream(counts, args, kwargs):
    counts["engines.terms"] += args[0] if args else kwargs["count"]
    return "exact_stream"


def _meter_exact_term(counts, args, kwargs):
    counts["engines.terms"] += 1
    return "exact_stream"


def _meter_exact_sum(counts, args, kwargs):
    counts["engines.terms"] += 1
    return "exact_sum"


def _meter_cross_validate(counts, args, kwargs):
    # One modular stream and one exact stream of the same length.
    counts["engines.terms"] += 2 * (args[1] if len(args) > 1 else kwargs["count"])
    return "cross_validate"


def _meter_classify(counts, args, kwargs):
    n = args[0] if args else kwargs["n"]
    return "huge_n" if n > _INT64_MAX else "small_n"


def _meter_verify(counts, args, kwargs):
    counts["checks.indices_checked"] += args[1] if len(args) > 1 else kwargs["count"]
    return None


def _after_verify(counts, result):
    counts["checks.mismatches"] += result.mismatches


def _after_cli_main(counts, result):
    counts["cli.exit_nonzero"] += result != 0


def _meter_bulk(counts, args, kwargs):
    values = args[0] if args else kwargs["values"]
    counts["bulk.indices"] += len(values)
    return None


def _meter_empirical(counts, args, kwargs):
    counts["density.swept_indices"] += args[1] if len(args) > 1 else kwargs["horizon"]
    return None


def _meter_range(counts, args, kwargs):
    counts["density.swept_indices"] += args[2] - args[1]
    return None


def _meter_exact_count(counts, args, kwargs):
    return "exact_count"


# Per-function work counters and timing tags, read before the call.
METERS = {
    "engines.motzkin_mod_stream": _meter_mod_stream,
    "engines.motzkin_exact_stream": _meter_exact_stream,
    "engines.iter_motzkin_exact": _meter_exact_term,
    "engines.motzkin_exact": _meter_exact_sum,
    "engines.cross_validate_engines": _meter_cross_validate,
    "classify.classify_mod8": _meter_classify,
    "classify.classify_div5": _meter_classify,
    "classify.classify_mod3": _meter_classify,
    "checks.verify_classifiers": _meter_verify,
    "bulk.mod8_kind_codes": _meter_bulk,
    "bulk.mod3_values": _meter_bulk,
    "bulk.div5_form_codes": _meter_bulk,
    "bulk.t01_mask": _meter_bulk,
    "bulk.in_set_mask": _meter_bulk,
    "density.empirical_density": _meter_empirical,
    "density.count_class_in_range": _meter_range,
    "density.count_set_exact": _meter_exact_count,
    "density.count_t01_upto": _meter_exact_count,
}

# Per-function counters read from the result of a call that returned.
AFTER = {
    "checks.verify_classifiers": _after_verify,
    "cli.main": _after_cli_main,
}


class Tracer:
    """Spans kept in flat arrays, plus work counters, for one or more passes."""

    def __init__(self) -> None:
        self.names: "list[str]" = []      # span name id -> "module.function"
        self._name_ids: "dict[str, int]" = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.tag: "list[str | None]" = []
        self.counts: Counter = Counter()
        self._stack: "list[int]" = []
        self._wrappers: "dict[int, object]" = {}

    def _open(self, name_id: int, tag) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.failed.append(0)
        self.tag.append(tag)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn: FunctionType, module_name: str):
        """The traced stand-in for ``fn``; one per function per tracer."""
        wrapper = self._wrappers.get(id(fn))
        if wrapper is not None:
            return wrapper
        qualified = f"{module_name}.{fn.__name__}"
        name_id = self._name_ids.get(qualified)
        if name_id is None:
            name_id = self._name_ids[qualified] = len(self.names)
            self.names.append(qualified)
        meter = METERS.get(qualified)
        after = AFTER.get(qualified)
        counts = self.counts
        tracer = self

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                return _TracedGenerator(tracer, fn(*args, **kwargs), name_id,
                                        meter, args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                tag = meter(counts, args, kwargs) if meter else None
                index = tracer._open(name_id, tag)
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    tracer.failed[index] = 1
                    raise
                finally:
                    tracer._close(index)
                if after:
                    after(counts, result)
                return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        self._wrappers[id(fn)] = wrapper
        return wrapper


class _TracedGenerator:
    """Iterator that records one span per resumption of the wrapped generator."""

    def __init__(self, tracer, gen, name_id, meter, args, kwargs) -> None:
        self._tracer = tracer
        self._gen = gen
        self._name_id = name_id
        self._meter = meter
        self._args = args
        self._kwargs = kwargs

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        tag = self._meter(tracer.counts, self._args, self._kwargs) if self._meter else None
        index = tracer._open(self._name_id, tag)
        try:
            return next(self._gen)
        except StopIteration:
            raise
        except BaseException:
            tracer.failed[index] = 1
            raise
        finally:
            tracer._close(index)


class _ModuleProxy:
    """Stands in for a module: its own functions come back wrapped."""

    def __init__(self, module: ModuleType, short: str, tracer: Tracer) -> None:
        self._module = module
        self._short = short
        self._tracer = tracer

    def __getattr__(self, attr):
        value = getattr(self._module, attr)
        if isinstance(value, FunctionType) and value.__module__ == self._module.__name__:
            return self._tracer.wrap(value, self._short)
        return value


def plain_api(modules: "dict[str, ModuleType]") -> SimpleNamespace:
    """The namespace untraced passes call through: the real modules."""
    return SimpleNamespace(**modules)


def traced_api(modules: "dict[str, ModuleType]", tracer: Tracer) -> SimpleNamespace:
    """The namespace traced passes call through: one proxy per module."""
    return SimpleNamespace(**{short: _ModuleProxy(module, short, tracer)
                              for short, module in modules.items()})


@contextmanager
def patched(modules: "dict[str, ModuleType]", api: SimpleNamespace, tracer: Tracer):
    """Route every cross-module reference inside motzkinlab through ``tracer``."""
    by_name = {module.__name__: short for short, module in modules.items()}
    saved = []
    try:
        for short, module in modules.items():
            for attr, value in list(vars(module).items()):
                if isinstance(value, ModuleType):
                    target = by_name.get(value.__name__)
                    if target is None or target == short:
                        continue
                    replacement = getattr(api, target)
                elif isinstance(value, FunctionType):
                    target = by_name.get(value.__module__)
                    if target is None or target == short:
                        continue
                    replacement = tracer.wrap(value, target)
                else:
                    continue
                saved.append((module, attr, value))
                setattr(module, attr, replacement)
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


def summarize(tracer: Tracer) -> dict:
    """Per-module self time, calls and failures, and per-function totals.

    A span's self time is its duration minus the durations of its direct
    children; spans nest (one thread), so children never overlap.
    """
    count = len(tracer.start)
    child = [0.0] * count
    duration = [tracer.end[i] - tracer.start[i] for i in range(count)]
    top = 0.0
    for i, parent in enumerate(tracer.parent):
        if parent >= 0:
            child[parent] += duration[i]
        else:
            top += duration[i]
    modules = {short: {"calls": 0, "self_s": 0.0, "failed": 0} for short in MODULES}
    functions: "dict[str, dict]" = {}
    for i in range(count):
        qualified = tracer.names[tracer.name[i]]
        short = qualified.split(".", 1)[0]
        entry = modules[short]
        entry["calls"] += 1
        entry["self_s"] += duration[i] - child[i]
        entry["failed"] += tracer.failed[i]
        key = qualified if tracer.tag[i] is None else f"{qualified}[{tracer.tag[i]}]"
        fn = functions.setdefault(key, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0, "failed": 0})
        fn["calls"] += 1
        fn["total_s"] += duration[i]
        fn["self_s"] += duration[i] - child[i]
        fn["failed"] += tracer.failed[i]
    return {"modules": modules, "functions": functions, "covered_s": top,
            "counts": dict(tracer.counts)}
