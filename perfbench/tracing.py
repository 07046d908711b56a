"""Per-layer tracing of `minienv` from outside the package.

`Tracer.install` wraps the public functions of each layer module, and the
constructor and public methods of its plain classes, and puts each wrapper in
place of the original under every name a `minienv` module binds it to (the
CLI imports several functions by name).  Each call records a span: name,
parent span, start and end.  Spans stay in memory; the child process writes
them out when its run ends, and `summarize` turns them into per-layer counts,
inclusive times and self times.  `uninstall` puts every original back.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import inspect
import sys
import time

LAYERS = ("cli", "models", "master", "joint", "fock", "states", "validate")
PACKAGE = "minienv"
MARK = "__perfbench_span__"


def _span_name(layer: str, attr: str) -> str:
    if layer == "cli" and attr.startswith("cmd_"):
        return f"cli.{attr[4:]}"
    return f"{layer}.{attr}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []       # [name, parent index or -1, start, end]
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []  # (owner, attribute, original)

    def wrap(self, fn, name: str, hook=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                try:
                    hook(self, bound.arguments)
                except (KeyError, AttributeError):
                    pass  # a renamed argument leaves the counter at 0; the call still runs
            index = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index][3] = clock()
                stack.pop()

        setattr(wrapper, MARK, name)
        return wrapper

    def _patch(self, owner, attr: str, original, wrapper):
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self):
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        hooks = _hooks()
        wrappers: dict[int, tuple[object, object]] = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if layer == "validate" and attr.startswith("check_"):
                    continue  # timed under their registered names, below
                if inspect.isfunction(obj):
                    name = _span_name(layer, attr)
                    wrappers[id(obj)] = (obj, self.wrap(obj, name, hooks.get(name)))
                elif _is_plain_class(obj):
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (meth == "__init__" or not meth.startswith("_")):
                            name = f"{layer}.{attr if meth == '__init__' else meth}"
                            self._patch(obj, meth, fn, self.wrap(fn, name, hooks.get(name)))
            registry = getattr(mod, "_registry", None) if layer == "validate" else None
            if registry:
                # one span per registered check, named as `validate` prints it
                self._patch(mod, "_registry", registry, self._traced_registry(registry))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                pair = wrappers.get(id(obj))
                if pair and pair[0] is obj:
                    self._patch(mod, attr, obj, pair[1])

    def _traced_registry(self, registry):
        @functools.wraps(registry)
        def traced(*args, **kwargs):
            return [(name, self.wrap(fn, f"validate.{name}")) for name, fn in registry(*args, **kwargs)]

        setattr(traced, MARK, "validate._registry")
        return traced

    def uninstall(self) -> int:
        """Restore every original; return how many wrappers are still reachable."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        left = 0
        for key, mod in list(sys.modules.items()):
            if key == PACKAGE or key.startswith(PACKAGE + "."):
                for obj in vars(mod).values():
                    left += hasattr(obj, MARK)
                    if _is_plain_class(obj):
                        left += sum(hasattr(fn, MARK) for fn in vars(obj).values())
        return left

    def bump(self, key: str, value: float):
        self.counts[key] = self.counts.get(key, 0) + value

    def raise_to(self, key: str, value: float):
        self.counts[key] = max(self.counts.get(key, 0), value)


def _is_plain_class(obj) -> bool:
    return (inspect.isclass(obj) and not dataclasses.is_dataclass(obj)
            and not issubclass(obj, (enum.Enum, BaseException)))


def _hooks():
    """Work counters read from call arguments, outside the timed span."""
    from minienv import models

    kerr_kmax = getattr(models, "kerr_kmax", None)

    def kerr_terms(tracer, args):
        if kerr_kmax is None:
            return
        kmax = args.get("kmax")
        if kmax is None:
            kmax = kerr_kmax(args["p"].nbar, args["tail_tol"])
        size = getattr(args["t"], "size", 1)
        tracer.bump("models.kerr_terms", size * (kmax + 1))

    def master_work(tracer, args):
        tracer.bump("master.snapshots", len(args["times"]))
        tracer.raise_to("master.dim_max", args["cfg"].cutoff + 1)

    def joint_dim(tracer, args):
        tracer.raise_to("joint.dim_max", args["cfg"].joint_dim)

    return {
        "models.kerr_linear_entropy": kerr_terms,
        "master.evolve_master": master_work,
        "joint.AmplitudeEvolver": joint_dim,
        "joint.evolve_kerr_reduced": joint_dim,
        "joint.evolve_kerr_joint": joint_dim,
    }


def summarize(spans: list[list]) -> dict[str, float]:
    """Calls, inclusive seconds and self seconds per span name; self seconds per layer.

    A span's self time is its duration minus the durations of its direct
    children, which run one after another inside it.
    """
    child = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for (name, parent, start, end), inner in zip(spans, child):
        layer = name.split(".", 1)[0]
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + (end - start)
        out[f"{layer}.self_s"] += (end - start) - inner
    return out
