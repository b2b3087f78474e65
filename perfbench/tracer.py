"""In-memory span tracer for the gpbandit layers.

`Tracer.install` wraps every public function of the layer modules, and every
public method (plus `__call__`) of the classes they define, with a timer.
Each call records one span: function id, parent span, start, end, and a work
size for the functions whose work the benchmark counts (points or pairs).

Wrapping only the defining module is not enough: `gp` and `testbed` bind
`cross_matrix`, `optimizers` binds `ei_scores`, `ucb_score` and `split_pass`,
and `bench` binds `run`, each through `from ... import`.  After wrapping, every
module-level name in the package that is bound to a wrapped function is
rebound to its wrapper, so calls are timed where they are made.

Spans live in flat arrays until the run ends; `spans()` hands them out as
numpy arrays and `save` writes them to one `.npz` file.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

PACKAGE = "gpbandit"
LAYERS = ("kernels", "gp", "acquisition", "optimizers", "partition", "testbed", "bench")


def _rows(x) -> int:
    shape = np.shape(x)
    return 1 if len(shape) < 2 else shape[0]


# work recorded per call, keyed by span name
WORK = {
    "kernels.cross_matrix": lambda spec, xs, ys: _rows(xs) * _rows(ys),
    "gp.GpModel.posterior_many": lambda self, xs: _rows(xs),
    "acquisition.ei_scores": lambda means, *rest: int(np.size(means)),
    "acquisition.ucb_score": lambda mean, *rest: int(np.size(mean)),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._func = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._work = array("q")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Drop recorded spans; names and installed wrappers stay."""
        for arr in (self._func, self._parent, self._start, self._end, self._work):
            del arr[:]
        self._stack[:] = [-1]

    def wrap(self, name: str, fn):
        """Return `fn` wrapped so each call records a span called `name`."""
        fid = len(self.names)
        self.names.append(name)
        work = WORK.get(name)
        func, parent, start, end, work_arr = (
            self._func, self._parent, self._start, self._end, self._work)
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(func)
            func.append(fid)
            parent.append(stack[-1])
            work_arr.append(work(*args, **kwargs) if work else 0)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the layers of the package and rebind every import of them."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
                    self._patch(mod, attr, wrappers[obj])
                elif inspect.isclass(obj):
                    self._wrap_class(f"{layer}.{attr}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])

    def _wrap_class(self, prefix: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__call__":
                continue
            name = f"{prefix}.{attr}"
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self.wrap(name, raw.__func__)))
            elif isinstance(raw, staticmethod):
                self._patch(cls, attr, staticmethod(self.wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self.wrap(name, raw))

    def uninstall(self) -> None:
        """Restore every patched attribute, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "func": np.frombuffer(self._func, dtype=np.int32).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
            "work": np.frombuffer(self._work, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.spans())


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Span duration minus the durations of its direct children.

    Children of one span run one after another inside it, so the sum of
    their durations is the part of the parent's interval they cover.
    """
    dur = end - start
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    return dur - child


def summarize(names: list[str], spans: dict[str, np.ndarray]) -> dict[str, dict]:
    """Per span name: calls, work, self and inclusive seconds.

    Also one entry per layer (the name before the first dot) holding the
    layer's summed self time under "self_s"."""
    func, parent = spans["func"], spans["parent"]
    selfs = self_times(parent, spans["start"], spans["end"])
    incl = spans["end"] - spans["start"]
    n = len(names)
    calls = np.bincount(func, minlength=n)
    work = np.bincount(func, weights=spans["work"], minlength=n)
    self_s = np.bincount(func, weights=selfs, minlength=n)
    incl_s = np.bincount(func, weights=incl, minlength=n)
    out: dict[str, dict] = {}
    for i, name in enumerate(names):
        out[name] = {
            "calls": int(calls[i]),
            "work": int(work[i]),
            "self_s": float(self_s[i]),
            "incl_s": float(incl_s[i]),
        }
        layer = "layer:" + name.split(".", 1)[0]
        out.setdefault(layer, {"self_s": 0.0})["self_s"] += float(self_s[i])
    return out


def percentile(values, q: float) -> float:
    """q-th percentile, linear between closest ranks (numpy's default rule)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
