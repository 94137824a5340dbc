"""Layer tracing from outside the program.

``Tracer.install`` wraps every public function of each gexlab layer module
and re-points every module attribute that holds one of those functions,
so names that callers re-bind with ``from .x import f`` (for instance
``fuzz.upper_expectation`` or ``experiments.sum_expectation``) are traced
too.  Spans (name, start, end, parent, operation) stay in memory in flat
arrays and are written once, at the end of a run.  A layer's self time is
its span time minus the time of its child spans.

The ``_kernels`` module is reported as layer ``kernels``, because metric
names must start with a letter.
"""

from __future__ import annotations

import functools
import importlib
import re
import sys
import types
from array import array
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "serialize", "experiments", "fuzz", "ambiguity", "phis", "pengsum", "gheat", "_kernels")


# Counters recorded where the work happens, keyed by span name.  Each hook
# sees the call's positional arguments and its result.
def _dp_step_hook(tr, args, out):
    values, law_ptr, law_k = args[0], args[1], args[2]
    n_out = len(out)
    c = tr.counters
    c["kernels.dp_step.points"] += n_out
    c["kernels.dp_step.atom_updates"] += n_out * len(law_k)
    c["kernels.dp_step.law_maxes"] += n_out * (len(law_ptr) - 1)
    # compulsory traffic: read the input sweep once, write the output once
    c["kernels.dp_step.bytes_computed"] += 8 * (len(values) + n_out)


def _gheat_march_hook(tr, args, out):
    u, n_steps = args[0], int(args[3])
    c = tr.counters
    c["kernels.gheat_march.node_steps"] += (len(u) - 2) * n_steps
    # compulsory traffic per step: read u once, write u once
    c["kernels.gheat_march.bytes_computed"] += 16 * len(u) * n_steps


def _solve_g_heat_hook(tr, args, out):
    params, grid = args[0], args[2]
    c = tr.counters
    c["gheat.solves"] += 1
    c["gheat.steps"] += out.steps_taken
    c["gheat.nodes"] += grid.n_cells + 1
    cfl = params.sigma_hi**2 * grid.dt / grid.dx**2
    c["gheat.cfl_ratio"] = max(c["gheat.cfl_ratio"], cfl)


def _oracle_hook(tr, args, out):
    count = tr.originals["pengsum.count_adapted_strategies"](args[0], args[1])
    tr.counters["pengsum.oracle.strategies"] += count


def _serialize_hook(tr, args, out):
    tr.counters["serialize.bytes"] += len(out.encode("utf-8"))


HOOKS = {
    "kernels.dp_step": _dp_step_hook,
    "kernels.gheat_march": _gheat_march_hook,
    "gheat.solve_g_heat": _solve_g_heat_hook,
    "pengsum.brute_force_adapted_oracle_many": _oracle_hook,
    "serialize.dumps_json": _serialize_hook,
    "serialize.dumps_csv": _serialize_hook,
}


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_col = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self.counters: dict[str, float] = defaultdict(float)
        self.originals: dict[str, types.FunctionType] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def add_span(self, name: str, t0: float, t1: float, parent: int = -1) -> int:
        idx = len(self.start)
        self.name_col.append(self._name_id(name))
        self.start.append(t0)
        self.end.append(t1)
        self.parent.append(parent)
        self.op.append(self.op_id)
        return idx

    def _wrap(self, name: str, fn):
        tr = self
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tr.add_span(name, 0.0, 0.0, tr._stack[-1] if tr._stack else -1)
            tr._stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tr._stack.pop()
                tr.start[idx] = t0
                tr.end[idx] = t1
            if hook is not None:
                hook(tr, args, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer module of gexlab."""
        wrappers = {}
        for module_layer in LAYERS:
            mod = importlib.import_module(f"gexlab.{module_layer}")
            aliases: dict[int, tuple[types.FunctionType, list[str]]] = {}
            for attr, val in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and isinstance(val, types.FunctionType)
                    and val.__module__ == mod.__name__
                ):
                    aliases.setdefault(id(val), (val, []))[1].append(attr)
            for fn, attrs in aliases.values():
                # backend aliases (dp_step = dp_step_numpy) report under the short name
                name = f"{module_layer.lstrip('_')}.{min(attrs, key=len)}"
                self.originals[name] = fn
                wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "gexlab" or mod_name.startswith("gexlab.")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, val))

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()

    def to_json(self) -> dict:
        return {
            "names": self.names,
            "name": self.name_col.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "counters": dict(self.counters),
        }

    def merge(self, data: dict) -> None:
        """Append spans written by a traced child process, under this op."""
        offset = len(self.start)
        ids = [self._name_id(n) for n in data["names"]]
        for nid, t0, t1, par in zip(data["name"], data["start"], data["end"], data["parent"]):
            self.name_col.append(ids[nid])
            self.start.append(t0)
            self.end.append(t1)
            self.parent.append(par + offset if par >= 0 else -1)
            self.op.append(self.op_id)
        for key, val in data["counters"].items():
            if key == "gheat.cfl_ratio":
                self.counters[key] = max(self.counters[key], val)
            else:
                self.counters[key] += val

    def save(self, path: str) -> None:
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_col, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
        )

    def aggregate(self) -> dict[str, float]:
        """Per-function ``calls``/``s``/``self_s``, per-layer self time, counters."""
        import numpy as np

        out: dict[str, float] = dict(self.counters)
        if not self.start:
            return out
        name = np.frombuffer(self.name_col, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=self_time, minlength=k)
        layers: dict[str, float] = defaultdict(float)
        for i, n in enumerate(self.names):
            out[f"{n}.calls"] = int(calls[i])
            out[f"{n}.s"] = float(total[i])
            out[f"{n}.self_s"] = float(own[i])
            layers[n.split(".", 1)[0]] += float(own[i])
        for layer, s in layers.items():
            out[f"layer.{layer}.self_s"] = s
        out["trace.self_s_total"] = float(self_time.sum())
        out["trace.spans"] = int(len(dur))
        return out


_IMPORTTIME = re.compile(r"^import time:\s*(\d+)\s*\|\s*(\d+)\s*\|( *)(\S+)\s*$")


def parse_importtime(stderr: str) -> list[tuple[int, str, float, float]]:
    """``python -X importtime`` lines as (depth, module, self_s, cumulative_s)."""
    rows = []
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            depth = (len(m.group(3)) - 1) // 2
            rows.append((depth, m.group(4), int(m.group(1)) * 1e-6, int(m.group(2)) * 1e-6))
    return rows


def rooted_import_s(rows, package: str) -> float:
    """Cumulative import time of the outermost modules of ``package``,
    so modules that package pulls in count towards it."""

    def owned(mod: str) -> bool:
        return mod == package or mod.startswith(package + ".")

    # importtime prints children before their parent; walk it backwards so
    # every module is seen after its ancestors
    total = 0.0
    stack: list[tuple[int, bool]] = []
    for depth, mod, _self_s, cum_s in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = any(flag for _, flag in stack)
        if owned(mod) and not inside:
            total += cum_s
        stack.append((depth, owned(mod)))
    return total
