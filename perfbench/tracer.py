"""Spans around the public functions of the recourselab layers.

Installed only for the traced run.  Every public function of each layer
module, and every public method of the classes a layer defines, is replaced
by a wrapper that records one span: name, parent span, start and end.  Names a
module imported from another layer (explainers' `adam_step`, audit's
`accuracy`, ...) are replaced as well, so a call is traced whichever module it
goes through.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager

import numpy as np

LAYERS = ("model", "data", "explainers", "adversary", "audit", "cli")


def program_modules(rl) -> list:
    """The package and its layer modules: every place a name can be bound."""
    return [rl, *(getattr(rl, layer) for layer in LAYERS)]


# Spans whose first array argument is a batch: its row count is summed.
ROW_COUNTED = frozenset({"model.grad_input_full"})


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def everywhere(self, modules, original, replacement) -> None:
        """Replace every module attribute that is `original`."""
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if obj is original:
                    self.set(mod, attr, replacement)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.rows: dict[str, int] = {}
        self._stack = [-1]
        self._patches = Patches()

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(sid)

    def wrap(self, name: str, fn):
        nid = self._intern(name)
        open_, close = self._open, self._close
        if name in ROW_COUNTED:
            rows = self.rows
            rows.setdefault(name, 0)

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                rows[name] += len(args[1])
                sid = open_(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(sid)
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                sid = open_(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(sid)
        return traced

    def install(self, rl) -> None:
        """Wrap the public functions and methods of each layer module."""
        wrapped = {}
        for layer in LAYERS:
            mod = getattr(rl, layer)
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self.wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._patches.set(obj, meth, self.wrap(f"{layer}.{meth}", fn))
        modules = program_modules(rl)
        for original, replacement in wrapped.items():
            self._patches.everywhere(modules, original, replacement)

    def uninstall(self) -> None:
        self._patches.undo()

    # -- summaries -------------------------------------------------------------

    def arrays(self):
        name_id = np.asarray(self.name_id, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        start = np.asarray(self.start)
        end = np.asarray(self.end)
        return name_id, parent, start, end

    def durations(self, excluded: str) -> tuple[np.ndarray, np.ndarray]:
        """(duration, self time) per span, both net of `excluded` spans inside.

        A span's self time is its duration minus the durations of its direct
        children, which is the part of its interval no child covers.
        """
        name_id, parent, start, end = self.arrays()
        dur = end - start
        counted = parent >= 0
        if excluded in self._ids:
            for s in np.flatnonzero(name_id == self._ids[excluded]):
                counted[s] = False
                p = parent[s]
                while p >= 0:
                    dur[p] -= dur[s]
                    p = parent[p]
        child = np.zeros_like(dur)
        np.add.at(child, parent[counted], dur[counted])
        return dur, dur - child

    def summary(self, excluded: str) -> dict[str, dict]:
        """Per span name: calls, net seconds, self seconds and net durations."""
        name_id, parent, _, _ = self.arrays()
        dur, self_time = self.durations(excluded)
        parent_name = np.where(parent >= 0, name_id[np.maximum(parent, 0)], -1)
        out = {}
        for nid, name in enumerate(self.names):
            sel = name_id == nid
            if not sel.any():
                continue
            out[name] = {"calls": int(sel.sum()), "total_s": float(dur[sel].sum()),
                         "self_s": float(self_time[sel].sum()), "durations": dur[sel],
                         "parents": [self.names[p] if p >= 0 else None
                                     for p in parent_name[sel]]}
        return out

    def children_of(self, root_name: str, excluded: str) -> tuple[float, float]:
        """(last `root_name` span's net duration, summed net durations of its
        direct children other than `excluded`)."""
        name_id, parent, _, _ = self.arrays()
        dur, _ = self.durations(excluded)
        root = int(np.flatnonzero(name_id == self._ids[root_name])[-1])
        kids = parent == root
        if excluded in self._ids:
            kids &= name_id != self._ids[excluded]
        return float(dur[root]), float(dur[kids].sum())

    def save(self, path) -> None:
        name_id, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=name_id,
                            parent=parent, start=start, end=end)
