"""In-memory span recorder that wraps the program's public entry points.

A span is one call of a wrapped function: its name, start, end, the span that
was open when it began (its parent) and the slot being simulated (the id that
every span of one market clearing shares).  Spans are appended to flat arrays
while the program runs and only analysed or written out afterwards.

Each wrapper also measures its own bookkeeping (the time spent outside the
wrapped call), so that per-layer self times plus that overhead add up to the
time of the root span exactly.
"""
from __future__ import annotations

import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable

import numpy as np

NO_SLOT = -1


class Recorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.slot = array("i")
        self.start = array("d")
        self.end = array("d")
        self.wrap = array("d")
        self.counts: Counter[str] = Counter()
        self._stack = [-1]
        self._slot = NO_SLOT
        self._patches: list[tuple[object, str, object]] = []

    def wrap_call(
        self,
        name: str,
        fn: Callable,
        before: Callable | None = None,
        after: Callable | None = None,
        slot_of: Callable | None = None,
    ) -> Callable:
        """Return ``fn`` recording one span per call.

        ``before(args)`` and ``after(args, result)`` update counters,
        ``slot_of(args)`` names the slot for this span and its descendants.
        Their cost is booked as wrapper overhead, not to the wrapped call.
        """
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        clock = time.perf_counter
        names, parents, slots = self.name, self.parent, self.slot
        starts, ends, wraps, stack = self.start, self.end, self.wrap, self._stack

        def traced(*args, **kwargs):
            t_in = clock()
            idx = len(starts)
            if slot_of is not None:
                self._slot = slot_of(args)
            names.append(nid)
            parents.append(stack[-1])
            slots.append(self._slot)
            starts.append(0.0)
            ends.append(0.0)
            wraps.append(0.0)
            stack.append(idx)
            if before is not None:
                before(args)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = clock()
                self.counts[f"{name}:{type(exc).__name__}"] += 1
                raise
            else:
                t1 = clock()
                if after is not None:
                    after(args, result)
                return result
            finally:
                stack.pop()
                if slot_of is not None:
                    self._slot = NO_SLOT
                starts[idx] = t0
                ends[idx] = t1
                wraps[idx] = (t0 - t_in) + (clock() - t1)

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner: object, attr: str, name: str, **hooks) -> None:
        """Replace ``owner.attr`` by a recording wrapper until :meth:`restore`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap_call(name, original, **hooks))

    def restore(self) -> None:
        """Put every patched attribute back and check that it is the original."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
            current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if current is not original:
                raise RuntimeError(f"could not restore {owner!r}.{attr}")

    def __enter__(self) -> "Recorder":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- analysis ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        wrap = np.frombuffer(self.wrap, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = end - start
        covered = np.zeros(len(duration))
        child = parent >= 0
        np.add.at(covered, parent[child], duration[child] + wrap[child])
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": parent,
            "duration": duration,
            "wrap": wrap,
            "self": duration - covered,
        }

    def durations(self, name: str) -> np.ndarray:
        """Durations of every span called ``name``, in call order."""
        if name not in self._name_ids:
            return np.zeros(0)
        a = self.arrays()
        return a["duration"][a["name"] == self._name_ids[name]]

    def write(self, path: Path) -> None:
        """Write all spans as CSV, times in microseconds from the first span."""
        t_zero = self.start[0] if len(self.start) else 0.0
        lines = ["span,name,slot,parent,start_us,end_us,wrapper_us"]
        for i in range(len(self.start)):
            lines.append(
                f"{i},{self.names[self.name[i]]},{self.slot[i]},{self.parent[i]},"
                f"{(self.start[i] - t_zero) * 1e6:.3f},{(self.end[i] - t_zero) * 1e6:.3f},"
                f"{self.wrap[i] * 1e6:.3f}"
            )
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
