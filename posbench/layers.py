"""Layer timing for the traced run, recorded from the benchmark's side.

:class:`LayerTimer` wraps public functions of the positioning stack
(``VenueShard.locate``, ``MapCompletion.complete``,
``WKNNEstimator.predict``, ``SpatialIndex.query``,
``PositioningService.try_cached``, …) for the duration of a traced
phase and keeps one span per call in memory under its layer name:
start, end and the number of rows the call carried.  Nothing in the
program changes; :meth:`LayerTimer.restore` puts every original back.

A wrapper can be limited to calls made from threads with a given name
(the pipeline's flusher is ``"serving-pipeline"``), so the same method
called from a delta apply or from a correctness check is not counted
as serving work.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: One recorded call: (start, end, rows).
Span = Tuple[float, float, int]


def _rows_of(value: Any) -> int:
    shape = getattr(value, "shape", None)
    if shape is None or len(shape) == 0:
        return 1
    return int(shape[0]) if len(shape) > 1 else 1


class LayerTimer:
    """Wraps callables, records spans per layer name, restores them."""

    def __init__(self) -> None:
        self.spans: Dict[str, List[Span]] = defaultdict(list)
        self.partial_rows = 0
        self.completed_rows = 0
        self._patches: List[Tuple[object, str, object]] = []

    def patch(
        self,
        owner: object,
        attr: str,
        layer: str,
        *,
        rows_arg: int = 0,
        thread: Optional[str] = None,
        on_call: Optional[Callable[[tuple], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a timed wrapper.

        ``owner`` may be a class (every instance is timed) or an
        instance.  ``rows_arg`` names the positional argument whose
        leading dimension is the call's row count.  The original
        descriptor is restored by :meth:`restore`.
        """
        on_class = isinstance(owner, type)
        if on_class:
            # The descriptor as defined, possibly on a base class.
            defining = next(c for c in owner.__mro__ if attr in c.__dict__)
            original = defining.__dict__[attr]
        else:
            original = getattr(owner, attr)
        is_static = isinstance(original, staticmethod)
        is_class = isinstance(original, classmethod)
        func = original.__func__ if is_static or is_class else original
        spans = self.spans[layer]
        # Functions patched on a class receive ``self``/``cls`` first.
        offset = 1 if on_class and not is_static else 0

        @functools.wraps(func)
        def timed(*args, **kwargs):
            if (
                thread is not None
                and threading.current_thread().name != thread
            ):
                return func(*args, **kwargs)
            t0 = time.perf_counter()
            out = func(*args, **kwargs)
            t1 = time.perf_counter()
            rows = 1
            if len(args) > rows_arg + offset:
                rows = _rows_of(args[rows_arg + offset])
            spans.append((t0, t1, rows))
            if on_call is not None:
                on_call(args[offset:])
            return out

        if is_class:
            replacement: object = classmethod(timed)
        elif is_static:
            replacement = staticmethod(timed)
        else:
            replacement = timed
        # Restore target: the class's own descriptor, or nothing when
        # the attribute was inherited or lives on the class of an
        # instance (deleting the shadow uncovers it again).
        own = owner.__dict__.get(attr) if on_class else None
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, own))

    def note_completion_input(self, args: tuple) -> None:
        """``on_call`` hook: count partially observed rows."""
        observed = np.isfinite(np.asarray(args[0], dtype=float))
        partial = observed.any(axis=1) & ~observed.all(axis=1)
        self.partial_rows += int(partial.sum())
        self.completed_rows += int(observed.shape[0])

    def restore(self) -> None:
        for owner, attr, own in reversed(self._patches):
            if own is not None:
                setattr(owner, attr, own)
            elif isinstance(owner, type):
                delattr(owner, attr)
            else:
                owner.__dict__.pop(attr, None)
        self._patches.clear()

    # -- summaries ------------------------------------------------------
    def durations(self, layer: str) -> np.ndarray:
        spans = self.spans.get(layer, [])
        return np.asarray([t1 - t0 for t0, t1, _ in spans], dtype=float)

    def rows(self, layer: str) -> np.ndarray:
        spans = self.spans.get(layer, [])
        return np.asarray([r for _, _, r in spans], dtype=float)

    def total_s(self, layer: str) -> float:
        return float(self.durations(layer).sum())

    def us_per_row(self, layer: str) -> float:
        rows = self.rows(layer).sum()
        return 1e6 * self.total_s(layer) / rows if rows else 0.0

    def median_ms(self, layer: str) -> float:
        d = self.durations(layer)
        return 1e3 * float(np.median(d)) if d.size else 0.0

    def mean_rows(self, layer: str) -> float:
        r = self.rows(layer)
        return float(r.mean()) if r.size else 0.0
