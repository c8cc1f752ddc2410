"""A binary-heap future event list.

The queue is the heart of the discrete event simulator: events pop in
``(time, seq)`` order, cancelled events are dropped lazily on pop (the
standard heapq idiom — cancellation is O(1), cleanup amortised).

Two hot-path refinements over the textbook version:

* heap entries are ``(time, seq, event)`` tuples, so ordering is
  resolved by C-level tuple comparison instead of a Python ``__lt__``
  (the comparator is the single most-called function in a sweep);
* a live-event counter is maintained on push/pop/cancel, making
  ``len(queue)`` and ``empty`` O(1) instead of an O(n) scan.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from ..errors import SimulationError
from .event import Event, EventHandle


class EventQueue:
    """A future event list ordered by ``(time, sequence)``."""

    __slots__ = ("_heap", "_seq", "_live")

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = 0
        self._live = 0

    def __len__(self) -> int:
        return self._live

    @property
    def empty(self) -> bool:
        """Whether no live (non-cancelled) events remain."""
        return self._live == 0

    def push(
        self,
        time: float,
        callback: Callable[..., None],
        args: Tuple[Any, ...] = (),
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at simulated ``time``."""
        if time < 0:
            raise SimulationError(f"cannot schedule an event at negative time {time}")
        event = Event(time=time, seq=self._seq, callback=callback, args=args)
        event.in_queue = True
        heapq.heappush(self._heap, (time, self._seq, event))
        self._seq += 1
        self._live += 1
        return EventHandle(event, self)

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next live event, or ``None`` when empty."""
        self._drop_cancelled_head()
        return self._heap[0][0] if self._heap else None

    def pop(self) -> Event:
        """Remove and return the next live event."""
        self._drop_cancelled_head()
        if not self._heap:
            raise SimulationError("pop from an empty event queue")
        event = heapq.heappop(self._heap)[2]
        event.in_queue = False
        self._live -= 1
        return event

    def clear(self) -> None:
        """Drop every pending event."""
        for _, _, event in self._heap:
            event.in_queue = False
        self._heap.clear()
        self._live = 0

    def _note_cancelled(self) -> None:
        """Called by :class:`EventHandle` when a queued event is cancelled."""
        self._live -= 1

    def _drop_cancelled_head(self) -> None:
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)[2].in_queue = False
