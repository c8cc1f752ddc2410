"""Events and event handles for the discrete event engine.

An event is a callback bound to a simulated timestamp.  Events at equal
timestamps execute in scheduling order (a monotonically increasing
sequence number breaks ties), which gives deterministic runs for a fixed
seed — essential for reproducible experiments.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .event_queue import EventQueue


class Event:
    """A scheduled callback.  Ordered by ``(time, seq)``.

    A plain ``__slots__`` class rather than a dataclass: millions of
    events are allocated per experiment sweep, and the heap itself
    orders ``(time, seq, event)`` tuples so comparisons never reach
    Python-level ``__lt__`` on the hot path.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "in_queue")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., None],
        args: Tuple[Any, ...] = (),
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: maintained by :class:`EventQueue` for its O(1) live count.
        self.in_queue = False

    def fire(self) -> None:
        """Invoke the callback unless the event was cancelled."""
        if not self.cancelled:
            self.callback(*self.args)

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return (self.time, self.seq) == (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = " cancelled" if self.cancelled else ""
        return f"Event(time={self.time}, seq={self.seq}{flag})"


class EventHandle:
    """A caller-facing handle that allows cancelling a pending event."""

    __slots__ = ("_event", "_queue")

    def __init__(self, event: Event, queue: "EventQueue" = None) -> None:
        self._event = event
        self._queue = queue

    @property
    def time(self) -> float:
        """The simulated time at which the event will fire."""
        return self._event.time

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called."""
        return self._event.cancelled

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        event = self._event
        if not event.cancelled:
            event.cancelled = True
            if self._queue is not None and event.in_queue:
                self._queue._note_cancelled()
