"""FIFO message channels (the ``ch`` variable of the paper's model).

§III-A: "Each process has a special channel variable, denoted by ch,
modelling a FIFO queue of incoming messages sent by other processes."
:class:`Channel` is that queue; the radio enqueues deliveries and the
owning process dequeues them in arrival order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Iterator

from ..errors import SimulationError
from ..topology import NodeId


@dataclass(frozen=True, slots=True)
class Delivery:
    """A message sitting in a channel: who sent it, what, and when."""

    sender: NodeId
    message: Any
    time: float


class Channel:
    """A FIFO queue of incoming :class:`Delivery` records."""

    __slots__ = ("_owner", "_queue")

    def __init__(self, owner: NodeId) -> None:
        self._owner = owner
        self._queue: Deque[Delivery] = deque()

    @property
    def owner(self) -> NodeId:
        """The node this channel belongs to."""
        return self._owner

    def __len__(self) -> int:
        return len(self._queue)

    def __bool__(self) -> bool:
        return bool(self._queue)

    def __iter__(self) -> Iterator[Delivery]:
        return iter(tuple(self._queue))

    def enqueue(self, delivery: Delivery) -> None:
        """Append a delivery at the tail (called by the radio)."""
        self._queue.append(delivery)

    def dequeue(self) -> Delivery:
        """Remove and return the head delivery (the ``rcv`` action)."""
        if not self._queue:
            raise SimulationError(f"dequeue from empty channel of node {self._owner}")
        return self._queue.popleft()

    def drain(self) -> Iterator[Delivery]:
        """Dequeue and yield every pending delivery in FIFO order."""
        while self._queue:
            yield self._queue.popleft()

    def clear(self) -> None:
        """Discard all pending deliveries."""
        self._queue.clear()
