"""A small bounded LRU mapping shared by the engine's hot-path caches.

Used by the statement cache, the LIKE-pattern regex cache, the compiled
expression cache, and the distributed plan cache. Eviction is one entry
at a time (least recently used first), so a full cache never causes the
latency cliff of a wholesale ``dict.clear()``.

An ``OrderedDict``: ``move_to_end`` makes an entry the most recently
used and ``popitem(last=False)`` evicts the least recently used, both in
constant time (a plain dict's ``next(iter(...))`` would walk every slot
earlier evictions left empty at its front).
"""

from __future__ import annotations

from collections import OrderedDict


class LRUCache:
    __slots__ = ("capacity", "_data")

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("LRU capacity must be positive")
        self.capacity = capacity
        self._data: OrderedDict = OrderedDict()

    def get(self, key, default=None):
        data = self._data
        try:
            data.move_to_end(key)
        except KeyError:
            return default
        return data[key]

    def put(self, key, value) -> None:
        data = self._data
        data[key] = value
        data.move_to_end(key)
        if len(data) > self.capacity:
            data.popitem(last=False)

    def delete(self, key) -> None:
        self._data.pop(key, None)

    def clear(self) -> None:
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key) -> bool:
        return key in self._data
