"""REP005 fixture: JSON wire form and lock-guarded counters (clean)."""

import threading


class Pool:
    _locked_fields = ("_hits", "_idle")

    def __init__(self):
        self._lock = threading.Lock()
        self._hits = 0
        self._idle = {}

    def lease(self, key, payload):
        with self._lock:
            self._hits += 1
            self._idle[key] = payload
        return payload.to_dict()
