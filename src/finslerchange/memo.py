"""Per-instance memoisation of methods that take no arguments.  The jet
layers, keyed by their truncation order, are cached by ``core._layer``."""

from __future__ import annotations

import functools


def cached(method):
    """Cache ``method(self)`` in the instance's ``_cache`` dict, keyed by
    the method's name.  The instance creates ``self._cache = {}``; a call
    that raises caches nothing."""
    name = method.__name__

    @functools.wraps(method)
    def wrapper(self):
        try:
            return self._cache[name]
        except KeyError:
            pass
        value = self._cache[name] = method(self)
        return value
    return wrapper

