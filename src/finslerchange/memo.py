"""Per-instance memoisation of methods that take no arguments, and of
jet-valued methods keyed by their truncation order."""

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


def cached_to_order(method):
    """Cache ``method(self, order)`` in the instance's ``_cache`` dict,
    keyed by the method's name, with the order it was computed at.  A call
    at that order or below returns the cached result, which may carry
    more orders than asked for: a caller that combines it with other jets
    cuts it with ``Jet.truncated`` first.  A higher order recomputes and
    replaces it."""
    name = method.__name__

    @functools.wraps(method)
    def wrapper(self, order):
        got = self._cache.get(name)
        if got is None or got[0] < order:
            got = self._cache[name] = (order, method(self, order))
        return got[1]
    return wrapper
