"""Weak back-references from a component to the object that owns it.

Components are wired with callbacks into their owners: a cluster node
answers through its cluster, a batcher reports to its server.  Holding such
a callback strongly makes owner and component a reference cycle, so a
finished run's objects, whole Systems with their caches and memory images
among them, stay allocated until the cyclic garbage collector happens to
run instead of being freed by reference counting when the last outside
reference goes.  An owner outlives the components it holds, so the way
back can be weak.
"""

from __future__ import annotations

import weakref
from typing import Any, Callable


def weak_method(method: Callable[..., Any]) -> Callable[..., Any]:
    """A callable for the bound ``method`` that does not keep its object alive."""
    ref = weakref.WeakMethod(method)

    def call(*args: Any, **kwargs: Any) -> Any:
        return ref()(*args, **kwargs)

    return call
