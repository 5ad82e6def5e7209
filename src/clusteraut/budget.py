"""Term-count budgets for polynomial computations.

Every potentially explosive kernel operation checks two limits derived from a
single number, the maximum term count:

* no intermediate or final term map may hold more than ``max_terms`` terms;
* no single operation may perform more than ``max_terms * WORK_FACTOR``
  elementary term combinations.

The second limit makes the kernels bail out early on products whose cost is
huge even when the result would be small.  Budgets are therefore conservative:
exceeding one raises BudgetExceeded, which signals resource exhaustion and
never a mathematical verdict.
"""
from __future__ import annotations

import contextvars
from contextlib import contextmanager
from functools import lru_cache, wraps

DEFAULT_MAX_TERMS = 1_000_000

#: elementary combinations allowed per operation, as a multiple of max_terms
WORK_FACTOR = 32

_max_terms: contextvars.ContextVar[int] = contextvars.ContextVar(
    "clusteraut_max_terms", default=DEFAULT_MAX_TERMS
)


def current_max_terms() -> int:
    """Return the term budget in effect for the calling context."""
    return _max_terms.get()


@contextmanager
def limit(max_terms: int):
    """Run a block under a tighter (or looser) term budget.

    >>> with limit(1000):
    ...     p = q * r   # raises BudgetExceeded if it gets too big
    """
    if max_terms < 1:
        raise ValueError("max_terms must be positive")
    token = _max_terms.set(max_terms)
    try:
        yield
    finally:
        _max_terms.reset(token)


def cache_per_budget(maxsize: int):
    """``lru_cache(maxsize)`` keyed by the arguments and the term budget in
    effect, for answers that a smaller budget can refuse: a call refused
    cold is refused warm too.  Keeps ``cache_info`` and ``cache_clear``."""

    def decorate(fn):
        cached = lru_cache(maxsize=maxsize)(lambda _, *args, **kw: fn(*args, **kw))

        @wraps(fn)
        def call(*args, **kwargs):
            return cached(_max_terms.get(), *args, **kwargs)

        call.cache_info, call.cache_clear = cached.cache_info, cached.cache_clear
        return call

    return decorate
