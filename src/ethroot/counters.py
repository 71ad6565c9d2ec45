"""Per-call work counters, kept in the calling context, not in module globals.

A backend calls count("padic", "twists") where it does the work; eth_root
opens a record() around each call and returns what it collected. Records
nest: a count adds to every record open in the current context, so an outer
record sees the counts of the calls inside it. Outside any record a count
does nothing, and a new thread starts with no record open.
"""

from contextlib import contextmanager
from contextvars import ContextVar

_open: ContextVar[tuple] = ContextVar("ethroot_records", default=())


def count(group: str, key: str, n: int = 1) -> None:
    """Add n to record[group][key] in every open record."""
    for rec in _open.get():
        tally = rec.get(group)
        if tally is None:
            tally = rec[group] = {}
        tally[key] = tally.get(key, 0) + n


@contextmanager
def record():
    """Open a record, {group: {key: count}}, for the calls it encloses."""
    rec: dict = {}
    token = _open.set((*_open.get(), rec))
    try:
        yield rec
    finally:
        _open.reset(token)
