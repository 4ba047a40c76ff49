"""Small helpers the tests share."""

import sqlite3
from contextlib import closing

from repro.atms import Environment


def is_close(a, b, tol=1e-9):
    """Component-wise approximate equality of two fuzzy intervals."""
    return all(abs(x - y) <= tol for x, y in zip(a.as_tuple(), b.as_tuple()))


def environment(*assumptions):
    """The environment of ``assumptions``."""
    return Environment(frozenset(assumptions))


def corrupt_cache_row(store, namespace, key):
    """Poison one sealed cache row on disk; True when the row existed."""
    with closing(sqlite3.connect(store.path)) as conn, conn:
        cursor = conn.execute(
            "UPDATE cache_entries SET blob = '{\"poisoned\": true}' "
            "WHERE namespace = ? AND key = ?",
            (namespace, key),
        )
        return cursor.rowcount == 1
