"""Crash a durable service the way ``kill -9`` does.

``ServiceJournal.close`` commits the open ingest window before it closes
the connection: that is a clean shutdown.  A killed process commits
nothing, so its crash harnesses drop the raw connection instead.
"""

from __future__ import annotations


def kill(service) -> None:
    """Close ``service``'s journal connection without committing.

    SQLite rolls the open transaction back, so the open window's
    admissions are lost exactly as they are when the process dies.
    """
    journal = service.journal
    if journal._conn is not None:
        journal._conn.close()
        journal._conn = None
