"""Database service: "access to persistent data via exported IDL interfaces"."""

from repro.db.service import DatabaseService

__all__ = ["DatabaseService"]
