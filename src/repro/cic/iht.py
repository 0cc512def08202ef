"""The internal hash table (IHTbb) — a small CAM inside the processor.

Each entry is the tuple ``(Addst, Addend, Hash)`` of Section 4.2 plus the
bookkeeping bits a real implementation carries: a valid bit, an LRU
timestamp (updated by the hardware on every hit), and an insertion
timestamp (for the FIFO ablation policy).

``lookup`` implements the CAM match of Figure 4: the ``(start, end)`` pair
is the tag; ``found`` reports a tag match and ``match`` reports hash
equality.  Statistics mirror what the paper's Figure 6 needs: lookups,
hits, misses, mismatches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError


@dataclass(slots=True)
class TableEntry:
    """One CAM row."""

    start: int = 0
    end: int = 0
    hash_value: int = 0
    valid: bool = False
    last_used: int = 0
    inserted: int = 0


@dataclass(slots=True)
class TableStats:
    """Hardware-visible event counters."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    mismatches: int = 0

    @property
    def miss_rate(self) -> float:
        """Fraction of lookups that missed (the Figure 6 metric)."""
        if self.lookups == 0:
            return 0.0
        return self.misses / self.lookups


class InternalHashTable:
    """Fully-associative expected-hash CAM with LRU bookkeeping."""

    def __init__(self, size: int):
        if size < 1:
            raise ConfigurationError(f"IHT size must be >= 1, got {size}")
        self.size = size
        self.entries = [TableEntry() for _ in range(size)]
        self.stats = TableStats()
        self._tick = 0
        self._index: dict[tuple[int, int], TableEntry] = {}

    # ------------------------------------------------------------------
    # Hardware-path operations
    # ------------------------------------------------------------------

    def lookup(self, start: int, end: int, hash_value: int) -> tuple[bool, bool]:
        """CAM lookup with the ``(start, end, hash)`` key.

        Returns ``(found, match)`` as in Figure 4.  A hit refreshes the
        entry's LRU timestamp (the replacement hardware of Section 3.3).
        """
        self.stats.lookups += 1
        entry = self._index.get((start, end))
        if entry is None:
            self.stats.misses += 1
            return (False, False)
        self._tick += 1
        entry.last_used = self._tick
        if entry.hash_value == hash_value:
            self.stats.hits += 1
            return (True, True)
        self.stats.mismatches += 1
        return (True, False)

    def probe(self, start: int, end: int) -> TableEntry | None:
        """Tag-only CAM probe without statistics or LRU effects."""
        return self._index.get((start, end))

    # ------------------------------------------------------------------
    # OS-path operations (exception handler)
    # ------------------------------------------------------------------

    def insert(self, start: int, end: int, hash_value: int) -> None:
        """Fill an invalid slot with a verified FHT record.

        The OS must have created room first (see :meth:`evict`); inserting
        into a full table is a handler bug and raises.
        """
        existing = self._index.get((start, end))
        if existing is not None:
            self._tick += 1
            existing.hash_value = hash_value
            existing.last_used = self._tick
            return
        for entry in self.entries:
            if not entry.valid:
                self._tick += 1
                entry.start = start
                entry.end = end
                entry.hash_value = hash_value
                entry.valid = True
                entry.last_used = self._tick
                entry.inserted = self._tick
                self._index[(start, end)] = entry
                return
        raise ConfigurationError("insert into full IHT — evict first")

    def evict(self, victims: list[TableEntry]) -> None:
        """Invalidate the given entries (chosen by a replacement policy)."""
        for entry in victims:
            if entry.valid:
                self._index.pop((entry.start, entry.end), None)
                entry.valid = False

    def valid_entries(self) -> list[TableEntry]:
        return [entry for entry in self.entries if entry.valid]

    def free_slots(self) -> int:
        return sum(1 for entry in self.entries if not entry.valid)

    def contents(self) -> list[tuple[int, int, int]]:
        """(start, end, hash) triples currently cached, LRU-oldest first."""
        valid = sorted(self.valid_entries(), key=lambda entry: entry.last_used)
        return [(entry.start, entry.end, entry.hash_value) for entry in valid]

    def clear(self) -> None:
        for entry in self.entries:
            entry.valid = False
        self._index.clear()

    # ------------------------------------------------------------------
    # Checkpointing (golden-trace campaign backend)
    # ------------------------------------------------------------------

    def snapshot(self) -> tuple:
        """Immutable copy of every CAM row, the stats, and the LRU clock."""
        return (
            tuple(
                (
                    entry.start,
                    entry.end,
                    entry.hash_value,
                    entry.valid,
                    entry.last_used,
                    entry.inserted,
                )
                for entry in self.entries
            ),
            (
                self.stats.lookups,
                self.stats.hits,
                self.stats.misses,
                self.stats.mismatches,
            ),
            self._tick,
        )

    def restore(self, snapshot: tuple) -> None:
        """Restore a table of the same size to a :meth:`snapshot`."""
        rows, stats, tick = snapshot
        if len(rows) != self.size:
            raise ConfigurationError(
                f"snapshot has {len(rows)} rows, table has {self.size}"
            )
        self._index.clear()
        for entry, row in zip(self.entries, rows):
            (
                entry.start,
                entry.end,
                entry.hash_value,
                entry.valid,
                entry.last_used,
                entry.inserted,
            ) = row
            if entry.valid:
                self._index[(entry.start, entry.end)] = entry
        self.stats = TableStats(*stats)
        self._tick = tick
