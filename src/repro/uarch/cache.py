"""Set-associative cache simulator.

The exact simulator used by the trace-driven profiling engine and by
tests that validate the analytic engine's closed-form miss ratios.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["ReplacementPolicy", "CacheConfig", "CacheStats", "Cache"]


class ReplacementPolicy(enum.Enum):
    """Victim selection policy within a set."""

    LRU = "lru"
    FIFO = "fifo"
    RANDOM = "random"


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level.

    Parameters
    ----------
    size_bytes:
        Total capacity.
    line_bytes:
        Cache line size; must be a power of two.
    associativity:
        Number of ways; ``size_bytes / (line_bytes * associativity)``
        must be a whole (power-of-two) number of sets.
    hit_latency:
        Access latency in cycles, exposed on the level above's miss path.
    policy:
        Replacement policy.
    """

    size_bytes: int
    line_bytes: int = 64
    associativity: int = 8
    hit_latency: int = 4
    policy: ReplacementPolicy = ReplacementPolicy.LRU

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ConfigurationError(f"size_bytes must be > 0, got {self.size_bytes}")
        if self.line_bytes <= 0 or self.line_bytes & (self.line_bytes - 1):
            raise ConfigurationError(
                f"line_bytes must be a positive power of two, got {self.line_bytes}"
            )
        if self.associativity <= 0:
            raise ConfigurationError(
                f"associativity must be > 0, got {self.associativity}"
            )
        if self.size_bytes % (self.line_bytes * self.associativity):
            raise ConfigurationError(
                "size_bytes must be a multiple of line_bytes * associativity"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.associativity)

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    def describe(self) -> str:
        """Human-readable geometry, e.g. ``"32KB/8-way/64B"``."""
        if self.size_bytes >= 1 << 20:
            size = f"{self.size_bytes >> 20}MB"
        else:
            size = f"{self.size_bytes >> 10}KB"
        return f"{size}/{self.associativity}-way/{self.line_bytes}B"


@dataclass
class CacheStats:
    """Access counters of one simulated cache."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        """Zero all counters."""
        self.accesses = self.hits = self.misses = 0
        self.evictions = self.writebacks = 0


class Cache:
    """One level of a set-associative cache.

    Optionally chained to a ``next_level`` cache; on a miss the line is
    fetched from (and allocated in) the next level, modelling an
    inclusive-ish hierarchy sufficient for miss-counting purposes.
    """

    def __init__(
        self,
        config: CacheConfig,
        name: str = "cache",
        next_level: Optional["Cache"] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.config = config
        self.name = name
        self.next_level = next_level
        self.stats = CacheStats()
        self._rng = rng or np.random.default_rng(0)
        sets, ways = config.num_sets, config.associativity
        self._tags = np.full((sets, ways), -1, dtype=np.int64)
        self._dirty = np.zeros((sets, ways), dtype=bool)
        # Per-way recency/arrival stamp used by LRU and FIFO.
        self._stamp = np.zeros((sets, ways), dtype=np.int64)
        self._clock = 0
        self._set_shift = config.line_bytes.bit_length() - 1
        self._num_sets = sets
        # Fast mask indexing when the set count is a power of two,
        # modulo otherwise (large LLCs often have non-power-of-two slices).
        self._set_mask = sets - 1 if sets & (sets - 1) == 0 else None

    # -- addressing ------------------------------------------------------------

    def _locate(self, address: int) -> tuple:
        line = address >> self._set_shift
        if self._set_mask is not None:
            return line & self._set_mask, line
        return line % self._num_sets, line

    # -- access ----------------------------------------------------------------

    def access(self, address: int, is_write: bool = False) -> bool:
        """Access one byte address; returns True on hit.

        Misses recurse into the next level and allocate the line here
        (write-allocate for both loads and stores).
        """
        self._clock += 1
        self.stats.accesses += 1
        set_index, tag = self._locate(address)
        ways = self._tags[set_index]
        matches = np.nonzero(ways == tag)[0]
        if matches.size:
            way = int(matches[0])
            self.stats.hits += 1
            if self.config.policy is ReplacementPolicy.LRU:
                self._stamp[set_index, way] = self._clock
            if is_write:
                self._dirty[set_index, way] = True
            return True

        self.stats.misses += 1
        if self.next_level is not None:
            self.next_level.access(address, is_write=False)
        self._fill(set_index, tag, is_write)
        return False

    def _fill(self, set_index: int, tag: int, is_write: bool) -> None:
        ways = self._tags[set_index]
        empty = np.nonzero(ways == -1)[0]
        if empty.size:
            way = int(empty[0])
        else:
            way = self._choose_victim(set_index)
            self.stats.evictions += 1
            if self._dirty[set_index, way]:
                self.stats.writebacks += 1
                if self.next_level is not None:
                    # Write the victim back to the next level.
                    self.next_level.stats.accesses += 1
                    self.next_level.stats.hits += 1
        self._tags[set_index, way] = tag
        self._dirty[set_index, way] = is_write
        self._stamp[set_index, way] = self._clock

    def _choose_victim(self, set_index: int) -> int:
        policy = self.config.policy
        if policy is ReplacementPolicy.RANDOM:
            return int(self._rng.integers(0, self.config.associativity))
        # LRU evicts the oldest recency stamp; FIFO the oldest arrival
        # stamp (arrival stamps are never refreshed on hits).
        return int(np.argmin(self._stamp[set_index]))

    # -- queries ---------------------------------------------------------------

    def contains(self, address: int) -> bool:
        """Whether the line holding ``address`` is currently resident."""
        set_index, tag = self._locate(address)
        return bool((self._tags[set_index] == tag).any())

    def flush(self) -> None:
        """Invalidate all lines (statistics are kept)."""
        self._tags.fill(-1)
        self._dirty.fill(False)
        self._stamp.fill(0)

    def reset(self) -> None:
        """Invalidate all lines and clear statistics."""
        self.flush()
        self.stats.reset()
        self._clock = 0


def build_hierarchy(
    configs: List[CacheConfig], names: Optional[List[str]] = None
) -> List[Cache]:
    """Build a chained cache hierarchy from innermost to outermost.

    Returns the caches in the given order, each linked to the next.
    """
    if not configs:
        raise ConfigurationError("need at least one cache level")
    names = names or [f"L{i + 1}" for i in range(len(configs))]
    if len(names) != len(configs):
        raise ConfigurationError("names and configs must have equal length")
    caches: List[Cache] = []
    next_level: Optional[Cache] = None
    for config, name in zip(reversed(configs), reversed(names)):
        next_level = Cache(config, name=name, next_level=next_level)
        caches.append(next_level)
    caches.reverse()
    return caches
