"""Dict-based reuse-distance lookup: one chunk at a time.

The scalar form of the cache model's stateful half, which the per-step
array lookup (``CacheHierarchy.fetch_levels``) must reproduce: per-CPU
stream positions and per-(cpu, segment, block) last visits in dicts,
updated by one :meth:`DictReuseCache.fetch_level` call per chunk.
"""

from __future__ import annotations

from repro.machine.cache import (
    LEVEL_DRAM,
    LEVEL_L2,
    LEVEL_L3,
    CacheConfig,
)


class DictReuseCache:
    """Reuse-distance state in dicts, looked up one chunk at a time."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.stream_pos: dict[int, int] = {}
        self.last_visit: dict[tuple[int, int, int], int] = {}

    def reset(self) -> None:
        self.stream_pos.clear()
        self.last_visit.clear()

    def fetch_level(
        self, cpu: int, seg_id: int, first_addr: int, footprint: int
    ) -> int:
        pos = self.stream_pos.get(cpu, 0)
        key = (cpu, seg_id, first_addr // max(self.config.l3_bytes, 1))
        last = self.last_visit.get(key)
        if last is None:
            level = LEVEL_DRAM
        else:
            distance = (pos - last) + footprint
            if distance <= self.config.l2_bytes:
                level = LEVEL_L2
            elif distance <= self.config.l3_bytes:
                level = LEVEL_L3
            else:
                level = LEVEL_DRAM
        self.stream_pos[cpu] = self.last_visit[key] = pos + footprint
        return level

    def state_digest(self) -> frozenset:
        sat = self.config.l3_bytes + 1
        return frozenset(
            (key, min(self.stream_pos.get(key[0], 0) - last, sat))
            for key, last in self.last_visit.items()
        )

    def phase_snapshot(self) -> tuple[dict, dict]:
        return dict(self.stream_pos), dict(self.last_visit)

    def phase_delta(self, snapshot: tuple[dict, dict]) -> tuple[dict, list]:
        snap_pos, snap_lv = snapshot
        delta_pos = {
            cpu: pos - snap_pos.get(cpu, 0)
            for cpu, pos in self.stream_pos.items()
            if pos != snap_pos.get(cpu, 0)
        }
        touched = [
            key for key, last in self.last_visit.items()
            if snap_lv.get(key) != last
        ]
        return delta_pos, touched

    def phase_advance(self, delta: tuple[dict, list], n: int) -> None:
        delta_pos, touched = delta
        for cpu, d in delta_pos.items():
            self.stream_pos[cpu] = self.stream_pos.get(cpu, 0) + d * n
        for key in touched:
            self.last_visit[key] += delta_pos.get(key[0], 0) * n
