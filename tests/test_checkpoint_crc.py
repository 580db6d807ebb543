"""Per-record CRC in the checkpoint log (PR 8 satellite).

A crash can tear the last record mid-``append``; the CRC lets ``load``
skip torn or bit-flipped lines with a warning instead of refusing the
whole log (or, worse, replaying garbage)."""

from __future__ import annotations

import json

import pytest

from repro.service import (
    AdmissionService,
    EventRequest,
    ServiceConfig,
    VirtualClock,
    replay_ops,
)
from repro.service.checkpoint import CheckpointLog

CONFIG = ServiceConfig(capacity=2.0, period=2.0, detector=None)


def _write_ops(path, count: int = 4) -> str:
    """Run a real service against ``path``; return its twin hash."""

    clock = VirtualClock()
    service = AdmissionService(CONFIG, clock=clock,
                               checkpoint_path=path).start()
    for i in range(count):
        service.submit(EventRequest(
            request_id=f"e{i}", cost=0.5, relative_deadline=60.0,
        ))
    clock.advance(2.0)
    hash_ = service.twin.state_hash()
    service.kill()
    return hash_


class TestCrc:
    def test_round_trip_carries_no_crc_into_ops(self, tmp_path):
        path = tmp_path / "log.jsonl"
        _write_ops(path)
        ops = CheckpointLog(path).load()
        assert ops
        assert all("crc" not in op for op in ops)

    def test_every_line_on_disk_is_checksummed(self, tmp_path):
        path = tmp_path / "log.jsonl"
        _write_ops(path)
        for line in path.read_text().splitlines():
            record = json.loads(line)
            assert isinstance(record.pop("crc"), int)

    def test_torn_tail_is_skipped_with_a_warning(self, tmp_path):
        path = tmp_path / "log.jsonl"
        live_hash = _write_ops(path)
        intact = CheckpointLog(path).load()
        with open(path, "ab") as handle:
            handle.write(b'{"op": "admit", "t": 99, "requ')   # torn
        with pytest.warns(UserWarning, match="torn/corrupt"):
            ops = CheckpointLog(path).load()
        assert ops == intact
        _planner, twin, _header = replay_ops(ops)
        assert twin.state_hash() == live_hash

    def test_bit_flip_mid_file_is_skipped(self, tmp_path):
        path = tmp_path / "log.jsonl"
        _write_ops(path)
        lines = path.read_text().splitlines()
        assert len(lines) >= 3
        # flip a digit inside a middle record: still valid JSON, but
        # the payload no longer matches its checksum
        victim = lines[2]
        flipped = None
        for pos, ch in enumerate(victim):
            if ch.isdigit() and '"crc"' not in victim[max(0, pos - 8):pos]:
                flipped = victim[:pos] + str((int(ch) + 1) % 10) \
                    + victim[pos + 1:]
                break
        assert flipped is not None and flipped != victim
        lines[2] = flipped
        path.write_text("\n".join(lines) + "\n")
        with pytest.warns(UserWarning, match="torn/corrupt"):
            ops = CheckpointLog(path).load()
        assert len(ops) == len(lines) - 1

    def test_crcless_legacy_lines_still_load(self, tmp_path):
        path = tmp_path / "log.jsonl"
        _write_ops(path)
        stripped = []
        for line in path.read_text().splitlines():
            record = json.loads(line)
            record.pop("crc")
            stripped.append(json.dumps(record, sort_keys=True))
        legacy = tmp_path / "legacy.jsonl"
        legacy.write_text("\n".join(stripped) + "\n")
        assert CheckpointLog(legacy).load() == CheckpointLog(path).load()

    def test_restore_survives_a_torn_tail(self, tmp_path):
        path = tmp_path / "log.jsonl"
        live_hash = _write_ops(path)
        with open(path, "ab") as handle:
            handle.write(b'{"half a rec')

        with pytest.warns(UserWarning, match="torn/corrupt"):
            service = AdmissionService.restore(path)
        assert service.twin.state_hash() == live_hash
        service.drain()
