"""Fates lock: one digest per admission run, over seeds 0-7.

The behaviour lock pins one skewed service storm and one fabric kill
drill.  This lock widens the net to the admission paths those two do
not reach: an unskewed storm, an overload burst with a short quiet
tail, a kill mid-storm and its resume from the checkpoint, the
three-shard kill drill under skew, a two-shard fabric storm with
duplicate submissions, and the gateway's control replay.

Each storm digest covers the report without its wall-clock keys plus
every trace event's time (``repr``), kind, subject and detail; the
control replay's digest covers its fate map.  A digest is the first 16
hex digits of a sha256.  A change that claims to keep every fate must
leave every digest here unchanged.
"""

from __future__ import annotations

import hashlib
import json
import warnings

import pytest

from repro.fabric import FabricStormConfig, ShardKill, run_fabric_storm
from repro.gateway import default_gateway_service_config, run_control_replay
from repro.service import StormConfig, run_service_storm
from repro.service.storm import storm_requests

SKEW = dict(drift_ppm=40000.0, overrun_factor=1.6, overrun_probability=0.5)
SEEDS = range(8)
STORM_WALL_KEYS = ("admissions_per_sec", "wall_seconds", "replan_latency_s")
FABRIC_WALL_KEYS = ("wall_seconds",)

PINNED = {
    "skewed_storm": (
        "7f534808af7a55dd", "8c3442d03afa9ca8", "9eacf101a39acc34",
        "7a4978ec0e136253", "2e8c2393a392bc67", "a1b389d7191454f1",
        "77ecbdcded10191c", "6b71693b802e74fd",
    ),
    "storm": (
        "44cfeced0f1c27ee", "a3734e94f2ad97c4", "1cda92fc80a0a14f",
        "826209f6d9e7e99a", "4f044c26bab0899b", "c4389b8043501451",
        "91ae696c2bbc044f", "416afb84a13e2ead",
    ),
    "burst_storm": (
        "6a25d78285b2bd0b", "8db98208ba315172", "459ee0d358533db1",
        "809def509aada9dd", "9a16786f5b7909c4", "6427015fedec86c2",
        "ee73dc2270a937df", "09f9377316223048",
    ),
    "killed_storm": (
        "204ce2502f5982eb", "ab1bb9a1ea195c4f", "9481ac1f6d377587",
        "2dc33871eaab2b38", "c43938b3571f3dac", "bc02177f1b9ab442",
        "431c00da1fff6905", "bc913494a0bea473",
    ),
    "resumed_storm": (
        "f398c03d2bd4889f", "1c5c6aa41d60c844", "2f83f3fd11ee75c2",
        "77f81d94095b63de", "3d650ea2f8a504e6", "6ead58e496c2302f",
        "3dd9c26bb1409a63", "63bbac28e51104f8",
    ),
    "kill_drill": (
        "9ca00208e7bbd76c", "13ea9fefb44c16f4", "6bb3356086b72005",
        "df35c33a15fb3ad4", "2e98286ff1fc1742", "aa057a565221f5a6",
        "230e52462cde37b1", "10fa871e90ef4153",
    ),
    "fabric_storm": (
        "06c5a217fa27e427", "5ed9bd695f2e08d7", "f939f15c3ad815d2",
        "886c0ace33cea54a", "edfee3755341b669", "5d01abc5468c28e8",
        "7a5e2667e60ee3ba", "bf8785cacd4727db",
    ),
    "control_replay": (
        "78831e8437b65ec2", "724842e89093058d", "ae2d4501157cf619",
        "447ad08d21468deb", "9a822edca1eebdce", "49780ed117f6c8a6",
        "eb45a9257d6329b1", "f57d655c4ebfcbfb",
    ),
}


def _digest(report, wall_keys) -> str:
    payload = {key: value for key, value in report.to_dict().items()
               if key not in wall_keys}
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode())
    for e in report.trace.events:
        digest.update(
            f"E {e.time!r} {e.kind.value} {e.subject} {e.detail}\n".encode()
        )
    return digest.hexdigest()[:16]


def _kill_drill(seed: int) -> FabricStormConfig:
    """The behaviour lock's three-shard kill drill, at ``seed``."""
    return FabricStormConfig(
        shards=3, seed=seed,
        kills=(ShardKill(at=30.0, shard=0, corrupt_tail=True),
               ShardKill(at=55.0, shard=2)),
        rate=0.8, horizon=90.0, settle=40.0, sources=4,
        burst=(25.0, 40.0, 3.0), **SKEW,
    )


def _replay_digest(seed: int) -> str:
    ops = [
        {"op": "ingest", "t": when, "request": request.to_dict()}
        for when, request in storm_requests(
            StormConfig(seed=seed, rate=2.0, horizon=150.0)
        )
    ]
    fates = run_control_replay(ops, default_gateway_service_config(), seed)
    payload = json.dumps(sorted(fates.items()))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _fates(seed: int, tmp_path) -> dict[str, str]:
    storm = STORM_WALL_KEYS
    checkpoint = tmp_path / "storm.jsonl"
    skewed = StormConfig(seed=seed, **SKEW)
    observed = {
        "skewed_storm": _digest(run_service_storm(skewed), storm),
        "storm": _digest(run_service_storm(StormConfig(seed=seed)), storm),
        "burst_storm": _digest(run_service_storm(StormConfig(
            seed=seed, burst=(60.0, 85.0, 8.0), settle=5.0, **SKEW,
        )), storm),
        "killed_storm": _digest(run_service_storm(
            StormConfig(seed=seed, kill_at=35.0, **SKEW),
            checkpoint_path=checkpoint,
        ), storm),
        "resumed_storm": _digest(run_service_storm(
            skewed, checkpoint_path=checkpoint, resume=True), storm),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the torn tail is the drill
        observed["kill_drill"] = _digest(run_fabric_storm(
            _kill_drill(seed), checkpoint_dir=tmp_path / "drill",
        ), FABRIC_WALL_KEYS)
    observed["fabric_storm"] = _digest(run_fabric_storm(FabricStormConfig(
        shards=2, seed=seed, duplicate_fraction=0.2, **SKEW,
    )), FABRIC_WALL_KEYS)
    observed["control_replay"] = _replay_digest(seed)
    return observed


@pytest.mark.parametrize("seed", SEEDS)
def test_admission_fates_hold(seed, tmp_path):
    expected = {kind: digests[seed] for kind, digests in PINNED.items()}
    assert _fates(seed, tmp_path) == expected
