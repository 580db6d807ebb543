"""Wall-clock network ingestion for the admission service (PR 9).

The gateway is the deployment face of the repo: a hardened asyncio
socket front end (:mod:`~repro.gateway.gateway`) speaking a
length-prefixed JSON protocol (:mod:`~repro.gateway.protocol`),
journaling every ingested frame for crash-safe at-least-once delivery,
and drilled by a frame-aware chaos proxy (:mod:`~repro.gateway.faults`)
plus seeded wall-clock soaks whose fates are cross-checked against a
``VirtualClock`` control replay (:mod:`~repro.gateway.soak`).
"""

from .. import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "NetworkFaultProxy": "faults",
    "ProxyFaultPlan": "faults",
    "AdmissionGateway": "gateway",
    "GatewayConfig": "gateway",
    "load_journal": "gateway",
    "undecided_entries": "gateway",
    "MAX_FRAME_BYTES": "protocol",
    "FrameError": "protocol",
    "FrameTimeout": "protocol",
    "FrameTooLarge": "protocol",
    "TornFrame": "protocol",
    "encode_frame": "protocol",
    "error_payload": "protocol",
    "parse_request": "protocol",
    "parse_ticket": "protocol",
    "ping_payload": "protocol",
    "read_frame": "protocol",
    "read_raw_frame": "protocol",
    "submit_payload": "protocol",
    "ticket_payload": "protocol",
    "write_frame": "protocol",
    "GatewaySoakConfig": "soak",
    "GatewaySoakReport": "soak",
    "default_gateway_service_config": "soak",
    "run_control_replay": "soak",
    "run_gateway_soak": "soak",
    "soak_requests": "soak",
})

__all__ = [
    "AdmissionGateway",
    "GatewayConfig",
    "load_journal",
    "undecided_entries",
    "NetworkFaultProxy",
    "ProxyFaultPlan",
    "MAX_FRAME_BYTES",
    "FrameError",
    "FrameTimeout",
    "FrameTooLarge",
    "TornFrame",
    "encode_frame",
    "error_payload",
    "parse_request",
    "parse_ticket",
    "ping_payload",
    "read_frame",
    "read_raw_frame",
    "submit_payload",
    "ticket_payload",
    "write_frame",
    "GatewaySoakConfig",
    "GatewaySoakReport",
    "default_gateway_service_config",
    "run_control_replay",
    "run_gateway_soak",
    "soak_requests",
]
