"""A serving gateway's online sweep gives the post-hoc verdicts.

The gateway feeds its protocol monitors while it serves and drops the
events it fed.  The differential cases record shadow copies of every
plane (``shadow_planes`` wraps ``ExecutionTrace.add_event``), merge
them after the run in the post-hoc order and sweep the merge with
``run_monitors``: the online report must be identical, violation by
violation, witnesses included.  They cover a clean soak and injected
defects on the service and the gateway planes, with and without a kill
and its journal restore, with a flush after every decision and at the
default batch.
"""

from __future__ import annotations

import asyncio
from collections import Counter

import pytest

import repro.gateway.gateway as gateway_module
from repro.gateway import (
    AdmissionGateway,
    GatewayConfig,
    GatewaySoakConfig,
    parse_ticket,
    read_frame,
    run_gateway_soak,
    submit_payload,
    write_frame,
)
from repro.gateway.soak import (
    _fates_from_trace,
    default_gateway_service_config,
    soak_requests,
)
from repro.service import AdmissionService
from repro.sim.trace import (
    ExecutionTrace,
    TraceEventKind,
    in_time_order,
    merge_in_time_order,
)
from repro.verify import AdmissionProtocolMonitor, GatewayProtocolMonitor
from repro.verify.invariants import run_monitors

K = TraceEventKind
SOAK = dict(requests=200, rate=3.0, seed=20260809, sources=4)

_complete = AdmissionService._complete
_decide_at = AdmissionGateway._decide_at


def _after_complete(ending: str, record):
    """``_complete``, then ``record(service, now, request_id)`` for the
    ids that end in ``ending``."""
    def patched(self, now, job, actual, served):
        _complete(self, now, job, actual, served)
        if job.request.request_id.endswith(ending):
            record(self, now, job.request.request_id)
    return patched


def _dropping(kind: TraceEventKind, ending: str, method, owner):
    """``method`` with no ``kind`` event recorded on ``owner(self)``'s
    plane for the ids that end in ``ending``."""
    def patched(self, *args, **kwargs):
        trace = owner(self)
        add = trace.add_event

        def add_all_but(time, event_kind, subject, detail=""):
            if event_kind is not kind or not subject.endswith(ending):
                add(time, event_kind, subject, detail)

        trace.add_event = add_all_but
        try:
            return method(self, *args, **kwargs)
        finally:
            del trace.add_event
    return patched


#: case -> (patched class, method, replacement, a violation kind it
#: must give)
DEFECTS = {
    "clean": (None, None, None, None),
    "second-completion": (
        AdmissionService, "_complete",
        _after_complete("1", lambda service, now, rid: service.trace.add_event(
            now, K.COMPLETION, rid, detail="completed again")),
        "duplicate-terminal",
    ),
    "completion-dropped": (
        AdmissionService, "_complete",
        _dropping(K.COMPLETION, "3", _complete, lambda svc: svc.trace),
        "silently-dropped",
    ),
    "second-release": (
        AdmissionService, "_complete",
        _after_complete("9", lambda service, now, rid: service.trace.add_event(
            now, K.RELEASE, rid, detail="admitted again")),
        "duplicate-admission",
    ),
    "spurious-replan": (
        AdmissionService, "_complete",
        _after_complete("7", lambda service, now, rid: service.trace.add_event(
            now, K.REPLAN, "service", detail="local spurious")),
        "replan-without-divergence",
    ),
    "response-dropped": (
        AdmissionGateway, "_decide_at",
        _dropping(K.RESPONSE, "5", _decide_at, lambda gw: gw.trace),
        "unanswered-ingest",
    ),
}


def _verdicts(report) -> list[tuple]:
    return [(v.kind, v.time, v.entities, v.detail, v.witness)
            for v in report.violations]


@pytest.fixture
def gateways(monkeypatch):
    """Every gateway incarnation constructed, in order, and the horizon
    its ``finish()`` closed the books at."""
    made: list[AdmissionGateway] = []
    horizons: list[float] = []
    init, finish = AdmissionGateway.__init__, AdmissionGateway.finish

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    def pinned_finish(self, horizon=None):
        horizons.append(self.clock.now() if horizon is None else horizon)
        return finish(self, horizons[-1])

    monkeypatch.setattr(AdmissionGateway, "__init__", tracking_init)
    monkeypatch.setattr(AdmissionGateway, "finish", pinned_finish)
    return made, horizons


def _post_hoc(made, shadow_planes, horizon: float):
    """``run_monitors`` over the merged shadow planes: the service
    incarnations oldest first, then the gateway planes oldest first."""
    planes = [shadow_planes.get(g.service.trace, []) for g in made]
    planes += [shadow_planes.get(g.trace, []) for g in made]
    merged = ExecutionTrace()
    merged.events = [event for _t, _i, event in merge_in_time_order(
        map(in_time_order, planes))]
    report = run_monitors(merged, [
        GatewayProtocolMonitor(),
        AdmissionProtocolMonitor(
            replan_window=default_gateway_service_config().replan_window),
    ], horizon=horizon)
    return report, merged


@pytest.mark.parametrize("batch", ["every-decision", "default"])
@pytest.mark.parametrize("kill", [False, True], ids=["serve", "kill-restore"])
@pytest.mark.parametrize("case", list(DEFECTS))
def test_online_verdicts_equal_the_post_hoc_sweep(
        case, kill, batch, tmp_path, monkeypatch, shadow_planes, gateways):
    owner, method, replacement, expected = DEFECTS[case]
    if owner is not None:
        monkeypatch.setattr(owner, method, replacement)
    if batch == "every-decision":
        monkeypatch.setattr(gateway_module, "_FLUSH_BATCH", 1)
    config = GatewaySoakConfig(**SOAK, kill_at=12.0 if kill else None)

    soak = run_gateway_soak(config, tmp_path)
    made, horizons = gateways
    assert len(made) == (2 if kill else 1) and len(horizons) == 1
    assert soak.restored == kill
    online = made[-1]._sweep
    post_hoc, merged = _post_hoc(made, shadow_planes, horizons[0])

    assert online.fed == len(merged.events)
    assert _verdicts(online.report) == _verdicts(post_hoc)
    assert {rid: fate[1] for rid, fate in soak.fates.items()} == {
        rid: _fates_from_trace(merged).get(rid) for rid in soak.fates
    }
    kinds = Counter(v.kind for v in post_hoc.violations)
    if expected is None:
        assert soak.clean, soak.summary()
    else:
        assert kinds[expected] > 0
    # the final flush fed and dropped every event
    assert not any(trace.events for trace in made[-1]._planes())


def test_a_record_behind_the_fed_watermark_is_reported(tmp_path):
    gateway = AdmissionGateway(
        GatewayConfig(unix_path=str(tmp_path / "gw.sock")),
        default_gateway_service_config(),
    )
    service, edge = gateway.service.trace, gateway.trace
    for stamp, rid in ((1.0, "r1"), (2.0, "r2"), (3.0, "r3")):
        edge.add_event(stamp, K.INGEST, rid)
        service.add_event(stamp, K.RELEASE, rid, "cost=0.2 deadline=9 hard")
        edge.add_event(stamp, K.RESPONSE, rid, "admit")
    gateway._flush(2.5)
    assert gateway._sweep.fed == 6 and gateway._fed_to == 2.5
    # a completion recorded behind the fed watermark, one after it
    service.add_event(2.0, K.COMPLETION, "r2", "actual=0.2")
    service.add_event(3.0, K.COMPLETION, "r3", "actual=0.2")
    report, terminals = gateway.finish(horizon=10.0)
    late = [v for v in report.violations if v.kind == "late-record"]
    assert [(v.time, v.entities, v.witness) for v in late] == [
        (2.0, ("r2",), (6,)),
    ]
    assert "completion at 2 recorded after the timeline was checked up " \
           "to 2.5" in late[0].detail
    # the late record is still fed, never dropped: r2 has its terminal
    assert terminals == {"r2": "completion", "r3": "completion"}
    assert [v.kind for v in report.violations] == [
        "late-record", "silently-dropped",
    ]
    assert report.violations[1].entities == ("r1",)


def test_served_planes_stay_within_a_batch(tmp_path, shadow_planes):
    """Four batches' worth of requests over two closed-loop
    connections: after every decision both planes together hold at most
    the batch plus the events recorded since the last flush, and those
    stay under two batches."""
    batch = gateway_module._FLUSH_BATCH
    requests = [request for _t, request in soak_requests(
        GatewaySoakConfig(requests=4 * batch, seed=11))]
    samples: list[tuple[int, int]] = []
    flushes: list[int] = []

    def recorded(gateway) -> int:
        return sum(len(shadow_planes.get(trace, ()))
                   for trace in (gateway.service.trace, gateway.trace))

    async def lane(gateway, part) -> None:
        reader, writer = await asyncio.open_unix_connection(gateway.address)
        for request in part:
            await write_frame(writer, submit_payload(request))
            parse_ticket(await read_frame(reader))
        writer.close()

    async def scenario():
        gateway = await AdmissionGateway(
            GatewayConfig(unix_path=str(tmp_path / "gw.sock")),
            default_gateway_service_config(),
        ).start()
        flush, decide = gateway._flush, gateway._decide

        def counting_flush(watermark):
            flush(watermark)
            flushes.append(recorded(gateway))

        async def sampling_decide(request):
            ticket = await decide(request)
            held = len(gateway.service.trace.events) + len(
                gateway.trace.events)
            since = recorded(gateway) - (flushes[-1] if flushes else 0)
            samples.append((held, since))
            return ticket

        gateway._flush, gateway._decide = counting_flush, sampling_decide
        await asyncio.gather(lane(gateway, requests[0::2]),
                             lane(gateway, requests[1::2]))
        gateway.request_shutdown()
        await gateway.terminated.wait()
        return gateway

    gateway = asyncio.run(scenario())
    assert len(samples) == 4 * batch
    assert len(flushes) >= 4
    for held, since in samples:
        assert held <= batch + since
        assert since < 2 * batch
    report, _terminals = gateway.finish()
    assert not report.violations
    assert gateway._sweep.fed == recorded(gateway)
    assert not any(trace.events for trace in gateway._planes())
