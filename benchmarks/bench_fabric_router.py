"""Fabric-router benchmarks: the per-request cost of the shard edge.

Not a paper table — these pin the PR 8 routing hot path:

* ``bench_fabric_router_submit`` — submissions through the full fabric
  edge (idempotency cache, breaker check, placement lookup) into a
  single shard;
* ``bench_fabric_direct_submit`` — the same workload submitted straight
  to a bare :class:`AdmissionService`, the PR 6 baseline the router
  wraps;
* ``bench_fabric_duplicate_replay`` — pure cache-hit replays, the cost
  a retrying client pays when its first attempt already landed.

The ``bench-smoke`` guard in ``BENCH_engine.json`` holds the
router/direct median ratio: the fabric edge must stay a thin wrapper,
never a second admission service in the request path.  Ratios within
one pytest-benchmark run are portable across machines; the absolute
milliseconds are not.
"""

from __future__ import annotations

from repro.fabric import AdmissionFabric, FabricConfig
from repro.service import AdmissionService, EventRequest, ServiceConfig

SUBMITS = 256
CONFIG = ServiceConfig(capacity=2.0, period=2.0, detector=None)
FABRIC = FabricConfig(shards=1, sources=("src-0", "src-1", "src-2"),
                      supervised=False)


def _requests(n: int) -> list[EventRequest]:
    return [
        EventRequest(
            request_id=f"req-{i:05d}",
            cost=0.2 + (i % 5) * 0.1,
            relative_deadline=5000.0,
            source=f"src-{i % 3}",
            hard=(i % 3 != 0),
        )
        for i in range(n)
    ]


def bench_fabric_router_submit(benchmark):
    """SUBMITS requests through the router edge into one shard."""
    requests = _requests(SUBMITS)

    def run():
        fabric = AdmissionFabric(FABRIC, CONFIG).start()
        admitted = 0
        for request in requests:
            ticket = fabric.router.submit(request)
            admitted += ticket.admitted
        fabric.kill_shard(0)
        return admitted

    admitted = benchmark(run)
    assert admitted > 0
    print(f"\n{admitted}/{SUBMITS} admitted through the router edge")


def bench_fabric_direct_submit(benchmark):
    """The same workload straight into a bare admission service."""
    requests = _requests(SUBMITS)

    def run():
        service = AdmissionService(CONFIG).start()
        admitted = 0
        for request in requests:
            ticket = service.submit(request)
            admitted += ticket.admitted
        service.kill()
        return admitted

    admitted = benchmark(run)
    assert admitted > 0
    print(f"\n{admitted}/{SUBMITS} admitted on the bare service")


def bench_fabric_duplicate_replay(benchmark):
    """Pure idempotency-cache hits: every submission is a replay."""
    requests = _requests(SUBMITS)

    def run():
        fabric = AdmissionFabric(FABRIC, CONFIG).start()
        settled = 0
        for request in requests:
            ticket = fabric.router.submit(request)
            # retryable rejections are deliberately uncached
            settled += not ticket.retryable
        replayed = 0
        for request in requests:
            ticket = fabric.router.submit(request)
            replayed += ticket.duplicate
        fabric.kill_shard(0)
        return settled, replayed

    settled, replayed = benchmark(run)
    assert settled > 0 and replayed == settled
    print(f"\n{replayed}/{settled} settled ids replayed from the "
          "router cache")
