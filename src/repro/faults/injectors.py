"""Seeded, composable fault models.

Injectors transform the *workload* (the
:class:`~repro.workload.spec.GeneratedSystem` descriptors both evaluation
arms consume), so a faulted campaign still feeds byte-identical inputs to
the simulator and the emulated-RTSJ execution — the invariant the whole
evaluation methodology rests on.  :class:`FireFaultInjector` additionally
perturbs the ``ServableAsyncEvent`` fire path at runtime for scenarios
where the *delivery* (not the workload) misbehaves.

Every injector draws from a :class:`~repro.workload.rng.PortableRandom`
stream derived from ``(plan seed, system id)``, so a faulted workload is
reproducible across platforms exactly like the clean one.  A
:class:`FaultPlan` with no injectors (or ``enabled=False``) returns the
input system object unchanged — zero drift on the golden path.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace

from ..workload.rng import _MASK64, PortableRandom
from ..workload.spec import AperiodicEventSpec, GeneratedSystem, PeriodicTaskSpec

__all__ = [
    "FaultInjector",
    "WcetOverrun",
    "ReleaseJitter",
    "EventBurst",
    "DroppedActivation",
    "TimerDrift",
    "FaultPlan",
    "FireFaultInjector",
    "ExecutionSkew",
]


class FaultInjector(ABC):
    """One fault model: a pure transformation of an event list."""

    @abstractmethod
    def transform(
        self,
        events: list[AperiodicEventSpec],
        rng: PortableRandom,
        horizon: float,
    ) -> list[AperiodicEventSpec]:
        """Return the faulted event list (may change length and order)."""

    def transform_periodic(
        self,
        tasks: list[PeriodicTaskSpec],
        rng: PortableRandom,
    ) -> list[PeriodicTaskSpec]:
        """Return the faulted periodic task list (default: untouched)."""
        return tasks


@dataclass(frozen=True)
class WcetOverrun(FaultInjector):
    """Selected handlers run ``factor`` times their declared cost.

    The declared cost (what admission control and ``chooseNextEvent``
    see) is left untouched; only the *actual* execution demand is
    inflated — the paper's Scenario 3 mis-declaration, generalised.
    ``periodic=True`` additionally inflates periodic tasks' actual cost
    past their declared WCET.
    """

    factor: float = 2.0
    probability: float = 1.0
    periodic: bool = False

    def __post_init__(self) -> None:
        if self.factor <= 0:
            raise ValueError(f"factor must be > 0, got {self.factor}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}"
            )

    def transform(self, events, rng, horizon):
        out = []
        for event in events:
            if rng.random() < self.probability:
                event = replace(
                    event, actual_cost=event.cost * self.factor
                )
            out.append(event)
        return out

    def transform_periodic(self, tasks, rng):
        if not self.periodic:
            return tasks
        out = []
        for task in tasks:
            if rng.random() < self.probability:
                task = replace(task, actual_cost=task.cost * self.factor)
            out.append(task)
        return out


@dataclass(frozen=True)
class ReleaseJitter(FaultInjector):
    """Each release is delayed by a uniform jitter in [0, max_jitter]."""

    max_jitter: float = 1.0

    def __post_init__(self) -> None:
        if self.max_jitter < 0:
            raise ValueError(
                f"max_jitter must be >= 0, got {self.max_jitter}"
            )

    def transform(self, events, rng, horizon):
        out = [
            replace(e, release=e.release + rng.uniform(0.0, self.max_jitter))
            for e in events
        ]
        return [e for e in out if e.release < horizon]


@dataclass(frozen=True)
class EventBurst(FaultInjector):
    """An arrival turns into a burst (storm) of back-to-back arrivals.

    With probability ``probability`` an event is replicated ``extra``
    additional times, spaced ``spacing`` tu apart — the overload regime
    D-OVER's competitive guarantee and server capacity sharing both
    target.
    """

    extra: int = 2
    probability: float = 0.2
    spacing: float = 0.05

    def __post_init__(self) -> None:
        if self.extra < 1:
            raise ValueError(f"extra must be >= 1, got {self.extra}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if self.spacing <= 0:
            raise ValueError(f"spacing must be > 0, got {self.spacing}")

    def transform(self, events, rng, horizon):
        out: list[AperiodicEventSpec] = []
        for event in events:
            out.append(event)
            if rng.random() < self.probability:
                for k in range(1, self.extra + 1):
                    release = event.release + k * self.spacing
                    if release >= horizon:
                        break
                    out.append(replace(event, release=release))
        return out


@dataclass(frozen=True)
class DroppedActivation(FaultInjector):
    """Activations are lost (a missed interrupt, a dropped message)."""

    probability: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}"
            )

    def transform(self, events, rng, horizon):
        return [e for e in events if rng.random() >= self.probability]


@dataclass(frozen=True)
class TimerDrift(FaultInjector):
    """The release timer runs fast or slow by ``ppm`` parts per million.

    Models clock drift on the event source: every release time is scaled
    by ``1 + ppm/1e6``.  The emulated VM offers the same knob natively
    (``RTSJVirtualMachine(timer_drift_ppm=...)``) for runs where only
    the runtime's timers drift.
    """

    ppm: float = 0.0

    def transform(self, events, rng, horizon):
        scale = 1.0 + self.ppm / 1e6
        out = [replace(e, release=e.release * scale) for e in events]
        return [e for e in out if 0 <= e.release < horizon]


@dataclass(frozen=True)
class FaultPlan:
    """A seeded pipeline of injectors applied to generated systems.

    ``apply`` is deterministic in ``(seed, system.system_id)``; with no
    injectors or ``enabled=False`` it returns the *same object* it was
    given, so the golden path cannot drift.

    ``targets`` (optional) restricts the perturbation to the named items:
    periodic tasks by spec name (``"tau3"``) and aperiodic events by
    their job name (``"h7"``, i.e. ``f"h{event_id}"``).  Everything else
    passes through byte-identical.  Because the plan transforms the
    *workload descriptor* — before any single- or multicore placement
    decision — a targeted fault perturbs exactly the same tasks and
    events regardless of which core a partitioner or a global scheduler
    later puts them on.
    """

    injectors: tuple[FaultInjector, ...] = ()
    seed: int = 0
    enabled: bool = True
    targets: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        for injector in self.injectors:
            if not isinstance(injector, FaultInjector):
                raise TypeError(
                    f"injectors must be FaultInjector instances, "
                    f"got {injector!r}"
                )
        if self.targets is not None:
            for target in self.targets:
                if not isinstance(target, str):
                    raise TypeError(
                        f"targets must be names (str), got {target!r}"
                    )

    @property
    def active(self) -> bool:
        return self.enabled and bool(self.injectors)

    def apply(self, system: GeneratedSystem) -> GeneratedSystem:
        """Return the faulted system (or ``system`` itself when inactive)."""
        if not self.active:
            return system
        rng = PortableRandom(
            (self.seed << 1) ^ (system.system_id * 0x9E3779B9)
        )
        events = list(system.events)
        tasks = list(system.periodic_tasks)
        if self.targets is None:
            for injector in self.injectors:
                events = injector.transform(events, rng, system.horizon)
                tasks = injector.transform_periodic(tasks, rng)
        else:
            events, tasks = self._apply_targeted(
                events, tasks, rng, system.horizon
            )
        events.sort(key=lambda e: (e.release, e.event_id))
        # re-id so downstream job names stay unique after bursts
        events = [
            replace(e, event_id=i) for i, e in enumerate(events)
        ]
        return replace(
            system, events=tuple(events), periodic_tasks=tuple(tasks)
        )

    def _apply_targeted(
        self,
        events: list[AperiodicEventSpec],
        tasks: list[PeriodicTaskSpec],
        rng: PortableRandom,
        horizon: float,
    ) -> tuple[list[AperiodicEventSpec], list[PeriodicTaskSpec]]:
        """Run the pipeline over the targeted subset only.

        The rng stream is consumed solely by targeted items, so the
        perturbation a given target receives does not depend on how many
        untargeted items surround it.
        """
        target_set = set(self.targets or ())
        hit_events = [e for e in events if f"h{e.event_id}" in target_set]
        other_events = [
            e for e in events if f"h{e.event_id}" not in target_set
        ]
        hit_tasks = [t for t in tasks if t.name in target_set]
        other_tasks = [t for t in tasks if t.name not in target_set]
        for injector in self.injectors:
            hit_events = injector.transform(hit_events, rng, horizon)
            hit_tasks = injector.transform_periodic(hit_tasks, rng)
        # splice transformed tasks back into their original positions
        # (registration order is a scheduling tie-break downstream)
        by_name: dict[str, list[PeriodicTaskSpec]] = {}
        for task in hit_tasks:
            by_name.setdefault(task.name, []).append(task)
        merged_tasks: list[PeriodicTaskSpec] = []
        for task in tasks:
            if task.name in target_set:
                replacements = by_name.get(task.name, [])
                if replacements:
                    merged_tasks.append(replacements.pop(0))
                # a dropped task simply disappears
            else:
                merged_tasks.append(task)
        for leftovers in by_name.values():
            merged_tasks.extend(leftovers)
        return other_events + hit_events, merged_tasks

    def apply_all(
        self, systems: list[GeneratedSystem]
    ) -> list[GeneratedSystem]:
        return [self.apply(s) for s in systems]


@dataclass
class FireFaultInjector:
    """Runtime faults on the ``ServableAsyncEvent`` fire path.

    Attach to an event (``sae.fault_injector = injector``) to perturb
    *delivery* rather than the workload: firings can be dropped, delayed
    (uniform in ``[0, max_delay_ns]``) or duplicated.  Unset (the
    default), ``fire()`` behaves exactly as the paper describes.  Every
    decision is drawn from a seeded portable stream and counted.
    """

    seed: int = 0
    drop_probability: float = 0.0
    duplicate_probability: float = 0.0
    max_delay_ns: int = 0
    rng: PortableRandom = field(init=False, repr=False)
    dropped: int = field(init=False, default=0)
    duplicated: int = field(init=False, default=0)
    delayed: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_probability <= 1.0:
            raise ValueError("drop_probability must be in [0, 1]")
        if not 0.0 <= self.duplicate_probability <= 1.0:
            raise ValueError("duplicate_probability must be in [0, 1]")
        if self.max_delay_ns < 0:
            raise ValueError("max_delay_ns must be >= 0")
        self.rng = PortableRandom(self.seed)

    def on_fire(self, event, vm) -> bool:
        """Decide one firing's fate; returns False when it is dropped.

        Duplication and delay are realised through the VM event queue;
        the injector records what it did so campaigns can report it.
        """
        from ..sim.trace import TraceEventKind
        from ..rtsj.vm import NS_PER_UNIT

        if self.rng.random() < self.drop_probability:
            self.dropped += 1
            vm.trace.add_event(
                vm.now_ns / NS_PER_UNIT, TraceEventKind.FAULT,
                event.name, "fire dropped",
            )
            return False
        if self.rng.random() < self.duplicate_probability:
            self.duplicated += 1
            vm.trace.add_event(
                vm.now_ns / NS_PER_UNIT, TraceEventKind.FAULT,
                event.name, "fire duplicated",
            )
            vm.schedule_event(
                vm.now_ns, lambda now: event._deliver(), order=2
            )
        if self.max_delay_ns > 0:
            delay = int(self.rng.uniform(0, float(self.max_delay_ns)))
            if delay > 0:
                self.delayed += 1
                vm.trace.add_event(
                    vm.now_ns / NS_PER_UNIT, TraceEventKind.FAULT,
                    event.name, f"fire delayed {delay / NS_PER_UNIT:g}tu",
                )
                vm.schedule_event(
                    vm.now_ns + delay, lambda now: event._deliver(), order=2
                )
                return False
        return True


@dataclass(frozen=True)
class ExecutionSkew:
    """Deterministic twin/actual skew for the live admission service.

    Where the offline injectors transform a *workload*, this one skews
    the *execution* the service's digital twin must reconcile against:
    the executor's actual timeline runs ``drift_ppm`` parts per million
    fast or slow against the twin's predictions (the ``TimerDrift``
    analogue), and each request independently overruns its declared cost
    by ``overrun_factor`` with ``overrun_probability`` (the
    ``WcetOverrun`` analogue).

    Skew is keyed by ``(seed, request_id)`` through a platform-stable
    digest — not by draw order — so a service restarted from a
    checkpoint mid-storm re-derives the *same* actual execution for
    every in-flight request.
    """

    drift_ppm: float = 0.0
    overrun_factor: float = 1.0
    overrun_probability: float = 0.0

    def __post_init__(self) -> None:
        if self.overrun_factor <= 0:
            raise ValueError(
                f"overrun_factor must be > 0, got {self.overrun_factor}"
            )
        if not 0.0 <= self.overrun_probability <= 1.0:
            raise ValueError(
                "overrun_probability must be in [0, 1], got "
                f"{self.overrun_probability}"
            )

    @property
    def active(self) -> bool:
        return self.drift_ppm != 0.0 or (
            self.overrun_probability > 0.0 and self.overrun_factor != 1.0
        )

    def factors(self, seed: int, request_id: str) -> tuple[float, float]:
        """The ``(drift_scale, overrun_scale)`` pair for one request.

        Deterministic in ``(seed, request_id)`` alone: the same request
        skews identically before and after a checkpoint restart.  Any
        int seeds it; like :class:`PortableRandom`, only the seed's low
        64 bits count.
        """
        import hashlib

        digest = hashlib.blake2b(
            request_id.encode("utf-8"), digest_size=8,
            key=(seed & _MASK64).to_bytes(8, "little"),
        ).digest()
        rng = PortableRandom(int.from_bytes(digest, "little"))
        drift = 1.0 + self.drift_ppm / 1e6
        overrun = (
            self.overrun_factor
            if rng.random() < self.overrun_probability else 1.0
        )
        return drift, overrun
