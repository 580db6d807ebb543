"""Random real-time system generation (paper Section 6.1)."""

# eager: the function ``uunifast`` shares its submodule's name, which
# the import system would bind first once anything imports the submodule
from .uunifast import (
    generate_multicore_taskset,
    generate_periodic_taskset,
    uunifast,
    uunifast_discard,
)
from .. import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "PortableRandom": "rng",
    "AperiodicEventSpec": "spec",
    "GeneratedSystem": "spec",
    "GenerationParameters": "spec",
    "PeriodicTaskSpec": "spec",
    "ServerSpec": "spec",
    "PAPER_SETS": "generator",
    "RandomSystemGenerator": "generator",
    "generate_campaign_sets": "generator",
    "AffineArrivalCurve": "arrival_curves",
    "curve_of_system": "arrival_curves",
    "fit_affine_curve": "arrival_curves",
})

__all__ = [
    "PortableRandom",
    "AperiodicEventSpec",
    "GeneratedSystem",
    "GenerationParameters",
    "PeriodicTaskSpec",
    "ServerSpec",
    "RandomSystemGenerator",
    "generate_campaign_sets",
    "PAPER_SETS",
    "generate_multicore_taskset",
    "generate_periodic_taskset",
    "uunifast",
    "uunifast_discard",
    "AffineArrivalCurve",
    "curve_of_system",
    "fit_affine_curve",
]
