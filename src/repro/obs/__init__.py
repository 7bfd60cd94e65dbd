"""Observability facade: experiment progress and leakage contracts.

The simulator's own counters live in :class:`repro.sim.registry.
StatsRegistry` (model-truth accounting with conservation laws).  This
package is the *operational* layer on top: structured progress events
for long sweeps (:mod:`repro.obs.progress`), canonical per-domain
observable traces over the event stream (:mod:`repro.obs.observables`),
and the paired-secret leakage contracts checked over them, whose round
driver also runs Fig. 3's attack (:mod:`repro.obs.leakage`).
"""

from repro.obs.observables import (ObservableTrace,  # noqa: F401
                                   first_divergence, project_events)
from repro.obs.progress import ProgressReporter, make_reporter  # noqa: F401
