"""Sweep-as-a-service: the always-on coordinator (``repro serve``).

Submodules:

* :mod:`repro.service.store` -- sqlite persistence: the
  :class:`~repro.service.store.SqliteResultCache` result index and the
  :class:`~repro.service.store.JobStore` job queue / event log.
* :mod:`repro.service.coordinator` -- :class:`SweepService`, the
  scheduler that claims jobs and drives ``stream_sweep`` over them.
* :mod:`repro.service.api` -- the HTTP/JSON front end.
* :mod:`repro.service.client` -- a stdlib-only client used by the
  ``repro job`` CLI verbs and by tests.

The store, coordinator and API load the simulator (the result cache
stores :class:`~repro.experiments.runner.RunResult` objects).  This
package itself only names the job lifecycle, so the client -- and with
it every ``repro job`` verb -- imports no simulator code and no numpy.
"""

#: Jobs in these states are finished: no scheduler will touch them again.
TERMINAL_STATES = ("done", "failed", "cancelled")

#: Every state a job can be in (queued -> running -> one of the above).
JOB_STATES = ("queued", "running") + TERMINAL_STATES
