"""perfbench -- the ruler every PTRider performance claim is measured with.

Four named serving workloads replayed through the public
:class:`repro.service.api.PTRiderService` API, end-to-end metrics taken with
tracing off, per-layer metrics taken from spans recorded *around* the public
entry points of each layer (nothing under ``src/`` is edited), and output
checks in the same command.  See ``perfbench/README.md``.
"""
