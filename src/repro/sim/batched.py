"""Empty: kept only because ``perfbench/run.py`` imports it; the import
and this module are deleted together.  The simulator is
:class:`repro.sim.simulator.Simulator`.
"""
