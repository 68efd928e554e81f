"""Desk-scale simulation and analysis suite for a silicon quantum-dot-coupled
nuclear spin qubit: coherent electron-nucleus dynamics under pulsed control,
noisy repetitive readout, shuttling dephasing, hyperfine site statistics over
the silicon lattice, metallic-gate nuclear-bath moment estimates, and the fitting
pipeline that extracts the headline numbers."""

__version__ = "0.1.0"
