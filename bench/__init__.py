"""Layered host-performance benchmark of the co-emulation engines and sweeps."""
