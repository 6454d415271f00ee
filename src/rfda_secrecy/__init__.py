"""Secrecy-region analysis for directional modulation with random frequency
diverse arrays: array geometry, frequency-vector design, artificial-noise
beamforming, secrecy-capacity bounds, resource minima and experiment sweeps.
Each name is imported from the module that defines it."""

from .version import VERSION as __version__

__all__ = ["__version__"]
