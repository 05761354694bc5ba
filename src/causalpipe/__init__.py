"""Streaming HRI pipeline with online time-series causal discovery.

The package exports only its version; import from the submodules
(causalpipe.discovery, causalpipe.pipeline, ...).
"""

__version__ = "0.1.0"
