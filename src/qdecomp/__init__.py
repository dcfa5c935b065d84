"""Retrieval-based question decomposition toolkit."""

__version__ = "0.1.0"
