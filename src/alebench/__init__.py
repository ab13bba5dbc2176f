"""Adaptive line enhancer noise cancellation with LMS and PSO adaptation."""

__version__ = "0.1.0"
