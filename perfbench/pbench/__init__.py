"""Stages, tracing and checks of the repository benchmark (``run.py``)."""
