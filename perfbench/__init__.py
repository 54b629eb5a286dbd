"""The repository benchmark: end-to-end and per-layer numbers for the
scan core and the scan service.  Entry point: ``perfbench/run.py``."""
