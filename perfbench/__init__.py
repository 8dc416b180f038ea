"""A benchmark of the quasitoric package; see run.py."""
