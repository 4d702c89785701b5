"""Layers with hand-written backward passes, Adam, and a finite-difference
gradient checker.

The package re-exports nothing: import each name from the module that
defines it (``simorx.numerics.layers``, ``adam``, ``gradcheck``).
"""
