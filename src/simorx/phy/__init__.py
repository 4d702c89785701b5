"""Resource grid bookkeeping, Gray-mapped QAM, and the rate-1/2 LDPC code.

The package re-exports nothing: import each name from the module that
defines it (``simorx.phy.grid``, ``modulation``, ``ldpc``).
"""
