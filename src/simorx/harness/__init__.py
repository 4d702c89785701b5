"""BLER evaluation, the genie-aided baseline, result files, sweeps and the
command line.

The package re-exports nothing: import each name from the module that
defines it (``simorx.harness.bler``, ``genie``, ``results``, ``sweep``,
``cli``), so that a job imports only the code it runs.
"""
