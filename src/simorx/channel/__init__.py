"""Tapped-delay-line profiles, block-fading frequency responses, and AWGN.

The package re-exports nothing: import each name from the module that
defines it (``simorx.channel.profiles``, ``fading``).
"""
