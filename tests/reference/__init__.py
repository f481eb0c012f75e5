"""Executable reference implementations the property tests compare
the library's vectorized code paths against."""
