"""Deliberately simple reference implementations that production
kernels are checked against. Each one shares only data types with the
code it checks, never the kernels under test."""
