"""Exact Betti numbers of powers of monomial ideals and their asymptotics.

The package computes multigraded Betti numbers of S/I^k in exact arithmetic
over the rationals or a prime field, detects the eventual polynomial
behavior of each homological column, extracts the asymptotic invariants
(apd, ell, bigK, multiplicities), analyzes the roots of the associated
Betti polynomial across k, and evaluates the checkable structural
statements on fixtures and random scans.

The package exports nothing itself: import each name from the module that
defines it, e.g. bettipowers.resolution_engine.betti_table.
"""
