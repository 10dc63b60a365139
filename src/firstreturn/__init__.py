"""Exact-arithmetic toolkit for recovering functions from dense sequences.

Modules:
  space          exact points, metrics, basic opens, good bases
  path           good-basis path and first-return route extraction
  dense_builder  staged dense-sequence construction for closed families
  recover        recovery diagnostics and G-delta witnesses
  rank           separation rank on finite clopen algebras
  ebc1           equi-Baire-class-one gauge and oscillation checks
  gallery        explicit families, prime encoding, ultrametric demo
  cli            deterministic experiment runner

The package re-exports nothing: import names from their modules, as in
`from firstreturn.space import parse_point`.  Importing the package, or
`firstreturn.cli`, loads no other module of it.
"""
