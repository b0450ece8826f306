"""Desk-scale computations for the twofold cover of Sp_2n over a p-adic
field: root datum combinatorics, cover arithmetic, torus Hecke identities
with a counting oracle, and supersingular-triple bookkeeping.

The package root exports no names: import a layer as
`metaplectic.<layer>` (rootdata, cover, characters, weights, hecke,
oracle, classify, selftest, cli), so that loading one layer loads only
what it needs."""

__version__ = "0.1.0"
