"""Program graphs and the analyses defined over them.

The *program graph* is the representation the optimizer and the sequence
analyzer work on: a directed graph whose nodes each hold a set of operations
that execute in the same machine cycle (VLIW semantics: all operations in a
node read their sources at the start of the cycle and write results at the
end).  A freshly built graph has one operation per node — the sequential
schedule implied by the source program; percolation scheduling then compacts
it.
"""
