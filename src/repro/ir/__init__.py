"""Three-address intermediate representation.

This package is the common currency of the whole toolchain: the front end
lowers mini-C into linear three-address code (:class:`~repro.ir.function.Function`
objects holding :class:`~repro.ir.instr.Instruction` lists), the CFG builder
turns that into a program graph, and every later stage (simulator, optimizer,
sequence analyzer, ASIP selector) consumes one of those two forms.

The design mirrors the paper's step 1 output: "a version of the Gnu C
Compiler (gcc) which was modified to generate a 3-address code".
"""
