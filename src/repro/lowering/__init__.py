"""AST-to-IR lowering: mini-C programs become linear three-address code.

The produced code preserves *source order* — operations appear exactly in the
sequence implied by the sequential statements of the program.  This is the
"no optimization" (level 0) baseline the paper contrasts against: earlier
sequence-detection work "were restricted to the operation ordering created by
the compiler, which is derived from the sequential statements in the
high-level language".
"""
