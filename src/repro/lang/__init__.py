"""Mini-C front end.

This package stands in for the paper's "version of the Gnu C Compiler (gcc)
which was modified to generate a 3-address code" (Figure 2, step 1).  It
implements a C subset rich enough for the twelve DSP benchmarks of Table 1:
``int``/``float`` scalars, fixed-size 1-D/2-D arrays, functions with scalar
and array parameters, the full C expression grammar over those types, and
``if``/``while``/``for``/``break``/``continue``/``return`` control flow.

The public entry point is :func:`compile_source` in :mod:`repro.frontend`,
which chains the lexer, parser, semantic analyzer and lowering.
"""
