"""The DSP benchmark suite of paper Table 1.

Twelve benchmarks re-written in mini-C from their Table-1 descriptions
(several, as in the paper, adapted from Embree & Kimble's *C Language
Algorithms for Digital Signal Processing*): FIR and IIR filters, FFT-based
power spectral estimation and 2:1 interpolation, DCT image compression,
histogram flattening, Gaussian smoothing, edge detection, and four small
integer stream filters (sewha, dft, bspline, feowf).

Each benchmark module exposes its mini-C ``SOURCE``, metadata matching
Table 1, and a deterministic input generator; :mod:`repro.suite.registry`
collects them and :mod:`repro.suite.runner` runs the full
compile → optimize → profile → detect pipeline on one benchmark.
"""
