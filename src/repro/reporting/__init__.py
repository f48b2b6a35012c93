"""Rendering of the paper's tables and figures as text artifacts.

:mod:`repro.reporting.tables` regenerates Tables 1-3;
:mod:`repro.reporting.figures` regenerates the Figure 3-6 series (as
aligned numeric columns plus ASCII bar charts — the information content of
the paper's plots, printable in a terminal or CI log).
"""
