"""The end-to-end framework driver (paper Figure 2).

:func:`repro.feedback.study.run_study` runs the whole experimental matrix —
every benchmark at every optimization level, with profiling, semantic
checking and sequence detection — and returns a
:class:`~repro.feedback.study.StudyResult` from
which every table and figure of the paper regenerates.
"""
