"""Static and trace analysis for the reproduction's invariants.

- :mod:`repro.analysis.engine` and :mod:`repro.analysis.rules`: the
  ``repro lint`` AST linter;
- :mod:`repro.analysis.determinism`: the reference scenario's canonical
  trace, run twice and against golden digests by the tests;
- :mod:`repro.analysis.hb`: the happens-before race detector, armed as
  the ``hb_race`` monitor by ``repro chaos --hb``.

Nothing is re-exported here: a chaos run imports ``determinism`` alone
and must not compile the linter with it.
"""
