"""Reference models written from the RFC text, not from :mod:`repro.tcp`.

Each model is a small pure function of what the specification says an
implementation must do, so a check against it is a check against
something other than the code under test.  No module here imports from
:mod:`repro.tcp` (a test pins that):

- :mod:`repro.oracle.models.rto` -- RFC 6298's retransmission timer.
"""
