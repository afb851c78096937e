"""The paper's §4 experiments, one module per table/figure.

Every module exposes a ``run_*`` function returning structured result
objects, plus a ``table_rows()``-style helper the benchmarks print.  The
mapping to the paper:

===========================================  =====================
module                                        paper artifact
===========================================  =====================
:mod:`~repro.experiments.tcp_retransmission`  Table 1
:mod:`~repro.experiments.tcp_delayed_ack`     Table 2 (+ the global
                                              fault-counter probe)
:mod:`~repro.experiments.tcp_keepalive`       Table 3
:mod:`~repro.experiments.tcp_zero_window`     Table 4
:mod:`~repro.experiments.tcp_reordering`      §4.1 Experiment 5
:mod:`~repro.experiments.gmp_packet_interruption`  Table 5
:mod:`~repro.experiments.gmp_partition`       Table 6
:mod:`~repro.experiments.gmp_proclaim`        Table 7
:mod:`~repro.experiments.gmp_timer`           Table 8
===========================================  =====================

Figure 4's series come from the Table 1/2 runs via
:func:`repro.analysis.series.retransmission_series`.

What the paper claims about these results is declared once, in
:mod:`repro.experiments.claims`, which this package does not import
(``repro all`` never loads it).
"""
