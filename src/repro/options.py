"""The values of the pipeline's one named configuration axis: the
runtime collectors (``--gc``).

A leaf module with no imports: the CLI offers these as ``choices`` while
it builds the parser for every subcommand, so reading them must load
nothing of the runtime.  :mod:`repro.semantics.gc` owns the behaviour and
re-exports the names.
"""

#: Selectable collector names, in CLI ``--gc`` order.
COLLECTORS = ("mark-sweep", "liveness", "copying")
